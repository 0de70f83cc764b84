"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def default_recursion_limit():
    """Run the test under CPython's default recursion limit of 1000."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)
