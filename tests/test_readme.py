"""The README's Python quick start runs, and its printed comments are true.

Each ```python block of README.md runs in a fresh namespace.  A ``print(...)``
line that ends in ``# text`` must print exactly ``text``, so a pinned number
quoted there cannot go stale silently.
"""

import builtins
import io
import re
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
COMMENTED_PRINT = re.compile(r"^\s*print\(.*\)\s*#\s*(.*?)\s*$")


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block(block):
    # print writes to a buffer per source line, so each commented line is
    # matched with what that line printed.
    printed: dict[int, io.StringIO] = {}

    def capture(*args, **kwargs):
        line = sys._getframe(1).f_lineno
        builtins.print(*args, **kwargs, file=printed.setdefault(line, io.StringIO()))

    exec(compile(block, str(README), "exec"), {"print": capture})
    expected = {
        lineno: m.group(1)
        for lineno, text in enumerate(block.splitlines(), 1)
        if (m := COMMENTED_PRINT.match(text))
    }
    got = {lineno: printed[lineno].getvalue() for lineno in expected if lineno in printed}
    assert got == {lineno: text + "\n" for lineno, text in expected.items()}
