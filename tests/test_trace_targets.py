"""The benchmark's layer tracer (perfbench/spans.py) wraps colorlab
functions by name.  A refactor that renames or removes one would make its
layer unmeasurable, so every target must still resolve."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrap_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    result, _, recorded = spans.record(lambda: "done")
    assert result == "done"
    assert recorded == []
