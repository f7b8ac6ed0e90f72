"""The traced benchmark wraps program functions by (module, name); a rename
breaks ``bench/run.py --trace 1``, so every hook must resolve."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_spans_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    traced = importlib.import_module("traced")
    assert traced.SPANS
    for span, (module, name) in traced.SPANS.items():
        target = getattr(importlib.import_module(f"emoskit.{module}"), name, None)
        assert callable(target), f"{span}: emoskit.{module}.{name} is not a callable"
