"""Every entry point the benchmark traces still exists.

The traced benchmark wraps functions and methods by name
(``perfbench/layers.py``) and only notes a missing one on stderr, so a
refactor that renames or moves one would silently drop its spans.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    layers = importlib.import_module("layers")
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        assert tracer.missing == []
    finally:
        tracer.uninstall()
