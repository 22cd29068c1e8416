"""The names that the benchmark's traced run wraps exist in the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve_to_callables(monkeypatch):
    # loaded without writing bytecode next to it and without installing
    # the tracer
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("traced_layers", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS and tracing.KERNEL
    for name, (module, attr) in tracing.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), name
    for name, (cls, attr) in tracing.KERNEL.items():
        assert callable(getattr(cls, attr, None)), name
