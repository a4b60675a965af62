"""The benchmark's tracer wraps package functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing
