"""The benchmark's tracer wraps package functions by name; they must
exist, and a name the package imports only for the tracer must be one
it wraps."""

import importlib
import importlib.util
from pathlib import Path

from test_imports import unused_imports

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_trace_target_resolves():
    missing = [f"{module}.{attr}" for module, attr, _, _ in _targets()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing


def test_every_import_kept_by_noqa_is_a_trace_target():
    # once the tracer stops wrapping a name, the import it kept fails here
    targets = {(module, attr) for module, attr, _, _ in _targets()}
    kept = []
    for path in sorted((ROOT / "src" / "ecgarr").glob("*.py")):
        module = "ecgarr" if path.stem == "__init__" else f"ecgarr.{path.stem}"
        kept += [(module, name) for _, name in unused_imports(path, honour_noqa=False)]
    assert kept
    assert [entry for entry in kept if entry not in targets] == []
