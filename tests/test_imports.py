"""Every imported name is used by its module, every exported one exists,
and only ``ecgarr.metrics`` names the beat-match window.

An import that only re-exports a name, or that keeps a name where
another tool looks it up, says so with ``# noqa: F401`` on the name's
line or on the first line of its import statement.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
MODULES = ["ecgarr" if p.stem == "__init__" else f"ecgarr.{p.stem}"
           for p in sorted((ROOT / "src" / "ecgarr").glob("*.py"))]


def unused_imports(path, honour_noqa=True):
    """[(line, name)] of the names path imports and never uses; with
    honour_noqa False, also those a ``# noqa: F401`` keeps."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if honour_noqa and any("# noqa: F401" in lines[i - 1]
                                       for i in (alias.lineno, node.lineno)):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # a name listed in __all__ is exported, which is a use
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport re  # noqa: F401\n"
                      "from json import dumps, loads\n\nprint(loads)\n")
    assert unused_imports(module) == [(1, "os"), (3, "dumps")]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a module without __all__ exports nothing by name
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_only_metrics_names_the_match_window():
    # one pairing rule: every matcher goes through ecgarr.metrics
    naming = [str(p.relative_to(ROOT)) for p in sorted((ROOT / "src").rglob("*.py"))
              if "MATCH_WINDOW_MS" in p.read_text()]
    assert naming == ["src/ecgarr/metrics.py"]
