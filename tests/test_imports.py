"""Every imported name is used by its module, every exported one exists,
every private top-level name of the package has a caller, only
``ecgarr.metrics`` names the beat-match window, and only ``ecgarr.wfdb_io``
builds the record objects.

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
PACKAGE = sorted((ROOT / "src" / "ecgarr").glob("*.py"))
MODULES = ["ecgarr" if p.stem == "__init__" else f"ecgarr.{p.stem}" for p in PACKAGE]


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


def uncalled_private_names(paths):
    """[(file name, name)] of the private top-level names (one leading
    underscore) the modules at paths define and never read, as a name or
    an attribute, outside the statement that defines them."""
    trees = [(path, ast.parse(path.read_text())) for path in paths]
    reads = [(id(n), n.id if isinstance(n, ast.Name) else n.attr)
             for _, tree in trees for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
             or isinstance(n, ast.Attribute)]
    found = []
    for path, tree in trees:
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                names = [n.id for n in ast.walk(statement)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            inside = {id(n) for n in ast.walk(statement)}
            found += [(path.name, name) for name in names
                      if name.startswith("_") and not name.startswith("__")
                      and not any(read == name and node not in inside for node, read in reads)]
    return found


def test_every_private_name_has_a_caller():
    # a helper its last caller left behind fails here, not only in review
    assert uncalled_private_names(PACKAGE) == []


def test_the_scan_finds_an_uncalled_private_name(tmp_path):
    # _left calls itself only, which is no caller; _LIMIT is read inside
    # _left and _used and _Kept from the other module
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text("_LIMIT = 3\n_used = 1\n\n\ndef _left(n):\n    return _left(n - 1) + _LIMIT"
                     "\n\n\nclass _Kept:\n    pass\n")
    second.write_text("import first\n\nprint(first._used, first._Kept)\n")
    assert uncalled_private_names([first, second]) == [("first.py", "_left")]


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


OBJECT_READER = {"ingest_record", "EcgRecord", "Annotation"}


def object_reader_calls(paths):
    """[(file name, line, name)] of each call of an OBJECT_READER name, by
    name or as an attribute, in the modules at paths."""
    return [(path.name, node.lineno, name)
            for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            for name in [getattr(node.func, "id", getattr(node.func, "attr", None))]
            if name in OBJECT_READER]


def test_only_wfdb_io_builds_record_objects():
    # every command reads a record as read_record's arrays; the scan does
    # see the constructor calls where they are
    assert object_reader_calls(p for p in PACKAGE if p.stem != "wfdb_io") == []
    assert {name for _, _, name in object_reader_calls([ROOT / "src/ecgarr/wfdb_io.py"])} \
        == {"EcgRecord", "Annotation"}
