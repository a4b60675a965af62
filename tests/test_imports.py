"""Every imported name is used by its module, every exported one exists,
every private top-level name of the package has a caller, only
``ecgarr.metrics`` names the beat-match window, only ``ecgarr.wfdb_io``
builds the record objects, and only ``ecgarr.textio`` converts the
numbers of a data file.

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


def _defined_names(statement):
    """The names a top-level statement defines: a def's or class's, an
    assignment's targets, or a from-import's names."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        return [n.id for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    if isinstance(statement, ast.ImportFrom):
        return [alias.asname or alias.name for alias in statement.names]
    return []


def unread_names(paths, chosen):
    """[(file name, name)] of the top-level names chosen(tree) picks in
    each module at paths that no module reads, as a name or an attribute,
    outside the statement that defines them.  An import or an __all__
    entry is no read."""
    trees = [(path, ast.parse(path.read_text())) for path in paths]
    reads = [(id(n), n.id if isinstance(n, ast.Name) else n.attr)
             for _, tree in trees for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
             or isinstance(n, ast.Attribute)]
    found = []
    for path, tree in trees:
        kept = set(chosen(tree))
        for statement in tree.body:
            inside = {id(n) for n in ast.walk(statement)}
            found += [(path.name, name) for name in _defined_names(statement)
                      if name in kept
                      and not any(read == name and node not in inside for node, read in reads)]
    return found


def uncalled_private_names(paths):
    """unread_names of the private names (one leading underscore)."""
    return unread_names(paths, lambda tree: [
        n for s in tree.body for n in _defined_names(s)
        if n.startswith("_") and not n.startswith("__")])


def _public(tree):
    """A module's __all__, or without one each def and class it defines
    whose name has no leading underscore."""
    for statement in tree.body:
        if "__all__" in _defined_names(statement):
            return [c.value for c in ast.walk(statement.value) if isinstance(c, ast.Constant)]
    return [s.name for s in tree.body if isinstance(s, (ast.FunctionDef, ast.ClassDef))
            and not s.name.startswith("_")]


def unread_public_names(paths):
    """{module.name} of the public names that no module at paths reads;
    what __init__ re-exports counts in the module that defines it."""
    return {f"{Path(file).stem}.{name}" for file, name in unread_names(paths, _public)
            if file != "__init__.py"}


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


# The public names no package code reads, each with the ROADMAP item that
# removes or uses it.  These stay for the benchmark: its stream set-up and
# loop call them, or a tracer target wraps them.
BENCHMARK_ONLY = {
    # item 1 moves stream set-up onto the beat table; item 2 removes them
    "features.build_feature_vector", "features.window_beat",
    # item 1 drops their tracer targets; item 2 removes them
    "dsp.dwt_decompose", "dsp.dwt_reconstruct", "mlp.mse",
    "fixedpoint.rne_shift_array", "fixedpoint.saturate_array",
    "activation.ntanh_fixed_raw_array",
    # item 1 traces the trainer's _platanh_and_slope in their place
    "activation.platanh_derivative", "mlp.platanh_derivative",
    # item 2 keeps them for acceptance criteria 4 and 3
    "mlp.gradients", "activation.platanh_fixed_raw_array",
    # the one-beat inference that the stream workload times
    "mlp.predict",
    # item 16 removes the object path once item 1 frees it
    "wfdb_io.ingest_record", "wfdb_io.parse_annotations",
}
# and those only tests read: item 4 gives load_pca_model its caller
TESTS_ONLY = {"features.load_pca_model"}


def _benchmark_names():
    """Every identifier and string the benchmark's sources hold."""
    return {getattr(n, attr) for path in (ROOT / "perfbench").glob("*.py")
            for n in ast.walk(ast.parse(path.read_text()))
            for attr in ("id", "attr", "name", "value") if isinstance(getattr(n, attr, None), str)}


def test_every_public_name_package_code_never_reads_is_listed():
    # a public name its last package caller left behind fails here
    assert unread_public_names(PACKAGE) == BENCHMARK_ONLY | TESTS_ONLY
    reached = _benchmark_names()
    assert {n for n in BENCHMARK_ONLY if n.split(".")[1] not in reached} == set()
    assert {n for n in TESTS_ONLY if n.split(".")[1] in reached} == set()


def test_the_scan_finds_an_unread_public_name(tmp_path):
    # with __all__, only its entries are public, and the entry is no read;
    # without one, each public def and class
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text('__all__ = ["left", "used"]\n\n\ndef left():\n    return left()\n\n\n'
                     'def used():\n    pass\n\n\ndef hidden():\n    pass\n')
    second.write_text("import first\n\n\ndef solo():\n    return first.used()\n\n\n"
                      "class Kept:\n    pass\n\n\nKept()\n")
    assert unread_public_names([first, second]) == {"first.left", "second.solo"}


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


# the data-file readers, by module; each number they read goes through ecgarr.textio
READERS = {
    "wfdb_io": ("parse_header", "_parse_gain_field"),
    "experiment": ("_read_peaks",),
    "features": ("load_features", "load_pca_model"),
    "mlp": ("load_model",),
}


def builtin_conversions(path, readers):
    """[(function, line)] of each use of the builtin int or float in the
    bodies of the top-level functions readers of the module at path, and
    of each private top-level function they reach by name."""
    defs = {s.name: s for s in ast.parse(path.read_text()).body
            if isinstance(s, ast.FunctionDef)}
    todo, seen, found = list(readers), set(), []
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in (n for statement in defs[name].body for n in ast.walk(statement)):
            if isinstance(node, ast.Name) and node.id in ("int", "float"):
                found.append((name, node.lineno))
            elif isinstance(node, ast.Name) and node.id.startswith("_") \
                    and node.id in defs and node.id not in seen:
                todo.append(node.id)
    return sorted(found)


@pytest.mark.parametrize("module", sorted(READERS))
def test_only_textio_converts_a_data_file_number(module):
    # one number rule: a reader that called int or float would accept
    # "1_0" or "nan" again
    path = ROOT / "src" / "ecgarr" / f"{module}.py"
    assert builtin_conversions(path, READERS[module]) == []


def test_the_scan_finds_a_builtin_conversion(tmp_path):
    # _helper is reached from reader; other is not a reader; annotations
    # are no conversion
    module = tmp_path / "module.py"
    module.write_text("def reader(t: str) -> int:\n    return _helper(t)\n\n\n"
                      "def _helper(t):\n    return [int(t), max(map(float, t))]\n\n\n"
                      "def other(t):\n    return int(t)\n")
    assert builtin_conversions(module, ["reader"]) == [("_helper", 6), ("_helper", 6)]
    with pytest.raises(KeyError):
        builtin_conversions(module, ["gone"])


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
