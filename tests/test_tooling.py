"""Static checks of the package source that need no linter."""

import ast
import pathlib

import pytest

import jacobigeom

_PACKAGE = pathlib.Path(jacobigeom.__file__).parent
_MODULES = sorted(p for p in _PACKAGE.glob("*.py")
                  if p.name != "__init__.py")  # __init__ imports to re-export
# every file of the repository that may name a private helper of the package
_SOURCES = sorted(p for d in ("src", "tests", "bench", "demos")
                  for p in (pathlib.Path(__file__).resolve().parents[1] / d).rglob("*.py"))


def _unused_imports(source):
    """The names a module's imports bind and no expression of it reads, sorted."""
    tree = ast.parse(source)
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_import_check_sees_a_leftover():
    source = ("import os.path\nimport numpy as np\nfrom .linalg import _row, symmetrize\n"
              "np.eye(_row)\n")
    assert _unused_imports(source) == ["os", "symmetrize"]


def test_modules_are_found():
    assert {"heisenberg", "jacobi", "metrics", "forms"} <= {p.stem for p in _MODULES}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def _private_definitions(source):
    """The private functions, methods and module constants a module defines, sorted."""
    tree = ast.parse(source)
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(m.name for m in node.body if isinstance(m, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return sorted(n for n in names if n.startswith("_") and not n.endswith("__"))


def _names_read(source):
    """The names a module reads: loaded names and attributes, imported names, and string
    constants (``monkeypatch.setattr(module, "_name", ...)``)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store):
            read.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def _unread(defining, sources):
    """The private names ``defining`` defines that none of ``sources`` reads."""
    read = set().union(*(_names_read(s) for s in sources))
    return [name for name in _private_definitions(defining) if name not in read]


def test_unread_private_check_sees_a_leftover():
    # the shape of leftovers a refactor leaves: a helper, a method and a constant
    # that nothing reads any more, next to ones that are still read
    module = ("_UNIT = 1.0\n_CHUNK = 4\n\ndef _times_i(t):\n    return t\n\n"
              "def _pair(a):\n    return a * _UNIT\n\nclass _Spec:\n"
              "    def diagonal(self):\n        pass\n\n    def _scale(self):\n"
              "        return _pair(2)\n\n    def __post_init__(self):\n        pass\n")
    user = "from m import _Spec\n_Spec()._other()\n"
    assert _unread(module, [module, user]) == ["_CHUNK", "_scale", "_times_i"]
    assert _unread(module, [module, user, "x._scale()\nsetattr(m, '_CHUNK', 3)\n"]) == [
        "_times_i"]


@pytest.mark.parametrize("path", _MODULES + [_PACKAGE / "__init__.py"], ids=lambda p: p.stem)
def test_every_private_name_is_read_somewhere(path):
    assert _unread(path.read_text(), [p.read_text() for p in _SOURCES]) == []


def _dead_rows(tables, sources):
    """Per module-level dict named in ``tables``, its keys, sorted, that no call of ``sources``
    passes as its first argument and no other of the tables holds in a value: rows nothing
    reads.  ``_unread`` cannot see them, as a key is no name."""
    rows, held, named = {}, {}, set()
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
                named.add(node.args[0].value)
            elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in tables:
                table = node.targets[0].id
                rows[table] = [key.value for key in node.value.keys]
                held[table] = {c.value for value in node.value.values for c in ast.walk(value)
                               if isinstance(c, ast.Constant)}
    return {table: sorted(key for key in keys if key not in named.union(
        *(values for other, values in held.items() if other != table)))
        for table, keys in rows.items()}


def test_dead_row_check_sees_a_leftover():
    # a row named only by an unrelated call's later argument, and a row nothing names
    source = ('_KINDS = {"xjn": ("mmrr",), "rr": ("rr",), "u": ("r",)}\n'
              '_SPACES = {"xjn": (None, "xjn"), "vu": (None, "u")}\n'
              'def f(p):\n    return _point("xjn", p), _draw(p, "rr")\n')
    assert _dead_rows({"_KINDS", "_SPACES"}, [source]) == {"_KINDS": ["rr"], "_SPACES": ["vu"]}


def test_every_kind_and_space_is_named_outside_its_table():
    # the reader's kinds (linalg._KINDS) and the point check's spaces (jacobi._SPACES)
    sources = [p.read_text() for p in _MODULES]
    assert _dead_rows({"_KINDS", "_SPACES"}, sources) == {"_KINDS": [], "_SPACES": []}


def _typed_reads(source, module):
    """The ``module.function`` of each ``np.asarray`` call of ``source`` that is given a dtype,
    sorted: a read of an argument beside the one cast rule, ``linalg._cast``, which refuses a
    complex entry of a real argument where ``np.asarray(a, dtype=float)`` drops it."""
    found = []
    for top in ast.parse(source).body:
        found += [f"{module}.{getattr(top, 'name', '')}" for node in ast.walk(top)
                  if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "asarray"
                  and (len(node.args) > 1 or any(k.arg == "dtype" for k in node.keywords))]
    return sorted(found)


# the reads with a dtype that stay, each with its reason
_TYPED_READS = {
    "linalg._row": "the rows of pq_from_lm and lm_from_pq, whose M is unchecked by design",
    "numdiff._flatten": "the test suite's finite-difference route, which validates nothing",
    "numdiff._unflatten": "as numdiff._flatten",
}


def test_typed_read_check_sees_a_leftover():
    source = ("import numpy as np\n\ndef _spd(a):\n    return np.asarray(a, dtype=float)\n\n"
              "def _row(v, dtype=float):\n    return np.asarray(v, dtype)\n\n"
              "def _cast(a):\n    return np.asarray(a).astype(complex)\n")
    assert _typed_reads(source, "m") == ["m._row", "m._spd"]


def test_every_typed_read_is_allowed():
    found = [r for p in _MODULES for r in _typed_reads(p.read_text(), p.stem)]
    assert sorted(set(found)) == sorted(_TYPED_READS)
