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
