"""Static checks of the package source that need no linter."""

import ast
import pathlib

import pytest

import jacobigeom

_MODULES = sorted(p for p in pathlib.Path(jacobigeom.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")  # __init__ imports to re-export


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
