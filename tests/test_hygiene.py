"""Source hygiene: every module-level import in the package is used.

A name bound by a top-level import must be referenced somewhere in its
module, or, in `__init__.py`, be re-exported through `hamkit.__all__`.
"""
import ast
import pathlib

import pytest

import hamkit

PACKAGE = pathlib.Path(hamkit.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree):
    """(bound name, line) for each name a top-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _referenced_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree)
    if path.name == "__init__.py":
        used |= set(hamkit.__all__)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"
