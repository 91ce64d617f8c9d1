"""Package hygiene by the standard library's ``ast``: no unused import, no
unreferenced private name, no local that is set but never read and no
``__all__`` entry that the module does not bind.

A deletion that leaves part of what it removes behind, a constant, a
helper or a local, fails here.
"""

import ast
from pathlib import Path

import pytest

import fanbeam

MODULES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(Path(fanbeam.__file__).parent.glob("*.py"))}


def loaded(tree):
    """Bare names read anywhere in ``tree``."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Load, ast.Del))}


def referenced(tree):
    """Names read in ``tree``, as bare names, as attributes or as names imported from another module."""
    names = loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


# the package's re-exports are the imports of __init__.py
@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = MODULES[module]
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    assert sorted(set(bound) - loaded(tree)) == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_private_name_is_referenced(module):
    everywhere = set().union(*(referenced(tree) for tree in MODULES.values()))
    private = [name for name in module_level_names(MODULES[module]) if name.startswith("_") and not name.startswith("__")]
    assert sorted(set(private) - everywhere) == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_local_is_read(module):
    unread = []
    for fn in ast.walk(MODULES[module]):
        if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            stored = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            unread += [(getattr(fn, "name", "<lambda>"), name) for name in sorted(stored - loaded(fn) - {"_"})]
    assert unread == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_export_is_bound(module):
    tree = MODULES[module]
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    exports = [
        name.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in node.value.elts
    ]
    assert sorted(set(exports) - set(module_level_names(tree)) - imported) == []
