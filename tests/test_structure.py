"""Structure tripwires over the library's source, by the standard library's
ast alone: no private top-level name outlives its last library caller, and
no module keeps an import it does not use."""

import ast
from pathlib import Path

import pytest

import singlat

TREES = {p: ast.parse(p.read_text(), filename=str(p))
         for p in sorted(Path(singlat.__file__).parent.glob("*.py"))}


def _top_level_names(tree):
    """(name, node) for each def, class and assigned name of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _references(tree, skip=None):
    """Every name a module reads, attribute names and names imported from
    a sibling module included, outside the subtree skip."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    for n in ast.walk(tree):
        if id(n) in inside:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (a.name for a in n.names)


READS = {p: set(_references(tree)) for p, tree in TREES.items()}


@pytest.mark.parametrize("path", TREES, ids=lambda p: p.stem)
def test_private_names_have_a_library_caller(path):
    # a reference inside the name's own definition (recursion) is no caller
    orphans = [name for name, node in _top_level_names(TREES[path])
               if name.startswith("_") and not name.startswith("__")
               and name not in _references(TREES[path], node)
               and not any(name in READS[p] for p in TREES if p != path)]
    assert not orphans, (f"{path.name}: {orphans} referenced nowhere "
                         f"in the library")


def _imports(tree):
    """(bound name, line) for each import of a module but __future__'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield (a.asname or a.name), node.lineno


@pytest.mark.parametrize("path", [p for p in TREES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    # __init__.py imports to re-export
    tree = TREES[path]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = [(name, line) for name, line in _imports(tree)
              if name not in read]
    assert not unused, f"{path.name}: unused imports {unused}"
