"""No dead code in the package: every import is used, and every private
module-level function or class is referenced somewhere in the package.

Both checks read the source with ``ast``.  A name counts as used in a
module if it is read there as a name or listed in a literal ``__all__``;
``from __future__ import annotations`` binds nothing.  A private name
(one leading underscore, not a dunder) counts as referenced if any module
of the package reads it as a name or as an attribute.
"""

import ast
import os

import pytest

import titeica

SRC = os.path.dirname(os.path.abspath(titeica.__file__))
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def parse(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), name)


def imported_names(tree):
    """(bound name, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return used


def referenced_names(tree):
    names = used_names(tree)
    names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return names


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = parse(module)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert unused == [], f"{module} imports names it never uses"


def test_every_private_function_and_class_is_referenced():
    trees = {module: parse(module) for module in MODULES}
    referenced = set().union(*map(referenced_names, trees.values()))
    dead = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and is_private(node.name) and node.name not in referenced
    ]
    assert dead == []
