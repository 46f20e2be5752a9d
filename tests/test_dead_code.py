"""No dead code in the package: every import is used, every private
module-level function or class is referenced somewhere in the package,
and every name a module-level assignment binds is read somewhere in the
package or listed in an ``__all__``.  The package also stays within its
2,000-line budget, no two test modules define a test of the same
name, as a check is made in one place, and every strict xfail in the
tests names the ROADMAP item that tracks its defect.  The modules that
form the ratio and map it, ``invariants.py`` and ``centroaffine.py``,
hold no ``**``: a power such as d**2 underflows where the quotients it
stands for do not.

The checks read the source with ``ast``.  A name counts as used in a
module if it is read there as a name or listed in a literal ``__all__``.
A private name (one leading underscore, not a dunder), and any name a
module-level assignment binds, counts as referenced if any module of the
package reads it as a name or as an attribute, or lists it in ``__all__``.
"""

import ast
import os
import re

import pytest

import titeica

SRC = os.path.dirname(os.path.abspath(titeica.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
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
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def listed_names(tree):
    """The entries of a literal module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            yield from (elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(listed_names(tree))


def referenced_names(tree):
    """Names the module reads, as a name or as an attribute, or lists in ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    names.update(listed_names(tree))
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


def assigned_names(tree):
    """Every name bound by a module-level assignment, dunders aside."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not (name.id.startswith("__") and name.id.endswith("__")):
                    yield name.id


def test_every_module_level_assignment_is_read():
    trees = {module: parse(module) for module in MODULES}
    referenced = set().union(*map(referenced_names, trees.values()))
    dead = [f"{module}: {name}" for module, tree in trees.items() for name in assigned_names(tree)
            if name not in referenced]
    assert dead == []


@pytest.mark.parametrize("module", ["invariants.py", "centroaffine.py"])
def test_no_power_where_the_ratio_is_formed(module):
    powers = [node.lineno for node in ast.walk(parse(module))
              if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)]
    assert powers == []


def test_package_stays_within_its_line_budget():
    # ROADMAP aim 2 asks for the same results from the least code, within
    # 2,000 lines for the whole package.
    lines = 0
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            lines += len(fh.readlines())
    assert lines <= 2000


def test_no_two_test_modules_define_a_test_of_the_same_name():
    modules = {}
    for module in sorted(os.listdir(TESTS)):
        if module.startswith("test_") and module.endswith(".py"):
            with open(os.path.join(TESTS, module), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), module)
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                    modules.setdefault(node.name, []).append(module)
    assert {name: found for name, found in modules.items() if len(found) > 1} == {}


def test_every_strict_xfail_names_a_roadmap_item():
    # ROADMAP item 3: a check that fails at HEAD is a strict xfail that names its item.
    unnamed = []
    for module in sorted(os.listdir(TESTS)):
        if module.endswith(".py"):
            with open(os.path.join(TESTS, module), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), module)
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "xfail":
                    args = {kw.arg: getattr(kw.value, "value", None) for kw in node.keywords}
                    if args.get("strict") is True and not re.search(r"\bROADMAP item \d+", str(args.get("reason"))):
                        unnamed.append(f"{module}:{node.lineno}")
    assert unnamed == []
