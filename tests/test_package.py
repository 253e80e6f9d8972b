"""Package hygiene: every module uses each name it imports, and no module
dispatches on a generator's class."""

import ast
from pathlib import Path

import pytest

import lbdiv
from lbdiv import SetFunction

MODULES = sorted(p for p in Path(lbdiv.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "annotations":  # from __future__
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import math\nimport json\nfrom os import path, sep\njson.dumps(sep)\n"
    assert unused_imports(source) == [(1, "math"), (3, "path")]


# every built-in generator; SetFunction itself may still be checked against
GENERATOR_CLASSES = {name for name, obj in vars(lbdiv).items()
                     if isinstance(obj, type) and issubclass(obj, SetFunction)
                     and obj is not SetFunction}


def generator_dispatch(source):
    """(line, what) for each `chain_values` definition and each isinstance
    call against a SetFunction subclass: callers go through lovasz_batch."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "chain_values":
            found.append((node.lineno, "chain_values"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            for kind in getattr(kinds, "elts", [kinds]):
                name = getattr(kind, "id", getattr(kind, "attr", None))
                if name in GENERATOR_CLASSES:
                    found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dispatch_on_generator_class(path):
    assert generator_dispatch(path.read_text(encoding="utf-8")) == []


def test_detects_dispatch_on_generator_class():
    source = ("class A:\n    def chain_values(self, order): pass\n"
              "isinstance(f, ExplicitTable)\n"
              "isinstance(f, (int, submodular.GraphCut))\n"
              "isinstance(f, SetFunction)\n")
    assert generator_dispatch(source) == [
        (2, "chain_values"), (3, "ExplicitTable"), (4, "GraphCut")]
