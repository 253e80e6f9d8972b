"""Package hygiene: the public names are pinned, every module and test file
uses each name it imports, no module dispatches on a generator's class,
and text is parsed in `dataio` alone."""

import ast
import types
from pathlib import Path

import pytest

import lbdiv
from lbdiv import SetFunction

MODULES = sorted(p for p in Path(lbdiv.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: (
    p.name if p in MODULES else f"tests/{p.name}"))
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


# the n! enumerations live in the tests as oracles; src/ reads 2^n tables
ENUMERATION_NAMES = {"permutations", "factorial"}


def enumeration_uses(source):
    """(line, name) for each import, name or attribute that is
    `permutations` or `factorial`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        else:
            names = [getattr(node, "id", getattr(node, "attr", None))]
        found += [(node.lineno, name) for name in names
                  if name in ENUMERATION_NAMES]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES + [Path(lbdiv.__file__)],
                         ids=lambda p: p.name)
def test_no_enumeration_of_orderings(path):
    assert enumeration_uses(path.read_text(encoding="utf-8")) == []


def test_detects_enumeration_of_orderings():
    source = ("import itertools\nfrom math import factorial, comb\n"
              "itertools.permutations(range(3))\n"
              "from itertools import permutations as perms\n"
              "math.factorial(4) + comb(4, 2)\n")
    assert enumeration_uses(source) == [
        (2, "factorial"), (3, "permutations"), (4, "permutations"),
        (5, "factorial")]


# text formats are read in dataio alone; a model's from_json is persistence
PARSER_CALLS = {"loads", "parse_csv_matrix"}
PARSING_MODULES = {"dataio.py": PARSER_CALLS, "mallows.py": {"loads"}}


def parser_calls(source):
    """(line, name) for each call of `json.loads` or `parse_csv_matrix`,
    however it was imported."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in PARSER_CALLS:
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_text_is_parsed_in_dataio(path):
    allowed = PARSING_MODULES.get(path.name, set())
    assert [call for call in parser_calls(path.read_text(encoding="utf-8"))
            if call[1] not in allowed] == []


def test_detects_a_parser_call():
    source = ("import json\nfrom json import loads\n"
              "json.loads('[]') + loads('[]')\n"
              "rows, _ = dataio.parse_csv_matrix(text)\n"
              "json.dumps([]); parse_vector(text)\n")
    assert parser_calls(source) == [
        (3, "loads"), (3, "loads"), (4, "parse_csv_matrix")]


# every addition to or removal from the public API shows up in this list
PUBLIC_NAMES = [
    "CardinalityConcave", "ClusteringResult", "ExplicitTable",
    "ExtendedDensity", "ExtendedLovaszMallows", "GraphCut", "LovaszMallows",
    "Modular", "PartialOrder", "Permutation", "ScoreMatrix", "SetFunction",
    "Sum", "TieError", "TieRule", "aggregation_objective", "auc_loss",
    "averaged_subgradient", "confidence_bound", "estimate_log_Z",
    "extended_log_density", "extreme_subgradient", "feature_inference",
    "from_descriptor", "has_distinct_extreme_points", "induced_ordering",
    "is_monotone", "is_submodular", "kendall_tau", "lb_divergence",
    "lb_divergence_batch", "lb_kmeans", "log_density_unnormalized",
    "lovasz_extension", "map_permutation", "mean_ordering", "ndcg_loss",
    "partial_order_distortion", "relabel_scores", "spearman_footrule",
]


def test_public_names_are_pinned():
    public = sorted(name for name, obj in vars(lbdiv).items()
                    if not name.startswith("_")
                    and not isinstance(obj, types.ModuleType))
    assert public == PUBLIC_NAMES
