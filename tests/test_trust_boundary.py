"""Only ``core`` knows how a system is recorded as valid.

A construction that is valid by construction goes through
``core._valid`` and proves it in its docstring; no other module in
``src/flagmaps`` mentions the attribute that records it.  Likewise only
the census, which records the Aut ties of a class, and ``symmetry``,
which reads them, mention the ties attribute; ``core._search`` takes
permutation tables and a flag instead.  And only ``perms``, which
defines it, ``families``, whose ``GroupMap`` is the one expansion of a
group, and the package's exports name ``generate_closure``: Aut is held
as images and generators and never expanded.  The census streams: no
function in ``src/flagmaps`` reads a ``stability_census`` into a
collection, whether by a collection call, a comprehension or an
unpacking display, so no census is held in memory; ``verify.run_all``
gives each record to the folds of its criteria as the census yields it.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "flagmaps").glob("*.py"))
ATTRIBUTE = "_validated"
TIES = "_ties"
EXPANSION = "generate_closure"
EXPANDERS = ("perms.py", "families.py", "__init__.py")


def mentions(text: str, attribute: str = ATTRIBUTE) -> list[int]:
    """Line numbers that mention the attribute, by default the validity one."""
    return [i for i, line in enumerate(text.splitlines(), 1) if attribute in line]


def test_sources_found():
    assert any(p.name == "core.py" for p in SOURCES)
    assert mentions((SOURCES[0].parent / "core.py").read_text())


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "core.py"], ids=lambda p: p.name)
def test_only_core_mentions_the_validity_attribute(path):
    assert mentions(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_census_and_symmetry_mention_the_ties(path):
    assert bool(mentions(path.read_text(), TIES)) == (path.name in ("census.py", "symmetry.py"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in EXPANDERS], ids=lambda p: p.name)
def test_only_perms_and_families_name_the_expansion(path):
    assert mentions(path.read_text(), EXPANSION) == []


@pytest.mark.parametrize(
    "snippet",
    [
        'object.__setattr__(fs, "_validated", True)',
        "if fs._validated:",
        'getattr(fs, "_validated", False)',
    ],
)
def test_guard_catches(snippet):
    assert mentions(snippet) == [1]


COLLECTIONS = frozenset({"list", "tuple", "set", "sorted", "frozenset", "dict"})


def collected(node: ast.AST) -> list[ast.AST]:
    """The iterables that ``node`` reads whole into a new collection."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in COLLECTIONS:
        return node.args[:1]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
        return [g.iter for g in node.generators]
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return [e.value for e in node.elts if isinstance(e, ast.Starred)]
    return []


def materialised_censuses(text: str) -> list[tuple[str, str]]:
    """(enclosing function, first argument's source) of each
    ``stability_census`` call read straight into a collection."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for it in collected(node):
            if (
                isinstance(it, ast.Call)
                and getattr(it.func, "id", getattr(it.func, "attr", None)) == "stability_census"
            ):
                found.append((function, ast.unparse(it.args[0])))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(text), "")
    return found


def test_no_source_materialises_a_census():
    found = {p.name: materialised_censuses(p.read_text()) for p in SOURCES}
    assert {name: calls for name, calls in found.items() if calls} == {}


@pytest.mark.parametrize(
    "snippet",
    [
        "def f():\n    return list(stability_census(8))",
        "def f():\n    return sorted(census.stability_census(8, MAP))",
        "def f():\n    return [rec.fs for rec in stability_census(8)]",
        "def f():\n    return (*census.stability_census(8, MAP),)",
    ],
)
def test_census_guard_catches(snippet):
    assert materialised_censuses(snippet) == [("f", "8")]
