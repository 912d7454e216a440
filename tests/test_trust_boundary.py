"""Only ``core`` knows how a system is recorded as valid.

A construction that is valid by construction goes through
``core._valid`` and proves it in its docstring; no other module in
``src/flagmaps`` mentions the attribute that records it.  Likewise only
the census, which records the Aut ties of a class, and ``symmetry``,
which reads them, mention the ties attribute; ``core._search`` takes
permutation tables and a flag instead.  And only ``perms``, which
defines it, ``families``, whose ``GroupMap`` is the one expansion of a
group, and the package's exports name ``generate_closure``: Aut is held
as images and generators and never expanded.  The census streams: the
one ``stability_census`` that ``src/flagmaps`` reads into a collection
is ``verify.run_all``'s map census, which three criteria read.
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


def materialised_censuses(text: str) -> list[tuple[str, str]]:
    """(enclosing function, first argument's source) of each
    ``stability_census`` call read straight into a collection."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in COLLECTIONS
            and node.args
            and isinstance(node.args[0], ast.Call)
            and getattr(node.args[0].func, "id", getattr(node.args[0].func, "attr", None))
            == "stability_census"
        ):
            found.append((function, ast.unparse(node.args[0].args[0])))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(text), "")
    return found


def test_only_run_all_materialises_the_map_census():
    found = {p.name: materialised_censuses(p.read_text()) for p in SOURCES}
    assert {name: calls for name, calls in found.items() if calls} == {
        "verify.py": [("run_all", "map_flags")]
    }


@pytest.mark.parametrize(
    "snippet",
    [
        "def f():\n    return list(stability_census(8))",
        "def f():\n    return sorted(census.stability_census(8, MAP))",
    ],
)
def test_census_guard_catches(snippet):
    assert materialised_censuses(snippet) == [("f", "8")]
