"""Only ``core`` knows how a system is recorded as valid.

A construction that is valid by construction goes through
``core._valid`` and proves it in its docstring; no other module in
``src/flagmaps`` mentions the attribute that records it.  Likewise only
the census, which records the Aut ties of a class, and ``symmetry``,
which reads them, mention the ties attribute; ``core._search`` takes
permutation tables and a flag instead.  And only ``perms``, which
defines it, ``families``, whose ``GroupMap`` is the one expansion of a
group, and the package's exports name ``generate_closure``: Aut is held
as images and generators and never expanded.
"""

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
