"""Only ``core`` knows how a system is recorded as valid.

A construction that is valid by construction goes through
``core._valid`` and proves it in its docstring; no other module in
``src/flagmaps`` mentions the attribute that records it.
"""

from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "flagmaps").glob("*.py"))
ATTRIBUTE = "_validated"


def mentions(text: str) -> list[int]:
    """Line numbers that mention the validity attribute."""
    return [i for i, line in enumerate(text.splitlines(), 1) if ATTRIBUTE in line]


def test_sources_found():
    assert any(p.name == "core.py" for p in SOURCES)
    assert mentions((SOURCES[0].parent / "core.py").read_text())


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "core.py"], ids=lambda p: p.name)
def test_only_core_mentions_the_validity_attribute(path):
    assert mentions(path.read_text()) == []


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
