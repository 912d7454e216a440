"""Map file format: JSON with 0-based image arrays.

{"kind": "map"|"hypermap", "flags": F, "r0": [...], "r1": [...], "r2": [...]}
"""

from __future__ import annotations

import json

from .core import HYPERMAP, MAP, FlagSystem
from .errors import FlagmapsError


class MapFormatError(FlagmapsError):
    """Malformed JSON or a structurally wrong map file."""


def _brief(value: object) -> str:
    """The repr of a value read from the file, cut short for an error line."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "…"


def serialize(fs: FlagSystem) -> str:
    payload = {
        "kind": fs.kind,
        "flags": fs.flags,
        "r0": list(fs.g0),
        "r1": list(fs.g1),
        "r2": list(fs.g2),
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _is_int(x: object) -> bool:
    # JSON true/false arrive as bool, which is a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def parse(text: str) -> FlagSystem:
    """Parse and validate; raises MapFormatError or InvalidFlagSystemError
    (the latter embeds the violation report)."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers with too many
        # digits; RecursionError, arrays or objects nested too deep
        raise MapFormatError(f"malformed-json: {exc}") from exc
    if not isinstance(payload, dict):
        raise MapFormatError("top level must be an object")
    try:
        kind = payload["kind"]
        flags = payload["flags"]
        tables = [payload[k] for k in ("r0", "r1", "r2")]
    except KeyError as exc:
        raise MapFormatError(f"missing key {exc}") from exc
    if kind not in (MAP, HYPERMAP):
        raise MapFormatError(f"kind must be 'map' or 'hypermap', not {_brief(kind)}")
    if not _is_int(flags) or flags < 1:
        raise MapFormatError("flags must be a positive integer")
    for name, table in zip(("r0", "r1", "r2"), tables):
        if (
            not isinstance(table, list)
            or len(table) != flags
            or not all(_is_int(x) for x in table)
        ):
            raise MapFormatError(f"{name} must be a list of {_brief(flags)} integers")
    fs = FlagSystem(kind, flags, *(tuple(t) for t in tables))
    fs.require_valid()
    return fs
