"""Duality, Petrie duality, and the medial construction."""

from __future__ import annotations

from .core import MAP, FlagSystem, _valid, fixed_flag_counts
from .errors import FlagmapsError
from .perms import compose


class HypermapInputError(FlagmapsError):
    pass


class BorderedInputError(FlagmapsError):
    pass


def dual(fs: FlagSystem) -> FlagSystem:
    """Swap vertices with faces by exchanging the g0 and g2 labels."""
    fs.require_valid()
    return FlagSystem(fs.kind, fs.flags, fs.g2, fs.g1, fs.g0)


def petrie(fs: FlagSystem) -> FlagSystem:
    """Replace faces by the zig-zag (left-right alternating) polygons.

    Generators become (g0*g2, g1, g2) on the same flags, so vertices and
    edges are untouched.  Needs a map: g0*g2 is an involution exactly
    because g0 and g2 commute.  Applying it twice gives back the input.
    """
    fs.require_valid()
    if fs.kind != MAP:
        raise HypermapInputError("petrie dual needs a map")
    return FlagSystem(MAP, fs.flags, compose(fs.g0, fs.g2), fs.g1, fs.g2)


def medial(fs: FlagSystem) -> FlagSystem:
    """Map with a vertex on every edge midpoint and edges across corners.

    Flags double to (flag, side) with side 0 toward the old vertex and
    side 1 toward the old face:

        g0*(f, c) = (f g1, c)
        g1*(f, 0) = (f g2, 0)        g1*(f, 1) = (f g0, 1)
        g2*(f, c) = (f, 1-c)

    Vertex cells project to old edges and medial edges are corners
    (g1-orbits), so (V*, E*, F*) = (E, flags/2, V+F) on the same closed
    surface.  That is (E, 2E, V+F), with every vertex 4-valent, exactly
    when there are no free edges (edge cells of two flags, g0 = g2):
    each free edge gives a 2-valent medial vertex and one edge fewer.

    The medial of a valid map is a valid map by construction
    (``core._valid``).  g0* and g1* are involutions on each side because
    g1, g2 and g0 are, and g2* swaps the sides.  g0* g2* and g2* g0* both
    send (f, c) to (f g1, 1-c).  From (f, 0) the steps g1*, g0* and
    g2* g1* g2* reach (f g2, 0), (f g1, 0) and (f g0, 0), so side 0 is
    connected like the input, and g2* joins side 1 to it.
    """
    fs.require_valid()
    if fs.kind != MAP:
        raise HypermapInputError("medial needs a map")
    if any(fixed_flag_counts(fs)):
        raise BorderedInputError("medial needs an empty boundary")
    n = fs.flags
    size = 2 * n
    g0 = [0] * size
    g1 = [0] * size
    g2 = [0] * size
    for f in range(n):
        for c in (0, 1):
            m = f + c * n
            g0[m] = fs.g1[f] + c * n
            g1[m] = fs.g2[f] if c == 0 else fs.g0[f] + n
            g2[m] = f + (1 - c) * n
    return _valid(FlagSystem(MAP, size, tuple(g0), tuple(g1), tuple(g2)))
