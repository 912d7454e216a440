"""Permutations of {0..n-1} as immutable image tuples.

Composition acts on the right throughout the package:
``(p)(s*t) = ((p)s)t``, i.e. ``compose(s, t)`` applies ``s`` first.
Points are 0-based internally; cycle notation is 1-based with fixed
points omitted, e.g. ``"(1,2)(3,11)"``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Iterable, Sequence

from .errors import FlagmapsError

Perm = tuple[int, ...]

# Multiset of (cycle length, multiplicity), sorted by length, including
# fixed points, so that sum(length * mult) equals the degree.
CycleType = tuple[tuple[int, int], ...]

CLOSURE_CAP = 10_000_000


class DegreeMismatchError(FlagmapsError):
    """Permutations of different degrees were combined."""


class ClosureOverflowError(FlagmapsError):
    """Generated group exceeded the element cap."""

    def __init__(self, cap: int):
        super().__init__(f"generated group exceeds cap of {cap} elements")
        self.cap = cap


class CycleParseError(FlagmapsError):
    """Malformed cycle-notation string."""


class NotAPermutationError(FlagmapsError):
    """A sequence given as a permutation is not one of its own indices."""


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def is_perm(images: Sequence[int]) -> bool:
    n = len(images)
    seen = [False] * n
    for x in images:
        if not isinstance(x, int) or not 0 <= x < n or seen[x]:
            return False
        seen[x] = True
    return True


def check_perms(perms: Iterable[Sequence[int]]) -> None:
    """Raise NotAPermutationError unless each is a permutation of
    0..len - 1."""
    for p in perms:
        if not is_perm(p):
            raise NotAPermutationError(f"not a permutation of 0..{len(p) - 1}")


def check_degrees(perms: Iterable[Perm], degree: int | None = None) -> int:
    """Return the common degree, raising DegreeMismatchError otherwise."""
    for p in perms:
        if degree is None:
            degree = len(p)
        elif len(p) != degree:
            raise DegreeMismatchError(
                f"degree mismatch: expected {degree}, got {len(p)}"
            )
    if degree is None:
        raise DegreeMismatchError("degree cannot be inferred from no permutations")
    return degree


def compose(*perms: Perm) -> Perm:
    """Right-action product: compose(s, t) maps p to t[s[p]]."""
    if not perms:
        raise DegreeMismatchError("compose() needs at least one permutation")
    check_degrees(perms)
    result = perms[0]
    for q in perms[1:]:
        result = tuple(q[x] for x in result)
    return result


def is_involution(p: Perm) -> bool:
    """True when p*p = id; fixed points are allowed (identity included)."""
    return all(p[p[i]] == i for i in range(len(p)))


def perm_order(p: Perm) -> int:
    return math.lcm(*(length for length, _ in cycle_type(p))) if p else 1


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition, fixed points omitted; cycles start at their minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> CycleType:
    counts = Counter(len(c) for c in cycles(p))
    fixed = len(p) - sum(length * mult for length, mult in counts.items())
    if fixed:
        counts[1] = fixed
    return tuple(sorted(counts.items()))


def parity(p: Perm) -> int:
    """0 for even, 1 for odd."""
    return sum((length - 1) * mult for length, mult in cycle_type(p)) % 2


def sym_centralizer_order(ct: CycleType) -> int:
    """Order of the centralizer in S_n of an element with this cycle type.

    Equals the product of k**c * c! over cycle lengths k with multiplicity c.
    """
    order = 1
    for length, mult in ct:
        order *= length**mult * math.factorial(mult)
    return order


def orbits(generators: Sequence[Perm], degree: int) -> list[tuple[int, ...]]:
    """Finest partition of {0..degree-1} closed under all generators.

    Blocks are sorted internally and listed by minimum element, so the
    output is deterministic.
    """
    check_degrees(generators, degree)
    check_perms(generators)
    seen = [False] * degree
    blocks = []
    for x in range(degree):
        if not seen[x]:
            block = tuple(sorted(orbit_of(generators, [x])))
            for y in block:
                seen[y] = True
            blocks.append(block)
    return blocks


def orbit_of(generators: Sequence[Perm], points: Iterable[int]) -> set[int]:
    """The union of the orbits of ``points`` under the group the generators
    generate."""
    seen = set(points)
    queue = list(seen)
    for x in queue:
        for g in generators:
            y = g[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def block_index(blocks: Sequence[Sequence[int]], degree: int) -> list[int]:
    """Map each point to the index of its block."""
    idx = [-1] * degree
    for b, block in enumerate(blocks):
        for x in block:
            idx[x] = b
    return idx


def generate_closure(generators: Sequence[Perm]) -> set[Perm]:
    """All elements of the group generated, via breadth-first multiplication.

    The degree is that of the generators, so at least one is needed.
    Raises ClosureOverflowError once more than ``CLOSURE_CAP`` elements
    appear (the cap is read at each call); callers for which that is
    expected fall back to group-level reasoning.
    """
    cap = CLOSURE_CAP
    ident = identity(check_degrees(generators))
    check_perms(generators)
    elements: set[Perm] = {ident}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in generators:
                prod = tuple(g[x] for x in e)
                if prod not in elements:
                    elements.add(prod)
                    if len(elements) > cap:
                        raise ClosureOverflowError(cap)
                    new_frontier.append(prod)
        frontier = new_frontier
    return elements


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int | None = None) -> Perm:
    """Parse 1-based cycle notation like "(1,2)(3,11)"; whitespace ignored.

    With no explicit degree the largest point mentioned sets it.
    "()" or the empty string denote the identity (degree required then).
    """
    stripped = re.sub(r"\s+", "", text)
    body = _CYCLE_RE.sub("", stripped)
    if body:
        raise CycleParseError(f"unexpected text outside cycles: {body!r}")
    cycle_strs = _CYCLE_RE.findall(stripped)
    parsed: list[list[int]] = []
    for cyc in cycle_strs:
        if not cyc:
            continue
        try:
            points = [int(tok) for tok in cyc.split(",")]
        except ValueError as exc:
            raise CycleParseError(f"bad cycle {cyc!r}") from exc
        if any(x < 1 for x in points):
            raise CycleParseError("points are 1-based and must be positive")
        parsed.append([x - 1 for x in points])
    max_point = max((x for cyc in parsed for x in cyc), default=-1)
    if degree is None:
        degree = max_point + 1
    elif max_point >= degree:
        raise CycleParseError(f"point {max_point + 1} exceeds degree {degree}")
    images = list(range(degree))
    for cyc in parsed:
        if len(set(cyc)) != len(cyc):
            raise CycleParseError(f"repeated point in cycle {cyc}")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if images[a] != a:
                raise CycleParseError(f"point {a + 1} appears in two cycles")
            images[a] = b
    return tuple(images)


def format_cycles(p: Perm) -> str:
    """1-based cycle notation with fixed points omitted; identity is "()"."""
    check_perms([p])
    cycs = cycles(p)
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in cyc) + ")" for cyc in cycs)
