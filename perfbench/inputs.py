"""Seeded inputs and independent certificates for the benchmark workloads.

Nothing here imports flagmaps.  A flag system is handled as its three
image tables ``(g0, g1, g2)``; relabelling, connectivity, automorphism
counting and the non-isomorphism certificates are written out again
from their definitions, so the expected answer of every isomorphism
query comes from this module and not from the code being measured.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

Tables = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

MAP = "map"
HYPERMAP = "hypermap"


def random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def conjugate(h: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation h seen through the relabelling new = perm[old]."""
    img = [0] * len(h)
    for old, t in enumerate(h):
        img[perm[old]] = perm[t]
    return tuple(img)


def relabel(tables: Tables, perm: tuple[int, ...]) -> Tables:
    return tuple(conjugate(g, perm) for g in tables)  # type: ignore[return-value]


def random_involution(rng: random.Random, n: int) -> tuple[int, ...]:
    """A fixed-point-free involution on n points (n even)."""
    pts = list(range(n))
    rng.shuffle(pts)
    img = [0] * n
    for a, b in zip(pts[::2], pts[1::2]):
        img[a], img[b] = b, a
    return tuple(img)


def connected(tables: Tables) -> bool:
    n = len(tables[0])
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        f = stack.pop()
        for g in tables:
            t = g[f]
            if not seen[t]:
                seen[t] = True
                count += 1
                stack.append(t)
    return count == n


def product_cycle_types(tables: Tables) -> tuple[tuple[int, ...], ...]:
    """Sorted cycle lengths of g0g1, g1g2 and g0g2.

    An isomorphism conjugates each product, so systems whose triples
    differ are certainly not isomorphic.
    """
    n = len(tables[0])
    out = []
    for i, j in ((0, 1), (1, 2), (0, 2)):
        gi, gj = tables[i], tables[j]
        seen = [False] * n
        lengths = []
        for x in range(n):
            if seen[x]:
                continue
            length = 0
            y = x
            while not seen[y]:
                seen[y] = True
                length += 1
                y = gj[gi[y]]
            lengths.append(length)
        out.append(tuple(sorted(lengths)))
    return tuple(out)


def aut_order(tables: Tables) -> int:
    """Number of flag permutations commuting with the three generators.

    An automorphism of a connected system is fixed by the image of any
    one flag, and keeps the length of the product cycle through each
    flag.  The base flag is one whose lengths are rarest, and only its
    images with the same lengths are extended and checked.
    """
    n = len(tables[0])
    colour: list = [[0, 0, 0] for _ in range(n)]
    for k, (i, j) in enumerate(((0, 1), (1, 2), (0, 2))):
        gi, gj = tables[i], tables[j]
        done = [False] * n
        for x in range(n):
            if done[x]:
                continue
            cyc = []
            y = x
            while not done[y]:
                done[y] = True
                cyc.append(y)
                y = gj[gi[y]]
            for y in cyc:
                colour[y][k] = len(cyc)
    colour = [tuple(c) for c in colour]
    counts = Counter(colour)
    base = min(range(n), key=lambda f: counts[colour[f]])
    order = [base]
    parent: list[tuple[int, int, int]] = []
    seen = [False] * n
    seen[base] = True
    for f in order:
        for i, g in enumerate(tables):
            t = g[f]
            if not seen[t]:
                seen[t] = True
                order.append(t)
                parent.append((t, f, i))
    count = 0
    for image in range(n):
        if colour[image] != colour[base]:
            continue
        h = [-1] * n
        h[base] = image
        for flag, par, i in parent:
            h[flag] = tables[i][h[par]]
        if all(h[g[f]] == g[h[f]] for g in tables for f in range(n)):
            count += 1
    return count


def random_map(rng: random.Random, n: int) -> Tables:
    """A connected map on n flags (n divisible by 4) with trivial Aut.

    Flags come in quadruples closed under g0 and g2, so the two commute;
    g1 is a random fixed-point-free involution.  Draws that are
    disconnected or have a nontrivial automorphism are rejected.
    """
    if n % 4:
        raise ValueError("a random map needs a multiple of 4 flags")
    g0 = tuple(f ^ 1 for f in range(n))
    g2 = tuple(f ^ 2 for f in range(n))
    while True:
        tables = (g0, random_involution(rng, n), g2)
        if connected(tables) and aut_order(tables) == 1:
            return tables


def random_hypermap(rng: random.Random, n: int) -> Tables:
    """A connected hypermap on n flags (n even) with trivial Aut, from
    three random fixed-point-free involutions."""
    if n % 2:
        raise ValueError("a random hypermap needs an even number of flags")
    while True:
        tables = tuple(random_involution(rng, n) for _ in range(3))
        if connected(tables) and aut_order(tables) == 1:  # type: ignore[arg-type]
            return tables  # type: ignore[return-value]


@dataclass(frozen=True)
class Query:
    """One is_isomorphic question and its certified answer."""

    label: str
    kind: str
    a: Tables
    b: Tables
    expected: bool


# Flag counts asked in one round, turn by turn.  In each turn a symmetric
# query picks a pool member, and a negative one a certified pair, of the
# SYM_SIZES size; the random queries draw systems of the RANDOM_SIZES size,
# maps on even turns and hypermaps on odd ones.  Every round, and every
# seed, asks for the same sizes, so every unit does the same work.
SYM_SIZES = (120, 128, 240, 256, 288, 120, 128, 256)
RANDOM_SIZES = (100, 160, 120, 200, 140, 240, 400, 500)
ROUND = 4 * len(SYM_SIZES)


def certified_pairs(pool: list[tuple[str, str, Tables]]) -> list[tuple[int, int]]:
    """Index pairs of pool members with the same kind and flag count whose
    product cycle types differ, in pool order."""
    types = [product_cycle_types(t) for _, _, t in pool]
    out = []
    for i, (_, kind_i, ti) in enumerate(pool):
        for j in range(i + 1, len(pool)):
            _, kind_j, tj = pool[j]
            if kind_i == kind_j and len(ti[0]) == len(tj[0]) and types[i] != types[j]:
                out.append((i, j))
    return out


def iso_rounds(
    seed: int, pool: list[tuple[str, str, Tables]], rounds: int
) -> list[list[Query]]:
    """The iso-mix query rounds for one seed, ROUND queries each.

    Each turn asks four queries: a symmetric family member against a
    relabelled copy of itself, two different symmetric members of one
    size, a random system against a relabelled copy, and two random
    systems of one size.  Positive answers hold by construction, negative
    ones by differing product cycle types.  Symmetric members and pairs
    of one size are taken in turn, so later rounds ask other members of
    the same sizes; the seed picks the relabellings and the random systems.
    """
    rng = random.Random(seed)
    members: dict[int, list[int]] = {}
    for k, (_, _, t) in enumerate(pool):
        members.setdefault(len(t[0]), []).append(k)
    pairs: dict[int, list[tuple[int, int]]] = {}
    for i, j in certified_pairs(pool):
        pairs.setdefault(len(pool[i][2][0]), []).append((i, j))
    missing = sorted({n for n in SYM_SIZES if n not in pairs})
    if missing:
        raise ValueError(f"the pool holds no certified pair of {missing} flags")
    picks: dict[int, int] = {}

    def take(bucket: list, n: int):
        k = picks.get(n, 0)
        picks[n] = k + 1
        return bucket[k % len(bucket)]

    def shuffled(tables: Tables) -> Tables:
        return relabel(tables, random_perm(rng, len(tables[0])))

    out = []
    for _ in range(rounds):
        queries: list[Query] = []
        for turn, (sym_n, rand_n) in enumerate(zip(SYM_SIZES, RANDOM_SIZES)):
            name, kind, t = pool[take(members[sym_n], sym_n)]
            queries.append(Query(f"sym+ {name}", kind, t, shuffled(t), True))
            i, j = take(pairs[sym_n], -sym_n)
            (ni, kind, ti), (nj, _, tj) = pool[i], pool[j]
            queries.append(
                Query(f"sym- {ni} / {nj}", kind, shuffled(ti), shuffled(tj), False)
            )
            kind = MAP if turn % 2 == 0 else HYPERMAP
            draw = random_map if kind == MAP else random_hypermap
            a = draw(rng, rand_n)
            queries.append(Query(f"rand+ {kind} {rand_n}", kind, a, shuffled(a), True))
            b = draw(rng, rand_n)
            while product_cycle_types(b) == product_cycle_types(a):
                b = draw(rng, rand_n)
            queries.append(Query(f"rand- {kind} {rand_n}", kind, a, b, False))
        out.append(queries)
    return out
