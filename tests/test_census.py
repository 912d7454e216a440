import hashlib
import tracemalloc

import pytest

from flagmaps.census import (
    analyze,
    census_csv,
    census_summary,
    enumerate_flag_systems,
    stability_census,
)
from flagmaps.core import (
    HYPERMAP,
    MAP,
    FlagSystem,
    canonical_form,
    encode,
    surface_invariants,
    validate,
)
from flagmaps.covers import orientable_double_cover
from flagmaps.errors import BadBoundError, FlagmapsError
from flagmaps.families import torus_44
from flagmaps.perms import orbits
from flagmaps.symmetry import automorphism_group
from flagmaps.verify import _cycle_count, naive_class_counts


def test_single_flag_census():
    for kind in (MAP, HYPERMAP):
        [only] = list(enumerate_flag_systems(1, kind))
        assert only.flags == 1
        assert only.g0 == only.g1 == only.g2 == (0,)


def test_counts_match_oracle_small():
    for kind in (MAP, HYPERMAP):
        per_flags = {}
        for fs in enumerate_flag_systems(5, kind):
            per_flags[fs.flags] = per_flags.get(fs.flags, 0) + 1
        assert per_flags == naive_class_counts(5, kind)


def test_enumeration_deterministic(map_census_8):
    again = stability_census(8, MAP)
    assert census_csv(again) == census_csv(map_census_8)


def test_emitted_systems_valid_and_self_canonical(map_census_12, hypermap_census_7):
    # validate directly: require_valid returns at once on census output;
    # canonicalise a copy, which records no ties, so the search does not
    # take the table for its labelling from flag 0
    for rec in map_census_12 + hypermap_census_7:
        fs = rec.fs
        assert validate(fs) == []
        assert canonical_form(FlagSystem(fs.kind, fs.flags, *fs.gens)) == encode(fs)


def test_leaf_ties_give_the_automorphism_group(map_census_8, hypermap_census_7):
    """The census hands each class the ties of its completed table; the
    group they give equals a fresh search on a copy, generators included."""
    for rec in map_census_8 + hypermap_census_7:
        fs = rec.fs
        aut = automorphism_group(fs)
        fresh = automorphism_group(FlagSystem(fs.kind, fs.flags, *fs.gens))
        assert (0,) + fs._ties == aut.images
        assert aut == fresh
        assert aut.generators == fresh.generators


def test_census_csvs_are_byte_identical(map_census_12, hypermap_census_10):
    """The census CSVs for maps up to 12 flags and hypermaps up to 10,
    pinned by the sha256 prefixes of their known-good output."""
    for records, prefix in ((map_census_12, "46839a39e757"), (hypermap_census_10, "2ab246fc4263")):
        digest = hashlib.sha256(census_csv(records).encode()).hexdigest()
        assert digest[:12] == prefix


def test_census_csv_takes_only_census_records():
    """The canonical column is the table itself, right only for a class the
    census emitted; a map built elsewhere is labelled otherwise."""
    rec = analyze(torus_44("diag", 1))
    assert encode(rec.fs) != canonical_form(rec.fs)
    with pytest.raises(FlagmapsError, match="the census emitted"):
        census_csv([rec])


def test_no_two_isomorphic(map_census_8, hypermap_census_7):
    for records in (map_census_8, hypermap_census_7):
        codes = [encode(rec.fs) for rec in records]
        assert len(codes) == len(set(codes))
        assert codes == sorted(codes)


def test_census_invariants(map_census_8):
    for rec in map_census_8:
        inv = rec.invariants
        assert inv.vertices + inv.edges + inv.faces >= 3
        assert rec.aut.order >= 1 and rec.fs.flags % rec.aut.order == 0
        if rec.symmetry.regular:
            assert rec.aut.order == rec.fs.flags
        if inv.boundary_components:
            b = inv.boundary_components
            assert b >= 1
            if inv.orientable:
                assert (2 - inv.chi - b) % 2 == 0 and inv.genus.value >= 0
            else:
                assert inv.genus.value >= 1
        rep = rec.stability
        assert (rep is None) == (inv.orientable and not inv.boundary_components)
        if rep is not None:
            assert rep.instability_index >= 1
            assert isinstance(rep.instability_index, int)
            assert rep.stable == (rep.instability_index == 1)
            assert rep.lifted_subgroup_verified


def test_orientable_closed_iff_even_subgroup_has_two_orbits(hypermap_census_7):
    for rec in hypermap_census_7[:300]:
        fs = rec.fs
        pairs = [
            tuple(b[a[x]] for x in range(fs.flags))
            for a in fs.gens
            for b in fs.gens
        ]
        blocks = orbits(pairs, fs.flags)
        inv = rec.invariants
        assert (len(blocks) == 2) == (inv.orientable and not inv.boundary_components)


def test_barycentric_matches_naive_on_clean_maps(map_census_8):
    from flagmaps.core import fixed_flag_counts

    for rec in map_census_8:
        if any(fixed_flag_counts(rec.fs)):
            continue
        if any(len(c) != 4 for c in orbits([rec.fs.g0, rec.fs.g2], rec.fs.flags)):
            continue
        inv = rec.invariants
        assert inv.chi == inv.vertices - inv.edges + inv.faces


def test_cover_chi_doubles(map_census_8, hypermap_census_7):
    """The cover's chi doubles the base's, and criterion 09's formula from
    the cycles of the three products on the base flags gives the chi of
    the built cover."""
    covers = 0
    for rec in map_census_8 + hypermap_census_7:
        if rec.stability is None:
            continue
        cover = orientable_double_cover(rec.fs)
        chi = surface_invariants(cover).chi
        assert chi == 2 * rec.invariants.chi
        g0, g1, g2 = rec.fs.gens
        cells = _cycle_count(g0, g1) + _cycle_count(g1, g2) + _cycle_count(g0, g2)
        assert cells - rec.fs.flags == chi
        covers += 1
    assert covers > 1000


def test_csv_format(map_census_8):
    text = census_csv(map_census_8)
    lines = text.strip().split("\n")
    assert lines[0].startswith("flags,vertices,edges,faces,chi")
    assert len(lines) == len(map_census_8) + 1
    summary = census_summary(map_census_8)
    for flags, row in summary.items():
        assert row["classes"] == row["stable"] + row["unstable"] + row["undefined"]


def test_enumerate_rejects_bad_bound():
    with pytest.raises(ValueError):
        list(enumerate_flag_systems(0, MAP))
    with pytest.raises(FlagmapsError):
        list(enumerate_flag_systems(0, HYPERMAP))
    with pytest.raises(FlagmapsError):
        stability_census(-1, MAP)
    # the census is lazy, but the bound is checked at the call
    with pytest.raises(BadBoundError):
        enumerate_flag_systems(0, MAP)


def test_streamed_census_memory_is_flat_in_the_class_count():
    """Read in one pass, the census holds a fixed number of classes at a
    time: the traced peak of writing the hypermap CSV up to 7 flags stays
    within a few times the text it returns (holding every record took
    about 17x)."""
    tracemalloc.start()
    try:
        text = census_csv(stability_census(7, HYPERMAP))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(text)


def test_enumerate_rejects_an_unknown_kind():
    """Census classes are recorded valid without a check, so the kind is
    checked where it enters."""
    with pytest.raises(FlagmapsError, match="kind must be"):
        list(enumerate_flag_systems(3, "maps"))
    for call in (enumerate_flag_systems, stability_census):
        with pytest.raises(FlagmapsError, match="kind must be"):
            call(3, "maps")
