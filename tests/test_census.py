import pytest

from flagmaps.census import (
    census_csv,
    census_summary,
    enumerate_flag_systems,
    stability_census,
)
from flagmaps.core import (
    HYPERMAP,
    MAP,
    canonical_form,
    encode,
    surface_invariants,
    validate,
)
from flagmaps.covers import orientable_double_cover
from flagmaps.perms import orbits
from flagmaps.verify import naive_class_counts


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


def test_emitted_systems_valid_and_self_canonical(map_census_8, hypermap_census_7):
    for rec in map_census_8 + hypermap_census_7:
        assert validate(rec.fs) == []
        assert canonical_form(rec.fs) == encode(rec.fs)


def test_no_two_isomorphic(map_census_8, hypermap_census_7):
    for records in (map_census_8, hypermap_census_7):
        codes = [rec.canonical for rec in records]
        assert len(codes) == len(set(codes))
        assert codes == sorted(codes)


def test_census_invariants(map_census_8):
    for rec in map_census_8:
        inv = rec.invariants
        assert inv.vertices + inv.edges + inv.faces >= 3
        assert rec.aut_order >= 1 and rec.fs.flags % rec.aut_order == 0
        if rec.regular:
            assert rec.aut_order == rec.fs.flags
        if inv.has_boundary:
            b = inv.boundary_components
            assert b >= 1
            if inv.orientable:
                assert (2 - inv.chi - b) % 2 == 0 and inv.genus.value >= 0
            else:
                assert inv.genus.value >= 1
        if rec.stable is not None:
            assert rec.instability_index >= 1
            assert isinstance(rec.instability_index, int)
            assert rec.stable == (rec.instability_index == 1)
            assert rec.lifted_subgroup_verified
        else:
            assert rec.lifted_subgroup_verified is None


def test_orientable_closed_iff_even_subgroup_has_two_orbits(hypermap_census_7):
    for rec in hypermap_census_7[:300]:
        fs = rec.fs
        pairs = [
            tuple(b[a[x]] for x in range(fs.flags))
            for a in fs.gens
            for b in fs.gens
        ]
        blocks = orbits(pairs, fs.flags)
        assert (len(blocks) == 2) == rec.invariants.orientable_no_boundary


def test_barycentric_matches_naive_on_clean_maps(map_census_8):
    from flagmaps.core import edge_cells, fixed_flag_counts

    for rec in map_census_8:
        if any(fixed_flag_counts(rec.fs)):
            continue
        if any(len(c) != 4 for c in edge_cells(rec.fs)):
            continue
        inv = rec.invariants
        assert inv.chi == inv.vertices - inv.edges + inv.faces


def test_cover_chi_doubles(map_census_8):
    for rec in map_census_8:
        if rec.stable is None:
            continue
        cover = orientable_double_cover(rec.fs).cover
        assert surface_invariants(cover).chi == 2 * rec.invariants.chi


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
