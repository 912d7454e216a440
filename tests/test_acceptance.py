"""Acceptance suite: one test per verification criterion.

Each test prints its pass/fail line (visible with pytest -s) and asserts
the criterion with the failing sub-checks in the message.  A last test
checks that the three census criteria read their input once, so that
``run_all`` may give them one stream.
"""

import pytest

from flagmaps import verify


def _run(result):
    print(result.line())
    assert result.ok, "; ".join(result.details)


def test_criterion_01_spherical_quotients():
    _run(verify.check_spherical_quotients())


def test_criterion_02_klein_bottle_quotient():
    _run(verify.check_klein_bottle_quotient())


def test_criterion_03_torus_glide_series():
    _run(verify.check_torus_glide_series())


def test_criterion_04_zigzag_self_dual_family():
    _run(verify.check_zigzag_family())


def test_criterion_05_symmetric_family_group_level():
    _run(verify.check_symmetric_group_level())


def test_criterion_06_flag_group_agreement():
    _run(verify.check_flag_group_agreement())


def test_criterion_07_symmetric_hypermap_family():
    _run(verify.check_symmetric_hypermaps())


def test_criterion_08_medial_maps(map_census_12):
    _run(verify.check_medial(map_census_12))


def test_criterion_09_census_laws(map_census_12, hypermap_census_10):
    _run(verify.check_census_laws(map_census_12, hypermap_census_10))


def test_criterion_10_round_trips(map_census_12):
    _run(verify.check_round_trips(map_census_12))


@pytest.mark.parametrize(
    "check",
    [
        lambda maps, hypermaps: verify.check_medial(maps),
        lambda maps, hypermaps: verify.check_census_laws(maps, hypermaps, oracle_max=4),
        lambda maps, hypermaps: verify.check_round_trips(maps),
    ],
    ids=["medial", "census-laws", "round-trips"],
)
def test_census_checks_read_a_one_shot_stream(check, map_census_8, hypermap_census_7):
    from_lists = check(map_census_8, hypermap_census_7)
    from_streams = check((r for r in map_census_8), (r for r in hypermap_census_7))
    assert from_lists.ok, from_lists.details
    assert from_streams == from_lists
