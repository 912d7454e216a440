"""Acceptance suite: one test per verification criterion.

Each test prints its pass/fail line (visible with pytest -s) and asserts
the criterion with the failing sub-checks in the message.  Criteria 08,
09 and 10 take the results of ``verify``'s folds from the fixtures that
read each large census once, as ``run_all`` does.
"""

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


def test_criterion_08_medial_maps(map_checks_12):
    _run(map_checks_12["medial"])


def test_criterion_09_census_laws(map_checks_12, hypermap_checks_10):
    laws = map_checks_12["census_laws"] + hypermap_checks_10["census_laws"]
    _run(verify.CheckResult("census-laws", laws))


def test_criterion_10_round_trips(map_checks_12):
    _run(map_checks_12["round_trips"])
