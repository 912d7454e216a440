"""Session fixtures.

The small censuses (maps up to 8 flags, hypermaps up to 7) are lists, as
several tests walk their records.  The large ones, the map census up to
12 flags (14,463 classes) and the hypermap census up to 10 (179,978),
are read once each, as the stream ``stability_census`` yields, the way
``verify.run_all`` reads them: every record goes to the folds of the
checks that the tests assert on, and to ``write_census`` writing into a
sink that only hashes.  The fixtures keep the CSV digest and the folds'
results, never a record, so tier-1's memory does not grow with a census.
"""

import hashlib

import pytest

from flagmaps.census import stability_census, write_census
from flagmaps.core import HYPERMAP, MAP, FlagSystem, canonical_form, encode, validate
from flagmaps.families import icosahedron, k6_projective
from flagmaps.verify import _CensusLaws, _Medial, _RoundTrips


@pytest.fixture(scope="session")
def icosa():
    return icosahedron()


@pytest.fixture(scope="session")
def k6(icosa):
    return k6_projective()


@pytest.fixture(scope="session")
def map_census_8():
    return list(stability_census(8, MAP))


@pytest.fixture(scope="session")
def hypermap_census_7():
    return list(stability_census(7, HYPERMAP))


class _Sha256Sink:
    """A text sink for ``write_census`` that keeps only the sha256 of what
    is written."""

    def __init__(self) -> None:
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> None:
        self.sha256.update(text.encode())


class _SelfCanonical:
    """The per-class check of ``test_emitted_systems_valid_and_self_canonical``
    as a fold: counts the classes that fail ``validate`` or whose table is
    not the canonical form of a copy, and keeps the first one's
    ``encode(fs).hex()``."""

    def __init__(self) -> None:
        self.failures = 0
        self.first: str | None = None

    def add(self, rec) -> None:
        fs = rec.fs
        if validate(fs) or canonical_form(FlagSystem(fs.kind, fs.flags, *fs.gens)) != encode(fs):
            self.failures += 1
            self.first = self.first or encode(fs).hex()

    def result(self) -> tuple[int, str | None]:
        return self.failures, self.first


def _read_once(records, **folds) -> dict:
    """One pass over ``records``: each goes to every fold, then to
    ``write_census``.  Gives the CSV's sha256 hex digest as ``"csv_sha256"``
    and each fold's result under its keyword."""

    def fed():
        for rec in records:
            for fold in folds.values():
                fold.add(rec)
            yield rec

    sink = _Sha256Sink()
    write_census(fed(), sink)
    return {"csv_sha256": sink.sha256.hexdigest()} | {
        name: fold.result() for name, fold in folds.items()
    }


@pytest.fixture(scope="session")
def map_checks_12():
    """The map census up to 12 flags, read once: criteria 08 and 10, the
    map half of criterion 09, and the self-canonical count."""
    return _read_once(
        stability_census(12, MAP),
        medial=_Medial(),
        census_laws=_CensusLaws(MAP, 6),
        round_trips=_RoundTrips(),
        self_canonical=_SelfCanonical(),
    )


@pytest.fixture(scope="session")
def hypermap_checks_10():
    """The hypermap census up to 10 flags, read once: the hypermap half
    of criterion 09."""
    return _read_once(stability_census(10, HYPERMAP), census_laws=_CensusLaws(HYPERMAP, 6))
