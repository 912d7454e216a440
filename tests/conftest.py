import pytest

from flagmaps.census import stability_census
from flagmaps.core import HYPERMAP, MAP
from flagmaps.families import icosahedron, k6_projective


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


@pytest.fixture(scope="session")
def map_census_12():
    return list(stability_census(12, MAP))


@pytest.fixture(scope="session")
def hypermap_census_10():
    return list(stability_census(10, HYPERMAP))
