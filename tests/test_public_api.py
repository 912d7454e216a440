"""Every name that ``flagmaps`` exports resolves, and each public record
stores only what its function decides.

A stale entry in ``__all__`` would otherwise fail only
``from flagmaps import *``, which no other test runs.
"""

from dataclasses import fields

import flagmaps
from flagmaps.core import SurfaceInvariants
from flagmaps.grouplevel import QuotientAnalysis, RegularCells
from flagmaps.symmetry import StabilityReport
from flagmaps.verify import CheckResult


def test_every_exported_name_resolves():
    assert len(set(flagmaps.__all__)) == len(flagmaps.__all__)
    for name in flagmaps.__all__:
        assert hasattr(flagmaps, name), name
    namespace: dict = {}
    exec("from flagmaps import *", namespace)
    assert set(flagmaps.__all__) <= set(namespace)


def test_each_record_stores_only_what_its_function_decides():
    """Derived values are properties, so equality, hashing and ``repr``
    follow these stored fields alone."""
    stored = {
        SurfaceInvariants: ("edges", "fixed_flags", "boundary_components", "chi",
                            "orientable", "face_sizes", "vertex_degrees"),
        StabilityReport: ("base_aut_order", "cover_aut_order", "lifted_subgroup_verified"),
        RegularCells: ("group_order", "vertices", "edges", "faces", "type_signature"),
        QuotientAnalysis: ("a", "boundary", "aut_order", "cover"),
        CheckResult: ("name", "details"),
    }
    for cls, names in stored.items():
        assert tuple(f.name for f in fields(cls)) == names, cls.__name__
