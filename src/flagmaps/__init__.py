"""Maps and hypermaps on surfaces as flag involution systems."""

from .core import (
    HYPERMAP,
    MAP,
    FlagSystem,
    Genus,
    InvalidFlagSystemError,
    SurfaceInvariants,
    boundary_components,
    canonical_form,
    export_diagram,
    is_isomorphic,
    relabel,
    surface_invariants,
    validate,
)
from .covers import (
    deck,
    lift_automorphisms,
    orientable_double_cover,
    orientation_action,
    quotient_by,
)
from .errors import FlagmapsError
from .mapjson import parse as parse_map_json, serialize as serialize_map_json
from .operations import dual, medial, petrie
from .perms import Perm, compose, format_cycles, generate_closure, orbits, parse_cycles
from .symmetry import (
    AutGroup,
    StabilityReport,
    SymmetryClass,
    automorphism_group,
    stability_report,
    symmetry_class,
)

__all__ = [
    "HYPERMAP",
    "MAP",
    "AutGroup",
    "FlagSystem",
    "FlagmapsError",
    "Genus",
    "InvalidFlagSystemError",
    "Perm",
    "StabilityReport",
    "SurfaceInvariants",
    "SymmetryClass",
    "automorphism_group",
    "boundary_components",
    "canonical_form",
    "compose",
    "deck",
    "dual",
    "export_diagram",
    "format_cycles",
    "generate_closure",
    "is_isomorphic",
    "lift_automorphisms",
    "medial",
    "orbits",
    "orientable_double_cover",
    "orientation_action",
    "parse_cycles",
    "parse_map_json",
    "petrie",
    "quotient_by",
    "relabel",
    "serialize_map_json",
    "stability_report",
    "surface_invariants",
    "symmetry_class",
    "validate",
]

__version__ = "0.1.0"
