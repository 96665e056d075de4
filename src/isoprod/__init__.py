"""Exact machinery for surfaces isogenous to a product of curves.

Modules build up from exact cyclotomic arithmetic through finite groups,
character tables and spherical systems of generators to the surface-level
invariants (genera, Euler characteristics, the invariant piece of the
middle cohomology and its classification).
"""

from .chartab import CharacterTable, character_table, galois_orbits
from .cyclotomic import CyclotomicNumber, Rational, parse_cyclotomic, zeta
from .groups import FiniteGroup, build_group
from .ramification import (
    RamificationStructure,
    search_structures,
    validate_spherical,
)
from .surface import SurfaceAnalysis, analyze

__all__ = [
    "CharacterTable",
    "CyclotomicNumber",
    "FiniteGroup",
    "RamificationStructure",
    "Rational",
    "SurfaceAnalysis",
    "analyze",
    "build_group",
    "character_table",
    "galois_orbits",
    "parse_cyclotomic",
    "search_structures",
    "validate_spherical",
    "zeta",
]
__version__ = "0.1.0"
