"""Orthogonal cycle systems: constructions, catalog, search, verification."""

from .catalog import get_ingredient, list_ingredients
from .construct import (
    NotAdmissibleError,
    UnsatisfiableError,
    admissible,
    construct_pair,
)
from .core import (
    CycleSystem,
    GraphSpec,
    OrthogonalPair,
    canonical_cycle,
    complete,
)
from .search import SearchBudget, search_pair
from .verify import VerificationReport, verify_decomposition, verify_pair

__all__ = [
    "CycleSystem",
    "GraphSpec",
    "NotAdmissibleError",
    "OrthogonalPair",
    "SearchBudget",
    "UnsatisfiableError",
    "VerificationReport",
    "admissible",
    "canonical_cycle",
    "complete",
    "construct_pair",
    "get_ingredient",
    "list_ingredients",
    "search_pair",
    "verify_decomposition",
    "verify_pair",
]
