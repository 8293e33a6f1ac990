"""Exact-arithmetic toolkit for Tsirelson-type norms on finitely supported sequences."""

from .rules import AdmissibilityRule
from .session import BudgetExceededError, EvalSession
from .vectors import (
    FiniteVector,
    IndexSet,
    VectorParseError,
    format_vector,
    l1_norm,
    normalize_l1,
    parse_vector,
    precedes,
    sup_norm,
)
from .norms import (
    Ell1,
    Iterate,
    Join,
    NormSpec,
    Sup,
    TsirelsonLimit,
    iterate_norm,
    norm_eval,
    parse_normspec,
    stabilization_level,
    tsirelson_norm,
)
from .oracle import ORACLE_SUPPORT_LIMIT, brute_force_norm

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityRule",
    "BudgetExceededError",
    "EvalSession",
    "FiniteVector",
    "IndexSet",
    "VectorParseError",
    "format_vector",
    "l1_norm",
    "normalize_l1",
    "parse_vector",
    "precedes",
    "sup_norm",
    "Ell1",
    "Sup",
    "Iterate",
    "TsirelsonLimit",
    "Join",
    "NormSpec",
    "iterate_norm",
    "norm_eval",
    "parse_normspec",
    "stabilization_level",
    "tsirelson_norm",
    "brute_force_norm",
    "ORACLE_SUPPORT_LIMIT",
    "__version__",
]
