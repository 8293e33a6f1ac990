"""Norm-distance estimates, phi transforms, order-property matrices, stability gaps.

Distances between registered norms are estimated from below over candidate
pools in exact rational arithmetic; the logarithmic phi transforms are exact
at the endpoints and float between, for reporting only, and every
order-sensitive decision compares the rational distance values directly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from fractions import Fraction

from .norms import Iterate, NormSpec, norm_eval
from .rules import AdmissibilityRule
from .session import EvalSession
from .vectors import FiniteVector, format_vector, normalize_l1
from .witnesses import (
    SearchBudget,
    base_witness,
    cascade_stack,
    cascade_vector,
    ratio_certificate,
    ratio_search,
)

__all__ = [
    "DistanceEstimate",
    "PhiVariant",
    "PhiEstimate",
    "distance_lower",
    "phi_of",
    "MatrixEntry",
    "OrderPropertyMatrix",
    "order_property_matrix",
    "default_matrix_pool",
    "StabilityReport",
    "stability_gap",
    "stability_sign_exact",
]

_FJ = AdmissibilityRule.FIGIEL_JOHNSON


# ---------------------------------------------------------------------------
# Distance D and phi
# ---------------------------------------------------------------------------

@dataclass
class DistanceEstimate:
    """Certified estimate of the norm distance D(M, N).

    ``value=None`` encodes +infinity (non-equivalent norms).  One-sided
    estimates are suprema of ratios |x|_M / |x|_N over the l1-sphere;
    two-sided estimates symmetrise the ratio and are always >= 1.
    """

    value: Fraction | None
    kind: str   # "exact" | "lower-bound"
    sided: str  # "one-sided" | "two-sided"
    witness: FiniteVector | None = None

    def to_report(self) -> dict:
        return {
            "value": "inf" if self.value is None else str(self.value),
            "kind": self.kind,
            "sided": self.sided,
            "witness": format_vector(self.witness) if self.witness is not None else None,
        }


class PhiVariant(Enum):
    """Transforms from distances in [1, inf] to values in [0, 1].

    LOGISTIC is log D/(1 + log D), increasing; SIMILARITY is its complement,
    decreasing.  Both extend continuously to D = infinity.
    """

    LOGISTIC = "logistic"
    SIMILARITY = "similarity"

    def transform(self, d: Fraction | None) -> Fraction | float:
        """Phi of the distance D (``None``: infinity).

        The endpoints have exact images: D <= 1 and D = infinity give a
        ``Fraction``, and only the interior of the scale needs a float.  Every
        norm of the algebra is 1 on the first basis vector, so the true
        distance is at least 1, and a pool estimate below 1 is raised to that
        certified floor.
        """
        if d is None:
            logistic = Fraction(1)
        elif d <= 1:
            logistic = Fraction(0)
        else:
            logd = math.log(d)
            logistic = logd / (1 + logd)
        return logistic if self is PhiVariant.LOGISTIC else 1 - logistic

    @property
    def increasing(self) -> bool:
        return self is PhiVariant.LOGISTIC

    @property
    def default_sided(self) -> str:
        # The one-sided supremum pairs with the increasing transform; the
        # symmetric distance pairs with the similarity form.
        return "one-sided" if self is PhiVariant.LOGISTIC else "two-sided"

    @classmethod
    def parse(cls, text: str) -> "PhiVariant":
        key = text.strip().lower()
        for variant in cls:
            if key == variant.value:
                return variant
        raise ValueError(f"unknown phi variant {text!r}")


def distance_lower(m: NormSpec, n: NormSpec, pool: list[FiniteVector],
                   sided: str = "one-sided",
                   session: EvalSession | None = None) -> DistanceEstimate:
    """Pool-certified lower estimate of D(M, N), exact rational arithmetic.

    Candidates are l1-normalised before the ratio is taken.  Adding
    candidates never decreases the estimate.
    """
    if not pool:
        raise ValueError("candidate pool must be nonempty")
    if sided not in ("one-sided", "two-sided"):
        raise ValueError(f"bad sided flag {sided!r}")
    best: Fraction | None = None
    witness: FiniteVector | None = None
    for x in pool:
        if x.is_zero:
            raise ValueError("candidates must be nonzero")
        y = normalize_l1(x)
        num = norm_eval(m, y, session)
        den = norm_eval(n, y, session)
        if den == 0 or num == 0:
            raise ArithmeticError(
                "norm of a nonzero vector evaluated to zero; corrupted NormSpec"
            )
        ratio = num / den
        if sided == "two-sided":
            ratio = max(ratio, 1 / ratio)
        if best is None or ratio > best:
            best, witness = ratio, x
    return DistanceEstimate(best, "lower-bound", sided, witness)


@dataclass
class PhiEstimate:
    """Phi value plus the exact distance estimate it came from.

    ``bound_direction`` records how the transform maps a lower bound on D:
    a lower bound under the increasing transform, an upper bound under the
    decreasing one.
    """

    value: Fraction | float
    bound_direction: str  # "lower" | "upper"
    variant: PhiVariant
    d_estimate: DistanceEstimate


def phi_of(m: NormSpec, n: NormSpec, variant: PhiVariant,
           pool: list[FiniteVector],
           session: EvalSession | None = None) -> PhiEstimate:
    d = distance_lower(m, n, pool, variant.default_sided, session)
    value = variant.transform(d.value)
    direction = "lower" if variant.increasing else "upper"
    return PhiEstimate(value, direction, variant, d)


# ---------------------------------------------------------------------------
# Order-property matrix
# ---------------------------------------------------------------------------

@dataclass
class MatrixEntry:
    numerator_level: int
    denominator_level: int
    estimate: DistanceEstimate
    verdict: str  # "=1" | "<=1" | ">=1"
    source: str

    def to_report(self) -> dict:
        return {
            "numerator_level": self.numerator_level,
            "denominator_level": self.denominator_level,
            "estimate": self.estimate.to_report(),
            "verdict": self.verdict,
            "source": self.source,
        }


def default_matrix_pool() -> list[FiniteVector]:
    """Small-support candidates evaluable exactly at every desk-scale level."""
    return [FiniteVector.basis(1), FiniteVector.basis(3),
            FiniteVector.from_blocks([(1, 4, Fraction(1, 4))]),
            FiniteVector.from_blocks([(3, 5, Fraction(1))]),
            base_witness(2).sum, cascade_vector(2, 4), cascade_stack(2, 2, 2, Fraction(1, 3))]


@dataclass
class OrderPropertyMatrix:
    max_level: int
    entries: dict[tuple[int, int], MatrixEntry]
    rule: AdmissibilityRule

    def entry(self, numerator_level: int, denominator_level: int) -> MatrixEntry:
        return self.entries[(numerator_level, denominator_level)]

    def d_value(self, numerator_level: int, denominator_level: int) -> Fraction:
        return self.entries[(numerator_level, denominator_level)].estimate.value

    def d_matrix_for_stability(self) -> list[list[Fraction]]:
        """Distance grid oriented for the stability diagnostic.

        Rows are indexed by the denominator level, columns by the numerator
        level, so growth certificates (numerator above denominator) sit in
        the strictly upper triangle.
        """
        size = self.max_level + 1
        return [
            [self.d_value(num, den) for num in range(size)]
            for den in range(size)
        ]

    def phi_matrix_for_stability(self, variant: PhiVariant) -> list[list[float]]:
        return [
            [float(variant.transform(d)) for d in row]
            for row in self.d_matrix_for_stability()
        ]

    def to_report(self) -> dict:
        return {
            "max_level": self.max_level,
            "rule": self.rule.value,
            "entries": [e.to_report() for _, e in sorted(self.entries.items())],
        }


def order_property_matrix(max_level: int, budget: SearchBudget | None = None,
                          rule: AdmissibilityRule = _FJ,
                          session: EvalSession | None = None) -> OrderPropertyMatrix:
    """One-sided distance estimates between iterate levels 0..max_level.

    Above-denominator entries (numerator < denominator) carry the verdict
    "<=1", certified by the pointwise monotonicity of the iterates; the other
    entries are certified lower bounds from pools, witnesses, and search.
    """
    if max_level < 2:
        raise ValueError("need levels 0..L with L >= 2")
    pool = default_matrix_pool()
    t1 = pool[0]  # the first basis vector

    # One evaluation per (level, candidate); every pair reads the cache.
    normalized = [normalize_l1(x) for x in pool]
    values = [
        [norm_eval(Iterate(level, rule), y, session) for y in normalized]
        for level in range(max_level + 1)
    ]

    entries: dict[tuple[int, int], MatrixEntry] = {}
    for num in range(max_level + 1):
        for den in range(max_level + 1):
            if num == den:
                entries[(num, den)] = MatrixEntry(
                    num, den, DistanceEstimate(Fraction(1), "exact", "one-sided", t1),
                    "=1", "identity")
                continue
            best, witness = None, None
            for idx, x in enumerate(pool):
                ratio = values[num][idx] / values[den][idx]
                if best is None or ratio > best:
                    best, witness = ratio, x
            est = DistanceEstimate(best, "lower-bound", "one-sided", witness)
            if num < den:
                # Iterates are pointwise nondecreasing in the level, so the
                # one-sided supremum is exactly 1 (witnessed by any basis
                # vector, bounded by the ladder).
                entries[(num, den)] = MatrixEntry(num, den, est, "<=1", "ladder")
            else:
                entries[(num, den)] = MatrixEntry(num, den, est, ">=1", "pool")

    if rule is _FJ:
        cert = ratio_certificate(1, 4, session)
        _raise_entry(entries, 2, 1, cert.lower_bound, cert.x, "witness-certificate")
    if rule is _FJ and max_level >= 3:
        found = ratio_search(Iterate(3, rule), Iterate(2, rule), budget, seed=0,
                             session=session)
        _raise_entry(entries, 3, 2, found.lower_bound, found.x, "ratio-search")

    # Ladder lifting: a certified ratio bound survives raising the numerator
    # level or lowering the denominator level.
    for num in range(max_level + 1):
        for den in range(num - 1, -1, -1):
            best = entries[(num, den)].estimate.value
            for num2 in range(den + 1, num + 1):
                for den2 in range(den, num2):
                    cand = entries[(num2, den2)].estimate.value
                    if cand > best:
                        best = cand
                        src = entries[(num2, den2)]
                        _raise_entry(entries, num, den, cand,
                                     src.estimate.witness, f"lifted-from-({num2},{den2})")
    return OrderPropertyMatrix(max_level, entries, rule)


def _raise_entry(entries, num, den, value: Fraction, witness, source: str) -> None:
    current = entries[(num, den)]
    if value > current.estimate.value:
        entries[(num, den)] = MatrixEntry(
            num, den,
            DistanceEstimate(value, "lower-bound", "one-sided", witness),
            current.verdict, source)


# ---------------------------------------------------------------------------
# Stability gap
# ---------------------------------------------------------------------------

@dataclass
class StabilityReport:
    """Triangle aggregates of a finite double-sequence phi matrix.

    ``sup_lower`` is the supremum over entries whose first index is lower
    (strictly above the diagonal); ``inf_upper`` the infimum over entries
    whose first index is higher (strictly below).  A persistent nonzero gap
    as the truncation grows is the finite shadow of instability.
    """

    sup_lower: float
    inf_upper: float
    gap: float
    rows: int
    cols: int
    sup_witness: tuple[int, int]
    inf_witness: tuple[int, int]

    def to_report(self) -> dict:
        return {**asdict(self), "sup_witness": list(self.sup_witness),
                "inf_witness": list(self.inf_witness)}


def stability_gap(matrix: list[list[float]] | list[list[Fraction]]) -> StabilityReport:
    """sup over the strict upper triangle minus inf over the strict lower."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows < 2 or cols < 2 or any(len(r) != cols for r in matrix):
        raise ValueError("stability gap needs a rectangular matrix, at least 2x2")
    sup_val, sup_at = None, None
    inf_val, inf_at = None, None
    for i in range(rows):
        for j in range(cols):
            v = matrix[i][j]
            if i < j and (sup_val is None or v > sup_val):
                sup_val, sup_at = v, (i, j)
            if j < i and (inf_val is None or v < inf_val):
                inf_val, inf_at = v, (i, j)
    if sup_val is None or inf_val is None:
        raise ValueError("matrix has an empty triangle")
    return StabilityReport(sup_val, inf_val, sup_val - inf_val,
                           rows, cols, sup_at, inf_at)


def stability_sign_exact(d_matrix: list[list[Fraction]], variant: PhiVariant) -> int:
    """Sign of the stability gap decided on the rational distances alone.

    The increasing transform keeps the order of the distances, so the gap of
    the phi matrix has the sign of the gap of the distances.  The decreasing
    one reverses it: the phi gap has the sign of max(lower of d) - min(upper
    of d), which is the gap of the transposed distances.  No floats enter.
    """
    if not variant.increasing:
        d_matrix = [list(column) for column in zip(*d_matrix, strict=True)]
    gap = stability_gap(d_matrix).gap
    return (gap > 0) - (gap < 0)
