"""Norm specifications and the exact evaluation dispatcher.

``norm_eval`` routes every request to the cheapest exact path that fits:
closed forms on run-compressed vectors for levels 0 and 1, integer dynamic
programs for levels 2 and 3 on explicit point supports, and the generic
rational evaluator elsewhere.  When no exact path fits the budget, a
``BudgetExceededError`` carries the best certified lower bound instead of a
silent approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import fastpaths
from .engine import GENERIC_SUPPORT_LIMIT, SmallEvaluator
from .rules import AdmissibilityRule
from .session import BudgetExceededError, EvalSession
from .vectors import FiniteVector, l1_norm, sup_norm

__all__ = [
    "Ell1",
    "Sup",
    "Iterate",
    "TsirelsonLimit",
    "Join",
    "NormSpec",
    "iterate_norm",
    "tsirelson_norm",
    "stabilization_level",
    "norm_eval",
    "parse_normspec",
    "format_normspec",
]

_FJ = AdmissibilityRule.FIGIEL_JOHNSON
_PL = AdmissibilityRule.PAPER_LITERAL

# Point supports up to this size always go through the generic evaluator.
_SMALL_CUTOFF = 28


@dataclass(frozen=True)
class Ell1:
    pass


@dataclass(frozen=True)
class Sup:
    pass


@dataclass(frozen=True)
class Iterate:
    level: int
    rule: AdmissibilityRule = _FJ

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("iterate level must be >= 0")


@dataclass(frozen=True)
class TsirelsonLimit:
    rule: AdmissibilityRule = _FJ


@dataclass(frozen=True)
class Join:
    left: "NormSpec"
    right: "NormSpec"


NormSpec = Ell1 | Sup | Iterate | TsirelsonLimit | Join


def _abs_points(x: FiniteVector) -> tuple[list[int], list[Fraction]]:
    pos, w = [], []
    for i, v in x.entries():
        pos.append(i)
        w.append(abs(v))
    return pos, w


def _abs_runs(x: FiniteVector):
    return [(s, e, abs(v)) for s, e, v in x.runs]


def cheap_lower_bound(x: FiniteVector, k: int | None, rule: AdmissibilityRule) -> Fraction:
    """Certified lower bound usable when exact evaluation is out of budget."""
    if x.is_zero:
        return Fraction(0)
    lb = sup_norm(x)
    if rule is _PL:
        return lb
    runs = _abs_runs(x)
    if k is None or k >= 1:
        lb = max(lb, fastpaths.level1_runs(runs))
    if (k is None or k >= 2) and len(runs) >= 2 and len(runs) <= x.min_index:
        # The runs themselves form an admissible family; their first-iterate
        # values bound the level-(k-1) piece norms from below.
        family = sum(fastpaths.level1_runs([r]) for r in runs) / 2
        lb = max(lb, family)
    return lb


def iterate_norm(x: FiniteVector, k: int, rule: AdmissibilityRule = _FJ,
                 session: EvalSession | None = None) -> Fraction:
    """Exact k-th iterate norm of x under the chosen admissibility rule."""
    if k < 0:
        raise ValueError("iterate level must be >= 0")
    if x.is_zero:
        return Fraction(0)
    if k == 0:
        return sup_norm(x)
    if rule is _PL and k <= 2:
        # Step 1 admits zero sets and step 2 a single set; neither can beat
        # the sup part.
        return sup_norm(x)
    if rule is _FJ and k == 1:
        return fastpaths.level1_runs(_abs_runs(x))

    size = x.support_size
    session = session or EvalSession()

    def generic() -> Fraction:
        pos, w = _abs_points(x)
        return SmallEvaluator(pos, w, rule, session).iterate(k)

    if size <= _SMALL_CUTOFF:
        return generic()
    if rule is _FJ and k == 2 and size <= fastpaths.LEVEL2_POINT_LIMIT:
        pos, w = _abs_points(x)
        try:
            return fastpaths.level2_top_points(pos, w, session)
        except BudgetExceededError as exc:
            if size <= GENERIC_SUPPORT_LIMIT:
                return generic()
            exc.lower_bound = cheap_lower_bound(x, k, rule)
            raise
    if rule is _FJ and k == 3 and size <= fastpaths.LEVEL3_POINT_LIMIT:
        pos, w = _abs_points(x)
        try:
            return fastpaths.level3_top_points(pos, w, session)
        except BudgetExceededError as exc:
            if size <= GENERIC_SUPPORT_LIMIT:
                return generic()
            exc.lower_bound = cheap_lower_bound(x, k, rule)
            raise
    if size <= GENERIC_SUPPORT_LIMIT:
        return generic()
    raise BudgetExceededError(
        f"no exact path for level {k} at support size {size}",
        lower_bound=cheap_lower_bound(x, k, rule),
        reason="size-limit",
    )


def tsirelson_norm(x: FiniteVector, rule: AdmissibilityRule = _FJ,
                   session: EvalSession | None = None) -> Fraction:
    """Exact limit norm, computed by the well-founded fixed-point recursion."""
    if x.is_zero:
        return Fraction(0)
    session = session or EvalSession()
    size = x.support_size
    if size <= GENERIC_SUPPORT_LIMIT:
        pos, w = _abs_points(x)
        return SmallEvaluator(pos, w, rule, session).limit()
    raise BudgetExceededError(
        f"no exact limit path at support size {size}",
        lower_bound=cheap_lower_bound(x, None, rule),
        reason="size-limit",
    )


def stabilization_level(x: FiniteVector, rule: AdmissibilityRule = _FJ,
                        session: EvalSession | None = None) -> tuple[int, Fraction]:
    """Smallest K with iterate K equal to the limit, plus the limit value.

    For the Figiel-Johnson rule K never exceeds the support size; for the
    literal rule it never exceeds the largest support index plus one.
    """
    if x.is_zero:
        return 0, Fraction(0)
    size = x.support_size
    if size > GENERIC_SUPPORT_LIMIT:
        raise BudgetExceededError(
            f"no exact limit path at support size {size}",
            lower_bound=cheap_lower_bound(x, None, rule),
            reason="size-limit",
        )
    pos, w = _abs_points(x)
    evaluator = SmallEvaluator(pos, w, rule, session or EvalSession())
    limit = evaluator.limit()
    hard_cap = size if rule is _FJ else x.max_index + 1
    for k in range(hard_cap + 1):
        if evaluator.iterate(k) == limit:
            return k, limit
    raise AssertionError("iterates failed to stabilize below the provable cap")


def norm_eval(spec: NormSpec, x: FiniteVector,
              session: EvalSession | None = None) -> Fraction:
    """Exact value of the described norm at x."""
    if isinstance(spec, Ell1):
        return l1_norm(x)
    if isinstance(spec, Sup):
        return sup_norm(x)
    if isinstance(spec, Iterate):
        return iterate_norm(x, spec.level, spec.rule, session)
    if isinstance(spec, TsirelsonLimit):
        return tsirelson_norm(x, spec.rule, session)
    if isinstance(spec, Join):
        return max(norm_eval(spec.left, x, session), norm_eval(spec.right, x, session))
    raise TypeError(f"not a NormSpec: {spec!r}")


# -- spec literals -----------------------------------------------------------

def parse_normspec(text: str, rule: AdmissibilityRule = _FJ) -> NormSpec:
    """Parse 'l1' | 'sup' | 'iterate:K' | 'tsirelson' | 'join(SPEC,SPEC)'."""
    t = text.strip()
    low = t.lower()
    if low == "l1":
        return Ell1()
    if low == "sup":
        return Sup()
    if low == "tsirelson":
        return TsirelsonLimit(rule)
    if low.startswith("iterate:"):
        try:
            level = int(t.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad iterate level in {text!r}") from exc
        return Iterate(level, rule)
    if low.startswith("join(") and t.endswith(")"):
        inner = t[5:-1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return Join(parse_normspec(inner[:i], rule),
                            parse_normspec(inner[i + 1:], rule))
        raise ValueError(f"join needs two comma-separated parts: {text!r}")
    raise ValueError(f"unknown norm spec {text!r}")


def format_normspec(spec: NormSpec) -> str:
    if isinstance(spec, Ell1):
        return "l1"
    if isinstance(spec, Sup):
        return "sup"
    if isinstance(spec, Iterate):
        return f"iterate:{spec.level}"
    if isinstance(spec, TsirelsonLimit):
        return "tsirelson"
    if isinstance(spec, Join):
        return f"join({format_normspec(spec.left)},{format_normspec(spec.right)})"
    raise TypeError(f"not a NormSpec: {spec!r}")
