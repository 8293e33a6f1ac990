"""Norm specifications and the exact evaluation dispatcher.

Each spec carries its own ``evaluate(x, session)``, ``lower_bound(x)`` and
``__str__``; ``norm_eval`` is ``spec.evaluate``.  Evaluation takes one
path: closed forms on run-compressed vectors (levels 0 and 1, the literal
rule to level 2); then the generic rational evaluator on supports of at most
28 points; past them the integer table tower of ``fastpaths`` for every
level, the limit and both rules (it picks its own number width).  A refusal
is a ``BudgetExceededError`` carrying a certified lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import fastpaths
from .engine import SmallEvaluator
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
]

_FJ = AdmissibilityRule.FIGIEL_JOHNSON
_PL = AdmissibilityRule.PAPER_LITERAL

# Point supports up to this size go through the generic evaluator, larger
# ones through the table tower.
_SMALL_CUTOFF = 28


@dataclass(frozen=True)
class Ell1:
    def evaluate(self, x: FiniteVector, session: EvalSession | None = None) -> Fraction:
        return l1_norm(x)

    lower_bound = evaluate

    def __str__(self) -> str:
        return "l1"


@dataclass(frozen=True)
class Sup:
    def evaluate(self, x: FiniteVector, session: EvalSession | None = None) -> Fraction:
        return sup_norm(x)

    lower_bound = evaluate

    def __str__(self) -> str:
        return "sup"


@dataclass(frozen=True)
class Iterate:
    level: int
    rule: AdmissibilityRule = _FJ

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("iterate level must be >= 0")

    def evaluate(self, x: FiniteVector, session: EvalSession | None = None) -> Fraction:
        return iterate_norm(x, self.level, self.rule, session)

    def lower_bound(self, x: FiniteVector) -> Fraction:
        return cheap_lower_bound(x, self.level, self.rule)

    def __str__(self) -> str:
        return f"iterate:{self.level}"


@dataclass(frozen=True)
class TsirelsonLimit:
    rule: AdmissibilityRule = _FJ

    def evaluate(self, x: FiniteVector, session: EvalSession | None = None) -> Fraction:
        return tsirelson_norm(x, self.rule, session)

    def lower_bound(self, x: FiniteVector) -> Fraction:
        return cheap_lower_bound(x, None, self.rule)

    def __str__(self) -> str:
        return "tsirelson"


@dataclass(frozen=True)
class Join:
    left: "NormSpec"
    right: "NormSpec"

    def evaluate(self, x: FiniteVector, session: EvalSession | None = None) -> Fraction:
        return max(self.left.evaluate(x, session), self.right.evaluate(x, session))

    def lower_bound(self, x: FiniteVector) -> Fraction:
        return max(self.left.lower_bound(x), self.right.lower_bound(x))

    def __str__(self) -> str:
        return f"join({self.left},{self.right})"


NormSpec = Ell1 | Sup | Iterate | TsirelsonLimit | Join


def _abs_points(x: FiniteVector) -> tuple[list[int], list[Fraction]]:
    """x's points and absolute weights, refused before they are built if no table of them fits."""
    fastpaths.check_table(x.support_size, 4)  # int32, the narrowest width
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


def _exact(x: FiniteVector, k: int | None, rule: AdmissibilityRule,
           session: EvalSession | None) -> list[Fraction]:
    """x's level k (None: the limit), last in the list of the levels climbed.

    The generic evaluator, up to _SMALL_CUTOFF points, lists only that value.
    Figiel-Johnson levels 2 and 3 are looked up at call time, so rebinding
    them (as a tracer does) reaches this call.  Refusals carry cheap_lower_bound.
    """
    try:
        points = _abs_points(x)
        if x.support_size <= _SMALL_CUTOFF:
            evaluator = SmallEvaluator(*points, rule, session)
            return [evaluator.limit() if k is None else evaluator.iterate(k)]
        if rule is _FJ and k == 2:
            return [fastpaths.level2_top_points(*points, session)]
        if rule is _FJ and k == 3:
            return [fastpaths.level3_top_points(*points, session)]
        return fastpaths.top_points(*points, rule, k, session)
    except BudgetExceededError as exc:
        exc.lower_bound = cheap_lower_bound(x, k, rule)
        raise


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
    return _exact(x, k, rule, session)[-1]


def tsirelson_norm(x: FiniteVector, rule: AdmissibilityRule = _FJ,
                   session: EvalSession | None = None) -> Fraction:
    """Exact limit norm: the generic fixed-point recursion, or the tower's fixed point."""
    if x.is_zero:
        return Fraction(0)
    return _exact(x, None, rule, session)[-1]


def stabilization_level(x: FiniteVector, rule: AdmissibilityRule = _FJ,
                        session: EvalSession | None = None) -> tuple[int, Fraction]:
    """Smallest K with iterate K equal to the limit, plus the limit value.

    K never exceeds the support size plus one, under either rule.
    """
    if x.is_zero:
        return 0, Fraction(0)
    session = session or EvalSession()
    levels = _exact(x, None, rule, session)
    limit, tower = levels[-1], x.support_size > _SMALL_CUTOFF
    for k in range(x.support_size + 2):
        if (levels[k] if tower else iterate_norm(x, k, rule, session)) == limit:
            return k, limit
    raise AssertionError("iterates failed to stabilize below the provable cap")


def norm_eval(spec: NormSpec, x: FiniteVector,
              session: EvalSession | None = None) -> Fraction:
    """Exact value of the described norm at x; a refusal carries spec.lower_bound(x)."""
    try:
        return spec.evaluate(x, session)
    except BudgetExceededError as exc:
        exc.lower_bound = spec.lower_bound(x)
        raise


# -- spec literals -----------------------------------------------------------

# Deeper joins (and deeper DSL expressions) are refused by their parsers, so
# that no input can exhaust the stack of the recursions that read them.
MAX_NESTING = 100


def parse_normspec(text: str, rule: AdmissibilityRule = _FJ) -> NormSpec:
    """Parse 'l1' | 'sup' | 'iterate:K' | 'tsirelson' | 'join(SPEC,SPEC)'."""
    def parse(text: str, joins: int) -> NormSpec:
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
            if joins == MAX_NESTING:
                raise ValueError(f"norm spec nests joins deeper than {MAX_NESTING}")
            inner = t[5:-1]
            depth = 0
            for i, ch in enumerate(inner):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                elif ch == "," and depth == 0:
                    return Join(parse(inner[:i], joins + 1), parse(inner[i + 1:], joins + 1))
            raise ValueError(f"join needs two comma-separated parts: {text!r}")
        raise ValueError(f"unknown norm spec {text!r}")

    return parse(text, 0)
