"""Expression DSL over norm-similarity atoms.

Grammar (whitespace-insensitive):

    expr := "1" | "phi(" ident ")" | "(" expr "&" expr ")"
          | "(" expr "|" expr ")" | "(" expr "+" expr ")" | rational "*" expr

"&" is pointwise min, "|" max, "+" addition truncated at 1, and scalar
coefficients are rationals in [0, 1].  Expressions evaluate against a target
norm through a context; values stay exact rationals as long as every atom
contributes an exact value, and drop to floats otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

from .geometry import PhiVariant, distance_lower
from .norms import Join, NormSpec, format_normspec
from .session import EvalSession
from .vectors import FiniteVector

__all__ = [
    "Const1",
    "Atom",
    "Scal",
    "And",
    "Or",
    "Oplus",
    "PhiExpr",
    "PhiParseError",
    "PhiEvalError",
    "parse_phi",
    "print_phi",
    "phi_to_json",
    "EvalContext",
    "eval_phi",
    "mpv",
    "RealizerResult",
    "approx_realizer",
]


@dataclass(frozen=True)
class Const1:
    pass


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Scal:
    coeff: Fraction
    child: "PhiExpr"

    def __post_init__(self):
        if not (0 <= self.coeff <= 1):
            raise ValueError(f"scale coefficient {self.coeff} outside [0, 1]")


@dataclass(frozen=True)
class And:
    left: "PhiExpr"
    right: "PhiExpr"


@dataclass(frozen=True)
class Or:
    left: "PhiExpr"
    right: "PhiExpr"


@dataclass(frozen=True)
class Oplus:
    left: "PhiExpr"
    right: "PhiExpr"


PhiExpr = Union[Const1, Atom, Scal, And, Or, Oplus]


class PhiParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PhiEvalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Parser / printer
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def error(self, message: str):
        raise PhiParseError(message, self.i)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.i += 1

    def parse(self) -> PhiExpr:
        expr = self.expr()
        self.skip_ws()
        if self.i != len(self.text):
            self.error("trailing input")
        return expr

    def expr(self) -> PhiExpr:
        self.skip_ws()
        c = self.peek()
        if c == "(":
            self.i += 1
            left = self.expr()
            self.skip_ws()
            op = self.peek()
            if op not in "&|+":
                self.error("expected one of '&', '|', '+'")
            self.i += 1
            right = self.expr()
            self.expect(")")
            return {"&": And, "|": Or, "+": Oplus}[op](left, right)
        if self.text.startswith("phi", self.i):
            self.i += 3
            self.expect("(")
            self.skip_ws()
            start = self.i
            while self.i < len(self.text) and (self.text[self.i].isalnum() or self.text[self.i] == "_"):
                self.i += 1
            if self.i == start:
                self.error("expected a norm identifier")
            name = self.text[start:self.i]
            self.expect(")")
            return Atom(name)
        if c.isdigit():
            num = self.integer()
            den = 1
            if self.peek() == "/":
                self.i += 1
                den = self.integer()
                if den == 0:
                    self.error("zero denominator")
            value = Fraction(num, den)
            self.skip_ws()
            if self.peek() == "*":
                self.i += 1
                if value > 1:
                    self.error(f"scale coefficient {value} outside [0, 1]")
                return Scal(value, self.expr())
            if value == 1:
                return Const1()
            self.error("a bare rational other than 1 is not a sentence")
        self.error("expected an expression")

    def integer(self) -> int:
        start = self.i
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        if self.i == start:
            self.error("expected digits")
        return int(self.text[start:self.i])


def parse_phi(text: str) -> PhiExpr:
    return _Parser(text).parse()


def print_phi(expr: PhiExpr) -> str:
    """Canonical parenthesised form; parse_phi(print_phi(e)) == e."""
    if isinstance(expr, Const1):
        return "1"
    if isinstance(expr, Atom):
        return f"phi({expr.name})"
    if isinstance(expr, Scal):
        return f"{expr.coeff}*{print_phi(expr.child)}"
    ops = {And: "&", Or: "|", Oplus: "+"}
    op = ops[type(expr)]
    return f"({print_phi(expr.left)}{op}{print_phi(expr.right)})"


def phi_to_json(expr: PhiExpr):
    if isinstance(expr, Const1):
        return {"tag": "const1"}
    if isinstance(expr, Atom):
        return {"tag": "atom", "name": expr.name}
    if isinstance(expr, Scal):
        return {"tag": "scal", "coeff": str(expr.coeff), "child": phi_to_json(expr.child)}
    tags = {And: "and", Or: "or", Oplus: "oplus"}
    return {
        "tag": tags[type(expr)],
        "left": phi_to_json(expr.left),
        "right": phi_to_json(expr.right),
    }


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

Value = Union[Fraction, float]


@dataclass
class EvalContext:
    """Registry of named norms plus the machinery atoms evaluate through.

    ``atom_evaluator`` may replace the distance-based atom semantics with a
    custom (for instance exact, precomputed) table; signature
    ``(atom_name, target_spec) -> value in [0, 1]``.
    """

    registry: dict[str, NormSpec]
    variant: PhiVariant = PhiVariant.SIMILARITY
    pool: list[FiniteVector] = field(default_factory=lambda: [FiniteVector.basis(1)])
    atom_evaluator: Callable[[str, NormSpec], Value] | None = None

    def atom_value(self, name: str, target: NormSpec,
                   session: EvalSession | None = None) -> Value:
        if name not in self.registry:
            raise PhiEvalError(f"unresolved atom {name!r}")
        if self.atom_evaluator is not None:
            return self.atom_evaluator(name, target)
        d = distance_lower(self.registry[name], target, self.pool,
                           self.variant.default_sided, session)
        value = d.value
        if value is not None and value < 1:
            # Every norm in the algebra takes the value 1 on the first basis
            # vector, so the true distance is at least 1; a weaker pool
            # estimate may be raised to that certified floor.
            value = Fraction(1)
        # Distance endpoints have exact rational images; only the interior
        # of the scale needs floating point.
        if value == 1:
            return Fraction(1) if self.variant is PhiVariant.SIMILARITY else Fraction(0)
        if value is None:
            return Fraction(0) if self.variant is PhiVariant.SIMILARITY else Fraction(1)
        return self.variant.transform(value)


def _vmin(a: Value, b: Value) -> Value:
    return a if a <= b else b


def _vmax(a: Value, b: Value) -> Value:
    return a if a >= b else b


_BINARY = {And: _vmin, Or: _vmax, Oplus: lambda a, b: _vmin(a + b, Fraction(1))}


def _fold(expr: PhiExpr, atom: Callable[[str], Value]) -> Value:
    """Value of the expression with each atom valued by ``atom(name)``."""
    if isinstance(expr, Const1):
        return Fraction(1)
    if isinstance(expr, Atom):
        return atom(expr.name)
    if isinstance(expr, Scal):
        return expr.coeff * _fold(expr.child, atom)
    if type(expr) not in _BINARY:
        raise TypeError(f"not a PhiExpr: {expr!r}")
    return _BINARY[type(expr)](_fold(expr.left, atom), _fold(expr.right, atom))


def eval_phi(expr: PhiExpr, target: NormSpec, ctx: EvalContext,
             session: EvalSession | None = None) -> Value:
    """Value of the expression against the target norm, in [0, 1]."""
    return _fold(expr, lambda name: ctx.atom_value(name, target, session))


def mpv(expr: PhiExpr) -> Fraction:
    """Maximum possible value: the expression with every atom at 1."""
    return _fold(expr, lambda name: Fraction(1))


# ---------------------------------------------------------------------------
# Approximate realizers
# ---------------------------------------------------------------------------

@dataclass
class RealizerResult:
    norm: NormSpec
    achieved: Value
    target_mpv: Fraction

    def to_report(self) -> dict:
        return {
            "norm": format_normspec(self.norm),
            "achieved": str(self.achieved),
            "mpv": str(self.target_mpv),
        }


def _required_norms(expr: PhiExpr, ctx: EvalContext) -> list[NormSpec]:
    """Registered norms the realizer must favour, in deterministic order.

    Constants score 1 against every norm, so they impose no requirement;
    a max is attained by its larger branch alone.
    """
    if isinstance(expr, Const1):
        return []
    if isinstance(expr, Atom):
        if expr.name not in ctx.registry:
            raise PhiEvalError(f"unresolved atom {expr.name!r}")
        return [ctx.registry[expr.name]]
    if isinstance(expr, Scal):
        return _required_norms(expr.child, ctx)
    if isinstance(expr, Or):
        if mpv(expr.left) >= mpv(expr.right):
            return _required_norms(expr.left, ctx)
        return _required_norms(expr.right, ctx)
    if isinstance(expr, (And, Oplus)):
        merged = _required_norms(expr.left, ctx)
        for norm in _required_norms(expr.right, ctx):
            if norm not in merged:
                merged.append(norm)
        return merged
    raise TypeError(f"not a PhiExpr: {expr!r}")


def _realize(expr: PhiExpr, ctx: EvalContext) -> NormSpec:
    required = _required_norms(expr, ctx)
    if not required:
        return ctx.registry[min(ctx.registry)]
    norm = required[0]
    for other in required[1:]:
        norm = Join(norm, other)
    return norm


def approx_realizer(expr: PhiExpr, ctx: EvalContext,
                    session: EvalSession | None = None) -> RealizerResult:
    """Norm built from registered norms and joins aiming at the expression's
    maximum possible value; the achieved value is reported alongside.

    When every atom references the same registered norm the result attains
    the maximum exactly.  Requires a nonzero maximum possible value.
    """
    if not ctx.registry:
        raise PhiEvalError("empty norm registry")
    target = mpv(expr)
    if target == 0:
        raise ValueError("maximum possible value is zero")
    norm = _realize(expr, ctx)
    achieved = eval_phi(expr, norm, ctx, session)
    return RealizerResult(norm, achieved, target)
