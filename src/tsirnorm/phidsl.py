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
from functools import reduce
from typing import Callable, ClassVar, Union

from .geometry import PhiVariant, distance_lower
from .norms import MAX_NESTING, Join, NormSpec
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
    "EvalContext",
    "eval_phi",
    "mpv",
    "RealizerResult",
    "approx_realizer",
]

Value = Union[Fraction, float]


@dataclass(frozen=True)
class Const1:
    def __str__(self):
        return "1"

    def to_json(self) -> dict:
        return {"tag": "const1"}

    def fold(self, atom: Callable[[str], Value]) -> Value:
        return Fraction(1)

    def required(self, ctx: EvalContext) -> list[NormSpec]:
        # Constants score 1 against every norm, so they impose no requirement.
        return []


@dataclass(frozen=True)
class Atom:
    name: str

    def __str__(self):
        return f"phi({self.name})"

    def to_json(self) -> dict:
        return {"tag": "atom", "name": self.name}

    def fold(self, atom: Callable[[str], Value]) -> Value:
        return atom(self.name)

    def required(self, ctx: EvalContext) -> list[NormSpec]:
        return [ctx.norm(self.name)]


@dataclass(frozen=True)
class Scal:
    coeff: Fraction
    child: "PhiExpr"

    def __post_init__(self):
        if not (0 <= self.coeff <= 1):
            raise ValueError(f"scale coefficient {self.coeff} outside [0, 1]")

    def __str__(self):
        return f"{self.coeff}*{self.child}"

    def to_json(self) -> dict:
        return {"tag": "scal", "coeff": str(self.coeff), "child": self.child.to_json()}

    def fold(self, atom: Callable[[str], Value]) -> Value:
        return self.coeff * self.child.fold(atom)

    def required(self, ctx: EvalContext) -> list[NormSpec]:
        return self.child.required(ctx)


@dataclass(frozen=True)
class _Binary:
    """Two operands joined by the subclass's ``symbol`` and ``combine`` rule."""

    left: "PhiExpr"
    right: "PhiExpr"
    symbol: ClassVar[str]
    tag: ClassVar[str]
    combine: ClassVar[Callable[[Value, Value], Value]]

    def __str__(self):
        return f"({self.left}{self.symbol}{self.right})"

    def to_json(self) -> dict:
        return {"tag": self.tag, "left": self.left.to_json(), "right": self.right.to_json()}

    def fold(self, atom: Callable[[str], Value]) -> Value:
        return self.combine(self.left.fold(atom), self.right.fold(atom))

    def required(self, ctx: EvalContext) -> list[NormSpec]:
        # Registered norms the realizer must favour, each once, in first-use order.
        left = self.left.required(ctx)
        return left + [norm for norm in self.right.required(ctx) if norm not in left]


@dataclass(frozen=True)
class And(_Binary):
    symbol, tag, combine = "&", "and", staticmethod(min)


@dataclass(frozen=True)
class Or(_Binary):
    symbol, tag, combine = "|", "or", staticmethod(max)

    def required(self, ctx: EvalContext) -> list[NormSpec]:
        # A max is attained by its larger branch alone.
        larger = self.left if mpv(self.left) >= mpv(self.right) else self.right
        return larger.required(ctx)


@dataclass(frozen=True)
class Oplus(_Binary):
    symbol, tag = "+", "oplus"
    combine = staticmethod(lambda a, b: min(a + b, Fraction(1)))


PhiExpr = Union[Const1, Atom, Scal, And, Or, Oplus]
_OPERATORS = {op.symbol: op for op in (And, Or, Oplus)}


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

    def expr(self, depth: int = 0) -> PhiExpr:
        """An expression inside ``depth`` operators and scalings."""
        if depth > MAX_NESTING:
            self.error(f"expression nested deeper than {MAX_NESTING}")
        self.skip_ws()
        c = self.peek()
        if c == "(":
            self.i += 1
            left = self.expr(depth + 1)
            self.skip_ws()
            op = self.peek()
            if op not in _OPERATORS:
                self.error("expected one of " + ", ".join(map(repr, _OPERATORS)))
            self.i += 1
            right = self.expr(depth + 1)
            self.expect(")")
            return _OPERATORS[op](left, right)
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
                return Scal(value, self.expr(depth + 1))
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
    """Expression of the text; str(e) is its canonical form, parse_phi(str(e)) == e."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

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

    def norm(self, name: str) -> NormSpec:
        if name not in self.registry:
            raise PhiEvalError(f"unresolved atom {name!r}")
        return self.registry[name]

    def atom_value(self, name: str, target: NormSpec,
                   session: EvalSession | None = None) -> Value:
        norm = self.norm(name)
        if self.atom_evaluator is not None:
            return self.atom_evaluator(name, target)
        d = distance_lower(norm, target, self.pool, self.variant.default_sided, session)
        return self.variant.transform(d.value)


def eval_phi(expr: PhiExpr, target: NormSpec, ctx: EvalContext,
             session: EvalSession | None = None) -> Value:
    """Value of the expression against the target norm, in [0, 1].

    Each distinct atom is valued once, at its first use from the left.
    """
    values: dict[str, Value] = {}

    def atom(name: str) -> Value:
        if name not in values:
            values[name] = ctx.atom_value(name, target, session)
        return values[name]

    return expr.fold(atom)


def mpv(expr: PhiExpr) -> Fraction:
    """Maximum possible value: the expression with every atom at 1."""
    return expr.fold(lambda name: Fraction(1))


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
            "norm": str(self.norm),
            "achieved": str(self.achieved),
            "mpv": str(self.target_mpv),
        }


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
    # The join of the registered norms the expression needs, in first-use order.
    required = expr.required(ctx)
    norm = reduce(Join, required) if required else ctx.registry[min(ctx.registry)]
    achieved = eval_phi(expr, norm, ctx, session)
    return RealizerResult(norm, achieved, target)
