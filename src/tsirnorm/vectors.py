"""Finitely supported rational sequences.

Vectors live on the 1-based basis t_1, t_2, ... and carry exact
``fractions.Fraction`` coefficients.  Internally every vector is kept in a
canonical run-length form: a sorted tuple of ``(start, end, value)`` runs
with nonzero values and maximal extent, so a handful of runs can describe
supports with millions of indices.  Sparse and block constructors normalise
to the same canonical form, which makes the two input styles bit-identical
for every operation.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

__all__ = [
    "FiniteVector",
    "parse_vector",
    "format_vector",
    "sup_norm",
    "l1_norm",
    "normalize_l1",
    "VectorParseError",
]

# Guard for operations that would materialise one entry per index.
_MATERIALIZE_LIMIT = 2_000_000


class VectorParseError(ValueError):
    """Raised for malformed vector literals; carries the offending term."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


def _as_fraction(v) -> Fraction:
    if isinstance(v, (Fraction, int, str)):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


class FiniteVector:
    """Immutable finitely supported sequence of exact rationals.

    ``runs`` is the canonical representation: disjoint, sorted, nonzero,
    with adjacent equal-valued runs merged.
    """

    __slots__ = ("runs",)

    def __init__(self, runs: Iterable[tuple[int, int, Fraction]]):
        object.__setattr__(self, "runs", self._canonicalize(runs))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteVector is immutable")

    @staticmethod
    def _canonicalize(runs) -> tuple[tuple[int, int, Fraction], ...]:
        cleaned = []
        for start, end, value in runs:
            if not (isinstance(start, int) and isinstance(end, int)):
                raise TypeError("run endpoints must be integers")
            if start < 1:
                raise ValueError(f"indices are 1-based, got run start {start}")
            if end < start:
                raise ValueError(f"empty run [{start}, {end}]")
            value = _as_fraction(value)
            if value != 0:
                cleaned.append((start, end, value))
        cleaned.sort()
        merged: list[tuple[int, int, Fraction]] = []
        for start, end, value in cleaned:
            if merged:
                ps, pe, pv = merged[-1]
                if start <= pe:
                    raise ValueError(f"overlapping runs at index {start}")
                if start == pe + 1 and value == pv:
                    merged[-1] = (ps, end, pv)
                    continue
            merged.append((start, end, value))
        return tuple(merged)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "FiniteVector":
        return cls(())

    @classmethod
    def from_entries(cls, entries: Mapping[int, object] | Iterable[tuple[int, object]]) -> "FiniteVector":
        items = entries.items() if isinstance(entries, Mapping) else entries
        return cls((i, i, v) for i, v in items)

    @classmethod
    def basis(cls, index: int) -> "FiniteVector":
        """The basis vector t_index."""
        return cls(((index, index, Fraction(1)),))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.runs

    @property
    def support_size(self) -> int:
        return sum(e - s + 1 for s, e, _ in self.runs)

    @property
    def min_index(self) -> int:
        if not self.runs:
            raise ValueError("zero vector has no support")
        return self.runs[0][0]

    @property
    def max_index(self) -> int:
        if not self.runs:
            raise ValueError("zero vector has no support")
        return self.runs[-1][1]

    def entries(self) -> Iterator[tuple[int, Fraction]]:
        """Iterate (index, value) pairs; refuses absurdly wide supports."""
        if self.support_size > _MATERIALIZE_LIMIT:
            raise ValueError(
                f"support of size {self.support_size} exceeds the materialisation limit"
            )
        for start, end, value in self.runs:
            for i in range(start, end + 1):
                yield i, value

    def value_at(self, index: int) -> Fraction:
        for start, end, value in self.runs:
            if start <= index <= end:
                return value
            if start > index:
                break
        return Fraction(0)

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "FiniteVector") -> "FiniteVector":
        if not isinstance(other, FiniteVector):
            return NotImplemented
        # Split both run lists at each other's boundaries, then add values.
        bounds = set()
        for vec in (self, other):
            for s, e, _ in vec.runs:
                bounds.add(s)
                bounds.add(e + 1)
        cuts = sorted(bounds)
        runs = []
        for lo, hi in zip(cuts, cuts[1:]):
            v = self.value_at(lo) + other.value_at(lo)
            if v != 0:
                runs.append((lo, hi - 1, v))
        return FiniteVector(runs)

    def scale(self, c) -> "FiniteVector":
        c = _as_fraction(c)
        if c == 0:
            return FiniteVector.zero()
        return FiniteVector((s, e, c * v) for s, e, v in self.runs)

    # -- restriction --------------------------------------------------

    def clip(self, lo: int, hi: int) -> "FiniteVector":
        """Restriction to the index interval [lo, hi]."""
        if hi < lo:
            return FiniteVector.zero()
        out = []
        for s, e, v in self.runs:
            a, b = max(s, lo), min(e, hi)
            if a <= b:
                out.append((a, b, v))
        return FiniteVector(out)

    def restrict(self, indices: Iterable[int]) -> "FiniteVector":
        """Restriction to the given indices (repeats are ignored)."""
        out = []
        for i in set(indices):
            v = self.value_at(i)
            if v != 0:
                out.append((i, i, v))
        return FiniteVector(out)

    # -- comparisons / misc --------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteVector) and self.runs == other.runs

    def __hash__(self) -> int:
        return hash(self.runs)

    def __repr__(self) -> str:
        return f"FiniteVector({format_vector(self)!r})"


def sup_norm(x: FiniteVector) -> Fraction:
    if x.is_zero:
        return Fraction(0)
    return max(abs(v) for _, _, v in x.runs)


def l1_norm(x: FiniteVector) -> Fraction:
    total = Fraction(0)
    for s, e, v in x.runs:
        total += abs(v) * (e - s + 1)
    return total


def normalize_l1(x: FiniteVector) -> FiniteVector:
    mass = l1_norm(x)
    if mass == 0:
        raise ValueError("cannot normalize zero")
    return x.scale(Fraction(1) / mass)


# -- text literals -----------------------------------------------------

_TERM_RE = re.compile(
    r"^(?P<a>\d+)(?:\.\.(?P<b>\d+))?:(?P<val>-?\d+(?:/\d+)?)$"
)


def parse_vector(text: str) -> FiniteVector:
    """Parse ``index:num/den`` and ``a..b:num/den`` comma-separated terms.

    Whitespace is ignored.  Indices are strictly positive integers;
    repeated indices are rejected rather than summed.
    """
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        return FiniteVector.zero()
    runs = []
    for pos, term in enumerate(stripped.split(",")):
        m = _TERM_RE.match(term)
        if not m:
            raise VectorParseError(f"malformed term {term!r}", pos)
        a = int(m.group("a"))
        b = int(m.group("b")) if m.group("b") else a
        if a < 1:
            raise VectorParseError(f"indices are 1-based, got {a} in {term!r}", pos)
        if b < a:
            raise VectorParseError(f"empty block {term!r}", pos)
        try:
            value = Fraction(m.group("val"))
        except ZeroDivisionError as exc:
            raise VectorParseError(f"zero denominator in {term!r}", pos) from exc
        runs.append((a, b, value))
    try:
        return FiniteVector(runs)
    except ValueError as exc:
        raise VectorParseError(str(exc)) from exc


def format_vector(x: FiniteVector) -> str:
    """Canonical text literal; inverse of parse_vector on canonical forms."""
    terms = []
    for s, e, v in x.runs:
        head = f"{s}" if s == e else f"{s}..{e}"
        terms.append(f"{head}:{v}")
    return ",".join(terms)
