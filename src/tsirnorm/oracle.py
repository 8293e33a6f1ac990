"""Exhaustive enumeration oracle for iterate and limit norms.

Test-only reference: enumerates every admissible family of successive
finite sets through their traces on the support (unions with holes and
partial covers included), with none of the engine's interval reductions.
Sets of support points are bitmasks.  One climb serves every level and
both limits, on Python-int numerators over ``2**j * Q`` at level j (``Q``
the lcm of the denominators); only the result is a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

from .rules import AdmissibilityRule
from .vectors import FiniteVector

__all__ = ["brute_force_norm", "ORACLE_SUPPORT_LIMIT"]

ORACLE_SUPPORT_LIMIT = 8


def brute_force_norm(x: FiniteVector, k: int | None, rule: AdmissibilityRule) -> Fraction:
    """Exact norm by exhaustive family enumeration; ``k=None`` is the limit."""
    if k is not None and k < 0:
        raise ValueError("iterate level must be >= 0")
    if x.support_size > ORACLE_SUPPORT_LIMIT:
        raise ValueError(f"oracle refuses support size {x.support_size} > "
                         f"{ORACLE_SUPPORT_LIMIT}")
    points = [(i, abs(v)) for i, v in x.entries()]
    if not points:
        return Fraction(0)
    q = lcm(*(v.denominator for _, v in points))
    num = [v.numerator * (q // v.denominator) for _, v in points]
    value, j = _climb([i for i, _ in points], num, k, rule)
    return Fraction(value[-1], (1 << j) * q)


@cache
def _chunkings(s: int) -> list[list[list[int]]]:
    """For every point set, all its splits into consecutive nonempty chunks."""
    table: list[list[list[int]]] = [[]]
    for sub in range(1, 1 << s):
        table.append([[sub]])
        for i in range(s):
            # A first chunk ending at point i, then any split of the rest.
            head = sub & ((2 << i) - 1)
            if sub >> i & 1 and head != sub:
                table[sub] += [[head] + rest for rest in table[sub ^ head]]
    return table


def _climb(index, num, k: int | None, rule: AdmissibilityRule) -> tuple[list[int], int]:
    """Numerators over 2**j * Q of every point set at level j, and j.

    A step scores every chunking of every set, then the best over subsets one
    point at a time.  j is k, or a level the next step only doubles where that
    is the limit: under Figiel-Johnson (the step does not depend on j), and
    under the literal rule once j > s (no count cap binds, options only shrink).
    """
    s = len(num)
    fj = rule is AdmissibilityRule.FIGIEL_JOHNSON
    # Figiel-Johnson settles s points by level s - 1, the literal rule by s + 1 (AdmissibilityRule).
    last = s + 1 if fj else s + 2
    chunkings = _chunkings(s)
    # Level 0: the sup of a set is that of the set less its lowest point, or that point.
    value = [0]
    for m in range(1, 1 << s):
        value.append(max(num[(m & -m).bit_length() - 1], value[m & (m - 1)]))
    j = 0
    while j != k:
        j += 1
        if j > last:
            raise RuntimeError(f"oracle climb passed level {last} without a fixed point")
        # best[sub]: the best family whose trace on the support is exactly sub.
        best = [0]
        for sub in range(1, len(value)):
            first = index[(sub & -sub).bit_length() - 1]
            # Literal step j: j-1 sets, parked above the support if they miss
            # it, so any i <= j-1 traces with min >= j-1 are realisable.
            most = first if fj else j - 1 if first >= j - 1 else 0
            top = 0
            for chunks in chunkings[sub]:
                if len(chunks) <= most:
                    total = 0
                    for c in chunks:
                        total += value[c]
                    if total > top:
                        top = total
            best.append(top)
        for bit in [1 << i for i in range(s)]:
            for m in range(bit, len(value)):
                if m & bit and best[m ^ bit] > best[m]:
                    best[m] = best[m ^ bit]
        if (fj or j > s) and all(b <= 2 * v for v, b in zip(value, best)):
            return value, j - 1
        value = [b if b > 2 * v else 2 * v for v, b in zip(value, best)]
    return value, j
