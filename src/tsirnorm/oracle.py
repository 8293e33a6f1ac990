"""Exhaustive enumeration oracle for iterate and limit norms.

Test-only reference: enumerates every admissible family of successive
finite sets through their traces on the support (unions with holes and
partial covers included), with none of the engine's interval reductions.
Sets of support points are bitmasks.  A level-j value is a Python-int
numerator over ``2**j * Q`` (``Q`` the lcm of the denominators) and the
Figiel-Johnson limit one over ``2**s * Q`` (``s`` points); only the result
is a ``Fraction``.  All tables live inside a single top-level call.
"""

from __future__ import annotations

from fractions import Fraction
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
        raise ValueError(
            f"oracle refuses support size {x.support_size} > {ORACLE_SUPPORT_LIMIT}"
        )
    points = [(i, abs(v)) for i, v in x.entries()]
    if not points:
        return Fraction(0)
    q = lcm(*(v.denominator for _, v in points))
    num = [v.numerator * (q // v.denominator) for _, v in points]
    index = [i for i, _ in points]
    full = (1 << len(points)) - 1
    if k is None:
        if rule is AdmissibilityRule.FIGIEL_JOHNSON:
            return Fraction(_limit_fj(index, num)[full], (1 << len(points)) * q)
        # Constant once the step index passes the largest support index.
        k = index[-1] + 1
    return Fraction(_level(index, num, k, rule)[full], (1 << k) * q)


def _subsets(mask: int):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


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


def _sup(num, mask: int) -> int:
    return max(v for i, v in enumerate(num) if mask >> i & 1)


def _level(index, num, k: int, rule: AdmissibilityRule) -> list[int]:
    """Level-k numerators over 2**k * Q of every point set, one level at a time."""
    chunkings = _chunkings(len(num))
    sets = range(1, len(chunkings))
    value = [0] + [_sup(num, m) for m in sets]
    for j in range(1, k + 1):
        # best[sub]: the best family whose trace on the support is exactly sub.
        best = [0] * len(value)
        for sub in sets:
            first_index = index[(sub & -sub).bit_length() - 1]
            for chunks in chunkings[sub]:
                if rule is AdmissibilityRule.FIGIEL_JOHNSON:
                    if len(chunks) > first_index:
                        continue
                # Step j uses exactly j-1 sets; sets missing the support can
                # always be parked above it, so any i <= j-1 traces with
                # min >= j-1 are realisable.
                elif len(chunks) > j - 1 or first_index < j - 1:
                    continue
                best[sub] = max(best[sub], sum(value[c] for c in chunks))
        level = [0] + [max(2 * value[m], *(best[sub] for sub in _subsets(m)))
                       for m in sets]
        # Once j-1 >= s no count cap binds and options never grow from step
        # to step, so a level that only doubles every value repeats forever.
        if j > len(num) and level == [2 * v for v in value]:
            return [v << (k - j) for v in level]
        value = level
    return value


def _limit_fj(index, num) -> list[int]:
    """Limit numerators over 2**s * Q of every point set, smaller sets first.

    A set's families split it into strictly smaller sets, which have smaller
    masks; each set of p points is halved at most p - 1 times.
    """
    s = len(num)
    chunkings = _chunkings(s)
    value = [0] * len(chunkings)
    for m in range(1, len(chunkings)):
        best = 0
        for sub in _subsets(m):
            first_index = index[(sub & -sub).bit_length() - 1]
            for chunks in chunkings[sub]:
                if len(chunks) > first_index or chunks == [m]:
                    # The one-set full-trace family scores half the value
                    # being defined; it can never set the maximum.
                    continue
                best = max(best, sum(value[c] for c in chunks))
        if best & 1:
            raise RuntimeError(f"odd family numerator {best} over 2**{s}")
        value[m] = max(_sup(num, m) << s, best >> 1)
    return value
