"""Reference evaluator for iterate and limit norms on small supports.

Works directly on the support points with memoised recursion over support
subintervals.  Values are Python-int numerators over one common denominator
``D = 2**s * Q`` (``Q`` the lcm of the weights' denominators, ``s`` the
support size): a window's value is halved at most once per strictly smaller
nested window, so every level and the limit stay integral over ``D``.  Only
the public methods build ``Fraction`` values.  The search space is reduced to
families of consecutive point groups covering a suffix [t..b] of the window
[a..b]; the reduction leans on 1-unconditionality and suppression, which the
exhaustive oracle re-checks independently in the test suite.  A start's group
cap and best cover depend on t, b and the level, not on a, so a window's
family value depends on a only through its slice of starts, a..b-1: the
session memo keeps one list per (b, level), entry i the best value of the
starts b-1-i..b-1, filled downward as smaller left ends ask for it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm

from .rules import AdmissibilityRule
from .session import EvalSession

__all__ = ["SmallEvaluator"]


class SmallEvaluator:
    """Exact norm values over subranges of one vector's support.

    ``pos`` are the 1-based support indices in ascending order and ``w``
    their absolute coefficients; every iterate norm depends on coefficients
    only through absolute values (sign invariance).
    """

    def __init__(self, pos: list[int], w: list[Fraction], rule: AdmissibilityRule,
                 session: EvalSession | None = None):
        if len(pos) != len(w):
            raise ValueError("positions and weights must have equal length")
        self.pos = pos
        self.s = len(pos)
        self.rule = rule
        self.session = session or EvalSession()
        self.denominator = (1 << self.s) * lcm(*(v.denominator for v in w))
        self._num = [v.numerator * (self.denominator // v.denominator) for v in w]
        # Memo tables live in the session, fingerprinted by the vector (which
        # fixes the denominator) so a session shared across related
        # evaluations never mixes values or scales.
        fingerprint = (tuple(pos), tuple(w), rule.value)
        self._value_memo, self._parts_memo, self._start_memo = self.session.memo.setdefault(
            fingerprint, ({}, {}, {}))
        self._first_start = {}

    # -- public -----------------------------------------------------------

    def iterate(self, k: int) -> Fraction:
        """Level k of the whole support."""
        if self.s == 0:
            return Fraction(0)
        if self.rule is AdmissibilityRule.FIGIEL_JOHNSON and k >= self.s - 1:
            return self.limit()
        return Fraction(self._value(0, self.s - 1, k), self.denominator)

    def limit(self) -> Fraction:
        """The limit of the levels, which the literal rule reaches at level s + 1."""
        if self.s == 0:
            return Fraction(0)
        if self.rule is AdmissibilityRule.PAPER_LITERAL:
            return self.iterate(self.s + 1)
        return Fraction(self._value(0, self.s - 1, None), self.denominator)

    # -- recursion ----------------------------------------------------------

    def _sup(self, a: int, b: int) -> int:
        return max(self._num[a:b + 1])

    def _value(self, a: int, b: int, key: int | None) -> int:
        memo = self._value_memo
        cached = memo.get((a, b, key))
        if cached is not None:
            return cached
        if key is None:  # the limit
            self.session.charge(1, "ranges_evaluated")
            result = max(self._sup(a, b), self._family_max(a, b, None))
            memo[(a, b, key)] = result
            return result
        if key > b - a + 2:  # every level from b - a + 2 on is the same (AdmissibilityRule)
            result = memo[(a, b, key)] = self._value(a, b, b - a + 2)
            return result
        # Climb this window's levels in a loop from the highest one memoised,
        # so that recursion only enters strictly smaller windows.
        low = key
        while low > 0 and (a, b, low - 1) not in memo:
            low -= 1
        for level in range(low, key + 1):
            self.session.charge(1, "ranges_evaluated")
            if level == 0:
                result = self._sup(a, b)
            else:
                result = max(memo[(a, b, level - 1)], self._family_max(a, b, level - 1))
            memo[(a, b, level)] = result
        return result

    def _family_max(self, a: int, b: int, group_key: int | None) -> int:
        """Half the best admissible-family sum over the window [a..b].

        Families are consecutive point groups covering [t..b] for some start
        t < b (single-group families never set the maximum), valued at level
        ``group_key`` (None: the limit).  The window charges one family per
        start it takes, computed or read from the (b, key) list.
        """
        literal = group_key is not None and self.rule is AdmissibilityRule.PAPER_LITERAL
        first = self._first_start.get(group_key)
        if first is None:
            # The cap must reach 2: pos[t] >= 2, or under the literal rule pos[t] >= k >= 2
            # (step k+1, k = group_key, admits exactly k sets; after discarding sets
            # that miss the support, at most k groups with min >= k remain).
            least = group_key if literal else 2
            first = self.s if least < 2 else bisect_left(self.pos, least)
            self._first_start[group_key] = first
        count = b - max(a, first)
        if count <= 0:
            return 0
        self.session.charge(count, "families_enumerated")
        best = self._start_memo.setdefault((b, group_key), [])
        while len(best) < count:
            t = b - 1 - len(best)
            cap = min(group_key if literal else self.pos[t], b - t + 1)
            value = self._parts(t, cap, b, group_key)
            best.append(max(value, best[-1]) if best else value)
        if best[count - 1] & 1:
            raise RuntimeError(f"odd family numerator {best[count - 1]} over {self.denominator}")
        return best[count - 1] >> 1

    def _parts(self, u: int, r: int, b: int, group_key) -> int:
        """Best sum of group values over partitions of [u..b] into r groups.

        Callers read memoised states themselves: r >= 2 arrives only on a miss.
        """
        if r == 1:
            return self._value(u, b, group_key)
        values, parts = self._value_memo, self._parts_memo
        best = None
        last_start = b - r + 1
        self.session.charge(last_start - u + 1, "dp_transitions")
        for c in range(u, last_start + 1):
            head = values.get((u, c, group_key))
            if head is None:
                head = self._value(u, c, group_key)
            tail = (values.get((c + 1, b, group_key)) if r == 2
                    else parts.get((c + 1, r - 1, b, group_key)))
            if tail is None:
                tail = self._parts(c + 1, r - 1, b, group_key)
            total = head + tail
            if best is None or total > best:
                best = total
        parts[(u, r, b, group_key)] = best
        return best
