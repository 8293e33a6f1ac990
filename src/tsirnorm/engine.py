"""Reference evaluator for iterate and limit norms on small supports.

Works directly on the support points with memoised recursion over support
subintervals.  Values are Python-int numerators over one common denominator
``D = 2**s * Q`` (``Q`` the lcm of the weights' denominators, ``s`` the
support size): a window's value is halved at most once per strictly smaller
nested window, so every level and the limit stay integral over ``D``.  Only
the public methods build ``Fraction`` values.  The search space is reduced to
families of consecutive point groups covering a suffix of the window; the
reduction leans on 1-unconditionality and suppression, which the exhaustive
oracle re-checks independently in the test suite.
"""

from __future__ import annotations

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
        self._value_memo = self.session.memo.setdefault(("values", fingerprint), {})
        self._parts_memo = self.session.memo.setdefault(("parts", fingerprint), {})

    # -- public -----------------------------------------------------------

    def iterate(self, k: int) -> Fraction:
        if self.s == 0:
            return Fraction(0)
        return Fraction(self._value(0, self.s - 1, k), self.denominator)

    def limit(self) -> Fraction:
        if self.s == 0:
            return Fraction(0)
        if self.rule is AdmissibilityRule.PAPER_LITERAL:
            # Families at step k+1 need min E_1 >= k, impossible once k
            # passes the largest support index: the sequence is constant
            # from that level on.
            return self.iterate(self.pos[-1] + 1)
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
            result = max(self._sup(a, b), self._family_max(a, b, None, None))
            memo[(a, b, key)] = result
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
                result = max(memo[(a, b, level - 1)], self._family_max(a, b, level - 1, level))
            memo[(a, b, level)] = result
        return result

    def _family_max(self, a: int, b: int, group_key, step_k: int | None) -> int:
        """Half the best admissible-family sum over the window [a..b].

        Families are consecutive point groups covering [t..b] for some start
        t; single-group families never set the maximum and are skipped.
        """
        best = 0
        for t in range(a, b + 1):
            count = b - t + 1
            if self.rule is AdmissibilityRule.FIGIEL_JOHNSON or group_key is None:
                cap = min(self.pos[t], count)
            else:
                # step k+1 admits exactly k sets; after discarding sets that
                # miss the support, at most k groups with min >= k remain.
                assert step_k is not None
                if self.pos[t] < step_k - 1:
                    continue
                cap = min(step_k - 1, count)
            if cap < 2:
                continue
            self.session.charge(1, "families_enumerated")
            candidate = self._parts(t, cap, b, group_key)
            if candidate > best:
                best = candidate
        if best & 1:
            raise RuntimeError(f"odd family numerator {best} over {self.denominator}")
        return best >> 1

    def _parts(self, u: int, r: int, b: int, group_key) -> int:
        """Best sum of group values over partitions of [u..b] into r groups."""
        if r == 1:
            return self._value(u, b, group_key)
        memo_key = (u, r, b, group_key)
        cached = self._parts_memo.get(memo_key)
        if cached is not None:
            return cached
        best = None
        last_start = b - r + 1
        self.session.charge(last_start - u + 1, "dp_transitions")
        for c in range(u, last_start + 1):
            head = self._value(u, c, group_key)
            tail = self._parts(c + 1, r - 1, b, group_key)
            total = head + tail
            if best is None or total > best:
                best = total
        self._parts_memo[memo_key] = best
        return best
