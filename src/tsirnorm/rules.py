"""Admissibility rules for the iterate recursion."""

from __future__ import annotations

from enum import Enum

__all__ = ["AdmissibilityRule"]


class AdmissibilityRule(Enum):
    """Which families enter the maximisation at step k+1.

    FIGIEL_JOHNSON: any number n of successive sets with n <= min E_1.
    PAPER_LITERAL: exactly k sets with k <= min E_1 (so at most k sets meet
    the support once empties are discarded, and the first must start at or
    beyond k).

    Under either rule a set of m support points (a window, in the engine)
    has the same value at every level from m + 1 on.  By induction on m:
    every group of a family of two or more sets is a smaller set (one set
    gives at most half the set's own value), so at step k + 1 with k >= m
    (groups at level k) every group value is constant; at most m groups meet
    the set, so the count cap k never binds; and the literal condition
    k <= min E_1 only removes options as k grows.  So the family term of step
    k + 1 never rises past that of step m + 1, and level m + 2 equals level
    m + 1.  Under Figiel-Johnson the options do not depend on k, and the
    same induction gives level m - 1.
    """

    FIGIEL_JOHNSON = "fj"
    PAPER_LITERAL = "paper"

    @classmethod
    def parse(cls, text: str) -> "AdmissibilityRule":
        key = text.strip().lower()
        for rule in cls:
            if key == rule.value or key == rule.name.lower():
                return rule
        raise ValueError(f"unknown admissibility rule {text!r} (use 'fj' or 'paper')")
