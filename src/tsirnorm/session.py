"""Evaluation sessions: memo tables, work budgets, engine statistics."""

from __future__ import annotations

from fractions import Fraction

__all__ = ["EvalSession", "BudgetExceededError"]


_REFUSAL_REASONS = ("budget", "size-limit")


class BudgetExceededError(Exception):
    """An exact evaluation was refused.

    ``reason`` names the cause: ``budget`` (the work budget ran out) or
    ``size-limit`` (a table of the support passes the table memory limit at
    its number width, or a witness schedule's start passes the digits Python
    converts to text).

    ``lower_bound`` is attached by the public evaluators in ``norms`` before
    the error leaves them; it is a true lower bound, never an approximation
    of the exact value.
    """

    def __init__(self, message: str, lower_bound: Fraction | None = None, *,
                 reason: str):
        if reason not in _REFUSAL_REASONS:
            raise ValueError(f"unknown refusal reason {reason!r}")
        super().__init__(message)
        self.lower_bound = lower_bound
        self.reason = reason


class EvalSession:
    """Per-computation scratch state.

    A session confines memoisation to one logical top-level evaluation; it is
    not shared between unrelated calls.  ``budget`` caps ``used``, the work
    units charged weighed by their cost; the ``stats`` counters are unweighed.
    """

    # Default generous budget: enough for every documented desk-scale path.
    DEFAULT_BUDGET = 20_000_000_000

    def __init__(self, budget: int | None = None):
        self.budget = self.DEFAULT_BUDGET if budget is None else budget
        self.used = 0
        self.memo: dict = {}
        self.stats = {
            "ranges_evaluated": 0,
            "dp_transitions": 0,
            "tables_built": 0,
            "families_enumerated": 0,
        }

    def charge(self, units: int, what: str = "dp_transitions", weight: int = 1,
               ahead: int = 0) -> None:
        # Refuse before counting, so the counters hold only work that was
        # done; ``ahead`` is work that must follow for this work to be of use.
        used = self.used + units * weight
        if used + ahead > self.budget:
            raise BudgetExceededError(f"work budget of {self.budget} units exhausted: "
                                      f"{used + ahead - self.used} asked for, "
                                      f"{self.used} already used", reason="budget")
        self.used = used
        self.stats[what] += units
