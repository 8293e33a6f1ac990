"""Witness vectors certifying iterate-norm growth, and certified ratio search.

Every quantitative claim a witness makes is re-verified before the witness
is returned: exact lines through two independent evaluation routes,
inequality lines through explicit admissible-family certificates.  A witness
either verifies or the construction fails loudly; nothing is approximated.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import fastpaths
from .norms import Iterate, NormSpec, iterate_norm, norm_eval
from .rules import AdmissibilityRule
from .session import BudgetExceededError, EvalSession
from .vectors import FiniteVector, format_vector, l1_norm, normalize_l1, sup_norm

__all__ = [
    "Schedule",
    "schedule",
    "CertificateLine",
    "Witness",
    "base_witness",
    "inductive_witness",
    "CertifiedRatio",
    "ratio_certificate",
    "SearchBudget",
    "ratio_search",
    "DichotomyEntry",
    "dichotomy_probe",
    "cascade_vector",
    "cascade_stack",
]

_FJ = AdmissibilityRule.FIGIEL_JOHNSON

# Exhaustive re-verification of the first iterate is feasible up to here.
_EXHAUSTIVE_MAXPOS = 60_000

# Python's default limit on the digits of an int converted to text: a
# schedule with a longer start could be built but never reported.
_MAX_START_DIGITS = 4300
_MAX_START = 10 ** _MAX_START_DIGITS


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Block starts m_1 < m_2 < ... with fast-growing separation.

    The separation invariant (2*m_i - 1)/m_{i+1} < 1/m_i keeps mass in later
    blocks invisible to counts anchored at earlier blocks.
    """

    n: int
    start: int
    m: tuple[int, ...]

    def __post_init__(self):
        if self.m[0] != max(self.n, self.start, 2):
            raise ValueError("schedule must anchor m_1 at max(n, start, 2)")
        for a, b in zip(self.m, self.m[1:]):
            if not (a * (2 * a - 1) < b):
                raise ValueError(f"separation fails between {a} and {b}")


def schedule(n: int, start: int = 1) -> Schedule:
    """Minimal schedule: m_1 = max(n, start, 2), then the least admissible step.

    Refused (``size-limit``) once a start passes ``_MAX_START_DIGITS`` digits.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    m = [max(n, start, 2)]
    for _ in range(n - 1):
        m.append(m[-1] * (2 * m[-1] - 1) + 1)
        if m[-1] >= _MAX_START:
            raise BudgetExceededError(
                f"schedule of {n} parts refused: start {len(m)} passes "
                f"{_MAX_START_DIGITS} digits", reason="size-limit")
    return Schedule(n, start, tuple(m))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass
class CertificateLine:
    name: str
    left: Fraction
    relation: str  # "=", "<=", ">="
    right: Fraction
    status: str    # "exact" | "certified-lower-bound"
    ok: bool
    checks: tuple[str, ...] = ()

    def to_report(self) -> dict:
        return {**asdict(self), "left": str(self.left), "right": str(self.right),
                "checks": list(self.checks)}


@dataclass
class Witness:
    level: int
    n: int
    schedule: tuple[int, ...]
    parts: list[FiniteVector]
    sum: FiniteVector
    certificate: list[CertificateLine]

    @property
    def verified(self) -> bool:
        return all(line.ok for line in self.certificate)

    def to_report(self) -> dict:
        return {
            "level": self.level,
            "n": self.n,
            "schedule": list(self.schedule),
            "parts": [format_vector(p) for p in self.parts],
            "sum": format_vector(self.sum),
            "certificate": [line.to_report() for line in self.certificate],
            "verified": self.verified,
        }


def _part_mass_squeeze(part: FiniteVector) -> bool:
    """Structural proof that a one-block witness part has first iterate 1/2.

    For a constant block [m, 2m-1] at height 1/m with m >= 2: the whole block
    is Schreier-admissible (m indices starting at m), so the first iterate is
    at least half the unit mass; and it is at most max(sup, mass/2) = 1/2.
    """
    if len(part.runs) != 1:
        return False
    s, e, v = part.runs[0]
    m = s
    return m >= 2 and e == 2 * m - 1 and v == Fraction(1, m)


def _sum_structural_bound(sched: Schedule) -> Fraction:
    # Case analysis over the block holding a family's anchor gives
    # (1/2)(1 + 1/m_i) for every admissible family; the bound is widest at m_1.
    return Fraction(1, 2) * (1 + Fraction(1, sched.m[0]))


def _scan_dtype(top: int, max_index: int):
    """Width of the exhaustive scan: int64 while top * max_index, a bound on
    every sum of at most max_index numerators of at most top, stays below
    2**62; Python ints in an object array from there on."""
    return object if top * max_index >= 1 << 62 else np.int64


def _exhaustive_schreier_max(runs, max_index: int) -> Fraction:
    """Best Schreier-admissible sum of ``runs`` by trying every cardinality.

    One numpy pass over every n in 1..max_index: the optimum for n takes the
    n largest coefficients among indices >= n, so each run, in value order,
    gives min(its width past n, what is still to take), and n is feasible
    when nothing is left to take.  Numerators over the runs' lcm, in the
    width ``_scan_dtype`` picks.  Kept apart from ``fastpaths._greedy_value``,
    which values the primary scan's candidate n one at a time.
    """
    q = lcm(*(w.denominator for _, _, w in runs))
    nums = [w.numerator * (q // w.denominator) for _, _, w in runs]
    dtype = _scan_dtype(max(nums, default=0), max_index)
    n = np.arange(1, max_index + 1)
    left = n.copy()
    total = np.zeros(max_index, dtype=dtype)
    for num, (start, end, _) in sorted(zip(nums, runs), key=lambda pair: -pair[0]):
        take = np.minimum(np.maximum(end + 1 - np.maximum(n, start), 0), left)
        left -= take
        total += take.astype(dtype) * num
    return Fraction(int(total[left == 0].max(initial=0)), q)


def _level1_cross_checked(x: FiniteVector) -> tuple[Fraction, tuple[str, ...]]:
    """First iterate via the primary scan plus independent re-evaluations."""
    runs = [(s, e, abs(v)) for s, e, v in x.runs]
    value = fastpaths.level1_runs(runs)
    checks = ["count-scan"]
    alt = max(sup_norm(x), fastpaths.schreier_max_runs_alt(runs) / 2)
    if alt != value:
        raise AssertionError(f"level-1 cross-check failed: {value} vs {alt}")
    checks.append("anchor-scan")
    if x.max_index <= _EXHAUSTIVE_MAXPOS:
        exhaustive = max(sup_norm(x), _exhaustive_schreier_max(runs, x.max_index) / 2)
        if exhaustive != value:
            raise AssertionError("level-1 exhaustive check failed")
        checks.append("exhaustive-scan")
    return value, tuple(checks)


def _windows_admissible(parts: list[FiniteVector]) -> bool:
    """The parts' supports form an admissible successive family."""
    n = len(parts)
    if n > parts[0].min_index:
        return False
    return all(a.max_index < b.min_index for a, b in zip(parts, parts[1:]))


def base_witness(n: int, start: int = 1) -> Witness:
    """Blocks [m_i, 2m_i-1] at height 1/m_i on a minimal schedule.

    Certifies: each part has first iterate exactly 1/2, the sum has first
    iterate at most 1, and the second iterate of the sum is at least n/4.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    sched = schedule(n, start)
    parts = [
        FiniteVector([(m, 2 * m - 1, Fraction(1, m))]) for m in sched.m
    ]
    total = sum(parts[1:], parts[0])

    lines: list[CertificateLine] = []
    half = Fraction(1, 2)
    for i, part in enumerate(parts, start=1):
        value, checks = _level1_cross_checked(part)
        ok = value == half and _part_mass_squeeze(part) and l1_norm(part) == 1
        lines.append(CertificateLine(
            f"|x_{i}|_1", value, "=", half, "exact", ok,
            checks + ("mass-squeeze",),
        ))

    sum_value, sum_checks = _level1_cross_checked(total)
    bound = _sum_structural_bound(sched)
    ok = sum_value <= 1 and sum_value <= bound
    lines.append(CertificateLine(
        "|x|_1", sum_value, "<=", Fraction(1), "exact", ok,
        sum_checks + ("schedule-bound",),
    ))
    return _closed_witness(1, n, sched.m, parts, total, lines)


def _closed_witness(level: int, n: int, starts: tuple[int, ...], parts: list[FiniteVector],
                    total: FiniteVector, lines: list[CertificateLine]) -> Witness:
    """Close ``lines`` (n part lines, then the sum line) with the family line:
    the parts form one admissible family, so the sum's next iterate is at
    least half their level-``level`` values.  A witness must verify."""
    family_value = sum((line.left for line in lines[:n]), Fraction(0)) / 2
    ok = _windows_admissible(parts) and family_value >= Fraction(n, 4)
    lines.append(CertificateLine(
        f"|{'x' if level == 1 else 'z'}|_{level + 1}", family_value, ">=", Fraction(n, 4),
        "certified-lower-bound", ok, ("family-certificate",),
    ))
    witness = Witness(level, n, starts, parts, total, lines)
    if not witness.verified:
        raise AssertionError(f"level-{level} witness failed verification")
    return witness


def _exact_iterate(x: FiniteVector, k: int, session: EvalSession, name: str) -> Fraction:
    """k-th iterate of x for certificate line ``name``; a refusal names the line."""
    try:
        return iterate_norm(x, k, _FJ, session)
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"{name} not exactly verifiable: {exc}", exc.lower_bound, reason=exc.reason
        ) from exc


def inductive_witness(k: int, n: int, start: int = 1,
                      session: EvalSession | None = None) -> Witness:
    """Level-k witness: parts with k-th iterate exactly 1/2 on successive
    windows, sum with k-th iterate at most 1 and (k+1)-th at least n/4.

    For k >= 2 each window holds a rescaled level-(k-1) witness; window
    starts obey the separation start_{i+1} > n * (end of window i).  The
    upper-bound line is established by exact evaluation; when that is out of
    budget the construction fails naming the unverified line.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    if k == 1:
        return base_witness(n, start)

    session = session or EvalSession()
    window_start = max(n, start, 2)
    starts: list[int] = []
    zs: list[FiniteVector] = []
    for i in range(1, n + 1):
        inner = inductive_witness(k - 1, n, start=window_start, session=session)
        y = inner.sum
        y_up = _exact_iterate(y, k, session, f"|y_{i}|_{k}")
        z = y.scale(Fraction(1, 2) / y_up)
        starts.append(window_start)
        zs.append(z)
        window_start = n * y.max_index + 1

    total = sum(zs[1:], zs[0])

    lines: list[CertificateLine] = []
    half = Fraction(1, 2)
    for i, z in enumerate(zs, start=1):
        value = _exact_iterate(z, k, session, f"|z_{i}|_{k}")
        lines.append(CertificateLine(
            f"|z_{i}|_{k}", value, "=", half, "exact", value == half,
            ("engine", "rescale-arithmetic"),
        ))

    sum_value = _exact_iterate(total, k, session, f"|z|_{k}")
    checks = ["engine"]
    if n * half <= 1:
        # Subadditivity caps the sum at n/2; an independent route to <= 1.
        checks.append("subadditivity-cap")
    lines.append(CertificateLine(
        f"|z|_{k}", sum_value, "<=", Fraction(1), "exact", sum_value <= 1,
        tuple(checks),
    ))
    return _closed_witness(k, n, tuple(starts), zs, total, lines)


# ---------------------------------------------------------------------------
# Certified ratios
# ---------------------------------------------------------------------------

@dataclass
class CertifiedRatio:
    x: FiniteVector
    numerator: NormSpec
    denominator: NormSpec
    lower_bound: Fraction
    numerator_exact: bool
    denominator_exact: bool

    def to_report(self) -> dict:
        return {
            "candidate": format_vector(self.x),
            "numerator": str(self.numerator),
            "denominator": str(self.denominator),
            "lower_bound": str(self.lower_bound),
            "numerator_exact": self.numerator_exact,
            "denominator_exact": self.denominator_exact,
        }


def ratio_certificate(k: int, n: int, session: EvalSession | None = None) -> CertifiedRatio:
    """Witness-backed lower bound for the (k+1 vs k) iterate ratio, >= n/4."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    witness = inductive_witness(k, n, session=session)
    den = next(line for line in witness.certificate
               if line.name in (f"|x|_{k}", f"|z|_{k}"))
    bound = Fraction(n, 4) / den.left
    return CertifiedRatio(
        normalize_l1(witness.sum),
        Iterate(k + 1), Iterate(k),
        bound, numerator_exact=False, denominator_exact=True,
    )


@dataclass(frozen=True)
class SearchBudget:
    max_support: int = 200
    max_candidates: int = 48


def cascade_vector(start: int, nblocks: int, scale: Fraction = Fraction(1)) -> FiniteVector:
    """Doubling blocks [a, 2a-1] at height scale/a: unit scaled mass each."""
    blocks, a = [], start
    for _ in range(nblocks):
        blocks.append((a, 2 * a - 1, scale * Fraction(1, a)))
        a *= 2
    return FiniteVector(blocks)


def cascade_stack(first_start: int, first_blocks: int, second_blocks: int,
                  damping: Fraction) -> FiniteVector:
    """A cascade followed by a damped cascade starting where the first ends.

    The damping hides the far cascade from second-iterate counting anchored
    on the near one while third-iterate families still collect both tiers.
    """
    first = cascade_vector(first_start, first_blocks)
    second = cascade_vector(first_start * (1 << first_blocks), second_blocks, damping)
    return first + second


def _certified_lower(spec: NormSpec, x: FiniteVector, session: EvalSession) -> tuple[Fraction, bool]:
    try:
        return norm_eval(spec, x, session), True
    except BudgetExceededError as exc:
        return exc.lower_bound, False


def _certified_upper(spec: NormSpec, x: FiniteVector, session: EvalSession) -> tuple[Fraction, bool]:
    try:
        return norm_eval(spec, x, session), True
    except BudgetExceededError:
        # Every norm in the algebra is dominated by the l1 mass.
        return l1_norm(x), False


def _candidate_stream(seed: int, extra: list[FiniteVector] | None):
    rng = random.Random(seed)
    if extra:
        yield from extra
    yield FiniteVector.basis(1)
    for m in range(2, 7):
        yield normalize_l1(FiniteVector([(1, m, Fraction(1))]))
    for m in (2, 3, 5, 8, 13):
        yield FiniteVector([(m, 2 * m - 1, Fraction(1, m))])
    for n in (2, 3, 4):
        yield base_witness(n).sum
    for nblocks in (3, 4, 5, 6):
        yield cascade_vector(2, nblocks)
    # Damped stacks: strong third-vs-second iterate separation at small support.
    yield cascade_stack(2, 2, 4, Fraction(1, 3))
    yield cascade_stack(3, 2, 4, Fraction(1, 3))
    yield cascade_stack(2, 2, 3, Fraction(1, 3))
    yield cascade_stack(2, 3, 3, Fraction(1, 4))
    yield cascade_stack(2, 2, 4, Fraction(2, 5))
    while True:
        size = rng.randint(1, 10)
        indices = rng.sample(range(1, 41), size)
        entries = {
            i: Fraction(rng.randint(1, 8), rng.randint(1, 8)) for i in indices
        }
        yield FiniteVector.from_entries(entries)


def ratio_search(num: NormSpec, den: NormSpec, budget: SearchBudget | None = None,
                 seed: int = 0, pool: list[FiniteVector] | None = None,
                 session: EvalSession | None = None) -> CertifiedRatio:
    """Best certified lower bound on sup |x|_num / |x|_den over a candidate pool.

    The numerator side may be a certified lower bound; the denominator side is
    exact or a certified upper bound, so the reported ratio is always a true
    lower bound.  Every candidate charges ``session``, the search's one work
    budget; once it is spent, the remaining candidates fall back to those
    certified bounds, never to a refusal.  Deterministic for a fixed seed and
    budget; a larger pool only adds candidates, so the result never decreases.
    """
    budget = budget or SearchBudget()
    session = session or EvalSession()
    t1 = FiniteVector.basis(1)
    stream = itertools.islice(_candidate_stream(seed, pool), budget.max_candidates)
    best = None
    for x in itertools.chain([t1], stream):
        if x is not t1 and (x.is_zero or x.support_size > budget.max_support):
            continue
        num_val, num_exact = _certified_lower(num, x, session)
        den_val, den_exact = _certified_upper(den, x, session)
        if den_val == 0:
            raise ArithmeticError("norm upper bound of a nonzero vector is zero")
        ratio = num_val / den_val
        if best is None or ratio > best.lower_bound:
            best = CertifiedRatio(x, num, den, ratio, num_exact, den_exact)
    return best


# ---------------------------------------------------------------------------
# Order-property probe
# ---------------------------------------------------------------------------

@dataclass
class DichotomyEntry:
    target: Fraction
    level_pair: tuple[int, int]
    achieved: bool
    certificate: CertifiedRatio | None
    note: str

    def to_report(self) -> dict:
        return {
            "target": str(self.target),
            "levels": list(self.level_pair),
            "achieved": self.achieved,
            "certificate": self.certificate.to_report() if self.certificate else None,
            "note": self.note,
        }


def dichotomy_probe(targets: list[Fraction], budget: SearchBudget | None = None,
                    session: EvalSession | None = None) -> list[DichotomyEntry]:
    """Attempt certified growth ratios >= targets along increasing level pairs.

    Only the unbounded-growth alternative is ever certified; a miss is
    reported as not-achieved-within-budget, never as evidence of norm
    equivalence.  A base witness whose schedule is refused for its size
    leaves the target to the search.
    """
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise ValueError("targets must be increasing")
    entries: list[DichotomyEntry] = []
    for i, target in enumerate(targets):
        k_lo, k_hi = i + 1, i + 2
        cert: CertifiedRatio | None = None
        if k_lo == 1:
            n = max(2, -(-4 * target.numerator // target.denominator))
            try:
                candidate = ratio_certificate(1, n, session)
            except BudgetExceededError as exc:
                if exc.reason != "size-limit":
                    raise
            else:
                if candidate.lower_bound >= target:
                    cert = candidate
        if cert is None:
            found = ratio_search(Iterate(k_hi), Iterate(k_lo), budget, seed=i,
                                 session=session)
            if found.lower_bound >= target:
                cert = found
        if cert is not None:
            entries.append(DichotomyEntry(target, (k_lo, k_hi), True, cert, "certified"))
        else:
            entries.append(DichotomyEntry(
                target, (k_lo, k_hi), False, None, "not-achieved-within-budget"))
    return entries
