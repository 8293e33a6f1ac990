import random
import sys
import threading
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsirnorm import (
    AdmissibilityRule,
    BudgetExceededError,
    Ell1,
    EvalSession,
    FiniteVector,
    Iterate,
    Join,
    Sup,
    TsirelsonLimit,
    brute_force_norm,
    iterate_norm,
    l1_norm,
    norm_eval,
    parse_normspec,
    parse_vector,
    stabilization_level,
    sup_norm,
    tsirelson_norm,
)
from tsirnorm import fastpaths, witnesses
from tsirnorm.engine import SmallEvaluator
from tsirnorm.norms import cheap_lower_bound
from tsirnorm.witnesses import _exhaustive_schreier_max

from conftest import random_vector

FJ = AdmissibilityRule.FIGIEL_JOHNSON
PL = AdmissibilityRule.PAPER_LITERAL

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
tiny = st.dictionaries(st.integers(min_value=1, max_value=12), fractions,
                       min_size=1, max_size=5)


def vec(d):
    return FiniteVector.from_entries(d)


class TestIterateExamples:
    def test_basis_vector_all_levels(self):
        t1 = FiniteVector.basis(1)
        for k in range(5):
            assert iterate_norm(t1, k, FJ) == 1
        assert tsirelson_norm(t1, FJ) == 1
        for j in (2, 5, 9):
            assert tsirelson_norm(FiniteVector.basis(j), FJ) == 1

    def test_level_zero_is_sup(self):
        assert iterate_norm(vec({1: 1, 2: 1}), 0, FJ) == 1

    def test_three_point_run(self):
        x = parse_vector("3:1,4:1,5:1")
        assert iterate_norm(x, 1, FJ) == F(3, 2)
        assert tsirelson_norm(x, FJ) == F(3, 2)

    def test_pair_at_two(self):
        assert iterate_norm(vec({2: 1, 3: 1}), 1, FJ) == 1

    def test_zero_vector(self):
        zero = FiniteVector.zero()
        assert tsirelson_norm(zero, FJ) == 0
        assert iterate_norm(zero, 3, FJ) == 0

    def test_paper_literal_lags_behind(self):
        # Steps 1 and 2 admit no productive family; three singletons only
        # become admissible at step 4.
        x = parse_vector("3:1,4:1,5:1")
        assert iterate_norm(x, 1, PL) == 1
        assert iterate_norm(x, 2, PL) == 1
        assert iterate_norm(x, 3, PL) == 1
        assert iterate_norm(x, 4, PL) == F(3, 2)
        assert tsirelson_norm(x, PL) == F(3, 2)


class TestOracle:
    def test_refuses_large_support(self):
        x = vec({i: F(1) for i in range(1, 10)})
        with pytest.raises(ValueError, match="oracle"):
            brute_force_norm(x, 1, FJ)

    def test_refuses_negative_level(self):
        # Before any work, on the zero vector and past the support limit too.
        for x in (vec({2: F(1)}), vec({}), vec({i: F(1) for i in range(1, 10)})):
            for rule in (FJ, PL):
                with pytest.raises(ValueError, match="^iterate level must be >= 0$"):
                    brute_force_norm(x, -1, rule)

    def test_oracle_equivalence_small_samples(self, rng):
        for _ in range(40):
            x = random_vector(rng, max_support=5, max_index=12)
            for rule in (FJ, PL):
                for k in (0, 1, 2, 3, None):
                    expected = brute_force_norm(x, k, rule)
                    got = (tsirelson_norm(x, rule) if k is None
                           else iterate_norm(x, k, rule))
                    assert got == expected, (x, rule, k)


def fraction_oracle(x, k, rule):
    """Exhaustive oracle on Fraction values: tuple-of-points memo keys, one
    recursion per level, a division at every family.  An independent check
    of the integer-numerator bitmask oracle."""
    points = tuple(x.entries())
    if not points:
        return F(0)

    def sup(pts):
        return max(abs(v) for _, v in pts)

    def subsets(pts):
        for mask in range(1, 1 << len(pts)):
            yield tuple(pts[i] for i in range(len(pts)) if mask >> i & 1)

    def chunkings(subset):
        for cuts in range(1 << (len(subset) - 1)):
            chunks, start = [], 0
            for i in range(len(subset) - 1):
                if cuts >> i & 1:
                    chunks.append(subset[start:i + 1])
                    start = i + 1
            yield chunks + [subset[start:]]

    memo = {}

    def level(pts, j):
        if (pts, j) not in memo:
            result = sup(pts) if j == 0 else level(pts, j - 1)
            for subset in subsets(pts) if j else ():
                for chunks in chunkings(subset):
                    n, first = len(chunks), subset[0][0]
                    if (n > first if rule is FJ else n > j - 1 or first < j - 1):
                        continue
                    result = max(result, sum(level(c, j - 1) for c in chunks) / 2)
            memo[pts, j] = result
        return memo[pts, j]

    def limit(pts):
        if (pts, "T") not in memo:
            result = sup(pts)
            for subset in subsets(pts):
                for chunks in chunkings(subset):
                    if len(chunks) > subset[0][0] or chunks == [pts]:
                        continue
                    result = max(result, sum(limit(c) for c in chunks) / 2)
            memo[pts, "T"] = result
        return memo[pts, "T"]

    if k is None:
        return limit(points) if rule is FJ else level(points, points[-1][0] + 1)
    return level(points, k)


def engine_value(pos, w, rule, k, session):
    evaluator = SmallEvaluator(list(pos), list(w), rule, session)
    return evaluator.limit() if k is None else evaluator.iterate(k)


def engine_work(session):
    """(ranges_evaluated, dp_transitions, families_enumerated); every unit weighs 1."""
    stats = session.stats
    assert stats["tables_built"] == 0 and session.used == sum(stats.values())
    return stats["ranges_evaluated"], stats["dp_transitions"], stats["families_enumerated"]


def engine_support(size):
    rng = random.Random(size)
    pos = sorted(rng.sample(range(1, 2 * size + 1), size))
    return pos, [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in pos]


# The engine's work on engine_support(size) at levels 2, 3, 4 and the limit,
# each on a fresh session.  Pinned: how the engine reuses its memo must never
# change what it charges.
ENGINE_WORK = {
    (8, FJ): [(56, 87, 58), (84, 148, 114), (105, 209, 170), (28, 61, 56)],
    (8, PL): [(3, 0, 0), (85, 21, 6), (98, 57, 33), (103, 75, 46)],
    (11, FJ): [(105, 255, 130), (157, 400, 250), (198, 545, 370), (52, 145, 120)],
    (11, PL): [(3, 0, 0), (199, 55, 10), (252, 301, 212), (338, 1136, 606)],
    (14, FJ): [(207, 1103, 444), (310, 1975, 875), (399, 2847, 1306), (103, 872, 431)],
    (14, PL): [(3, 0, 0), (316, 91, 13), (405, 599, 444), (539, 2158, 1142)],
    (17, FJ): [(263, 1927, 628), (394, 3445, 1241), (509, 4963, 1854), (131, 1518, 613)],
    (17, PL): [(3, 0, 0), (409, 120, 15), (527, 876, 667), (791, 4657, 2307)],
    (20, FJ): [(418, 4299, 1300), (628, 7914, 2630), (818, 11529, 3960), (210, 3615, 1330)],
    (20, PL): [(3, 0, 0), (631, 190, 19), (800, 1448, 1125), (1243, 9426, 4329)],
    (24, FJ): [(543, 7694, 1866), (819, 14250, 3890), (1072, 20806, 5914), (276, 6556, 2024)],
    (24, PL): [(3, 0, 0), (829, 253, 22), (1058, 2193, 1753), (1914, 22898, 9228)],
}
# One session shared by all of them, in the order of the test: its running
# totals after each support.
ENGINE_SHARED_WORK = [(236, 345, 272), (824, 2171, 1368), (1865, 8048, 4247),
                      (3296, 19186, 9021), (5567, 43756, 18640), (8829, 94016, 35806)]


class TestIntegerNumerators:
    def test_oracle_matches_fraction_oracle(self):
        rng = random.Random(9)
        for _ in range(60):
            x = random_vector(rng, max_support=5, max_index=12)
            for rule in (FJ, PL):
                for k in (0, 1, 2, 3, 4, None):
                    assert brute_force_norm(x, k, rule) == fraction_oracle(x, k, rule), \
                        (x, rule, k)
        # Far-out literal-rule supports: the bitmask oracle stops its climb
        # once a level only doubles, the Fraction oracle climbs every level.
        for _ in range(20):
            s = rng.randint(1, 4)
            x = vec({i: F(rng.randint(1, 5), rng.randint(1, 6))
                     for i in rng.sample(range(20, 41), s)})
            for k in (s + 1, s + 3, 30, None):
                assert brute_force_norm(x, k, PL) == fraction_oracle(x, k, PL), (x, k)

    def test_oracle_matches_engine_on_dense_supports(self):
        # Seven or eight points, three of them at indices up to 5 and the
        # rest up to 20: a family of more sets than a low point's index must
        # start above it, so the oracle's subset maxima must drop each of the
        # low points; the literal climb passes s.
        rng = random.Random(22)
        for _ in range(12):
            s = rng.randint(7, 8)
            pos = rng.sample(range(1, 6), 3) + rng.sample(range(6, 21), s - 3)
            x = vec({i: F(rng.randint(1, 9), rng.randint(1, 9)) for i in pos})
            for rule in (FJ, PL):
                for k in (1, 2, s + 1, None):
                    expected = (tsirelson_norm(x, rule) if k is None
                                else iterate_norm(x, k, rule))
                    assert brute_force_norm(x, k, rule) == expected, (x, rule, k)

    def test_parity_guard_refuses_odd_numerator(self):
        # D = 2**2 * 1; an odd numerator in a piece makes the family sum odd.
        # Level 1 of two points is their limit, which reads the pieces' limits.
        se = SmallEvaluator([2, 3], [F(1), F(1)], FJ)
        assert se.denominator == 4
        se._value_memo[(0, 0, None)] = 3
        with pytest.raises(RuntimeError, match="odd family numerator"):
            se.iterate(1)

    def test_shared_session_matches_fresh(self, rng):
        # stabilization_level runs limit() and then iterate(k) on one session.
        for _ in range(30):
            x = random_vector(rng, max_support=7, max_index=14)
            pos, w = zip(*((i, abs(v)) for i, v in x.entries()))
            for rule in (FJ, PL):
                shared = EvalSession()
                limit = SmallEvaluator(list(pos), list(w), rule, shared).limit()
                assert limit == SmallEvaluator(list(pos), list(w), rule).limit()
                for k in range(5):
                    fresh = SmallEvaluator(list(pos), list(w), rule).iterate(k)
                    assert SmallEvaluator(list(pos), list(w), rule, shared).iterate(k) == fresh

    def test_shared_session_in_random_order(self, rng):
        # Start lists are filled by windows of different left ends and read
        # again by later calls, so any order of calls on one session gives
        # the fresh session's value and the oracle's.
        for _ in range(40):
            x = random_vector(rng, max_support=8, max_index=16)
            pos, w = zip(*((i, abs(v)) for i, v in x.entries()))
            for rule in (FJ, PL):
                levels = [None, *range(7)]
                rng.shuffle(levels)
                shared = EvalSession()
                for k in levels:
                    value = engine_value(pos, w, rule, k, shared)
                    assert value == engine_value(pos, w, rule, k, EvalSession()), (x, rule, k)
                    assert value == brute_force_norm(x, k, rule), (x, rule, k)

    def test_witness_window_work_units(self):
        # The 9-point window that the (2, 2) witness evaluates with the engine.
        pos, w = zip(*parse_vector("2..3:7/15,7..13:2/15").entries())
        session = EvalSession()
        assert engine_value(pos, w, FJ, 2, session) == F(1, 2)
        assert engine_work(session) == (90, 169, 122) and session.used == 381

    def test_work_units_are_pinned(self):
        # A window charges one family per start it takes, computed or read.
        shared = EvalSession()
        for size, totals in zip((8, 11, 14, 17, 20, 24), ENGINE_SHARED_WORK):
            pos, w = engine_support(size)
            for rule in (FJ, PL):
                values = {}
                for k, expected in zip((2, 3, 4, None), ENGINE_WORK[size, rule]):
                    session = EvalSession()
                    values[k] = engine_value(pos, w, rule, k, session)
                    assert engine_work(session) == expected, (size, rule, k)
                for k in (None, 2, 4, 3):
                    assert engine_value(pos, w, rule, k, shared) == values[k], (size, rule, k)
            assert engine_work(shared) == totals, size

    @pytest.mark.parametrize("rule", [FJ, PL])
    def test_climb_stops_at_the_stable_level(self, rule):
        # Every level from s - 1 (Figiel-Johnson) or s + 1 (the literal rule)
        # on is the same, so a far level climbs no further.
        pos, w = engine_support(8)
        stable = 7 if rule is FJ else 9
        far, near = EvalSession(), EvalSession()
        assert engine_value(pos, w, rule, 10 ** 6, far) == engine_value(pos, w, rule, stable, near)
        assert far.stats == near.stats and far.used == near.used

    def test_engine_matches_oracle_far_from_the_origin(self):
        # Supports near index 10**9: every level to s + 3, both limits and the
        # stabilization level, which is at most s + 1 under either rule.
        rng = random.Random(26)
        for s in [*range(1, 9), *range(1, 9)]:
            start = 10 ** 9 - rng.randint(0, 2 * s)
            pos = sorted(rng.sample(range(start, start + 2 * s), s))
            w = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in pos]
            x = vec(dict(zip(pos, w)))
            for rule in (FJ, PL):
                levels = [*range(s + 4), None]
                session = EvalSession()
                values = [engine_value(pos, w, rule, k, session) for k in levels]
                assert values == [brute_force_norm(x, k, rule) for k in levels], (x, rule)
                stable = values.index(values[-1])
                assert stabilization_level(x, rule) == (stable, values[-1]) and stable <= s + 1

    def test_families_enumerated_is_charged(self, rng):
        for _ in range(20):
            x = random_vector(rng, max_support=8, max_index=16)
            pos, w = zip(*((i, abs(v)) for i, v in x.entries()))
            se = SmallEvaluator(list(pos), list(w), FJ)
            se.limit()
            assert se.session.used == sum(se.session.stats.values())
        # Families count against the budget: ranges and transitions alone fall short.
        pos, w = list(range(2, 12)), [F(1, i) for i in range(2, 12)]
        se = SmallEvaluator(pos, w, FJ)
        se.limit()
        stats = se.session.stats
        assert stats["families_enumerated"] > 0
        budget = stats["ranges_evaluated"] + stats["dp_transitions"]
        with pytest.raises(BudgetExceededError):
            SmallEvaluator(pos, w, FJ, EvalSession(budget)).limit()


class TestFastPathAgreement:
    def test_levels_1_2_3_match_generic(self, rng):
        for _ in range(40):
            x = random_vector(rng, max_support=9, max_index=26)
            pos, w = zip(*((i, abs(v)) for i, v in x.entries()))
            se = SmallEvaluator(list(pos), list(w), FJ)
            runs = [(s, e, abs(v)) for s, e, v in x.runs]
            assert fastpaths.level1_runs(runs) == se.iterate(1)
            assert fastpaths.level2_top_points(list(pos), list(w)) == se.iterate(2)
            assert fastpaths.level3_top_points(list(pos), list(w)) == se.iterate(3)

    def test_supports_past_cutoff_cross_row_blocks(self, rng):
        # 29-40 points: past the small-support cutoff, and more rows than one
        # block of the partition kernel.
        for _ in range(4):
            size = rng.randint(29, 40)
            pos = sorted(rng.sample(range(2, 2 * size), size))
            w = [F(1, rng.randint(1, 12)) for _ in pos]
            se = SmallEvaluator(pos, w, FJ)
            assert fastpaths.level2_top_points(pos, w) == se.iterate(2)
            assert fastpaths.level3_top_points(pos, w) == se.iterate(3)

    def test_tower_matches_generic(self, rng, monkeypatch):
        # 29-40 points, both rules: every level the tower climbs, levels
        # 2-6, the limit and the stabilization level through the dispatcher.
        # Far-out indices make the literal rule climb past the support size;
        # on the support that starts near 10**9 it still ends by level s + 2.
        # In the last case the numerators over the prime q = 2**31 - 1 sum
        # to 2**26 - 1: the tables start in int32 and that climb widens them
        # to int64 at level 5 and to Python ints at level 37.
        widths = []
        kernel = fastpaths._family_dp
        monkeypatch.setattr(fastpaths, "_family_dp", lambda table, *args: (
            widths.append(table.dtype) or kernel(table, *args)))
        q, total = (1 << 31) - 1, (1 << 26) - 1
        cuts = sorted(rng.sample(range(1, total), 39))
        for size, first, w in (
                (29, 1, [F(1, rng.choice(PRIMES[:5])) for _ in range(29)]),
                (35, 25, [F(1, rng.choice(PRIMES[:5])) for _ in range(35)]),
                (30, 10 ** 9 - 7, [F(1 + i % 3, PRIMES[i % 4]) for i in range(30)]),
                (40, 60, [F(b - a, q) for a, b in zip([0] + cuts, cuts + [total])])):
            pos = sorted(rng.sample(range(first, first + 2 * size), size))
            x = FiniteVector.from_entries(dict(zip(pos, w)))
            for rule in (FJ, PL):
                widths.clear()
                se = SmallEvaluator(pos, w, rule)
                levels = fastpaths.top_points(pos, w, rule, None)
                assert levels == [se.iterate(j) for j in range(len(levels))]
                assert levels[-1] == se.limit() == tsirelson_norm(x, rule)
                assert stabilization_level(x, rule) == (levels.index(levels[-1]), levels[-1])
                for k in range(3 if rule is PL else 2, 7):
                    assert iterate_norm(x, k, rule) == se.iterate(k), (size, rule, k)
        # The last case's literal-rule climb ran the kernel at every width.
        assert list(dict.fromkeys(widths)) == [np.dtype(np.int32), np.dtype(np.int64),
                                               np.dtype(object)]

    def test_tower_on_indices_past_int64(self, rng):
        # An index past the support size caps no family further under
        # either rule, so moving the last 20 of 30 points past 2**64 from
        # just past the support size changes no level.  The first 10 points
        # keep small indices, so their rows run the kernel's steps.
        start = sorted(rng.sample(range(1, 20), 10))
        offsets = sorted(rng.sample(range(40), 20))
        w = [F(1, rng.randint(1, 9)) for _ in range(30)]
        for rule in (FJ, PL):
            near = fastpaths.top_points(start + [32 + o for o in offsets], w, rule, None)
            far = fastpaths.top_points(start + [(1 << 64) + o for o in offsets], w, rule, None)
            assert far == near

    @pytest.mark.parametrize("pos, w", [
        ([2, 3, 5, 13, 14, 15, 19], [F(1), F(5, 2), F(7, 2), F(1), F(1), F(6), F(2, 3)]),
        ([1, 2, 5, 7, 10, 11, 16], [F(3), F(1), F(3, 2), F(1, 2), F(1, 2), F(3), F(1)]),
        ([1, 2, 5, 7, 8, 13], [F(3, 4), F(5, 2), F(3, 2), F(5, 2), F(2, 3), F(1)]),
        (list(range(5, 21)), [F(1)] * 16),
        (list(range(10, 30)), [F(1)] * 20),
    ])
    def test_literal_climb_stops_before_the_support_size(self, pos, w):
        # From the first rung whose literal caps cover every window the
        # options only shrink, so the climb ends there, at or below level s
        # here.  The first three values change at level s - 1: a climb that
        # stops one rung early misses them.
        levels = fastpaths.top_points(pos, w, PL, None)
        assert len(levels) - 1 <= len(pos)
        se = SmallEvaluator(pos, w, PL)
        assert levels == [se.iterate(j) for j in range(len(levels))]
        assert levels[-1] == se.limit()
        if len(pos) <= 8:
            x = FiniteVector.from_entries(dict(zip(pos, w)))
            assert levels[-1] == brute_force_norm(x, None, PL)

    def test_tower_climb_past_level_s_plus_2_raises(self, monkeypatch):
        # Rung s + 2 only doubles its table under either rule.  A rung that
        # never compares equal breaks that invariant: the climb raises at
        # level s + 3 instead of running until the budget refuses it.
        monkeypatch.setattr(np, "array_equal", lambda *args: False)
        pos, w = [3, 4, 5], [F(1), F(1, 2), F(1, 3)]
        for rule in (FJ, PL):
            for k in (None, 9):
                with pytest.raises(RuntimeError, match="^the table tower passed level 5 "):
                    fastpaths.top_points(pos, w, rule, k, EvalSession(10 ** 5))

    @pytest.mark.parametrize("total, dtype", [
        ((1 << 26) - 1, np.int32), (1 << 26, np.int64), ((1 << 26) + 5, np.int64),
        ((1 << 58) - 1, np.int64), (1 << 58, object), ((1 << 58) + 5, object),
    ])
    def test_int_width_boundary_matches_generic(self, rng, total, dtype):
        # Numerators summing to `total` put 16 * sum just below, at and just
        # above 2**30 and 2**62: the last encoding of one width and the first
        # ones of the next.  A prime q larger than `total` keeps every weight
        # k/q over the denominator q.
        q = (1 << 31) - 1 if total < 1 << 31 else (1 << 61) - 1
        for _ in range(2):
            size = rng.randint(29, 40)
            pos = sorted(rng.sample(range(2, 2 * size), size))
            cuts = sorted(rng.sample(range(1, total), size - 1))
            w = [F(b - a, q) for a, b in zip([0] + cuts, cuts + [total])]
            wq_arr, denominator = fastpaths._encode(w)
            assert (wq_arr.dtype, denominator, int(wq_arr.sum())) == (dtype, q, total)
            se = SmallEvaluator(pos, w, FJ)
            assert fastpaths.level2_top_points(pos, w) == se.iterate(2)
            assert fastpaths.level3_top_points(pos, w) == se.iterate(3)

    def test_widths_across_the_climb_match_generic(self):
        # Numerators summing to 2**(b-j) + offset over a prime q, for the
        # bounds b = 30 (int32) and 62 (int64): rung j certifies
        # 2**max(j, 4) * sum, so it is the first wide rung when offset >= 0
        # and rung j + 1 is otherwise.  The literal-rule climb passes both,
        # so its tables widen partway through.
        narrow_wide = {30: (np.dtype(np.int32), np.dtype(np.int64)),
                       62: (np.dtype(np.int64), np.dtype(object))}
        sides = set()

        @example(bits=30, j=5, offset=-1, seed=0)
        @example(bits=30, j=8, offset=0, seed=1)
        @example(bits=62, j=6, offset=-4, seed=2)
        @example(bits=62, j=4, offset=3, seed=3)
        @given(bits=st.sampled_from(sorted(narrow_wide)), j=st.integers(4, 8),
               offset=st.integers(-4, 4), seed=st.integers(0, 2 ** 32 - 1))
        @settings(max_examples=5, deadline=None)
        def check(bits, j, offset, seed):
            rng = random.Random(seed)
            total = (1 << (bits - j)) + offset
            q = rng.choice([p for p in ((1 << 31) - 1, (1 << 61) - 1, (1 << 89) - 1)
                            if p > total])
            size = rng.randint(29, 34)
            pos = sorted(rng.sample(range(1, 3 * size), size))
            cuts = sorted(rng.sample(range(1, total), size - 1))
            w = [F(b - a, q) for a, b in zip([0] + cuts, cuts + [total])]
            narrow, wide = narrow_wide[bits]
            widths = [fastpaths._width(size, total, level)[0] for level in (j, j + 1)]
            assert widths == [wide if offset >= 0 else narrow, wide]
            sides.add((bits, offset >= 0))
            se = SmallEvaluator(pos, w, FJ)
            for k in (2, 3, None):
                want = se.limit() if k is None else se.iterate(k)
                assert fastpaths.top_points(pos, w, FJ, k)[-1] == want, k
            levels = fastpaths.top_points(pos, w, PL, None)
            assert len(levels) > j + 2
            assert levels[-1] == SmallEvaluator(pos, w, PL).limit()

        check()
        assert sides == {(b, above) for b in narrow_wide for above in (False, True)}

    def test_schreier_scans_agree_exhaustively(self, rng):
        for _ in range(60):
            m = rng.randint(1, 5)
            runs, posn = [], 1
            for _ in range(m):
                posn += rng.randint(0, 8)
                width = rng.randint(1, 10)
                runs.append((posn, posn + width - 1,
                             F(rng.randint(1, 9), rng.randint(1, 9))))
                posn += width
            best = fraction_scan(runs, runs[-1][1])
            assert fastpaths.schreier_max_runs(runs) == best
            assert fastpaths.schreier_max_runs_alt(runs) == best
            assert _exhaustive_schreier_max(runs, runs[-1][1]) == best

    @pytest.mark.parametrize("top, width", [
        (2 ** 62 // 11, np.int64), (2 ** 62 // 11 + 1, object),
        (2 ** 61, object), (2 ** 70, object)])
    def test_exhaustive_scan_past_int64(self, monkeypatch, top, width):
        # Integer weights, so the largest numerator is top and the width bound
        # is 11 * top: just below 2**62 (int64), just past it (Python ints),
        # and two cases whose sums (6 points: about 4.5 * top) would leave
        # int64.
        picked = []

        def spy(*args):
            picked.append(real(*args))
            return picked[-1]

        real = witnesses._scan_dtype
        monkeypatch.setattr(witnesses, "_scan_dtype", spy)
        runs = [(2, 4, F(top)), (5, 8, F(top - 1)), (9, 11, F(top // 2))]
        assert _exhaustive_schreier_max(runs, 11) == fraction_scan(runs, 11)
        assert picked == [width]


def fraction_scan(runs, max_index):
    """Best Schreier sum over every cardinality, one Fraction greedy each."""
    order = sorted(range(len(runs)), key=lambda j: (-runs[j][2], runs[j][0]))
    values = (fastpaths._greedy_value(runs, order, n) for n in range(1, max_index + 1))
    return max((v for v in values if v is not None), default=F(0))


WIDTHS = (np.int32, np.int64, object)
GROUP, BLOCK = fastpaths._DP_GROUP_STEPS, fastpaths._DP_BLOCK_ROWS


def per_row_family_dp(table, n, pos):
    """The partition recurrence one row and one column at a time, and the
    transitions it made; None marks the rows with fewer than two admissible
    groups."""
    caps = [min(pos[t], n - t) for t in range(n)]
    fam = [None] * n
    rmax = max(caps)
    steps = 0
    if rmax < 2:
        return fam, steps
    prev = [table[u][n - 1] for u in range(n)]
    for r in range(2, rmax + 1):
        hi = n - r
        cur = [max(table[u][c] + prev[c + 1] for c in range(u, hi + 1))
               for u in range(hi + 1)]
        steps += sum(hi + 1 - u for u in range(hi + 1))
        for t in range(hi + 1):
            if caps[t] == r:
                fam[t] = cur[t]
        prev = cur
    return fam, steps


def per_element_g_table(pos, wq, s, sentinel):
    """G table one element at a time, keeping the top-cap multiset by class."""
    values = sorted(set(wq))
    class_of = {v: i for i, v in enumerate(values)}
    ncls = len(values)
    g = [[sentinel] * s for _ in range(s)]
    for t in range(s):
        cap = pos[t]
        if cap >= s - t:
            acc = 0
            for c in range(t, s):
                acc += wq[c]
                g[t][c] = acc
            continue
        acc = 0
        counts = [0] * ncls
        for c in range(t, t + cap):
            acc += wq[c]
            counts[class_of[wq[c]]] += 1
            g[t][c] = acc
        ptr = 0
        while ptr < ncls and counts[ptr] == 0:
            ptr += 1
        gsum = acc
        for c in range(t + cap, s):
            v = wq[c]
            ci = class_of[v]
            if ci > ptr:
                gsum += v - values[ptr]
                counts[ci] += 1
                counts[ptr] -= 1
                while counts[ptr] == 0:
                    ptr += 1
            g[t][c] = gsum
    return g


def per_element_level1(pos, wq, s, sentinel):
    """L1 table one element at a time: the running maximum over first points
    t of max(2 w[t], G[t, c]), the sentinel below the diagonal."""
    g = per_element_g_table(pos, wq, s, sentinel)
    l1 = [[sentinel] * s for _ in range(s)]
    for c in range(s):
        best = sentinel
        for u in range(c, -1, -1):
            best = max(best, 2 * wq[u], g[u][c])
            l1[u][c] = best
    return l1


def stop_places(pos, wq):
    """Where each clipped row of cap >= 3 stops its top-cap updates: "before"
    when no point past its fill exceeds the fill's smallest weight, "end"
    when the last point does, else "inside"."""
    s = len(wq)
    places = set()
    for t in range(s):
        fill = t + pos[t]
        if pos[t] >= 3 and fill < s:
            low = min(wq[t:fill])
            later = [c for c in range(fill, s) if wq[c] > low]
            places.add("before" if not later else "end" if later[-1] == s - 1 else "inside")
    return places


def random_group_table(rng, n, dtype):
    """Upper-triangular group values, the width's sentinel below the diagonal."""
    table = np.zeros((n, n), dtype=dtype)
    for u in range(n):
        for c in range(u, n):
            table[u, c] = rng.randint(0, 10 ** 6)
    table[np.tril_indices(n, -1)] = fastpaths._sentinel(table)
    return table


def assert_kernel_matches_per_row(table, n, caps):
    """The kernel's values and the closed-form steps against the per-row loop."""
    fam = fastpaths._family_dp(table, n, caps)
    expected, steps = per_row_family_dp(table.tolist(), n, caps)
    sentinel = fastpaths._sentinel(table[:n, n - 1])
    assert fam.dtype == table.dtype
    assert fam.tolist() == [sentinel if v is None else v for v in expected]
    assert fastpaths._dp_costs(caps)[-1] == steps


# (n, rmax): the first step has n - 1 rows and there are rmax - 1 steps; both
# fall on either side of one and two row blocks and step groups.
GROUPED_SHAPES = [
    (GROUP, GROUP), (GROUP + 1, GROUP + 1), (GROUP + 2, GROUP + 2),
    (2 * GROUP + 2, 2 * GROUP + 1), (BLOCK, GROUP + 1), (BLOCK + 1, GROUP + 2),
    (BLOCK + 2, GROUP), (BLOCK + 2, BLOCK + 2), (2 * BLOCK + 2, 2 * GROUP + 2),
    (2 * BLOCK + 2, GROUP + GROUP // 2), (2 * BLOCK + 2, 2 * BLOCK + 2),
    # Three and four groups: a full group's last step is copied out of the
    # cover buffer the next group writes.
    (3 * GROUP + 2, 3 * GROUP + 1), (4 * GROUP + 2, 3 * GROUP + 2),
    (4 * GROUP + 2, 4 * GROUP + 1),
]


def assert_grouped_kernel_matches_per_row(rng, n, rmax):
    """The kernel against the per-row loop on caps whose largest is rmax, at
    every width; returns the largest unforced cap, the last step the kernel
    runs.

    Rows past n - rmax mix forced caps (at or past their point's window)
    with smaller ones; one row before them reaches rmax without being
    forced.  With n == rmax row 0 is forced, and row 1 takes n - 2, the
    largest cap a row can have unforced there.
    """
    caps = [rng.randint(0, rmax) for _ in range(n - rmax)]
    caps += [n - t + rng.randint(0, 2) if rng.random() < 0.5 else rng.randint(0, n - t)
             for t in range(n - rmax, n)]
    if n > rmax:
        caps[rng.randrange(n - rmax)] = rmax
    else:
        caps[:2] = [n, n - 2]
    assert max(min(c, n - t) for t, c in enumerate(caps)) == rmax
    for dtype in WIDTHS:
        # The second table keeps its last column near zero, far below the
        # rest: the padding must still lose to every real value.
        low_last_column = random_group_table(rng, n, dtype)
        low_last_column[:, n - 1] //= 10 ** 6
        for table in (random_group_table(rng, n, dtype), low_last_column):
            assert_kernel_matches_per_row(table, n, caps)
    return max((c for t, c in enumerate(caps) if c < n - t), default=0)


def unforced_caps(n):
    """Caps one below each point's window: every row runs the steps, up to
    step n - 1 on row 0."""
    return [n - 1 - t for t in range(n)]


class TestFamilyKernel:
    # Each test runs on every table width.
    def test_sentinels(self):
        # The fixed widths keep half their minimum; Python ints go below
        # -16 times the sum of the real (never negative) values.
        for dtype in (np.int32, np.int64):
            assert fastpaths._sentinel(np.array([5], dtype)) == np.iinfo(dtype).min // 2
        values = np.array([3, 0, 1 << 70, -(1 << 90)], dtype=object)
        assert fastpaths._sentinel(values) < -16 * (3 + (1 << 70))

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 97, 129])
    def test_matches_per_row_recurrence(self, rng, n):
        for dtype in WIDTHS:
            for pos in ([rng.randint(1, n + 2) for _ in range(n)], list(range(n, 2 * n))):
                assert_kernel_matches_per_row(random_group_table(rng, n, dtype), n, pos)

    @pytest.mark.parametrize("n, rmax", GROUPED_SHAPES)
    def test_grouped_kernel_matches_per_row_recurrence(self, rng, n, rmax):
        assert_grouped_kernel_matches_per_row(rng, n, rmax)

    def test_closed_form_cost_matches_per_row_steps(self, rng):
        # A rung runs the kernel on points 0..b for every right end b, the
        # last included; each entry of _dp_costs is one such run's steps.
        # Caps of 0 (the literal rule below its step) and caps past the
        # support both occur.
        table = random_group_table(rng, 40, np.int64).tolist()
        for _ in range(30):
            n = rng.randint(1, 40)
            caps = [rng.choice([0, 1, rng.randint(2, 8), rng.randint(2, 2 * n)])
                    for _ in range(n)]
            steps = [per_row_family_dp(table, m, caps)[1] for m in range(1, n + 1)]
            assert fastpaths._dp_costs(caps) == steps

    @pytest.mark.parametrize("rule, k", [(FJ, 2), (FJ, 3), (FJ, None), (PL, 5), (PL, None)])
    def test_tower_charges_the_steps_of_its_kernel_calls(self, rng, monkeypatch, rule, k):
        # Each rung and top DP is charged before its kernel calls run; the
        # charges add up to the steps those calls make, the last right end
        # of every rung included.
        steps = []
        kernel = fastpaths._family_dp

        def counting(table, n, caps):
            rmax = max(min(c, n - t) for t, c in enumerate(caps[:n]))
            steps.append(sum((n - r + 1) * (n - r + 2) // 2 for r in range(2, rmax + 1)))
            return kernel(table, n, caps)

        monkeypatch.setattr(fastpaths, "_family_dp", counting)
        pos = sorted(rng.sample(range(1, 80), 40))
        session = EvalSession()
        fastpaths.top_points(pos, [F(1, rng.randint(1, 9)) for _ in pos], rule, k, session)
        assert session.stats["dp_transitions"] == sum(steps) > 0

    def test_sentinel_in_covers_is_refused(self, rng):
        n = 40
        for dtype in WIDTHS:
            table = random_group_table(rng, n, dtype)
            table[n // 2, n - 1] = table[n - 1, 0]  # a sentinel from below the diagonal
            with pytest.raises(RuntimeError, match="sentinel"):
                fastpaths._family_dp(table, n, list(range(n, 2 * n)))

    def test_sentinel_in_a_later_step_is_refused(self, rng):
        # Row 7's one-group cover (the last column) stays real, so only the
        # check of each step's covers sees a later cover leave the width.
        # Every cap stays one below its point's window: no row is forced.
        assert fastpaths._row_blocks(200, 200)[-1][1] < 100
        for n, plants, step in [
            # Row 7's 2-group cover is a sentinel.
            (40, [(7, -1)], 2),
            (200, [(7, -1)], 2),
            # Row 7 keeps a real option up to step GROUP + 1, the end of the
            # first group, and loses it at the second group's first step.
            (200, [(7, -GROUP - 1)], GROUP + 2),
            # Both: row 100, in an earlier block than row 7, fails only in
            # the second group, so the first group's error is raised.
            (200, [(7, -1), (100, -GROUP - 1)], 2),
        ]:
            for dtype in WIDTHS:
                table = random_group_table(rng, n, dtype)
                for u, end in plants:
                    table[u, u:end] = table[n - 1, 0]  # sentinels from below the diagonal
                with pytest.raises(RuntimeError, match=f"^sentinel in the {step}-group covers "):
                    fastpaths._family_dp(table, n, unforced_caps(n))

    @pytest.mark.parametrize("first", [0, 20], ids=["all", "suffix"])
    def test_sentinel_on_a_forced_diagonal_is_refused(self, rng, first):
        # Rows from `first` on are forced: their covers sum the diagonal,
        # which no step reads, so it is checked on its own.
        n = 40
        caps = unforced_caps(n)[:first] + [n - t for t in range(first, n)]
        for dtype in WIDTHS:
            table = random_group_table(rng, n, dtype)
            table[30, 30] = table[n - 1, 0]  # a sentinel from below the diagonal
            with pytest.raises(RuntimeError, match="^sentinel on the diagonal "):
                fastpaths._family_dp(table, n, caps)

    def test_steps_stop_at_the_largest_unforced_cap(self, rng, monkeypatch):
        # A call runs the step groups up to its largest unforced cap r,
        # (r + 30) // 32 of them, and none when every row is forced.
        ran = []
        group = fastpaths._dp_group

        def recording(*args):
            ran.append(args[-1])
            return group(*args)

        monkeypatch.setattr(fastpaths, "_dp_group", recording)
        n = 2 * BLOCK + 2
        for dtype in WIDTHS:
            table = random_group_table(rng, n, dtype)
            del ran[:]
            fastpaths._family_dp(table, n, list(range(n, 2 * n)))
            assert ran == []
            for r in (0, 1, 2, GROUP + 1, GROUP + 2, n - 1):
                caps = [n - t + rng.randint(0, 2) for t in range(n)]
                caps[rng.randrange(n - r)] = r
                del ran[:]
                fastpaths._family_dp(table, n, caps)
                assert ran == list(range((r + GROUP - 2) // GROUP))

    def test_concurrent_calls_under_frequent_switches(self, rng):
        # The kernel shares no state between calls: four threads call it at
        # once, and a 10-microsecond switch interval interleaves them between
        # numpy calls.  A buffer or cover row one call could see of another
        # would change a value.
        n = 4 * GROUP + 3
        caps = unforced_caps(n)
        tables = [random_group_table(rng, n, np.int64) for _ in range(4)]
        expected = [fastpaths._family_dp(table, n, caps).tolist() for table in tables]
        results = [[] for _ in tables]

        def caller(i):
            for _ in range(5):
                results[i].append(fastpaths._family_dp(tables[i], n, caps).tolist())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(tables))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[values] * 5 for values in expected]

    @pytest.mark.parametrize("s", [1, 7, 40, 90])
    def test_g_table_matches_per_element_loop(self, rng, s):
        # The G table shows through the level-1 table: weights in a narrow
        # band make a sum of three or more beat the sup part 2 max w.  Caps of
        # 1, 2 and 3 alone and mixed, and increasing first indices; weight
        # shapes whose clipped rows stop before, inside and at the end.
        places = set()
        for dtype in WIDTHS:
            for caps in ("1", "2", "3", "mixed", "index"):
                for shape in ("band", "falling tail", "rising"):
                    if caps == "index":
                        pos = sorted(rng.sample(range(1, s + 6), s))
                    elif caps == "mixed":
                        pos = [rng.choice([1, 2, 3, rng.randint(1, s + 1)]) for _ in range(s)]
                    else:
                        pos = [int(caps)] * s
                    wq = [rng.randint(20, 24) for _ in range(s)]
                    if shape == "falling tail":
                        wq[s // 2:] = sorted(wq[s // 2:], reverse=True)
                    elif shape == "rising":
                        wq.sort()
                    wq_arr = np.array(wq, dtype=dtype)
                    l1 = fastpaths._level1_table(pos, wq_arr, s)
                    assert l1.dtype == dtype
                    sentinel = fastpaths._sentinel(wq_arr)
                    assert l1.tolist() == per_element_level1(pos, wq, s, sentinel), (caps, shape)
                    places |= stop_places(pos, wq)
        if s >= 40:
            assert places == {"before", "inside", "end"}


class TestInvariants:
    @given(tiny)
    @settings(max_examples=50, deadline=None)
    def test_monotone_ladder(self, entries):
        x = vec(entries)
        values = [iterate_norm(x, k, FJ) for k in range(4)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] <= l1_norm(x)

    @given(tiny, st.fractions(min_value=-3, max_value=3, max_denominator=4))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, entries, c):
        x = vec(entries)
        for spec in (Ell1(), Sup(), Iterate(2), TsirelsonLimit(), Join(Ell1(), Iterate(1))):
            assert norm_eval(spec, x.scale(c)) == abs(c) * norm_eval(spec, x)

    @given(tiny)
    @settings(max_examples=50, deadline=None)
    def test_sign_invariance(self, entries):
        x = vec(entries)
        flipped = FiniteVector.from_entries({i: -v if i % 2 else v for i, v in x.entries()})
        for spec in (Ell1(), Sup(), Iterate(2), TsirelsonLimit()):
            assert norm_eval(spec, x) == norm_eval(spec, flipped)

    @given(tiny, st.sets(st.integers(min_value=1, max_value=12), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_suppression(self, entries, idx):
        x = vec(entries)
        y = x.restrict(idx)
        for k in (1, 2):
            assert iterate_norm(y, k, FJ) <= iterate_norm(x, k, FJ)

    @given(tiny)
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality_on_split(self, entries):
        x = vec(entries)
        if x.is_zero:
            return
        mid = (x.min_index + x.max_index) // 2
        left, right = x.clip(1, mid), x.clip(mid + 1, x.max_index)
        for spec in (Iterate(1), Iterate(2), TsirelsonLimit()):
            assert norm_eval(spec, x) <= norm_eval(spec, left) + norm_eval(spec, right)

    def test_stabilization_reported(self, rng):
        for _ in range(30):
            x = random_vector(rng, max_support=8, max_index=16)
            k, limit = stabilization_level(x, FJ)
            assert k <= x.support_size
            assert iterate_norm(x, k, FJ) == limit == tsirelson_norm(x, FJ)
            if k:
                assert iterate_norm(x, k - 1, FJ) < limit

    def test_determinism_across_runs(self, rng):
        x = random_vector(rng, max_support=8, max_index=20)
        values = {tsirelson_norm(x, FJ) for _ in range(3)}
        assert len(values) == 1


class TestNormSpecs:
    def test_join_examples(self):
        x = vec({1: 1, 2: 1})
        assert norm_eval(Join(Ell1(), Sup()), x) == 2
        spec = Iterate(1)
        assert norm_eval(Join(spec, spec), x) == norm_eval(spec, x)
        assert norm_eval(Ell1(), vec({1: F(1, 2), 3: -2})) == F(5, 2)

    def test_parse_format_roundtrip(self):
        for text in ("l1", "sup", "iterate:3", "tsirelson", "join(l1,join(sup,iterate:2))",
                     "join(join(l1,sup),iterate:2)"):
            spec = parse_normspec(text)
            assert parse_normspec(str(spec)) == spec
        with pytest.raises(ValueError):
            parse_normspec("lp:3")
        with pytest.raises(ValueError):
            Iterate(-1)

    def test_budget_error_carries_lower_bound(self):
        x = FiniteVector([(10 ** 6, 2 * 10 ** 6 - 1, F(1, 10 ** 6))])
        with pytest.raises(BudgetExceededError) as err:
            iterate_norm(x, 2, FJ)
        assert err.value.lower_bound >= F(1, 2)
        assert err.value.reason == "size-limit"

    def test_session_stats_populated(self):
        session = EvalSession()
        x = parse_vector("3:1,4:1,5:1,7:1/2")
        tsirelson_norm(x, FJ, session)
        assert session.stats["ranges_evaluated"] > 0


class TestHugeBlockFastPaths:
    def test_level1_on_millions_wide_blocks(self):
        x = FiniteVector([(10 ** 6, 2 * 10 ** 6 - 1, F(1, 10 ** 6))])
        assert iterate_norm(x, 1, FJ) == F(1, 2)
        assert iterate_norm(x, 0, FJ) == F(1, 10 ** 6)

    def test_paper_literal_closed_forms_any_size(self):
        x = FiniteVector([(10 ** 6, 2 * 10 ** 6 - 1, F(1, 10 ** 6))])
        assert iterate_norm(x, 1, PL) == F(1, 10 ** 6)
        assert iterate_norm(x, 2, PL) == F(1, 10 ** 6)


PRIMES = [p for p in range(2, 600) if all(p % d for d in range(2, p))]


def random_support(rng, size, denominators=None):
    pos = sorted(rng.sample(range(2, 2 * size), size))
    dens = denominators or [rng.randint(1, 12) for _ in pos]
    return FiniteVector.from_entries({i: F(1, d) for i, d in zip(pos, dens)})


def generic_value(x, k):
    pos, w = zip(*((i, abs(v)) for i, v in x.entries()))
    return SmallEvaluator(list(pos), list(w), FJ).iterate(k)


class StageRecorder(EvalSession):
    """A session that records, for each charge, the units used before it,
    the units it added, the units it asked to follow and the counters before it."""

    def __init__(self, budget=None):
        super().__init__(budget)
        self.stages = []

    def charge(self, *args, ahead=0, **kwargs):
        used, stats = self.used, dict(self.stats)
        super().charge(*args, ahead=ahead, **kwargs)
        self.stages.append((used, self.used - used, ahead, stats))


def assert_stage_edges(evaluate, x, k):
    """Each stage has an edge: the units used before it, its cost and the cost
    it asks to follow.  A budget of the edge passes the stage; one unit less
    refuses as ``budget`` at the first stage of that edge, before it counts
    anything.  Only the level-1 table asks for a following cost, that of the
    stage at j = 2, which always runs with it: the two share one edge."""
    full = StageRecorder()
    value = evaluate(x, full)
    assert len(full.stages) >= 3  # the level-1 table, a rung, one more stage
    aheads = [ahead for _, _, ahead, _ in full.stages]
    assert aheads == [full.stages[1][1]] + [0] * (len(aheads) - 1) and aheads[0] > 0
    edges = [used + cost + ahead for used, cost, ahead, _ in full.stages]
    for edge in edges:
        session = EvalSession(edge)
        try:
            assert evaluate(x, session) == value
        except BudgetExceededError:
            pass  # at a later stage
        assert session.used == edge
        session = EvalSession(edge - 1)
        with pytest.raises(BudgetExceededError) as err:
            evaluate(x, session)
        assert err.value.reason == "budget"
        used, _, _, stats = full.stages[edges.index(edge)]
        assert (session.used, session.stats) == (used, stats)
        assert err.value.lower_bound == cheap_lower_bound(x, k, FJ)


class TestDispatchBoundaries:
    """Which path ran is read from the session: only the integer DPs build tables."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("size, dp_ran", [(28, False), (29, True)])
    def test_small_support_cutoff(self, rng, k, size, dp_ran):
        x = random_support(rng, size)
        session = EvalSession()
        assert iterate_norm(x, k, FJ, session) == generic_value(x, k)
        assert (session.stats["tables_built"] > 0) == dp_ran

    def test_wide_numerators_run_the_object_width_dp(self, rng):
        x = random_support(rng, 40, PRIMES[:40])
        wq_arr, _ = fastpaths._encode([v for _, v in x.entries()])
        assert wq_arr.dtype == object
        session = EvalSession()
        assert iterate_norm(x, 2, FJ, session) == generic_value(x, 2)
        assert session.stats["tables_built"] > 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_object_width_runs_past_96_points(self, rng, k):
        # The object width has no point cap: 96, 97 and 100 points of prime
        # denominators run.  Adding points never lowers the value, and the
        # last ones, of weight below 1/500, leave the 96-point value as it is.
        x = random_support(rng, 100, PRIMES[:100])
        values = []
        for size in (96, 97, 100):
            y = FiniteVector.from_entries(dict(list(x.entries())[:size]))
            assert fastpaths._encode([v for _, v in y.entries()])[0].dtype == object
            session = EvalSession()
            values.append(iterate_norm(y, k, FJ, session))
            assert values[-1] >= cheap_lower_bound(y, k, FJ)
            assert session.stats["tables_built"] > 0
            # A Python-int transition weighs more than one unit of the budget.
            assert session.used > sum(session.stats.values())
        assert values[0] == values[1] == values[2]

    def test_level3_is_refused_by_work_alone(self, rng):
        # No point limit: work alone refuses.  241 points run level 3, and
        # every stage of a level-3 evaluation is refused at its charge edge.
        assert_stage_edges(lambda x, s: iterate_norm(x, 3, FJ, s), random_support(rng, 97), 3)
        x = random_support(rng, 241)
        session = EvalSession()
        assert iterate_norm(x, 3, FJ, session) >= iterate_norm(x, 2, FJ)
        assert session.stats["tables_built"] > 0

    @pytest.mark.parametrize("k", [4, None], ids=["level4", "limit"])
    def test_tower_is_refused_by_work_alone(self, rng, k):
        # The full-table rungs run past the generic evaluator's reach, at 241
        # points too; every stage is refused at its charge edge.
        def evaluate(x, session=None):
            return tsirelson_norm(x, FJ, session) if k is None else iterate_norm(x, k, FJ, session)

        assert_stage_edges(evaluate, random_support(rng, 97), k)
        x = random_support(rng, 241)
        session = EvalSession()
        assert evaluate(x, session) >= iterate_norm(x, 3, FJ)
        assert session.stats["tables_built"] > 0

    def test_literal_rule_past_cutoff_runs_the_tower(self, rng):
        # Heavy first points: from step 5 on the admissible families, which
        # start at index 4 or later, fall short of the level below.
        heavy = FiniteVector.from_entries({i: F(1) if i < 6 else F(1, 1000)
                                           for i in range(3, 32)})
        for x in (random_support(rng, 29), heavy):
            pos, w = zip(*x.entries())
            se = SmallEvaluator(list(pos), list(w), PL)
            for k in range(3, 7):
                session = EvalSession()
                assert iterate_norm(x, k, PL, session) == se.iterate(k)
                assert session.stats["tables_built"] > 0
                assert session.stats["ranges_evaluated"] == 0


class TestRefusalBounds:
    """A spent work budget still reports the certified lower bound at x."""

    X = parse_vector("2:1,3:1,4:1,5:1")

    @pytest.mark.parametrize("evaluate, k", [
        (lambda x, s: iterate_norm(x, 4, FJ, s), 4),
        (lambda x, s: tsirelson_norm(x, FJ, s), None),
        (lambda x, s: stabilization_level(x, FJ, s), None),
        (lambda x, s: norm_eval(TsirelsonLimit(), x, s), None),
    ], ids=["iterate_norm", "tsirelson_norm", "stabilization_level", "norm_eval"])
    def test_generic_budget_refusal(self, evaluate, k):
        with pytest.raises(BudgetExceededError) as err:
            evaluate(self.X, EvalSession(5))
        assert err.value.reason == "budget"
        assert err.value.lower_bound == cheap_lower_bound(self.X, k, FJ) == F(3, 2)

    def test_dp_budget_refusal_does_not_fall_back(self, rng):
        x = random_support(rng, 29)
        session = EvalSession(10)
        with pytest.raises(BudgetExceededError) as err:
            iterate_norm(x, 2, FJ, session)
        assert err.value.reason == "budget"
        assert err.value.lower_bound == cheap_lower_bound(x, 2, FJ)
        assert session.stats["ranges_evaluated"] == 0

    def test_refusal_counts_only_work_done(self, rng):
        # A refused charge is not counted: the counters sum to the units used,
        # which stay within the budget.
        fj3 = parse_vector("2..60:1/3")
        cases = [
            (self.X, lambda x, s: iterate_norm(x, 4, FJ, s), 5),
            (self.X, lambda x, s: tsirelson_norm(x, FJ, s), 5),
            (self.X, lambda x, s: stabilization_level(x, FJ, s), 5),
            (self.X, lambda x, s: norm_eval(TsirelsonLimit(), x, s), 5),
            (random_support(rng, 29), lambda x, s: iterate_norm(x, 2, FJ, s), 10),
            (FiniteVector([(10, 40, F(1, 10))]),
             lambda x, s: norm_eval(Join(Iterate(4), Sup()), x, s), 5),
            (fj3, lambda x, s: iterate_norm(x, 3, FJ, s), 1000),
            (fj3, lambda x, s: iterate_norm(x, 3, FJ, s), 2000),
        ]
        for x, evaluate, budget in cases:
            session = EvalSession(budget)
            with pytest.raises(BudgetExceededError):
                evaluate(x, session)
            assert session.used <= budget
            assert session.used == sum(session.stats.values())

    def test_weighted_charge(self):
        # ``used`` counts units times their weight, the counter units alone;
        # a refusal names what it asked for and what was used before.
        session = EvalSession(100)
        session.charge(10, "dp_transitions", 3)
        assert (session.used, session.stats["dp_transitions"]) == (30, 10)
        with pytest.raises(BudgetExceededError, match="72 asked for, 30 already used") as err:
            session.charge(24, "dp_transitions", 3)
        assert err.value.reason == "budget"
        assert (session.used, session.stats["dp_transitions"]) == (30, 10)
        session.charge(70)
        assert session.used == 100

    def test_join_refusal_takes_the_larger_side_bound(self):
        x = FiniteVector([(10, 40, F(1, 10))])
        spec = Join(Iterate(4), Sup())
        with pytest.raises(BudgetExceededError) as err:
            norm_eval(spec, x, EvalSession(5))
        expected = max(cheap_lower_bound(x, 4, FJ), sup_norm(x))
        assert err.value.lower_bound == expected > sup_norm(x)
