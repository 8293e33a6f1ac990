from fractions import Fraction as F

import pytest

from tsirnorm import (
    AdmissibilityRule,
    BudgetExceededError,
    Ell1,
    EvalSession,
    FiniteVector,
    Iterate,
    Sup,
    iterate_norm,
    l1_norm,
    normalize_l1,
)
from tsirnorm.witnesses import (
    SearchBudget,
    base_witness,
    cascade_stack,
    cascade_vector,
    dichotomy_probe,
    inductive_witness,
    ratio_certificate,
    ratio_search,
    schedule,
)

FJ = AdmissibilityRule.FIGIEL_JOHNSON


class TestSchedule:
    @pytest.mark.parametrize("n,start,expected", [
        (2, 1, (2, 7)),
        (3, 1, (3, 16, 497)),
        (2, 5, (5, 46)),
    ])
    def test_examples(self, n, start, expected):
        assert schedule(n, start).m == expected

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            schedule(1)

    def test_minimality(self):
        # One less at any later entry breaks the separation inequality.
        for n, start in ((2, 1), (3, 1), (2, 5), (4, 1)):
            m = schedule(n, start).m
            for i in range(len(m) - 1):
                a, b = m[i], m[i + 1] - 1
                assert not (F(2 * a - 1, b) < F(1, a))


class TestBaseWitness:
    def test_n2_construction(self):
        w = base_witness(2)
        assert w.parts[0] == FiniteVector([(2, 3, F(1, 2))])
        assert w.parts[1] == FiniteVector([(7, 13, F(1, 7))])
        assert w.verified
        by_name = {line.name: line for line in w.certificate}
        assert by_name["|x|_2"].left == F(1, 2)
        assert by_name["|x|_1"].left <= 1

    @pytest.mark.parametrize("n,bound", [(2, F(1, 2)), (3, F(3, 4)), (4, F(1))])
    def test_growth_line(self, n, bound):
        w = base_witness(n)
        line = next(l for l in w.certificate if l.name == "|x|_2")
        assert line.left >= bound and line.ok

    def test_part_masses(self):
        w = base_witness(3)
        for part in w.parts:
            assert l1_norm(part) == 1
            assert iterate_norm(part, 1, FJ) == F(1, 2)

    def test_start_anchoring(self):
        w = base_witness(2, start=5)
        assert w.schedule == (5, 46)
        assert w.sum.min_index == 5

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            base_witness(1)


class TestInductiveWitness:
    def test_level1_is_base_case(self):
        w = inductive_witness(1, 3)
        assert w.level == 1 and w.n == 3 and w.verified

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            inductive_witness(0, 2)
        with pytest.raises(ValueError):
            inductive_witness(2, 1)

    def test_refusal_names_the_unverified_line(self):
        # The first window's y has 9 points; the second's has 1459, whose
        # level-1 table and level-2 stage together pass a million units.
        with pytest.raises(BudgetExceededError) as err:
            inductive_witness(2, 2, session=EvalSession(1_000_000))
        assert str(err.value).startswith("|y_2|_2 not exactly verifiable: work budget")
        assert err.value.reason == "budget" and err.value.lower_bound == F(1, 2)

    # Level-2 witnesses are exercised end to end by the acceptance suite.


class TestRatios:
    def test_certificate_levels(self):
        rc = ratio_certificate(1, 2)
        assert rc.lower_bound >= F(1, 2)
        assert l1_norm(rc.x) == 1
        assert rc.denominator_exact and not rc.numerator_exact

    def test_certificate_n4_reaches_one(self):
        rc = ratio_certificate(1, 4)
        assert rc.lower_bound >= 1

    def test_scale_invariance(self):
        w = base_witness(2)
        den = iterate_norm(w.sum, 1, FJ)
        unnormalized = F(2, 4) / den
        rc = ratio_certificate(1, 2)
        assert rc.lower_bound == unnormalized

    def test_search_equal_specs_give_one(self):
        small = SearchBudget(max_support=30, max_candidates=10)
        found = ratio_search(Iterate(1), Iterate(1), small)
        assert found.lower_bound == 1

    def test_search_l1_over_sup_flat(self):
        found = ratio_search(Ell1(), Sup(), SearchBudget(max_support=30, max_candidates=12))
        assert found.lower_bound >= 5

    def test_search_budget_monotone(self):
        small = ratio_search(Iterate(2), Iterate(1),
                             SearchBudget(max_support=40, max_candidates=8))
        large = ratio_search(Iterate(2), Iterate(1),
                             SearchBudget(max_support=120, max_candidates=24))
        assert large.lower_bound >= small.lower_bound

    def test_search_pool_witness_bound(self):
        # A pool holding the four-part witness certifies a (2 vs 1) ratio of
        # at least 1 even though its support is far beyond exact evaluation.
        big = base_witness(4).sum
        found = ratio_search(Iterate(2), Iterate(1),
                             SearchBudget(max_support=big.support_size, max_candidates=4),
                             pool=[big])
        assert found.lower_bound >= 1

    def test_spent_session_falls_back_to_certified_bounds(self):
        # With no work left every candidate falls back: the numerator to its
        # cheap lower bound, the denominator to the l1 mass above it.
        budget = SearchBudget(max_support=40, max_candidates=6)
        spent = ratio_search(Iterate(3), Iterate(2), budget, session=EvalSession(0))
        full = ratio_search(Iterate(3), Iterate(2), budget)
        assert not spent.denominator_exact and not spent.numerator_exact
        assert 0 < spent.lower_bound <= full.lower_bound


class TestCascades:
    def test_cascade_masses(self):
        x = cascade_vector(2, 4)
        assert l1_norm(x) == 4
        assert x.support_size == 2 + 4 + 8 + 16

    def test_stack_structure(self):
        x = cascade_stack(2, 2, 4, F(1, 3))
        assert x.support_size == 126
        assert x.min_index == 2 and x.max_index == 127


class TestDichotomyProbe:
    def test_small_target_achieved(self):
        entries = dichotomy_probe([F(1, 2)])
        assert entries[0].achieved
        assert entries[0].certificate.lower_bound >= F(1, 2)

    def test_huge_target_honestly_missed(self):
        entries = dichotomy_probe([F(10 ** 6)],
                                  SearchBudget(max_support=40, max_candidates=6))
        assert not entries[0].achieved
        assert entries[0].note == "not-achieved-within-budget"

    def test_targets_must_increase(self):
        with pytest.raises(ValueError):
            dichotomy_probe([F(2), F(1)])
