import random
from fractions import Fraction as F

import pytest

from tsirnorm import Ell1, FiniteVector, Iterate, Join, Sup, TsirelsonLimit
from tsirnorm.geometry import (
    PhiVariant,
    default_matrix_pool,
    distance_lower,
    order_property_matrix,
    phi_of,
    stability_gap,
    stability_sign_exact,
)

from conftest import random_vector


def flat(m):
    return FiniteVector.from_blocks([(1, m, F(1, m))])


class TestDistance:
    def test_same_norm_gives_one(self):
        pool = [FiniteVector.basis(1), flat(3)]
        est = distance_lower(Iterate(2), Iterate(2), pool)
        assert est.value == 1 and est.kind == "lower-bound"

    def test_l1_over_sup_flat_pool(self):
        pool = [flat(m) for m in range(1, 6)]
        assert distance_lower(Ell1(), Sup(), pool).value == 5

    def test_two_sided_floor(self):
        pool = [FiniteVector.basis(1)]
        est = distance_lower(Iterate(1), Iterate(1), pool, sided="two-sided")
        assert est.value >= 1 and est.sided == "two-sided"

    def test_two_sided_symmetrises(self):
        pool = [flat(4)]
        one = distance_lower(Sup(), Ell1(), pool).value      # ratio 1/4
        two = distance_lower(Sup(), Ell1(), pool, sided="two-sided").value
        assert one == F(1, 4) and two == 4

    def test_pool_monotone(self, rng):
        pool = [random_vector(rng, max_support=4, max_index=10) for _ in range(12)]
        small = distance_lower(Iterate(2), Iterate(1), pool[:4]).value
        large = distance_lower(Iterate(2), Iterate(1), pool).value
        assert large >= small

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            distance_lower(Ell1(), Sup(), [])

    def test_join_estimate_bounded_by_max(self, rng):
        specs = [Ell1(), Sup(), Iterate(1), Iterate(2), TsirelsonLimit()]
        pool = [random_vector(rng, max_support=5, max_index=12) for _ in range(20)]
        for _ in range(25):
            m, n, n2 = rng.choice(specs), rng.choice(specs), rng.choice(specs)
            joined = distance_lower(m, Join(n, n2), pool).value
            single = max(distance_lower(m, n, pool).value,
                         distance_lower(m, n2, pool).value)
            assert joined <= single


class TestPhi:
    def test_same_norm_similarity_one(self):
        est = phi_of(Iterate(1), Iterate(1), PhiVariant.SIMILARITY,
                     [FiniteVector.basis(1)])
        assert est.value == 1.0 and est.bound_direction == "upper"

    def test_logistic_at_one_is_zero(self):
        est = phi_of(Iterate(1), Iterate(1), PhiVariant.LOGISTIC,
                     [FiniteVector.basis(1)])
        assert est.value == 0.0 and est.bound_direction == "lower"

    def test_infinity_endpoints(self):
        assert PhiVariant.LOGISTIC.transform(None) == 1.0
        assert PhiVariant.SIMILARITY.transform(None) == 0.0

    def test_exact_at_the_endpoints_float_between(self):
        # A distance below 1 is raised to the certified floor 1.
        for d, logistic in ((F(1, 4), F(0)), (F(1), F(0)), (None, F(1))):
            for variant, want in ((PhiVariant.LOGISTIC, logistic),
                                  (PhiVariant.SIMILARITY, 1 - logistic)):
                value = variant.transform(d)
                assert value == want and isinstance(value, F)
        inside = PhiVariant.LOGISTIC.transform(F(4))
        assert isinstance(inside, float) and 0 < inside < 1
        assert PhiVariant.SIMILARITY.transform(F(4)) == 1 - inside

    def test_pool_below_one_gives_the_floor(self):
        # sup/l1 on a flat block is 1/4: phi_of takes the floor, not an error.
        est = phi_of(Sup(), Ell1(), PhiVariant.LOGISTIC, [flat(4)])
        assert est.d_estimate.value == F(1, 4)
        assert est.value == 0 and isinstance(est.value, F)

    def test_range_and_monotonicity(self):
        values = [F(1), F(9, 8), F(2), F(100), None]
        logistic = [PhiVariant.LOGISTIC.transform(v) for v in values]
        sim = [PhiVariant.SIMILARITY.transform(v) for v in values]
        assert all(0 <= v <= 1 for v in logistic + sim)
        assert logistic == sorted(logistic)
        assert sim == sorted(sim, reverse=True)


@pytest.fixture(scope="module")
def matrix():
    return order_property_matrix(3)


class TestMatrix:

    def test_diagonal(self, matrix):
        for k in range(4):
            assert matrix.d_value(k, k) == 1

    def test_upper_triangle_verdicts(self, matrix):
        for num in range(4):
            for den in range(num + 1, 4):
                entry = matrix.entry(num, den)
                assert entry.verdict == "<=1"
                assert entry.estimate.value == 1

    def test_growth_entries(self, matrix):
        assert matrix.d_value(2, 1) >= 1
        assert matrix.d_value(3, 2) >= F(9, 8)
        assert matrix.d_value(3, 1) >= matrix.d_value(2, 1)

    def test_two_levels_build(self):
        # No level 3, so no (3 vs 2) search; the witness still lifts d(2, 1).
        small = order_property_matrix(2)
        assert sorted(small.entries) == [(n, d) for n in range(3) for d in range(3)]
        assert small.d_value(2, 1) >= 2

    def test_requires_two_levels(self):
        with pytest.raises(ValueError):
            order_property_matrix(1)


class TestStability:
    def test_constant_matrix(self):
        rep = stability_gap([[0.5] * 3 for _ in range(3)])
        assert rep.gap == 0.0

    def test_checkerboard_example(self):
        rep = stability_gap([[0, 1], [0, 0]])
        assert rep.sup_lower == 1.0 and rep.inf_upper == 0.0 and rep.gap == 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            stability_gap([[1.0, 2.0]])

    def test_exact_sign_matches_float_gap(self):
        matrix = order_property_matrix(3)
        for variant in PhiVariant:
            grid = matrix.phi_matrix_for_stability(variant)
            rep = stability_gap(grid)
            sign = stability_sign_exact(matrix.d_matrix_for_stability(), variant)
            if sign > 0:
                assert rep.gap > 0
            elif sign < 0:
                assert rep.gap < 0

    # Rows by denominator, columns by numerator, as d_matrix_for_stability;
    # then the expected sign under LOGISTIC and under SIMILARITY.  The
    # increasing transform compares max(upper) with min(lower), the
    # decreasing one max(lower) with min(upper).
    @pytest.mark.parametrize("d, logistic, similarity", [
        ([[1, 3, 2], [2, 1, 3], [2, 2, 1]], 1, 0),
        ([[1, 2, 2], [2, 1, 2], [2, 2, 1]], 0, 0),
        ([[1, 2, 2], [3, 1, 2], [2, 3, 1]], 0, 1),
        ([[1, 1, 1], [2, 1, 1], [2, 2, 1]], -1, 1),
        ([[1, 2, 2], [1, 1, 2], [1, 1, 1]], 1, -1),
        ([[1, F(9, 8)], [F(5, 4), 1]], -1, 1),
    ])
    def test_exact_sign_on_hand_built_distances(self, d, logistic, similarity):
        d = [[F(v) for v in row] for row in d]
        for variant, want in ((PhiVariant.LOGISTIC, logistic),
                              (PhiVariant.SIMILARITY, similarity)):
            phi = [[float(variant.transform(v)) for v in row] for row in d]
            gap = stability_gap(phi).gap
            assert stability_sign_exact(d, variant) == want == (gap > 0) - (gap < 0)

    @pytest.mark.parametrize("d", [[[F(1), F(2)]], [[F(1), F(2)], [F(3)]]],
                             ids=["one-row", "ragged"])
    def test_exact_sign_rejects_what_the_gap_rejects(self, d):
        with pytest.raises(ValueError):
            stability_gap(d)
        for variant in PhiVariant:
            with pytest.raises(ValueError):
                stability_sign_exact(d, variant)
