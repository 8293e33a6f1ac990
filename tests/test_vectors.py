from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsirnorm import (
    FiniteVector,
    VectorParseError,
    format_vector,
    l1_norm,
    normalize_l1,
    parse_vector,
    sup_norm,
)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)
sparse = st.dictionaries(st.integers(min_value=1, max_value=30), fractions,
                         min_size=0, max_size=8)


def vec(d):
    return FiniteVector.from_entries(d)


class TestConstruction:
    def test_sparse_and_block_forms_identical(self):
        a = FiniteVector.from_entries({i: F(1, 7) for i in range(7, 14)})
        b = FiniteVector([(7, 13, F(1, 7))])
        assert a == b
        assert a.runs == b.runs
        assert hash(a) == hash(b)

    def test_zero_entries_dropped(self):
        assert vec({3: F(0)}).is_zero
        assert vec({}) == FiniteVector.zero()

    def test_adjacent_equal_runs_merge(self):
        x = FiniteVector([(1, 3, F(1, 2)), (4, 6, F(1, 2))])
        assert x.runs == ((1, 6, F(1, 2)),)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            FiniteVector([(1, 5, F(1)), (3, 7, F(2))])

    def test_indices_positive(self):
        with pytest.raises(ValueError):
            vec({0: F(1)})

    def test_addition_splits_runs(self):
        x = FiniteVector([(1, 6, F(1))])
        y = FiniteVector([(3, 4, F(-1))])
        assert (x + y) == FiniteVector([(1, 2, F(1)), (5, 6, F(1))])

    def test_scale(self):
        x = vec({2: F(3)})
        assert x.scale(F(1, 3)) == vec({2: F(1)})
        assert x.scale(0).is_zero


class TestOperations:
    def test_restrict_examples(self):
        x = vec({2: 1, 3: 1, 5: 1})
        assert x.restrict([3, 5]) == vec({3: 1, 5: 1})
        assert x.restrict([5, 3, 5]) == vec({3: 1, 5: 1})  # any order, repeats ignored
        y = vec({1: F(1, 2), 2: -3})
        assert y.restrict({1, 2}) == y
        assert vec({2: 1}).restrict(range(7, 9)).is_zero

    def test_sup_norm_examples(self):
        assert sup_norm(vec({1: F(1, 2), 3: -2})) == 2
        assert sup_norm(FiniteVector.zero()) == 0
        assert sup_norm(vec({7: F(3, 4)})) == F(3, 4)

    def test_l1_norm_examples(self):
        assert l1_norm(vec({1: F(1, 2), 3: -2})) == F(5, 2)
        assert l1_norm(FiniteVector.zero()) == 0

    def test_normalize_examples(self):
        assert normalize_l1(vec({2: 1, 3: 1})) == vec({2: F(1, 2), 3: F(1, 2)})
        assert normalize_l1(vec({5: -4})) == vec({5: -1})
        already = vec({2: F(1, 2), 3: F(1, 2)})
        assert normalize_l1(already) == already
        with pytest.raises(ValueError, match="zero"):
            normalize_l1(FiniteVector.zero())


class TestLiterals:
    @pytest.mark.parametrize("text,runs", [
        ("3:1,4:1,5:1", ((3, 5, F(1)),)),
        ("7..13:1/7", ((7, 13, F(1, 7)),)),
        (" 2 : 1 , 3 : 1 ", ((2, 3, F(1)),)),
        ("5:-4", ((5, 5, F(-4)),)),
        ("", ()),
    ])
    def test_parse(self, text, runs):
        assert parse_vector(text).runs == runs

    @pytest.mark.parametrize("bad", ["0:1", "3:", "a:1", "5..3:1", "3:1/0", "1:1,1:2"])
    def test_parse_errors(self, bad):
        with pytest.raises(VectorParseError):
            parse_vector(bad)

    @given(sparse)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, entries):
        x = FiniteVector.from_entries(entries)
        assert parse_vector(format_vector(x)) == x


class TestInvariants:
    @given(sparse, st.sets(st.integers(min_value=1, max_value=30), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_restrict_idempotent(self, entries, idx):
        x = vec(entries)
        once = x.restrict(idx)
        assert once.restrict(idx) == once

    @given(sparse, st.sets(st.integers(min_value=1, max_value=30), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_l1_splits_exactly(self, entries, idx):
        x = vec(entries)
        complement = (i for i, _ in x.entries() if i not in idx)
        assert l1_norm(x) == l1_norm(x.restrict(idx)) + l1_norm(x.restrict(complement))

    @given(sparse)
    @settings(max_examples=80, deadline=None)
    def test_sup_at_most_l1(self, entries):
        x = vec(entries)
        assert sup_norm(x) <= l1_norm(x)

    def test_huge_blocks_stay_cheap(self):
        x = FiniteVector([(10 ** 7, 2 * 10 ** 7 - 1, F(1, 10 ** 7))])
        assert x.support_size == 10 ** 7
        assert l1_norm(x) == 1
        assert sup_norm(x) == F(1, 10 ** 7)
        with pytest.raises(ValueError, match="materialisation"):
            list(x.entries())
