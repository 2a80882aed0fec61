import math
import random
from fractions import Fraction

import pytest

from wsegre.combinatorics import (
    harmonic,
    sum_nondecreasing,
    sum_repeated,
    weighted_partitions,
)


def product_reference(n, k, mult):
    """Plain truncated Fraction product of (1 - x/j)^(-mult), j = 1..k.

    Independent of the power-sum path used by the library: each factor is the
    explicit negative binomial series, multiplied out term by term.
    """
    coeffs = [Fraction(1)] + [Fraction(0)] * n
    for j in range(1, k + 1):
        factor = [
            Fraction(math.comb(mult - 1 + i, mult - 1), j**i) for i in range(n + 1)
        ]
        new = [Fraction(0)] * (n + 1)
        for a in range(n + 1):
            if coeffs[a] == 0:
                continue
            for b in range(n + 1 - a):
                new[a + b] += coeffs[a] * factor[b]
        coeffs = new
    return coeffs[n]


class TestHarmonic:
    def test_values(self):
        assert harmonic(1) == 1
        assert harmonic(3) == Fraction(11, 6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic(0)

    def test_recurrence_randomized(self):
        rng = random.Random(3)
        for _ in range(50):
            k = rng.randint(2, 500)
            assert harmonic(k) - harmonic(k - 1) == Fraction(1, k)


class TestSumRepeated:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(1, 1, Fraction(2)), (2, 1, Fraction(6)), (1, 2, Fraction(3))],
    )
    def test_values(self, n, k, expected):
        assert sum_repeated(n, k) == expected

    def test_matches_plain_product(self):
        for n in range(1, 6):
            for k in range(1, 7):
                assert sum_repeated(n, k) == product_reference(n, k, n + 1)

    def test_monotone_in_k(self):
        for n in range(1, 5):
            for k in range(1, 20):
                assert sum_repeated(n, k + 1) > sum_repeated(n, k)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sum_repeated(0, 1)
        with pytest.raises(ValueError):
            sum_repeated(1, 0)


class TestSumNondecreasing:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(1, 2, Fraction(3, 2)), (2, 2, Fraction(7, 4)), (5, 1, Fraction(1))],
    )
    def test_values(self, n, k, expected):
        assert sum_nondecreasing(n, k) == expected

    def test_k_one_is_always_one(self):
        for n in range(1, 9):
            assert sum_nondecreasing(n, 1) == 1

    def test_matches_plain_product(self):
        for n in range(1, 6):
            for k in range(1, 7):
                assert sum_nondecreasing(n, k) == product_reference(n, k, 1)

    def test_monotone_in_k(self):
        for n in range(1, 5):
            for k in range(1, 20):
                assert sum_nondecreasing(n, k + 1) > sum_nondecreasing(n, k)


class TestWeightedPartitions:
    def test_exhaustive_small(self):
        assert set(weighted_partitions(2, 2)) == {(2, 0), (0, 1)}
        assert list(weighted_partitions(1, 5)) == [(5,)]
        assert set(weighted_partitions(3, 3)) == {(3, 0, 0), (1, 1, 0), (0, 0, 1)}

    def test_documented_order(self):
        # descending lexicographic on the reversed tuple (l_k, ..., l_1)
        assert list(weighted_partitions(3, 3)) == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]
        assert list(weighted_partitions(2, 4)) == [(0, 2), (2, 1), (4, 0)]

    def test_zero_degree(self):
        assert list(weighted_partitions(4, 0)) == [(0, 0, 0, 0)]

    def test_order_above_degree_pads_with_zeros(self):
        for k, m in ((1500, 3), (7, 4), (5, 1), (3, 0)):
            padding = (0,) * (k - max(m, 1))
            expected = [tup + padding for tup in weighted_partitions(max(m, 1), m)]
            assert list(weighted_partitions(k, m)) == expected

    def test_weights_and_uniqueness(self):
        for k in range(1, 5):
            for m in range(12):
                seen = list(weighted_partitions(k, m))
                assert len(seen) == len(set(seen))
                for tup in seen:
                    assert len(tup) == k
                    assert all(l >= 0 for l in tup)
                    assert sum((i + 1) * l for i, l in enumerate(tup)) == m

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            list(weighted_partitions(0, 1))
        with pytest.raises(ValueError):
            list(weighted_partitions(2, -1))
