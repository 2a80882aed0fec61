import math
from fractions import Fraction

import pytest

from wsegre import oracles
from wsegre.combinatorics import sum_nondecreasing, sum_repeated
from wsegre.oracles import (
    check_orbifold_h0,
    check_partition_power_growth,
    count_partitions_max_part,
    count_weighted_monomials,
    cross_check_volume_identity,
    partition_power_sum,
    sum_nondecreasing_bruteforce,
    sum_repeated_bruteforce,
)


class TestBruteforceSums:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(1, 1, Fraction(2)), (2, 1, Fraction(6)), (1, 2, Fraction(3))],
    )
    def test_repeated_values(self, n, k, expected):
        assert sum_repeated_bruteforce(n, k) == expected

    @pytest.mark.parametrize(
        "n,k,expected",
        [(2, 2, Fraction(7, 4)), (4, 1, Fraction(1)), (1, 3, Fraction(11, 6))],
    )
    def test_nondecreasing_values(self, n, k, expected):
        assert sum_nondecreasing_bruteforce(n, k) == expected

    def test_agreement_small_grid(self):
        for n in range(1, 4):
            for k in range(1, 4):
                assert sum_repeated_bruteforce(n, k) == sum_repeated(n, k)
                assert sum_nondecreasing_bruteforce(n, k) == sum_nondecreasing(n, k)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError, match="guard"):
            sum_repeated_bruteforce(6, 30)


class TestPartitionCounter:
    def test_values(self):
        assert count_partitions_max_part(5, 2) == 3
        assert count_partitions_max_part(4, 4) == 5
        assert count_partitions_max_part(0, 3) == 1

    def test_large_m_and_edge_values(self):
        assert count_partitions_max_part(3000, 1) == 1
        assert count_partitions_max_part(3000, 2) == 1501
        assert count_partitions_max_part(-1, 3) == 0
        assert count_partitions_max_part(4, 0) == 0


class TestWeightedMonomials:
    def test_values(self):
        assert count_weighted_monomials((1, 1), 5) == 6
        assert count_weighted_monomials((1, 2), 4) == 3
        assert count_weighted_monomials((2, 2), 3) == 0

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            count_weighted_monomials((), 3)
        with pytest.raises(ValueError):
            count_weighted_monomials((0, 1), 3)

    def test_unweighted_count_is_binomial(self):
        for m in range(0, 300):
            assert count_weighted_monomials((1, 1, 1), m) == math.comb(m + 2, 2)

    def test_quasi_polynomial_differences(self):
        for weights in ((1, 2), (2, 2), (1, 2, 3)):
            order = len(weights)
            stride = math.lcm(*weights)
            for m0 in range(2 * stride):
                diff = sum(
                    (-1) ** i
                    * math.comb(order, i)
                    * count_weighted_monomials(weights, m0 + (order - i) * stride)
                    for i in range(order + 1)
                )
                assert diff == 0

    def test_growth_check_passes(self):
        report = check_orbifold_h0((1, 2), 400 * 2)
        assert report.passed
        assert "1/2" in report.rhs

    def test_growth_check_needs_room(self):
        with pytest.raises(ValueError):
            check_orbifold_h0((2, 4, 6), 6)


class TestPartitionPowerSum:
    def test_values(self):
        assert partition_power_sum(1, 2, 2) == 3
        assert partition_power_sum(2, 2, 0) == 0
        assert partition_power_sum(3, 2, 0) == 0

    def test_single_part(self):
        for n in range(1, 4):
            for r in range(0, 9):
                assert partition_power_sum(n, 1, r) == Fraction(
                    r**n, math.factorial(n)
                )

    def test_order_far_above_degree(self):
        # parts above r never occur, so the enumeration does not recurse k deep
        assert partition_power_sum(1, 1500, 3) == partition_power_sum(1, 3, 3) == 6

    def test_monotone_in_degree(self):
        for n, k in ((1, 2), (2, 3)):
            values = [partition_power_sum(n, k, r) for r in range(1, 40)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_growth_check(self):
        report = check_partition_power_growth(1, 2, 200)
        assert report.passed
        assert "r*(ratio-1)" in report.lhs


class TestCrossCheck:
    def test_passes_on_guarded_grid(self):
        report = cross_check_volume_identity(4, 5)
        assert report.passed
        assert "20 pairs" in report.lhs

    def test_guard(self):
        with pytest.raises(ValueError):
            cross_check_volume_identity(6, 6)

    def test_failure_names_the_first_mismatch_in_loop_order(self, monkeypatch):
        # n runs outer and k inner, so (2, 5) comes before (3, 2)
        def wrong(n, k):
            return sum_repeated(n, k) + ((n, k) in ((3, 2), (2, 5)))

        monkeypatch.setattr(oracles, "sum_repeated", wrong)
        report = cross_check_volume_identity(4, 5)
        assert not report.passed
        assert report.lhs == (
            f"(k!)^n * top Segre number = {sum_repeated(2, 5)} at (n=2, k=5)"
        )
        assert report.rhs == f"multiset sum = {sum_repeated(2, 5) + 1}"
        assert report.detail == ""
