import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsegre.combinatorics import weighted_partitions
from wsegre.jets import (
    BoundaryData,
    _rank_profile,
    boundary_coeff,
    boundary_jet_sections,
    jet_rank,
)
from wsegre.oracles import count_partitions_max_part, count_weighted_monomials


def boundary_sections_reference(k, m, b):
    """Literal nested-sum evaluation of the graded boundary section count.

    Kept deliberately naive (no prefix sums, no profile caching) so it shares
    nothing with the production kernel beyond the partition generator.
    """
    n = b.n
    total = Fraction(0)
    for r in range(m + 1):
        block = Fraction(0)
        for jt in weighted_partitions(k, r):
            for i in range(k):
                if jt[i] < 1:
                    continue
                prefix = sum(jt[:i])
                for s in range(prefix, prefix + jt[i]):
                    # sections of the s-th conormal power: the component
                    # count at s = 0, else s^(n-1)/(n-1)! * -(-D)^n
                    if s == 0:
                        block += b.components
                    else:
                        block += Fraction(s ** (n - 1), math.factorial(n - 1)) * b.neg_dn_abs
        rank = 0
        for lt in weighted_partitions(k, m - r):
            term = 1
            for l in lt:
                term *= math.comb(l + n - 2, n - 2)
            rank += term
        total += block * rank
    return total


class TestBoundaryData:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundaryData(1, Fraction(1))
        with pytest.raises(ValueError):
            BoundaryData(2, Fraction(0))
        with pytest.raises(ValueError):
            BoundaryData(2, Fraction(1), 0)

    def test_coerces_rational(self):
        assert BoundaryData(2, 3).neg_dn_abs == Fraction(3)


class TestJetRank:
    def test_single_order_is_symmetric_power(self):
        assert jet_rank(2, 1, 3) == 4
        for n in range(1, 5):
            for m in range(8):
                assert jet_rank(n, 1, m) == math.comb(m + n - 1, n - 1)

    def test_curve_examples(self):
        assert jet_rank(1, 2, 4) == 3

    def test_surface_example(self):
        assert jet_rank(2, 2, 2) == 5

    def test_curve_ranks_count_partitions(self):
        for k in range(1, 7):
            for m in range(31):
                assert jet_rank(1, k, m) == count_partitions_max_part(m, k)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            jet_rank(0, 1, 1)
        with pytest.raises(ValueError):
            jet_rank(1, 1, -1)

    def test_profile_agrees_with_direct_sum(self):
        for n in range(1, 4):
            for k in range(1, 4):
                profile = _rank_profile(n, k, 12)
                for m in range(13):
                    assert profile[m] == jet_rank(n, k, m)


@settings(deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=1, max_value=5),
    m_max=st.integers(min_value=0, max_value=30),
)
def test_rank_profile_counts_weighted_monomials(n, k, m_max):
    weights = [t for t in range(1, k + 1) for _ in range(n)]
    assert _rank_profile(n, k, m_max) == [
        count_weighted_monomials(weights, m) for m in range(m_max + 1)
    ]

class TestBoundaryJetSections:
    def test_degree_zero_vanishes(self):
        b = BoundaryData(2, Fraction(1), 1)
        for k in range(1, 5):
            assert boundary_jet_sections(k, 0, b) == 0

    def test_order_one_degree_one_counts_components(self):
        for c in (1, 2, 5):
            b = BoundaryData(3, Fraction(4, 3), c)
            assert boundary_jet_sections(1, 1, b) == c

    def test_order_one_degree_two_surface(self):
        c, beta = 3, Fraction(11, 4)
        b = BoundaryData(2, beta, c)
        assert boundary_jet_sections(1, 2, b) == 2 * c + beta

    def test_matches_reference_implementation(self):
        boundaries = [
            BoundaryData(2, Fraction(7, 3), 2),
            BoundaryData(3, Fraction(1), 1),
            BoundaryData(4, Fraction(5, 2), 3),
        ]
        for b in boundaries:
            for k in range(1, 4):
                for m in range(11):
                    assert boundary_jet_sections(k, m, b) == boundary_sections_reference(
                        k, m, b
                    ), (b.n, k, m)

    def test_monotone_along_order_period(self):
        b = BoundaryData(2, Fraction(1), 1)
        for k in (2, 3):
            period = math.lcm(*range(1, k + 1))
            values = [
                boundary_jet_sections(k, m, b) for m in range(0, 12 * period, period)
            ]
            assert all(a <= z for a, z in zip(values, values[1:]))

    def test_rejects_bad_args(self):
        b = BoundaryData(2, Fraction(1))
        with pytest.raises(ValueError):
            boundary_jet_sections(0, 1, b)
        with pytest.raises(ValueError):
            boundary_jet_sections(1, -1, b)


@settings(deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    k=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=0, max_value=20),
    neg_dn_abs=st.fractions(min_value=Fraction(1, 100), max_value=100),
    components=st.integers(min_value=1, max_value=3),
)
def test_boundary_sections_match_reference(n, k, m, neg_dn_abs, components):
    b = BoundaryData(n, neg_dn_abs, components)
    assert boundary_jet_sections(k, m, b) == boundary_sections_reference(k, m, b)

class TestBoundaryCoeff:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(2, 1, Fraction(1)), (2, 2, Fraction(7, 16)), (3, 1, Fraction(1))],
    )
    def test_values(self, n, k, expected):
        assert boundary_coeff(n, k) == expected

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            boundary_coeff(1, 1)


def test_rank_telescoping():
    # graded pieces of a filtered symmetric power add up to the full rank
    for n in range(2, 9):
        for l in range(21):
            assert sum(math.comb(j + n - 2, n - 2) for j in range(l + 1)) == math.comb(
                l + n - 1, n - 1
            )
