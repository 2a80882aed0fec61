"""Property tests: the fast combinatorial paths against the brute-force
oracles on random inputs."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wsegre.combinatorics import (
    _part_count_sums,
    _product_coefficients,
    sum_nondecreasing,
    sum_repeated,
    weighted_partitions,
)
from wsegre.oracles import (
    count_partitions_max_part,
    partition_power_sum,
    sum_nondecreasing_bruteforce,
    sum_repeated_bruteforce,
)

small = st.integers(min_value=1, max_value=4)


@settings(deadline=None)
@given(n=small, k=small, r=st.integers(min_value=0, max_value=40))
def test_part_count_moments_match_enumeration(n, k, r):
    moments = [_part_count_sums([j**a for j in range(a + 1)], k, r) for a in range(n + 1)]
    assert len(moments) == n + 1
    assert all(len(row) == r + 1 for row in moments)
    assert moments[0][r] == count_partitions_max_part(r, k)
    for a in range(1, n + 1):
        assert Fraction(moments[a][r], math.factorial(a)) == partition_power_sum(a, k, r)


@settings(deadline=None)
@given(
    coeffs=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6),
    k=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=0, max_value=25),
)
def test_part_count_sums_match_enumeration(coeffs, k, m):
    def poly(j):
        return sum(c * j**i for i, c in enumerate(coeffs))

    sums = _part_count_sums([poly(j) for j in range(len(coeffs))], k, m)
    assert sums == [
        sum(poly(sum(tup)) for tup in weighted_partitions(k, x)) for x in range(m + 1)
    ]

@settings(deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    k=st.integers(min_value=1, max_value=60),
    mult=st.integers(min_value=1, max_value=9),
)
def test_product_coefficients_truncate_consistently(n, k, mult):
    e = _product_coefficients(n, k, mult)
    assert len(e) == n + 1 and e[0] == 1
    for d in range(1, n + 1):
        if mult == 1:
            assert e[d] == sum_nondecreasing(d, k)
        if mult == d + 1:
            assert e[d] == sum_repeated(d, k)


@settings(deadline=None)
@given(n=st.integers(min_value=1, max_value=6), k=st.integers(min_value=1, max_value=6))
def test_product_coefficients_match_enumeration(n, k):
    # every enumeration here stays far inside the oracles' ENUMERATION_GUARD
    plain = _product_coefficients(n, k, 1)
    for d in range(1, n + 1):
        assert plain[d] == sum_nondecreasing_bruteforce(d, k)
        # the multiset enumeration grows fastest; keep it to a few thousand terms
        if math.comb((d + 1) * k + d - 1, d) <= 5000:
            assert _product_coefficients(n, k, d + 1)[d] == sum_repeated_bruteforce(d, k)
