"""Property tests: the integer kernel of ``chow`` against plain Fraction
arithmetic on random classes, and its printer against ``str()``.

The reference functions below are the straightforward Fraction versions of
the product, the inverse and the weighted Whitney product: one Fraction
multiply-add per term."""

import math
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wsegre.chow import (
    TotalClass,
    WeightedSummand,
    _digits,
    segre_of_weighted_sum,
    weighted_tangent_top_segre,
)
from wsegre.combinatorics import sum_repeated


def reference_mul(x: TotalClass, y: TotalClass) -> TotalClass:
    n = x.dim
    out = [Fraction(0)] * (n + 1)
    for a, xa in enumerate(x.coeffs):
        for b in range(n + 1 - a):
            out[a + b] += xa * y.coeffs[b]
    return TotalClass(n, out)


def reference_inverse(x: TotalClass) -> TotalClass:
    n = x.dim
    inv0 = 1 / x.coeffs[0]
    out = [inv0] + [Fraction(0)] * n
    for d in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, d + 1):
            acc += x.coeffs[i] * out[d - i]
        out[d] = -inv0 * acc
    return TotalClass(n, out)


def reference_power(x: TotalClass, e: int) -> TotalClass:
    base = x if e >= 0 else reference_inverse(x)
    out = TotalClass.unit(x.dim)
    for _ in range(abs(e)):
        out = reference_mul(out, base)
    return out


def reference_weighted_sum(summands) -> TotalClass:
    n = summands[0].segre.dim
    weights = [s.weight for s in summands]
    out = TotalClass.unit(n)
    for s in summands:
        a, r = s.weight, s.rank
        weighted = TotalClass(
            n, (c / Fraction(a) ** (r - 1 + j) for j, c in enumerate(s.segre.coeffs))
        )
        out = reference_mul(out, weighted)
    prefactor = Fraction(math.gcd(*weights), math.prod(weights))
    return TotalClass(n, (prefactor * c for c in out.coeffs))


dims = st.integers(min_value=0, max_value=8)
coefficients = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
)
nonzero = coefficients.filter(lambda c: c != 0)


def classes(dim, constant=coefficients):
    rest = st.lists(coefficients, min_size=dim, max_size=dim)
    return st.builds(lambda c0, cs: TotalClass(dim, [c0, *cs]), constant, rest)


def assert_normalized(x: TotalClass):
    assert len(x.coeffs) == x.dim + 1
    assert all(type(c) is Fraction for c in x.coeffs)


@settings(deadline=None)
@given(data=st.data(), dim=dims)
def test_product_matches_fraction_reference(data, dim):
    x, y = data.draw(classes(dim)), data.draw(classes(dim))  # constant terms may be 0
    got = x * y
    assert_normalized(got)
    assert got == reference_mul(x, y)
    assert hash(got) == hash(reference_mul(x, y))
    assert str(got) == str(reference_mul(x, y))


@settings(deadline=None)
@given(data=st.data(), dim=dims)
def test_inverse_matches_fraction_reference_and_round_trips(data, dim):
    x = data.draw(classes(dim, nonzero))
    inv = x.inverse()
    assert_normalized(inv)
    assert inv == reference_inverse(x)
    assert x * inv == TotalClass.unit(dim)
    assert inv.inverse() == x


@settings(deadline=None)
@given(data=st.data(), dim=st.integers(min_value=0, max_value=5),
       e=st.integers(min_value=-12, max_value=12))
def test_power_matches_repeated_product(data, dim, e):
    x = data.draw(classes(dim, nonzero))
    assert x**e == reference_power(x, e)


@settings(deadline=None)
@given(data=st.data(), dim=st.integers(min_value=0, max_value=4),
       e=st.integers(min_value=-1500, max_value=1500),
       f=st.integers(min_value=0, max_value=1500))
def test_large_powers_obey_the_exponent_laws(data, dim, e, f):
    x = data.draw(classes(dim, st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2)])))
    assert x ** (e + f) == x**e * x**f
    assert x**e * x**-e == TotalClass.unit(dim)


@settings(deadline=None)
@given(data=st.data(), dim=dims)
def test_zero_exponent_is_the_unit(data, dim):
    assert data.draw(classes(dim)) ** 0 == TotalClass.unit(dim)


@settings(deadline=None)
@given(data=st.data(), dim=dims, count=st.integers(min_value=1, max_value=4))
def test_weighted_sum_matches_fraction_reference(data, dim, count):
    summands = [
        WeightedSummand(
            data.draw(classes(dim, st.just(Fraction(1)))),
            rank=data.draw(st.integers(min_value=1, max_value=4)),
            weight=data.draw(st.integers(min_value=1, max_value=7)),
        )
        for _ in range(count)
    ]
    got = segre_of_weighted_sum(summands)
    assert_normalized(got)
    assert got == reference_weighted_sum(summands)


def test_volume_identity_past_the_verify_grid():
    for n in range(1, 9):
        for k in range(1, 13):
            lhs = weighted_tangent_top_segre(n, k) * math.factorial(k) ** n
            assert lhs == sum_repeated(n, k), (n, k)


@settings(deadline=None, max_examples=40)
@given(num_digits=st.integers(1, 10**5), negative=st.booleans(),
       rng=st.randoms(use_true_random=True))
def test_digits_matches_str_at_any_size(num_digits, negative, rng):
    value = rng.randrange(10 ** (num_digits - 1), 10**num_digits) * (-1 if negative else 1)
    printed = _digits(value)  # under the interpreter's digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert printed == str(value)
    finally:
        sys.set_int_max_str_digits(limit)
