"""Property tests: checks that skip repeated work against their plain forms.

Each reference below is the straightforward form of a check: the bracketing
loop that tests both bounds at every k, the tangent Segre class as a power
of a class, and the growth check with one ``Fraction`` per r.  The faster
form must give the same report, failures included."""

import math
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsegre import checks, chow
from wsegre.combinatorics import _part_count_sums, sum_nondecreasing
from wsegre.oracles import VerificationReport, check_partition_power_growth


def reference_bracketing(k_max: int) -> VerificationReport:
    log = math.log
    gamma = checks.GAMMA
    floor, ceiling = gamma - 1e-12, gamma + 0.5 + 1e-12
    total = 0.0
    comp = 0.0
    lo = math.inf
    hi = -math.inf
    for k in range(1, k_max + 1):
        y = 1.0 / k - comp
        t = total + y
        comp = (t - total) - y
        total = t
        gap = t - log(k)
        if not floor < gap <= ceiling:
            return checks._report("harmonic bracketing", False, gap, (gamma, gamma + 0.5), f"k={k}")
        lo = min(lo, gap)
        hi = max(hi, gap)
    return checks._report(
        "harmonic bracketing", True,
        f"H_k - log k in [{lo:.12f}, {hi:.12f}] for k <= {k_max}",
        f"(gamma, gamma + 1/2] = ({gamma:.12f}, {gamma + 0.5:.12f}]",
    )


# H_k - log k falls from 1 at k = 1 to about gamma + 1/(2k): a gamma near
# 0.5772 passes up to some k, one below 1/2 fails the ceiling at k = 1
gammas = st.one_of(
    st.just(checks.GAMMA),
    st.floats(min_value=0.577, max_value=0.6),
    st.floats(min_value=0.45, max_value=0.6),
)


@settings(deadline=None, max_examples=60)
@given(k_max=st.integers(min_value=1, max_value=2 * 10**4), gamma=gammas)
def test_bracketing_matches_the_per_k_loop(k_max, gamma):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "GAMMA", gamma)
        assert checks.check_harmonic_bracketing(k_max) == reference_bracketing(k_max)


@settings(deadline=None)
@given(n=st.integers(min_value=1, max_value=12))
def test_tangent_segre_is_the_power_of_the_alternating_class(n):
    alternating = chow.TotalClass(n, ((-1) ** i for i in range(n + 1)))
    assert chow.projective_tangent_segre(n) == alternating ** (n + 1)


def reference_growth(n: int, k: int, r_max: int) -> VerificationReport:
    slack = 10.0
    lead = Fraction(1, math.factorial(k)) * sum_nondecreasing(n, k)
    powers = _part_count_sums([j**n for j in range(n + 1)], k, r_max)
    e = n + k - 1
    scale = Fraction(math.factorial(e), math.factorial(n)) / lead
    num, den = scale.numerator, scale.denominator
    window_start = r_max // 10
    worst = Fraction(0)
    hold_from: Optional[int] = None
    for r in range(1, r_max + 1):
        excess = Fraction(num * powers[r] - den * r**e, den * r ** (e - 1))
        if excess <= slack:
            if hold_from is None:
                hold_from = r
        else:
            hold_from = None
        if r >= window_start:
            worst = max(worst, excess)
    return VerificationReport(
        name=f"partition power growth (n={n}, k={k})",
        passed=hold_from is not None and hold_from <= window_start,
        lhs=f"max r*(ratio-1) = {float(worst):.3f} on [{window_start}, {r_max}]",
        rhs=f"allowed slack {slack}",
        detail=f"ratio <= 1 + {slack}/r holds from r = {hold_from}",
    )


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=5),
    r_max=st.integers(min_value=10, max_value=200),
)
def test_growth_in_integers_matches_the_fraction_form(n, k, r_max):
    assert check_partition_power_growth(n, k, r_max) == reference_growth(n, k, r_max)
