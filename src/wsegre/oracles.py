"""Brute-force oracles for the combinatorial identities, and two checks on
fast paths.

The oracles recompute a quantity from first principles (explicit enumeration
or dynamic programming) and share no machinery with the generating-function
and Chow-ring code they check.  The two checks do:
``check_partition_power_growth`` runs on ``_part_count_sums``, the engine of
``boundary_jet_sections``, and ``cross_check_volume_identity`` compares two
fast paths, the Chow-ring top Segre number and ``sum_repeated``.
Enumerations carry explicit guards instead of silently running for hours.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import NamedTuple, Optional, Sequence

from .chow import weighted_tangent_top_segre
from .combinatorics import (
    _part_count_sums,
    sum_nondecreasing,
    sum_repeated,
    weighted_partitions,
)

ENUMERATION_GUARD = 10**7


class VerificationReport(NamedTuple):
    """Outcome of one identity or asymptotic check, with the two values that
    were compared."""

    name: str
    passed: bool
    lhs: str
    rhs: str
    detail: str = ""


def _guard(count: int, what: str) -> None:
    if count > ENUMERATION_GUARD:
        raise ValueError(
            f"{what}: {count} items exceeds the enumeration guard "
            f"({ENUMERATION_GUARD})"
        )


def sum_repeated_bruteforce(n: int, k: int) -> Fraction:
    """Enumerate size-n multisets over the alphabet holding n+1 indexed
    copies of each integer 1..k and sum 1/(u_1*...*u_n) directly."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    letters = [value for value in range(1, k + 1) for _ in range(n + 1)]
    _guard(math.comb(len(letters) + n - 1, n), "multiset enumeration")
    total = Fraction(0)
    for combo in combinations_with_replacement(letters, n):
        total += Fraction(1, math.prod(combo))
    return total


def sum_nondecreasing_bruteforce(n: int, k: int) -> Fraction:
    """Enumerate the non-decreasing tuples 1 <= i_1 <= ... <= i_n <= k."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    _guard(math.comb(n + k - 1, n), "tuple enumeration")
    total = Fraction(0)
    for combo in combinations_with_replacement(range(1, k + 1), n):
        total += Fraction(1, math.prod(combo))
    return total


def count_partitions_max_part(m: int, k: int) -> int:
    """Number of integer partitions of m with all parts <= k (independent
    counter used against ``jet_rank`` on curves): the monomials of weighted
    degree m in one variable of each weight 1..k."""
    if m < 0:
        return 0
    if m == 0:
        return 1
    if k < 1:
        return 0
    return count_weighted_monomials(range(1, min(k, m) + 1), m)


def count_weighted_monomials(weights: Sequence[int], m: int) -> int:
    """Number of monomials of weighted degree exactly m in one variable per
    weight: tuples e >= 0 with sum_i weights[i]*e_i = m, by dynamic
    programming."""
    if not weights or any(a < 1 for a in weights):
        raise ValueError("weights must be a non-empty tuple of positive ints")
    if m < 0:
        raise ValueError("m must be >= 0")
    ways = [0] * (m + 1)
    ways[0] = 1
    for a in weights:
        for x in range(a, m + 1):
            ways[x] += ways[x - a]
    return ways[m]


def check_orbifold_h0(weights: Sequence[int], m_max: int) -> VerificationReport:
    """Check that the weighted monomial count grows like
    gcd(weights)/prod(weights) * m^n/n!  with n = len(weights) - 1.

    Counts are taken along m = lcm, 2*lcm, ..., <= m_max; the check passes if
    the final ratio is within 2% of the predicted constant.
    """
    tolerance = 0.02
    weights = tuple(weights)
    n = len(weights) - 1
    if n < 1:
        raise ValueError("need at least two weights")
    lcm = math.lcm(*weights)
    steps = m_max // lcm
    if steps < 1:
        raise ValueError("m_max must be at least lcm(weights)")
    target = Fraction(math.gcd(*weights), math.prod(weights))
    m_final = steps * lcm
    ratio = count_weighted_monomials(weights, m_final) * math.factorial(n) / m_final**n
    passed = abs(ratio / float(target) - 1) <= tolerance
    return VerificationReport(
        name=f"orbifold monomial growth {weights}",
        passed=passed,
        lhs=f"count ratio {ratio!r} at m = {m_final}",
        rhs=f"gcd/prod = {target} ({float(target)!r})",
        detail=f"{steps} multiples of lcm = {lcm}, tolerance {tolerance:.0%}",
    )


def partition_power_sum(n: int, k: int, r: int) -> Fraction:
    """Sum over (j_1..j_k) with sum_i i*j_i = r of (j_1+...+j_k)^n / n!.

    >>> partition_power_sum(1, 2, 2)
    Fraction(3, 1)
    """
    if n < 1 or k < 1 or r < 0:
        raise ValueError("need n >= 1, k >= 1, r >= 0")
    total = 0
    for tup in weighted_partitions(k, r):
        total += sum(tup) ** n
    return Fraction(total, math.factorial(n))


def check_partition_power_growth(n: int, k: int, r_max: int) -> VerificationReport:
    """Check the growth of ``partition_power_sum`` against its leading term
    sum_nondecreasing(n,k)/k! * r^(n+k-1)/(n+k-1)!.

    The bound is asymptotic with an unspecified constant, so the ratio is
    required to stay below 1 + 10/r over the top decade [r_max/10, r_max];
    the worst normalized excess r*(ratio-1) over that window is reported,
    along with the first r from which ratio <= 1 + 10/r holds onward.
    The sums for every r <= r_max come from one part-count moment table
    (``partition_power_sum`` enumerates each r instead).
    """
    if r_max < 10:
        raise ValueError("r_max must be >= 10")
    slack = 10.0
    lead = Fraction(1, math.factorial(k)) * sum_nondecreasing(n, k)
    powers = _part_count_sums([j**n for j in range(n + 1)], k, r_max)
    e = n + k - 1
    # ratio = (powers[r] / n!) / (lead * r^e / e!) = num * powers[r] / (den * r^e),
    # so excess = r * (ratio - 1) is top / bottom with the integers below, and
    # bottom > 0: every comparison is made across the fractions in integers
    scale = Fraction(math.factorial(e), math.factorial(n)) / lead
    num, den = scale.numerator, scale.denominator
    slack_num, slack_den = slack.as_integer_ratio()
    window_start = r_max // 10
    worst_top, worst_bottom = 0, 1
    hold_from: Optional[int] = None
    for r in range(1, r_max + 1):
        top, bottom = num * powers[r] - den * r**e, den * r ** (e - 1)
        if top * slack_den <= slack_num * bottom:
            if hold_from is None:
                hold_from = r
        else:
            hold_from = None
        if r >= window_start and top * worst_bottom > worst_top * bottom:
            worst_top, worst_bottom = top, bottom
    worst = Fraction(worst_top, worst_bottom)
    return VerificationReport(
        name=f"partition power growth (n={n}, k={k})",
        # a failing r resets hold_from, so this also covers every r in the window
        passed=hold_from is not None and hold_from <= window_start,
        lhs=f"max r*(ratio-1) = {float(worst):.3f} on [{window_start}, {r_max}]",
        rhs=f"allowed slack {slack}",
        detail=f"ratio <= 1 + {slack}/r holds from r = {hold_from}",
    )


def cross_check_volume_identity(n_max: int, k_max: int) -> VerificationReport:
    """Exact identity between the Chow-ring and generating-function paths:
    weighted_tangent_top_segre(n, k) * (k!)^n == sum_repeated(n, k)
    for all 1 <= n <= n_max, 1 <= k <= k_max."""
    if not (1 <= n_max <= 5 and 1 <= k_max <= 6):
        raise ValueError("guarded range is n_max <= 5, k_max <= 6")
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            lhs = weighted_tangent_top_segre(n, k) * Fraction(math.factorial(k)) ** n
            rhs = sum_repeated(n, k)
            if lhs != rhs:
                return VerificationReport(
                    name="volume identity (Chow ring vs generating function)",
                    passed=False,
                    lhs=f"(k!)^n * top Segre number = {lhs} at (n={n}, k={k})",
                    rhs=f"multiset sum = {rhs}",
                )
    return VerificationReport(
        name="volume identity (Chow ring vs generating function)",
        passed=True,
        lhs=f"all {n_max * k_max} pairs equal",
        rhs="exact rational equality",
        detail=f"grid 1 <= n <= {n_max}, 1 <= k <= {k_max}",
    )
