"""Reference values for checking benchmark outputs, independent of the code
paths the benchmark times.

The reciprocal sums come from the incremental series product: the truncated
series of prod_{j<=k} (1 - x/j)^(-mult) is multiplied by one factor at a time,
so one pass up to the largest k yields the coefficient at every smaller k.
The program instead evaluates each k through power sums and the logarithmic
recurrence.  Large results are compared modulo the prime 2^127 - 1: a wrong
value passes only if its difference from the true value is a multiple of
that prime.  Signs, which residues cannot give, use the same product exactly.
Jet ranks come from a plain partition DP, boundary section counts from the
per-tuple formula for small m and from a DP over the number of parts above.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

PRIME = 2**127 - 1
PER_TUPLE_MAX_M = 30


def series_coefficients(
    n: int, mult: int, ks: Iterable[int], modulus: Optional[int] = None
) -> dict:
    """Map each k in ``ks`` to [x^n] prod_{j=1..k} (1 - x/j)^(-mult).

    Values are exact Fractions, or residues mod ``modulus`` when it is given.
    The series is kept over the common denominator lcm(1..j)^d, so every
    step is integer arithmetic.
    """
    want = set(ks)
    binom = [math.comb(mult + l - 1, l) for l in range(n + 1)]
    scaled = [1] + [0] * n  # scaled[d] = e_d * L^d with L = lcm(1..j)
    L = 1
    out = {}
    for j in range(1, max(want) + 1):
        L_next = math.lcm(L, j)
        grow, inv_j = L_next // L, L_next // j
        if modulus:
            grow, inv_j = grow % modulus, inv_j % modulus
        grow_pow = [grow**i for i in range(n + 1)]
        factor = [binom[l] * inv_j**l for l in range(n + 1)]
        scaled = [
            sum(factor[l] * grow_pow[d - l] * scaled[d - l] for l in range(d + 1))
            for d in range(n + 1)
        ]
        if modulus:
            scaled = [x % modulus for x in scaled]
        L = L_next
        if j in want:
            if modulus:
                out[j] = scaled[n] * pow(L, -n, modulus) % modulus
            else:
                out[j] = Fraction(scaled[n], L**n)
    return out


def residue(value: Fraction, modulus: int = PRIME) -> int:
    """``value`` as an element of the integers mod a prime."""
    return value.numerator % modulus * pow(value.denominator, -1, modulus) % modulus


def bound_value(n: int, k: int, kd_n: Fraction, neg_dn: Fraction,
                repeated: int, nondecreasing: int, modulus: int = PRIME) -> int:
    """Volume lower bound mod ``modulus`` from the two sums (as residues)."""
    bracket = (residue(kd_n / (n + 1) ** n, modulus) * repeated
               + residue(neg_dn, modulus) * nondecreasing)
    return bracket * pow(math.factorial(k), -n, modulus) % modulus


def rank_profile(n: int, k: int, m_max: int) -> list[int]:
    """Jet ranks for m = 0..m_max: monomials in n variables of each weight
    1..k counted by weighted degree, one variable at a time."""
    ways = [1] + [0] * m_max
    for t in range(1, k + 1):
        for _ in range(n):
            for x in range(t, m_max + 1):
                ways[x] += ways[x - t]
    return ways


def _tuples(k: int, r: int):
    """Every (j_1..j_k) with sum_i i*j_i = r."""
    if k == 1:
        yield (r,)
        return
    for j_k in range(r // k + 1):
        for head in _tuples(k - 1, r - k * j_k):
            yield head + (j_k,)


def _conormal(s: int, n: int, neg_dn_abs: Fraction, components: int) -> Fraction:
    if s == 0:
        return Fraction(components)
    return Fraction(s ** (n - 1), math.factorial(n - 1)) * neg_dn_abs


def layer_counts(n: int, k: int, m_max: int) -> tuple[list[int], list[int]]:
    """For each weight r <= m_max, over the tuples (j_1..j_k) with
    sum_i i*j_i = r: how many have a part, and the sum of
    1^(n-1) + ... + (J-1)^(n-1) with J = j_1 + ... + j_k their part count."""
    parts = [[1] + [0] * m_max] + [[0] * (m_max + 1) for _ in range(m_max)]
    for t in range(1, k + 1):
        for r in range(t, m_max + 1):
            row = parts[r]
            parts[r] = [row[0]] + [a + b for a, b in zip(row[1:], parts[r - t])]
    power_sum = [0] * (m_max + 1)
    for J in range(2, m_max + 1):
        power_sum[J] = power_sum[J - 1] + (J - 1) ** (n - 1)
    zero = [sum(row[1:r + 1]) for r, row in enumerate(parts)]
    power = [sum(c * power_sum[J] for J, c in enumerate(row[:r + 1]) if c)
             for r, row in enumerate(parts)]
    return zero, power


def boundary_sections(n: int, k: int, m: int, neg_dn_abs: Fraction,
                      components: int, layers: Optional[tuple] = None) -> Fraction:
    """Section count of the graded boundary quotient in order k, degree m.

    Each tuple (j_1..j_k) of weight r contributes, for every i with j_i >= 1,
    the conormal powers j_1+...+j_{i-1}+s for s < j_i, times the boundary
    jet rank in degree m - r.  Those powers are exactly 0..J-1 for J the
    number of parts, so above ``PER_TUPLE_MAX_M`` the tuples are counted by
    weight and part count (``layer_counts``) instead of being listed.
    ``layers`` may hold ``layer_counts(n, k, m_max)`` for any m_max >= m.
    """
    if m <= PER_TUPLE_MAX_M:
        return boundary_per_tuple(n, k, m, neg_dn_abs, components)
    return boundary_by_parts(n, k, m, neg_dn_abs, components,
                             layers or layer_counts(n, k, m))


def boundary_per_tuple(n: int, k: int, m: int, neg_dn_abs: Fraction,
                       components: int) -> Fraction:
    """``boundary_sections`` by listing every tuple."""
    ranks = rank_profile(n - 1, k, m)
    weight = [0] * (m + 1)  # weight[s]: how often conormal power s occurs
    for r in range(m + 1):
        for tup in _tuples(k, r):
            start = 0
            for j in tup:
                for s in range(start, start + j):
                    weight[s] += ranks[m - r]
                start += j
    return sum(w * _conormal(s, n, neg_dn_abs, components)
               for s, w in enumerate(weight) if w)


def boundary_by_parts(n: int, k: int, m: int, neg_dn_abs: Fraction,
                      components: int, layers: tuple) -> Fraction:
    """``boundary_sections`` from ``layers = layer_counts(n, k, m_max)``."""
    ranks = rank_profile(n - 1, k, m)
    zero, power = layers
    # power 0 is worth `components`, power s >= 1 is s^(n-1) * neg_dn_abs/(n-1)!
    zero_layers = sum(zero[r] * ranks[m - r] for r in range(m + 1))
    power_layers = sum(power[r] * ranks[m - r] for r in range(m + 1))
    return (components * zero_layers
            + Fraction(power_layers, math.factorial(n - 1)) * neg_dn_abs)
