"""Exact combinatorial sums via truncated generating functions.

The two reciprocal sums are coefficients of x^n in products of the form
prod_{j=1..k} (1 - x/j)^(-mult):

* ``sum_repeated``       -- mult = n+1; equals the sum of 1/(u_1*...*u_n) over
  size-n multisets drawn from an alphabet holding n+1 indexed copies of each
  integer 1..k (indices are forgotten when multiplying).
* ``sum_nondecreasing``  -- mult = 1; the sum over 1 <= i_1 <= ... <= i_n <= k.

Coefficients are extracted with exact rational arithmetic.  To keep k in the
thousands tractable, the product is evaluated through its logarithm: with
p_i = sum_j 1/j^i the coefficients e_d satisfy d*e_d = mult * sum_i p_i*e_{d-i},
and each p_i is assembled as a single integer sum over the common denominator
lcm(1..k)^i.  This is the same truncated series, just with one normalization
instead of k of them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence


def harmonic(k: int) -> Fraction:
    """Exact harmonic number 1 + 1/2 + ... + 1/k.

    >>> harmonic(3)
    Fraction(11, 6)
    """
    if k <= 0:
        raise ValueError("harmonic number needs k >= 1")
    return sum_nondecreasing(1, k)


@lru_cache(maxsize=None)
def _lcm_upto(k: int) -> int:
    out = 1
    for j in range(2, k + 1):
        out = math.lcm(out, j)
    return out


@lru_cache(maxsize=None)
def _scaled_power_sum(k: int, i: int) -> int:
    """sum_{j=1..k} (L/j)^i with L = lcm(1..k), an exact integer."""
    L = _lcm_upto(k)
    return sum((L // j) ** i for j in range(1, k + 1))


def _product_coefficients(n: int, k: int, mult: int) -> list[Fraction]:
    """Coefficients e_0..e_n of prod_{j=1..k} (1 - x/j)^(-mult)."""
    L = _lcm_upto(k)
    p = [None] + [
        Fraction(_scaled_power_sum(k, i), L**i) for i in range(1, n + 1)
    ]
    e = [Fraction(1)]
    for d in range(1, n + 1):
        e.append(sum(mult * p[i] * e[d - i] for i in range(1, d + 1)) / d)
    return e


def _part_count_sums(values: Sequence[int], k: int, m: int) -> list[int]:
    """Sum of F(J) over the partitions of each x = 0..m into parts <= k, with
    J the number of parts and F the polynomial with F(j) = values[j].

    With d_c the forward differences of F at 0, F(J) = sum_c d_c C(J, c).  A
    part of size t maps J to J + 1, and C(J + 1, c) = C(J, c) + C(J, c - 1),
    so in unbounded-knapsack order B[c][x] += B[c][x - t] + B[c - 1][x - t]
    in a table of len(values) * (m + 1) ints.
    """
    diffs = []
    level = list(values)
    while level:
        diffs.append(level[0])
        level = [b - a for a, b in zip(level, level[1:])]
    table = [[1] + [0] * m] + [[0] * (m + 1) for _ in diffs[1:]]
    for t in range(1, k + 1):
        # row c - 1 is complete for this t before row c reads it
        below = [0] * (m + 1)
        for row in table:
            for x in range(t, m + 1):
                row[x] += row[x - t] + below[x - t]
            below = row
    return [sum(d * b for d, b in zip(diffs, column)) for column in zip(*table)]


def sum_repeated(n: int, k: int) -> Fraction:
    """Sum of 1/(u_1*...*u_n) over size-n multisets from the (n+1)-fold
    repeated alphabet on 1..k.

    >>> sum_repeated(1, 2)
    Fraction(3, 1)
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    return _product_coefficients(n, k, n + 1)[n]


def sum_nondecreasing(n: int, k: int) -> Fraction:
    """Sum of 1/(i_1*...*i_n) over 1 <= i_1 <= ... <= i_n <= k.

    >>> sum_nondecreasing(2, 2)
    Fraction(7, 4)
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    return _product_coefficients(n, k, 1)[n]


def weighted_partitions(k: int, m: int) -> Iterator[tuple[int, ...]]:
    """Yield every (l_1, ..., l_k) with l_i >= 0 and sum_i i*l_i = m.

    Each tuple appears exactly once, in descending lexicographic order of the
    reversed tuple (l_k, ..., l_1): the count of the largest part decreases
    first.

    >>> list(weighted_partitions(2, 2))
    [(0, 1), (2, 0)]
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")

    def rec(part: int, rem: int, suffix: list[int]):
        if part == 1:
            yield tuple([rem] + suffix)
            return
        for count in range(rem // part, -1, -1):
            yield from rec(part - 1, rem - part * count, [count] + suffix)

    yield from rec(k, m, [])


def compositions_count(n: int, p: int) -> int:
    """Number of compositions of n into exactly p positive parts
    (p-1 cuts among n-1 slots).

    >>> compositions_count(4, 2)
    3
    """
    if not 1 <= p <= n:
        raise ValueError("need 1 <= p <= n")
    return math.comb(n - 1, p - 1)
