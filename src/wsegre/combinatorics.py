"""Exact combinatorial sums via truncated generating functions.

The two reciprocal sums are coefficients of x^n in products of the form
prod_{j=1..k} (1 - x/j)^(-mult):

* ``sum_repeated``       -- mult = n+1; equals the sum of 1/(u_1*...*u_n) over
  size-n multisets drawn from an alphabet holding n+1 indexed copies of each
  integer 1..k (indices are forgotten when multiplying).
* ``sum_nondecreasing``  -- mult = 1; the sum over 1 <= i_1 <= ... <= i_n <= k.

Both come from one integer series.  The polynomial
P(x) = prod_{j=1..k} (j - x) mod x^(n+1) is built one factor at a time, so
P(0) = k! and prod_{j=1..k} (1 - x/j)^(-1) = k!/P(x).  The coefficient of x^d
of that inverse is an integer B_d over (k!)^d, and so is the coefficient of
its mult-th power, which a recurrence with one exact integer division per
degree gives.  Every step stays in integers; a ``Fraction`` is built only
for a coefficient that is returned.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence


def harmonic(k: int) -> Fraction:
    """Exact harmonic number 1 + 1/2 + ... + 1/k.

    >>> harmonic(3)
    Fraction(11, 6)
    """
    if k <= 0:
        raise ValueError("harmonic number needs k >= 1")
    return sum_nondecreasing(1, k)


def _inverse_series(n: int, k: int) -> tuple[int, list[int]]:
    """k! and the integers B_0..B_n with
    prod_{j=1..k} (1 - x/j)^(-1) = sum_d B_d x^d / (k!)^d  mod x^(n+1).

    P(x) = prod_{j<=k} (j - x) takes p_d <- j*p_d - p_(d-1) per factor.  With
    q_i = p_i * p_0^(i-1), inverting P/p_0 gives B_d = -sum_i q_i B_(d-i).
    """
    p = [1] + [0] * n
    degrees = range(n, 0, -1)  # p_d stays 0 while d exceeds the degree so far
    for j in range(1, k + 1):
        for d in degrees:
            p[d] = j * p[d] - p[d - 1]
        p[0] *= j
    scale = p[0]
    q = [p[i] * scale ** (i - 1) for i in range(1, n + 1)]
    b = [1]
    for d in range(1, n + 1):
        b.append(-sum(q[i - 1] * b[d - i] for i in range(1, d + 1)))
    return scale, b


def _series_power(b: list[int], mult: int) -> list[int]:
    """F_0..F_n with (sum_d B_d x^d/s^d)^mult = sum_d F_d x^d/s^d, given B_0 = 1.

    The power rule F' E = mult E' F of F = E^mult gives
    d F_d = sum_{i=1..d} ((mult+1) i - d) B_i F_(d-i), and F_d is an integer,
    so the division is exact.
    """
    if mult == 1:
        return b
    f = [1]
    for d in range(1, len(b)):
        total = sum(((mult + 1) * i - d) * b[i] * f[d - i] for i in range(1, d + 1))
        f.append(total // d)
    return f


def _product_coefficients(n: int, k: int, mult: int) -> list[Fraction]:
    """Coefficients e_0..e_n of prod_{j=1..k} (1 - x/j)^(-mult)."""
    scale, b = _inverse_series(n, k)
    out, den = [], 1
    for c in _series_power(b, mult):
        out.append(Fraction(c, den))
        den *= scale
    return out


def _sum_numerators(n: int, k: int, repeated: bool = True) -> tuple[int, int, int]:
    """Integers (N, R, den) with sum_nondecreasing(n, k) = N/den and, when
    ``repeated``, sum_repeated(n, k) = R/den (R = 0 otherwise); den = (k!)^n.

    Both are x^n coefficients of one inverse series, raised to the powers 1
    and n+1, so a caller that needs both builds the series once.
    """
    scale, b = _inverse_series(n, k)
    return b[n], _series_power(b, n + 1)[n] if repeated else 0, scale**n


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
    _, repeated, den = _sum_numerators(n, k)
    return Fraction(repeated, den)


def sum_nondecreasing(n: int, k: int) -> Fraction:
    """Sum of 1/(i_1*...*i_n) over 1 <= i_1 <= ... <= i_n <= k.

    >>> sum_nondecreasing(2, 2)
    Fraction(7, 4)
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    nondecreasing, _, den = _sum_numerators(n, k, repeated=False)
    return Fraction(nondecreasing, den)


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
