"""Exact combinatorial sums via truncated generating functions.

The two reciprocal sums are coefficients of x^n in products of the form
prod_{j=1..k} (1 - x/j)^(-mult):

* ``sum_repeated``       -- mult = n+1; equals the sum of 1/(u_1*...*u_n) over
  size-n multisets drawn from an alphabet holding n+1 indexed copies of each
  integer 1..k (indices are forgotten when multiplying).
* ``sum_nondecreasing``  -- mult = 1; the sum over 1 <= i_1 <= ... <= i_n <= k.

Both come from one integer series, walked by ``_inverse_at``.  The walk
builds P(x) = prod_{j=1..k} (j - x) mod x^(n+1) one factor at a time, and at
each order k a caller asks for it inverts P: P(0) = k! and
prod_{j=1..k} (1 - x/j)^(-1) = k!/P(x).  The coefficient of x^d of that
inverse is an integer B_d over (k!)^d, and so is the coefficient of its
mult-th power, which a recurrence with one exact integer division per degree
gives.  The public sums read the walk at one k; a caller that needs many
orders in increasing k reads one walk, which pays each factor once.  Every
step stays in integers; a ``Fraction`` is built only for a coefficient that
is returned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence


def harmonic(k: int) -> Fraction:
    """Exact harmonic number 1 + 1/2 + ... + 1/k.

    >>> harmonic(3)
    Fraction(11, 6)
    """
    if k <= 0:
        raise ValueError("harmonic number needs k >= 1")
    return sum_nondecreasing(1, k)


def _inverse_at(n: int, ks: Iterable[int]) -> Iterator[tuple[int, int, list[int]]]:
    """(k, k!, B) for each k of the strictly increasing ``ks``, with the
    integers B_0..B_n of
    prod_{j=1..k} (1 - x/j)^(-1) = sum_d B_d x^d / (k!)^d  mod x^(n+1).

    P(x) = prod_{j<=k} (j - x) takes p_d <- j*p_d - p_(d-1) per factor, from
    the previous k to the next, and is inverted only at each k of ``ks``.
    """
    p = [1] + [0] * n
    degrees = range(n, 0, -1)  # p_d stays 0 while d exceeds the degree so far
    last = 0
    for k in ks:
        if k <= last:
            raise ValueError(f"orders must increase strictly from 0: {k} after {last}")
        for j in range(last + 1, k + 1):
            for d in degrees:
                p[d] = j * p[d] - p[d - 1]
            p[0] *= j
        last = k
        yield (k, *_invert(p))


def _invert(p: list[int]) -> tuple[int, list[int]]:
    """p_0 and the integers B_0..B_n with p_0/P(x) = sum_d B_d x^d / p_0^d
    mod x^(n+1), for P(x) = sum_d p_d x^d.

    With q_i = p_i * p_0^(i-1), inverting P/p_0 gives B_d = -sum_i q_i B_(d-i).
    """
    scale = p[0]
    q = [p[i] * scale ** (i - 1) for i in range(1, len(p))]
    b = [1]
    for d in range(1, len(p)):
        b.append(-sum(q[i - 1] * b[d - i] for i in range(1, d + 1)))
    return scale, b


def _series_power(b: list[int], mult: int) -> list[int]:
    """F_0..F_n with (sum_d B_d x^d/s^d)^mult = sum_d F_d x^d/s^d, given B_0 = 1.

    The power rule F' E = mult E' F of F = E^mult gives
    d F_d = sum_{i=1..d} ((mult+1) i - d) B_i F_(d-i), and F_d is an integer,
    so the division is exact.
    """
    f = [1]
    for d in range(1, len(b)):
        total = sum(((mult + 1) * i - d) * b[i] * f[d - i] for i in range(1, d + 1))
        f.append(total // d)
    return f


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
    _, scale, b = next(_inverse_at(n, (k,)))
    return Fraction(_series_power(b, n + 1)[n], scale**n)


def sum_nondecreasing(n: int, k: int) -> Fraction:
    """Sum of 1/(i_1*...*i_n) over 1 <= i_1 <= ... <= i_n <= k.

    >>> sum_nondecreasing(2, 2)
    Fraction(7, 4)
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    _, scale, b = next(_inverse_at(n, (k,)))
    return Fraction(b[n], scale**n)


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

    # a part larger than m occurs 0 times, so the recursion depth is min(k, m)
    top = max(min(k, m), 1)
    yield from rec(top, m, [0] * (k - top))
