"""Dimension bookkeeping for jet-differential algebras.

``jet_rank`` counts the rank of the degree-m graded piece of the order-k
jet algebra on an n-fold.  ``boundary_jet_sections`` evaluates, exactly, the
number of independent sections of the graded boundary quotient that separates
logarithmic jet differentials from standard ones: an n-fold compactified by a
disjoint union of abelian hypersurfaces with ample conormal bundle.  It reads
every conormal power, 0 included, from one weighted part-count table and the
boundary's own rank profile, in O(n*k*m) integer additions and no partition
enumeration.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .combinatorics import _part_count_sums, sum_nondecreasing, weighted_partitions


class _BoundaryFields(NamedTuple):
    n: int
    neg_dn_abs: Fraction
    components: int = 1


class BoundaryData(_BoundaryFields):
    """Boundary of a compactified n-fold: ``neg_dn_abs`` is the positive
    number -(-D)^n for the boundary divisor D, ``components`` the number of
    disjoint abelian components (so the structure sheaf has that many
    sections)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        n, neg_dn_abs, components = super().__new__(cls, *args, **kwargs)
        neg_dn_abs = Fraction(neg_dn_abs)
        if n < 2:
            raise ValueError("boundary data needs n >= 2")
        if neg_dn_abs <= 0:
            raise ValueError(
                "-(-D)^n must be positive: boundary data needs a negative signed value (-D)^n"
            )
        if components < 1:
            raise ValueError("components must be >= 1")
        return cls._make((n, neg_dn_abs, components))


def jet_rank(n: int, k: int, m: int) -> int:
    """Rank of the degree-m piece of the order-k jet algebra on an n-fold.

    Sum over (l_1..l_k) with sum_i i*l_i = m of prod_i C(l_i + n - 1, n - 1),
    the l_i-th symmetric powers of an n-dimensional cotangent space.

    >>> jet_rank(1, 2, 4)
    3
    """
    if n < 1 or k < 1 or m < 0:
        raise ValueError("need n >= 1, k >= 1, m >= 0")
    total = 0
    for tup in weighted_partitions(k, m):
        prod = 1
        for l in tup:
            prod *= math.comb(l + n - 1, n - 1)
        total += prod
    return total


def _rank_profile(n: int, k: int, m_max: int) -> list[int]:
    """jet_rank(n, k, m) for all m = 0..m_max: the coefficients of
    prod_{t=1..k} (1 - y^t)^(-n), multiplied in as n passes of 1/(1 - y^t)
    for each t."""
    profile = [1] + [0] * m_max
    for t in range(1, k + 1):
        for _ in range(n):
            for x in range(t, m_max + 1):
                profile[x] += profile[x - t]
    return profile


def boundary_jet_sections(k: int, m: int, boundary: BoundaryData) -> Fraction:
    """Exact section count of the graded boundary quotient in order k,
    degree m.

    The graded module splits over r = 0..m into a conormal-power block (jets
    transverse to the boundary) tensored with the degree-(m-r) jet algebra of
    the boundary itself.  In the block at r, a tuple (j_1..j_k) with
    sum_i i*j_i = r and J = j_1+...+j_k parts meets the conormal powers
    0..J-1 once each.  Power 0 weighs the component count and a power s >= 1
    weighs -(-D)^n*s^(n-1)/(n-1)!, so a tuple weighs a degree-n polynomial in
    J, and one part-count table sums it over the tuples of every r <= m.
    The weights are scaled to integers by (n-1)!*den(-(-D)^n).  At J = 0 the
    polynomial reads the component count, but the empty tuple, the only one
    at r = 0, meets no power, so block 0 is left out.  The cost is O(n*k*m)
    integer additions.
    """
    if k < 1 or m < 0:
        raise ValueError("need k >= 1, m >= 0")
    n = boundary.n
    neg_dn_abs = boundary.neg_dn_abs
    scale = math.factorial(n - 1) * neg_dn_abs.denominator
    # the weight polynomial at J = 0..n; the s = 0 term of s^(n-1) is 0 as n >= 2
    weights = accumulate(
        (neg_dn_abs.numerator * s ** (n - 1) for s in range(n)),
        initial=boundary.components * scale,
    )
    layers = _part_count_sums(list(weights), k, m)
    profile = _rank_profile(n - 1, k, m)
    return Fraction(sum(layers[r] * profile[m - r] for r in range(1, m + 1)), scale)


def boundary_coeff(n: int, k: int) -> Fraction:
    """Leading coefficient of the boundary section count, normalized by
    m^(n+nk-1)/(n+nk-1)! and by -(-D)^n: sum_nondecreasing(n, k)/(k!)^n.

    >>> boundary_coeff(2, 2)
    Fraction(7, 16)
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2, k >= 1")
    return sum_nondecreasing(n, k) / Fraction(math.factorial(k)) ** n
