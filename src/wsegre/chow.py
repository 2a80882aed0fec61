"""Exact truncated characteristic-class arithmetic and the weighted Segre calculus.

Everything lives in the truncated polynomial ring Q[H]/(H^(n+1)), where H is
the hyperplane class of projective n-space.  Coefficients are exact rationals
throughout; there is no floating point in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


def _to_fractions(coeffs: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coeffs)


@dataclass(frozen=True)
class TotalClass:
    """A class in the degree-<=dim part of the rational Chow ring of P^dim.

    ``coeffs[i]`` is the coefficient of H^i.  Construction pads missing
    coefficients with zero and silently drops terms above degree ``dim``.
    """

    dim: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, dim: int, coeffs: Iterable = ()):
        if dim < 0:
            raise ValueError("dim must be >= 0")
        cs = list(_to_fractions(coeffs))[: dim + 1]
        cs += [Fraction(0)] * (dim + 1 - len(cs))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def unit(cls, dim: int) -> "TotalClass":
        return cls(dim, (1,))

    @classmethod
    def hyperplane(cls, dim: int) -> "TotalClass":
        return cls(dim, (0, 1))

    def __mul__(self, other):
        if isinstance(other, TotalClass):
            if self.dim != other.dim:
                raise ValueError(
                    f"dimension mismatch: {self.dim} != {other.dim}"
                )
            n = self.dim
            out = [Fraction(0)] * (n + 1)
            for a, xa in enumerate(self.coeffs):
                if xa == 0:
                    continue
                for b in range(n + 1 - a):
                    out[a + b] += xa * other.coeffs[b]
            return TotalClass(n, out)
        if isinstance(other, (int, Fraction)):
            return TotalClass(self.dim, (other * c for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "TotalClass":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ValueError("cannot invert a class with zero constant term")
        n = self.dim
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * n
        for d in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, d + 1):
                acc += self.coeffs[i] * out[d - i]
            out[d] = -inv0 * acc
        return TotalClass(n, out)

    def __pow__(self, e: int) -> "TotalClass":
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        base = self if e >= 0 else self.inverse()
        out = TotalClass.unit(self.dim)
        for _ in range(abs(e)):
            out = out * base
        return out

    def top(self) -> Fraction:
        """Coefficient of H^dim, i.e. the pushforward to a point."""
        return self.coeffs[self.dim]

    def __str__(self) -> str:
        terms = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = str(abs(c)) if d == 0 else (
                f"{abs(c)}·H" if d == 1 else f"{abs(c)}·H^{d}"
            )
            terms.append(("-" if c < 0 else "+", mag))
        if not terms:
            return "0"
        sign, mag = terms[0]
        s = ("-" if sign == "-" else "") + mag
        for sign, mag in terms[1:]:
            s += f" {sign} {mag}"
        return s


@dataclass(frozen=True)
class WeightedSummand:
    """One summand of a weighted direct sum: a bundle given by its total
    Segre class, its rank, and a positive integer weight."""

    segre: TotalClass
    rank: int
    weight: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.weight < 1:
            raise ValueError("weight must be >= 1")
        if self.segre.coeffs[0] != 1:
            raise ValueError("total Segre class must start with 1")

    @classmethod
    def from_chern(cls, chern: TotalClass, rank: int, weight: int) -> "WeightedSummand":
        """Build a summand from a total Chern class (Segre = inverse)."""
        return cls(chern.inverse(), rank, weight)


def projective_tangent_segre(n: int) -> TotalClass:
    """Total Segre class of the tangent bundle of P^n.

    The total Chern class is (1+H)^(n+1), so the Segre class is the truncated
    power (1 - H + H^2 - ...)^(n+1).

    >>> str(projective_tangent_segre(1))
    '1 - 2·H'
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    alternating = TotalClass(n, ((-1) ** i for i in range(n + 1)))
    return alternating ** (n + 1)


def segre_of_weighted_summand(summand: WeightedSummand) -> TotalClass:
    """Total Segre class of a single weighted summand E^(a).

    Degree-j coefficient is s_j(E) / a^(rank - 1 + j); weight 1 returns the
    input class unchanged.
    """
    s, a, r = summand.segre, summand.weight, summand.rank
    if a == 1:
        return s
    return TotalClass(
        s.dim, (c / Fraction(a) ** (r - 1 + j) for j, c in enumerate(s.coeffs))
    )


def segre_of_weighted_sum(summands: Sequence[WeightedSummand]) -> TotalClass:
    """Total Segre class of a weighted direct sum.

    Whitney-type product: gcd(a_1..a_p)/(a_1*...*a_p) times the product of the
    per-summand classes.  With all weights 1 this is the classical Whitney
    product.
    """
    if not summands:
        raise ValueError("weighted sum needs at least one summand")
    dims = {s.segre.dim for s in summands}
    if len(dims) != 1:
        raise ValueError("all summands must share the same ambient dimension")
    weights = [s.weight for s in summands]
    prefactor = Fraction(math.gcd(*weights), math.prod(weights))
    out = TotalClass.unit(dims.pop())
    for s in summands:
        out = out * segre_of_weighted_summand(s)
    return prefactor * out


def weighted_tangent_top_segre(n: int, k: int) -> Fraction:
    """Top Segre number of T_{P^n} weighted by 1..k, with its intrinsic sign
    removed (the result is positive).

    >>> weighted_tangent_top_segre(1, 2)
    Fraction(3, 2)
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    tangent = projective_tangent_segre(n)
    summands = [WeightedSummand(tangent, n, j) for j in range(1, k + 1)]
    return (-1) ** n * segre_of_weighted_sum(summands).top()
