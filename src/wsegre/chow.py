"""Exact truncated characteristic-class arithmetic and the weighted Segre calculus.

Everything lives in the truncated polynomial ring Q[H]/(H^(n+1)), where H is
the hyperplane class of projective n-space.  Coefficients are exact rationals
throughout; there is no floating point in this module.

The arithmetic runs on integer numerators.  A class is written C/D, with C a
list of integers and D one common denominator.  A product convolves the
integer lists, an inverse runs the integer recurrence that also inverts the
reciprocal sums' series, and the weighted Whitney product keeps one running
integer product over all its summands.  Each output coefficient is then
normalized once, by one ``Fraction(num, den)``, so no gcd runs inside a loop.
"""

from __future__ import annotations

import decimal
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .combinatorics import _invert


_LEAF_BITS = 2048  # up to this many bits _digits converts an int to Decimal directly


def _to_fractions(coeffs: Iterable) -> tuple[Fraction, ...]:
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)


def _digits(value: int) -> str:
    """Decimal text of an int of any size.  str() refuses ints past the
    interpreter's digit limit.  There the int is split in halves by bits and
    rebuilt in Decimal, whose large products are subquadratic, as CPython
    3.12's ``_pylong.int_to_decimal_string`` does; ``Decimal(value)`` alone
    would be quadratic."""
    try:
        return str(value)
    except ValueError:
        pass
    powers = {}  # 2^w as a Decimal, for the few widths w that the halving meets

    def rebuild(n: int, width: int) -> decimal.Decimal:
        if width <= _LEAF_BITS:
            return decimal.Decimal(n)
        half = width >> 1
        high = n >> half
        if half not in powers:
            powers[half] = decimal.Decimal(2) ** half
        return rebuild(n - (high << half), half) + rebuild(high, width - half) * powers[half]

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        text = str(rebuild(abs(value), abs(value).bit_length()))
    return "-" + text if value < 0 else text


def _fraction_text(value: Fraction) -> str:
    """``str(value)`` for a Fraction of any size."""
    if value.denominator == 1:
        return _digits(value.numerator)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def _integer_form(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers C and one denominator D with coeffs[i] == C[i] / D."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Coefficients 0..n of the product of the integer polynomials a and b."""
    return [sum(map(operator.mul, a[: d + 1], reversed(b[: d + 1]))) for d in range(n + 1)]


class TotalClass:
    """A class in the degree-<=dim part of the rational Chow ring of P^dim.

    ``coeffs[i]`` is the coefficient of H^i.  Construction pads missing
    coefficients with zero and silently drops terms above degree ``dim``.
    Instances are immutable and hashable.  The class is no tuple, so that
    ``+`` raises instead of concatenating.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: Iterable = ()):
        if dim < 0:
            raise ValueError("dim must be >= 0")
        cs = list(_to_fractions(coeffs))[: dim + 1]
        cs += [Fraction(0)] * (dim + 1 - len(cs))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return TotalClass, (self.dim, self.coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.coeffs) == (other.dim, other.coeffs)

    def __hash__(self):
        return hash((self.dim, self.coeffs))

    def __repr__(self) -> str:
        return f"TotalClass(dim={self.dim!r}, coeffs={self.coeffs!r})"

    @classmethod
    def unit(cls, dim: int) -> "TotalClass":
        return cls(dim, (1,))

    def __mul__(self, other):
        if isinstance(other, TotalClass):
            if self.dim != other.dim:
                raise ValueError(
                    f"dimension mismatch: {self.dim} != {other.dim}"
                )
            a, a_den = _integer_form(self.coeffs)
            b, b_den = _integer_form(other.coeffs)
            den = a_den * b_den
            product = _convolve(a, b, self.dim)
            return TotalClass(self.dim, (Fraction(c, den) for c in product))
        if isinstance(other, (int, Fraction)):
            return TotalClass(self.dim, (other * c for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "TotalClass":
        """Multiplicative inverse; requires a nonzero constant term.

        With the class written C/D, the inverse has coefficient
        D·Q_d / C_0^(d+1) in degree d, where C_0/C(x) = sum_d Q_d x^d / C_0^d
        gives the integers Q_d (``combinatorics._invert``).
        """
        if self.coeffs[0] == 0:
            raise ValueError("cannot invert a class with zero constant term")
        c, den = _integer_form(self.coeffs)
        c0, q = _invert(c)
        return TotalClass(self.dim, (Fraction(den * q_d, c0 ** (d + 1)) for d, q_d in enumerate(q)))

    def __pow__(self, e: int) -> "TotalClass":
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        base = self if e >= 0 else self.inverse()
        out = TotalClass.unit(self.dim)
        e = abs(e)
        while e:  # binary exponentiation: O(log |e|) products
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def top(self) -> Fraction:
        """Coefficient of H^dim, i.e. the pushforward to a point."""
        return self.coeffs[self.dim]

    def __str__(self) -> str:
        terms = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = _fraction_text(abs(c))
            if d == 1:
                mag += "·H"
            elif d > 1:
                mag += f"·H^{d}"
            terms.append(("-" if c < 0 else "+", mag))
        if not terms:
            return "0"
        sign, mag = terms[0]
        s = ("-" if sign == "-" else "") + mag
        for sign, mag in terms[1:]:
            s += f" {sign} {mag}"
        return s


class _SummandFields(NamedTuple):
    segre: TotalClass
    rank: int
    weight: int


class WeightedSummand(_SummandFields):
    """One summand of a weighted direct sum: a bundle given by its total
    Segre class, its rank, and a positive integer weight."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.weight < 1:
            raise ValueError("weight must be >= 1")
        if self.segre.coeffs[0] != 1:
            raise ValueError("total Segre class must start with 1")
        return self

    @classmethod
    def from_chern(cls, chern: TotalClass, rank: int, weight: int) -> "WeightedSummand":
        """Build a summand from a total Chern class (Segre = inverse)."""
        if chern.coeffs[0] != 1:
            raise ValueError("total Chern class must start with 1")
        return cls(chern.inverse(), rank, weight)


def projective_tangent_segre(n: int) -> TotalClass:
    """Total Segre class of the tangent bundle of P^n.

    The total Chern class is (1+H)^(n+1), so the Segre class is
    (1+H)^-(n+1), whose coefficient of H^i is (-1)^i C(n+i, i).

    >>> str(projective_tangent_segre(1))
    '1 - 2·H'
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return TotalClass(n, ((-1) ** i * math.comb(n + i, i) for i in range(n + 1)))


def segre_of_weighted_summand(summand: WeightedSummand) -> TotalClass:
    """Total Segre class of a single weighted summand E^(a).

    Degree-j coefficient is s_j(E) / a^(rank - 1 + j): the weighted Whitney
    product of one summand, whose prefactor gcd/prod is a/a.
    """
    return segre_of_weighted_sum([summand])


def segre_of_weighted_sum(summands: Sequence[WeightedSummand]) -> TotalClass:
    """Total Segre class of a weighted direct sum.

    Whitney-type product: gcd(a_1..a_p)/(a_1*...*a_p) times the product of the
    per-summand classes E^(a), whose degree-j coefficient is
    s_j(E) / a^(rank - 1 + j).  With all weights 1 this is the classical
    Whitney product.  One integer product runs over all summands, and the
    prefactor folds into the final normalization.
    """
    if not summands:
        raise ValueError("weighted sum needs at least one summand")
    dims = {s.segre.dim for s in summands}
    if len(dims) != 1:
        raise ValueError("all summands must share the same ambient dimension")
    n = dims.pop()
    weights = [s.weight for s in summands]
    product, den = [1] + [0] * n, math.prod(weights)
    for s in summands:
        # with s_j = S_j / D_s, every coefficient goes over D_s·a^(rank-1+n)
        nums, s_den = _integer_form(s.segre.coeffs)
        a = s.weight
        product = _convolve(product, [c * a ** (n - j) for j, c in enumerate(nums)], n)
        den *= s_den * a ** (s.rank - 1 + n)
    gcd = math.gcd(*weights)
    return TotalClass(n, (Fraction(gcd * c, den) for c in product))


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
