"""Volume lower bounds for jet differentials and bigness thresholds.

Exact rational evaluation of the volume bound

    (1/(k!)^n) [ (K+D)^n/(n+1)^n * sum_repeated(n,k)
                 + (-D)^n * sum_nondecreasing(n,k) ]

together with its floating-point simplifications: the open lower bound in
log k, the boundary correction factor, and the log k thresholds beyond which
the order-k jet tautological bundle is big.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .combinatorics import _sum_numerators, sum_nondecreasing, sum_repeated

GAMMA = 0.57721566490153286061  # Euler-Mascheroni
PI = 3.14159265358979323846
_NEG_DN_WARNING = "(-D)^n >= 0: expected a negative signed value"


@dataclass(frozen=True)
class GeometryInput:
    """Intersection data of a compactified ball quotient: dimension n,
    (K+D)^n, the signed boundary self-intersection (-D)^n (negative for a
    nonempty boundary), and the number of boundary components."""

    n: int
    kd_n: Fraction
    neg_dn: Fraction
    components: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kd_n", Fraction(self.kd_n))
        object.__setattr__(self, "neg_dn", Fraction(self.neg_dn))
        if self.n < 2:
            raise ValueError("geometry needs n >= 2")
        if self.components < 1:
            raise ValueError("components must be >= 1")

    @property
    def canonical_volume(self) -> Fraction:
        """(K)^n = (K+D)^n + (-D)^n, reported alongside the inputs."""
        return self.kd_n + self.neg_dn

    @property
    def warnings(self) -> tuple[str, ...]:
        notes = []
        if self.kd_n <= 0:
            notes.append("(K+D)^n <= 0: the interior term is not positive")
        if self.neg_dn >= 0:
            notes.append(_NEG_DN_WARNING)
        return tuple(notes)


def _volume(n: int, k: int, kd_n: Fraction, neg_dn: Fraction) -> Fraction:
    """The volume bound from the two public sums, each read only when its
    coefficient is nonzero.  Calls go through the module's names for the
    sums, which traced runs (``perfbench/spans.py``) wrap."""
    total = Fraction(0)
    if kd_n:
        total += Fraction(kd_n) / (n + 1) ** n * sum_repeated(n, k)
    if neg_dn:
        total += Fraction(neg_dn) * sum_nondecreasing(n, k)
    return total / Fraction(math.factorial(k)) ** n


def _bracket(n: int, k: int, kd_n: Fraction, neg_dn: Fraction) -> Fraction:
    """(K+D)^n/(n+1)^n * sum_repeated(n,k) + (-D)^n * sum_nondecreasing(n,k),
    times their common denominator (k!)^n: the volume bound times (k!)^(2n),
    of the same sign.

    Both numerators come from one series, and no gcd with (k!)^n is taken.
    A zero (K+D)^n skips the series power.
    """
    nondecreasing, repeated, _ = _sum_numerators(n, k, repeated=bool(kd_n))
    return Fraction(kd_n) / (n + 1) ** n * repeated + Fraction(neg_dn) * nondecreasing


def logarithmic_volume(n: int, k: int, kd_n: Fraction) -> Fraction:
    """Volume of the order-k logarithmic jet algebra:
    (K+D)^n/((n+1)^n (k!)^n) * sum_repeated(n, k), exact.

    >>> logarithmic_volume(2, 1, Fraction(9))
    Fraction(6, 1)
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    return _volume(n, k, kd_n, 0)


def volume_lower_bound(geometry: GeometryInput, k: int) -> Fraction:
    """Exact lower bound on the volume of the order-k jet algebra of the
    compactification: interior term plus the (negative) boundary term."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _volume(geometry.n, k, geometry.kd_n, geometry.neg_dn)


def simple_lower_bound(n: int, k: int, kd_n: Fraction) -> float:
    """Open bound in k: (K+D)^n (log k + gamma)^n / ((k!)^n n!), as a float.

    Never exceeds ``logarithmic_volume`` for the same inputs.  Evaluated in
    log space so that (k!)^n beyond float range underflows to 0.0 instead of
    raising.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    kd = float(kd_n)
    if kd == 0.0:
        return 0.0
    j = math.log(k) + GAMMA
    log_mag = (
        math.log(abs(kd))
        + n * math.log(j)
        - n * math.lgamma(k + 1)
        - math.lgamma(n + 1)
    )
    return math.copysign(math.exp(log_mag), kd)


def boundary_factor(k_log: float, n: int) -> float:
    """Correction factor weighting the boundary term against the interior
    one in the simplified volume bound, as a function of log k.

    With j = log k + gamma:
        (1 + 1/(2j))^n + (pi^2/6) (n-2) n! (1 + 3/(2j))^(n-2) / j.
    Strictly decreasing in log k; tends to 1 as k grows.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    j = k_log + GAMMA
    if j <= 0:
        raise ValueError("log k + gamma must be positive")
    head = (1 + 1 / (2 * j)) ** n
    if n == 2:
        return head
    tail = (
        (PI * PI / 6)
        * (n - 2)
        * math.factorial(n)
        * (1 + 3 / (2 * j)) ** (n - 2)
        / j
    )
    return head + tail


def threshold_logk(n: int, neg_dn: Optional[Fraction] = None) -> float:
    """Value of log k beyond which the order-k jet tautological bundle is
    big on an n-dimensional compactified ball quotient.

    For n >= 6 the threshold is uniform; for n in {4, 5} it depends on the
    signed boundary self-intersection (-D)^n.
    """
    if n <= 3:
        raise ValueError("thresholds start at n = 4")
    if n >= 6:
        numerator = (PI * PI / 6) * (n - 2) * math.factorial(n) + 1
        return -GAMMA + numerator / ((n + 1) / (2 * PI) - 1)
    if neg_dn is None:
        raise ValueError(f"n = {n} needs the signed value (-D)^n")
    coeff = (n - 2) * math.factorial(n) + 1
    return -GAMMA - float(neg_dn) * coeff


def find_min_k(geometry: GeometryInput, k_max: int) -> Optional[int]:
    """Smallest k <= k_max with a positive volume lower bound, or None.

    Positivity does not depend on the (k!)^n prefactors, so the search
    tests the sign of the unreduced bracket, exactly.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    for k in range(1, k_max + 1):
        if _bracket(geometry.n, k, geometry.kd_n, geometry.neg_dn) > 0:
            return k
    return None


@dataclass(frozen=True)
class ThresholdRow:
    """One row of the threshold table: either a numeric log k value (n >= 6)
    or a symbolic bound with an explicit coefficient (n in {4, 5})."""

    n: int
    coefficient: Optional[int] = None
    logk: Optional[float] = None
    text: str = ""
    footnotes: tuple[str, ...] = field(default_factory=tuple)


_N4_FOOTNOTE = (
    "n = 4: the coefficient formula (n-2)*n!+1 gives 49; a previously "
    "circulated version of this table shows 5 here.  The computed value is "
    "kept and the discrepancy recorded rather than silently patched."
)
_SIGN_FOOTNOTE = (
    "Boundary self-intersection enters as the signed value (-D)^n (negative "
    "for a nonempty boundary); earlier tabulations mix sign conventions "
    "between columns."
)


def threshold_table() -> list[ThresholdRow]:
    """Threshold summary for n = 4..8.

    Rows for n in {4, 5} carry the coefficient of -(-D)^n in the symbolic
    bound -gamma + coeff * (-(-D)^n); rows for n >= 6 carry the rounded
    numeric log k threshold.
    """
    rows = []
    for n in (4, 5):
        coeff = (n - 2) * math.factorial(n) + 1
        notes = (_N4_FOOTNOTE, _SIGN_FOOTNOTE) if n == 4 else (_SIGN_FOOTNOTE,)
        rows.append(
            ThresholdRow(
                n=n,
                coefficient=coeff,
                text=f"-gamma + {coeff}*(-(-D)^{n})",
                footnotes=notes,
            )
        )
    for n in (6, 7, 8):
        value = threshold_logk(n)
        rows.append(
            ThresholdRow(n=n, logk=value, text=str(round(value)))
        )
    return rows
