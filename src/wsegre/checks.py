"""Named verification checks and the suites behind the ``verify`` command.

Each check returns a ``VerificationReport``.  One table, ``_SUITES``, lists
every check once, in run order, with its arguments for a ``--fast`` run and
for a full run; a size that never varies is a constant inside its check.
Suites are deterministic: randomized checks draw from a fixed seed.

The chain checks over consecutive k (the interior chain, the exact part of
the boundary chain, monotone sums, the open bound) walk one series each:
``_inverse_at`` adds one factor per k, and a spot order past the consecutive
ones continues the same walk.  Each comparison is made over the common
denominator (k!)^n in integers, with a ``Fraction`` built only for a failure
report.  On a 2-vCPU shared Xeon with Python 3.11 the fast suites
take about 0.045 s in process (0.12 s for a whole ``wsegre verify --fast``
call) and the full suites about 0.3 s (0.4 s for ``wsegre verify``).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain
from typing import Sequence

from . import bounds, chow, jets, oracles
from .bounds import GAMMA, PI
from .combinatorics import (
    _inverse_at,
    _series_power,
    harmonic,
    sum_nondecreasing,
    sum_repeated,
)
from .oracles import VerificationReport

_SEED = 20230704
_LEADING_DIGITS = 20


def _show(value) -> str:
    """``str(value)``, except that an integer, numerator or denominator past
    the int-to-str digit limit shows as its leading digits and digit count."""
    try:
        return str(value)
    except ValueError:
        value = Fraction(value)
    parts = [value.numerator] + ([value.denominator] if value.denominator != 1 else [])
    return "/".join(_show_int(part) for part in parts)


def _show_int(value: int) -> str:
    try:
        return str(value)
    except ValueError:
        digits = chow._digits(abs(value))
        return f"{'-' if value < 0 else ''}{digits[:_LEADING_DIGITS]}... ({len(digits)} digits)"


def _report(name: str, passed: bool, lhs, rhs, detail: str = "") -> VerificationReport:
    return VerificationReport(name, passed, _show(lhs), _show(rhs), detail)


def _random_class(rng: random.Random, dim: int, unit_constant=False) -> chow.TotalClass:
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(dim + 1)]
    if unit_constant:
        coeffs[0] = Fraction(1)
    elif coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    return chow.TotalClass(dim, coeffs)


# ---------------------------------------------------------------- identities


def check_ring_axioms(trials: int) -> VerificationReport:
    rng = random.Random(_SEED)
    for _ in range(trials):
        dim = rng.randint(1, 6)
        x = _random_class(rng, dim)
        y = _random_class(rng, dim)
        z = _random_class(rng, dim)
        xy, yx = x * y, y * x
        if xy != yx:
            return _report("class ring axioms", False, xy, yx, "commutativity")
        left, right = xy * z, x * (y * z)
        if left != right:
            return _report("class ring axioms", False, left, right, "associativity")
        unit = chow.TotalClass.unit(dim)
        inv = x.inverse()
        for product in (inv * x, x * inv):
            if product != unit:
                return _report("class ring axioms", False, product, unit, "two-sided inverse")
    return _report(
        "class ring axioms", True, f"{trials} random triples", "commutative, associative, invertible"
    )


def check_weighted_single_coefficients(trials: int) -> VerificationReport:
    rng = random.Random(_SEED + 1)
    for _ in range(trials):
        dim = rng.randint(1, 5)
        summand = chow.WeightedSummand(
            _random_class(rng, dim, unit_constant=True),
            rank=rng.randint(1, 4),
            weight=rng.randint(1, 5),
        )
        got = chow.segre_of_weighted_summand(summand)
        for j, c in enumerate(summand.segre.coeffs):
            expected = c / Fraction(summand.weight) ** (summand.rank - 1 + j)
            if got.coeffs[j] != expected:
                return _report(
                    "weighted summand coefficients", False, got.coeffs[j], expected,
                    f"degree {j}, weight {summand.weight}, rank {summand.rank}",
                )
    return _report(
        "weighted summand coefficients", True,
        f"{trials} random summands", "coeff j = s_j / a^(rank-1+j)",
    )


def check_whitney_weight_one(trials: int) -> VerificationReport:
    rng = random.Random(_SEED + 2)
    for _ in range(trials):
        dim = rng.randint(1, 5)
        classes = [_random_class(rng, dim, unit_constant=True) for _ in range(rng.randint(1, 4))]
        summands = [chow.WeightedSummand(s, rng.randint(1, 3), 1) for s in classes]
        plain = chow.TotalClass.unit(dim)
        for s in classes:
            plain = plain * s
        got = chow.segre_of_weighted_sum(summands)
        if got != plain:
            return _report("weight-one Whitney product", False, got, plain, f"dim {dim}")
    return _report(
        "weight-one Whitney product", True,
        f"{trials} random sums", "prefactor 1, plain product",
    )


def check_volume_identity() -> VerificationReport:
    return oracles.cross_check_volume_identity(5, 6)


def check_volume_decomposition(trials: int) -> VerificationReport:
    rng = random.Random(_SEED + 3)
    for _ in range(trials):
        g = bounds.GeometryInput(
            n=rng.randint(2, 5),
            kd_n=Fraction(rng.randint(0, 80), rng.randint(1, 7)),
            neg_dn=Fraction(-rng.randint(0, 30), rng.randint(1, 5)),
            components=rng.randint(1, 3),
        )
        k = rng.randint(1, 6)
        via_parts = bounds.logarithmic_volume(g.n, k, g.kd_n) + g.neg_dn * jets.boundary_coeff(g.n, k)
        whole = bounds.volume_lower_bound(g, k)
        if whole != via_parts:
            return _report("volume bound decomposition", False, whole, via_parts, f"{g}, k={k}")
    return _report(
        "volume bound decomposition", True,
        f"{trials} random geometries", "interior + boundary parts, bit-exact",
    )


def check_harmonic_recurrence() -> VerificationReport:
    trials = 50
    rng = random.Random(_SEED + 4)
    ks = [rng.randint(2, 400) for _ in range(trials)]
    # H_(k-1) = B_1/(k-1)! for every drawn k, from one walk over their orders
    before = {
        j + 1: Fraction(b[1], scale) for j, scale, b in _inverse_at(1, sorted({k - 1 for k in ks}))
    }
    for k in ks:
        step = harmonic(k) - before[k]
        if step != Fraction(1, k):
            return _report("harmonic recurrence", False, step, Fraction(1, k), f"k={k}")
    return _report("harmonic recurrence", True, f"{trials} random k", "H_k - H_(k-1) = 1/k")


def check_boundary_small_cases() -> VerificationReport:
    cases = []
    for n, c, beta in ((2, 1, Fraction(1)), (3, 2, Fraction(7, 3)), (4, 3, Fraction(5))):
        b = jets.BoundaryData(n, beta, c)
        for k in (1, 2, 3):
            cases.append((f"order {k}, degree 0", jets.boundary_jet_sections(k, 0, b), Fraction(0)))
        cases.append(("order 1, degree 1", jets.boundary_jet_sections(1, 1, b), Fraction(c)))
    b2 = jets.BoundaryData(2, Fraction(11, 4), 3)
    cases.append(
        ("order 1, degree 2, n=2", jets.boundary_jet_sections(1, 2, b2), 2 * 3 + Fraction(11, 4))
    )
    for label, got, expected in cases:
        if got != expected:
            return _report("boundary sections, small cases", False, got, expected, label)
    return _report(
        "boundary sections, small cases", True, f"{len(cases)} closed-form cases", "exact match"
    )


# ------------------------------------------------------------------- oracles


def check_sum_oracles(limit: int) -> VerificationReport:
    for n in range(1, limit + 1):
        for k in range(1, limit + 1):
            for label, fast, brute in (
                ("repeated alphabet", sum_repeated, oracles.sum_repeated_bruteforce),
                ("non-decreasing tuples", sum_nondecreasing, oracles.sum_nondecreasing_bruteforce),
            ):
                got, expected = fast(n, k), brute(n, k)
                if got != expected:
                    return _report(
                        "reciprocal sums vs enumeration", False, got, expected,
                        f"{label}, n={n}, k={k}",
                    )
    return _report(
        "reciprocal sums vs enumeration", True,
        f"all n, k <= {limit}", "generating functions equal brute force",
    )


def check_jet_rank_partitions(m_max: int) -> VerificationReport:
    k_max = 6
    for k in range(1, k_max + 1):
        for m in range(m_max + 1):
            rank, count = jets.jet_rank(1, k, m), oracles.count_partitions_max_part(m, k)
            if rank != count:
                return _report(
                    "curve jet ranks vs partition counts", False, rank, count, f"k={k}, m={m}"
                )
    return _report(
        "curve jet ranks vs partition counts", True,
        f"m <= {m_max}, k <= {k_max}", "partitions with bounded parts",
    )


def check_rank_telescoping() -> VerificationReport:
    l_max = 20
    for n in range(2, 9):
        for l in range(l_max + 1):
            lhs = sum(math.comb(j + n - 2, n - 2) for j in range(l + 1))
            rhs = math.comb(l + n - 1, n - 1)
            if lhs != rhs:
                return _report(
                    "symmetric power rank telescoping", False, lhs, rhs, f"n={n}, l={l}"
                )
    return _report(
        "symmetric power rank telescoping", True,
        f"l <= {l_max}, n <= 8", "filtration preserves ranks",
    )


def check_monomial_quasipolynomial() -> VerificationReport:
    for weights in ((1, 2), (2, 2), (1, 2, 3), (2, 4, 6), (3, 5)):
        order = len(weights)
        stride = math.lcm(*weights)
        for m0 in range(2 * stride):
            diff = sum(
                (-1) ** i * math.comb(order, i)
                * oracles.count_weighted_monomials(weights, m0 + (order - i) * stride)
                for i in range(order + 1)
            )
            if diff != 0:
                return _report(
                    "monomial counts are quasi-polynomial", False,
                    diff, 0, f"weights {weights}, offset {m0}",
                )
    return _report(
        "monomial counts are quasi-polynomial", True,
        "5 weight tuples", "lcm-stride finite differences vanish",
    )


def check_orbifold_growth(steps: int) -> VerificationReport:
    for weights in ((1, 1), (1, 2), (1, 2, 3), (2, 4, 6)):
        rep = oracles.check_orbifold_h0(weights, steps * math.lcm(*weights))
        if not rep.passed:
            return rep
    return _report(
        "orbifold monomial growth", True,
        "4 weight tuples", f"ratio within 2% at {steps} lcm-multiples",
    )


def check_partition_power_examples() -> VerificationReport:
    r_max = 40
    spot = [
        (oracles.partition_power_sum(1, 2, 2), Fraction(3)),
        (oracles.partition_power_sum(2, 1, 6), Fraction(18)),
        (oracles.partition_power_sum(3, 2, 0), Fraction(0)),
    ]
    for got, expected in spot:
        if got != expected:
            return _report("partition power sums", False, got, expected, "spot value")
    for n, k in ((1, 2), (2, 3)):
        prev = oracles.partition_power_sum(n, k, 1)
        for r in range(2, r_max + 1):
            cur = oracles.partition_power_sum(n, k, r)
            if cur < prev:
                return _report(
                    "partition power sums", False, cur, prev, f"not monotone at r={r}"
                )
            prev = cur
    return _report(
        "partition power sums", True, "spot values and monotonicity", f"r <= {r_max}"
    )


def check_boundary_leading_coefficient() -> VerificationReport:
    m = 300
    b = jets.BoundaryData(2, Fraction(1), 1)
    value = jets.boundary_jet_sections(2, m, b)
    ratio = value / Fraction(m**5, math.factorial(5))
    target = jets.boundary_coeff(2, 2) * b.neg_dn_abs
    rel = abs(float(ratio / target) - 1)
    return _report(
        "boundary sections leading coefficient",
        rel <= 0.10,
        f"normalized ratio {float(ratio):.6f} at m={m}",
        f"{target} = {float(target)}",
        f"relative gap {rel:.2%}",
    )


# -------------------------------------------------------------- inequalities


def check_interior_chain(n_max: int, k_dense: int, k_spots: Sequence[int]) -> VerificationReport:
    # over the common denominator (k!)^n, n! * sum_repeated(n, k) is n! F_n
    # with F = _series_power(B, n+1), and ((n+1) H_k)^n is (n+1)^n B_1^n
    for k, scale, b in _inverse_at(n_max, chain(range(1, k_dense + 1), k_spots)):
        logterm = math.log(k) + GAMMA
        for n in range(1, n_max + 1):
            den = scale**n
            lhs = math.factorial(n) * _series_power(b[: n + 1], n + 1)[n]
            mid = (n + 1) ** n * b[1] ** n
            if lhs < mid:
                return _report(
                    "interior sum chain", False, Fraction(lhs, den), Fraction(mid, den),
                    f"exact step, n={n}, k={k}",
                )
            approx, floor = mid / den, (n + 1) ** n * logterm**n
            if approx < floor * (1 - 1e-12):
                return _report(
                    "interior sum chain", False, approx, floor, f"float step, n={n}, k={k}"
                )
    return _report(
        "interior sum chain", True,
        f"n <= {n_max}, k in 1..{k_dense} plus {list(k_spots)}",
        "n! * sum >= ((n+1) H_k)^n >= ((n+1)(log k + gamma))^n",
    )


_BOUNDARY_DEGREES = range(3, 9)
# n, n! and (pi^2/6)(n-2) for each n of _BOUNDARY_DEGREES
_BOUNDARY_WEIGHTS = [(n, math.factorial(n), (PI * PI / 6) * (n - 2)) for n in _BOUNDARY_DEGREES]


def _boundary_rhs(k: int) -> list[float]:
    """The bound on sum_nondecreasing(n, k) for each n of ``_BOUNDARY_DEGREES``."""
    j = math.log(k) + GAMMA
    head, tail = j + 0.5, j + 1.5
    return [head**n / fact + weight * tail ** (n - 2) for n, fact, weight in _BOUNDARY_WEIGHTS]


def check_boundary_chain(k_dense: int, k_spots: Sequence[int], sweep_to: int) -> VerificationReport:
    degrees = _BOUNDARY_DEGREES
    for k, scale, b in _inverse_at(degrees[-1], chain(range(2, k_dense + 1), k_spots)):
        # sum_nondecreasing(n, k) = B_n/(k!)^n for every n, from one sweep
        for n, bound in zip(degrees, _boundary_rhs(k)):
            value = b[n] / scale**n
            if value > bound * (1 + 1e-12):
                return _report(
                    "boundary sum upper bound", False, value, bound, f"exact value, n={n}, k={k}"
                )
    # dense float sweep: c holds the coefficients of prod_{j<=k} (1 - x/j)^(-1)
    # up to x^8; multiplying by 1/(1 - x/k) in place is c_d += c_(d-1)/k for d
    # increasing.  Like the exact part, it names the smallest failing n at its
    # first failing k.
    c = [1.0] * (degrees[-1] + 1)  # 1/(1 - x), the product at k = 1
    for k in range(2, sweep_to + 1):
        for d in range(1, len(c)):
            c[d] += c[d - 1] / k
        for n, bound in zip(degrees, _boundary_rhs(k)):
            if c[n] > bound * (1 + 1e-9):
                return _report(
                    "boundary sum upper bound", False, c[n], bound, f"float sweep, n={n}, k={k}"
                )
    return _report(
        "boundary sum upper bound", True,
        f"exact on k <= {k_dense} plus {list(k_spots)}; float sweep to k = {sweep_to}",
        "sum <= (j+1/2)^n/n! + (pi^2/6)(n-2)(j+3/2)^(n-2)",
    )


def check_harmonic_bracketing(k_max: int) -> VerificationReport:
    log = math.log
    floor, ceiling = GAMMA - 1e-12, GAMMA + 0.5 + 1e-12
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
        # a gap past either bound is a new extreme, so each bound is tested
        # only there
        if gap < lo:
            if not floor < gap:
                break
            lo = gap
        if gap > hi:
            if not gap <= ceiling:
                break
            hi = gap
    else:
        return _report(
            "harmonic bracketing", True,
            f"H_k - log k in [{lo:.12f}, {hi:.12f}] for k <= {k_max}",
            f"(gamma, gamma + 1/2] = ({GAMMA:.12f}, {GAMMA + 0.5:.12f}]",
        )
    return _report("harmonic bracketing", False, gap, (GAMMA, GAMMA + 0.5), f"k={k}")


def check_partition_power_growth(
    pairs: Sequence[tuple[int, int]], r_max: int
) -> VerificationReport:
    for n, k in pairs:
        rep = oracles.check_partition_power_growth(n, k, r_max)
        if not rep.passed:
            return rep
    return _report(
        "partition power growth", True,
        f"pairs {pairs}", f"ratio <= 1 + 10/r on the top decade of r <= {r_max}",
    )


def check_monotone_sums() -> VerificationReport:
    # over (k!)^n the sums at k are F_n(k) and B_n(k), so growth from k to
    # k + 1 is F_n(k+1) > F_n(k) (k+1)^n, and likewise for B_n
    n_max, k_max = 4, 25
    series = list(_inverse_at(n_max, range(1, k_max + 1)))
    for n in range(1, n_max + 1):
        rows = [(scale**n, _series_power(b[: n + 1], n + 1)[n], b[n]) for _, scale, b in series]
        for k, ((den, *before), (next_den, *after)) in enumerate(zip(rows, rows[1:]), start=1):
            for label, prev, cur in zip(("repeated", "non-decreasing"), before, after):
                if not cur > prev * (k + 1) ** n:
                    return _report(
                        "sums increase with k", False, Fraction(cur, next_den),
                        Fraction(prev, den), f"{label}, n={n}, k={k}",
                    )
    return _report("sums increase with k", True, f"n <= {n_max}, k < {k_max}", "strict growth in k")


def check_boundary_factor_monotone() -> VerificationReport:
    grid = [x / 8 for x in range(4, 200)]
    for n in range(2, 9):
        values = [bounds.boundary_factor(x, n) for x in grid]
        for a, b in zip(values, values[1:]):
            if not b < a:
                return _report(
                    "boundary factor decreasing", False, b, a, f"n={n}"
                )
        if not values[-1] >= 1.0:
            return _report(
                "boundary factor decreasing", False, values[-1], 1.0, f"limit, n={n}"
            )
    return _report(
        "boundary factor decreasing", True, "n in 2..8, log k grid", "strictly decreasing toward 1"
    )


def check_threshold_consistency() -> VerificationReport:
    for n in range(6, 9):
        t = bounds.threshold_logk(n)
        goal = (n + 1) / (2 * PI)
        j = t + GAMMA
        linear = 1 + ((PI * PI / 6) * (n - 2) * math.factorial(n) + 1) / j
        if abs(linear - goal) > 1e-9 * goal:
            return _report(
                "threshold consistency", False, linear, goal, f"root condition, n={n}"
            )
        factor = bounds.boundary_factor(t, n)
        if not factor < goal**n * 1.001:
            return _report(
                "threshold consistency", False, factor, goal**n, f"factor at threshold, n={n}"
            )
        j_half = t / 2 + GAMMA
        linear_half = 1 + ((PI * PI / 6) * (n - 2) * math.factorial(n) + 1) / j_half
        if not linear_half > goal:
            return _report(
                "threshold consistency", False, linear_half, goal,
                f"condition should fail at half threshold, n={n}",
            )
    return _report(
        "threshold consistency", True, "n in 6..8",
        "threshold is the root of the linearized condition; fails at half",
    )


def check_simple_bound_dominated(k_max: int) -> VerificationReport:
    # logarithmic_volume(n, k, 1) is F_n / ((n+1)^n (k!)^(2n))
    n_max = 5
    series = list(_inverse_at(n_max, range(1, k_max + 1)))
    for n in range(1, n_max + 1):
        for k, scale, b in series:
            simple = bounds.simple_lower_bound(n, k, Fraction(1))
            exact = _series_power(b[: n + 1], n + 1)[n] / ((n + 1) ** n * scale ** (2 * n))
            if simple > exact * (1 + 1e-9):
                return _report(
                    "open bound below exact volume", False, simple, exact, f"n={n}, k={k}"
                )
    return _report(
        "open bound below exact volume", True,
        f"n <= {n_max}, k <= {k_max}", "float bound <= exact volume",
    )


# -------------------------------------------------------------------- suites


# Each suite lists its checks in run order: the name, the arguments of a
# ``--fast`` run and those of a full run, where None leaves the check out.
# A check is looked up on this module when its suite runs, so a function
# patched onto the module is the one that runs.
_SUITES = {
    "identities": (
        ("check_volume_identity", (), ()),
        ("check_ring_axioms", (20,), (40,)),
        ("check_weighted_single_coefficients", (20,), (40,)),
        ("check_whitney_weight_one", (15,), (30,)),
        ("check_volume_decomposition", (12,), (25,)),
        ("check_harmonic_recurrence", (), ()),
        ("check_boundary_small_cases", (), ()),
    ),
    "oracles": (
        ("check_sum_oracles", (3,), (4,)),
        ("check_jet_rank_partitions", (15,), (30,)),
        ("check_rank_telescoping", (), ()),
        ("check_monomial_quasipolynomial", (), ()),
        ("check_orbifold_growth", (500,), (2000,)),
        ("check_partition_power_examples", (), ()),
        ("check_boundary_leading_coefficient", None, ()),
    ),
    "inequalities": (
        ("check_interior_chain", (5, 40, ()), (5, 100, (1000,))),
        ("check_boundary_chain", (40, (), 10**3), (100, (1000,), 10**4)),
        ("check_harmonic_bracketing", (10**5,), (10**6,)),
        (
            "check_partition_power_growth",
            (((1, 1), (1, 2), (2, 2)), 150),
            (((1, 1), (1, 2), (2, 2), (2, 3)), 500),
        ),
        ("check_monotone_sums", (), ()),
        ("check_boundary_factor_monotone", (), ()),
        ("check_threshold_consistency", (), ()),
        ("check_simple_bound_dominated", (40,), (100,)),
    ),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, fast: bool = False) -> list[VerificationReport]:
    """Run one suite (or ``all``) and return the reports in a fixed order."""
    if name == "all":
        reports = []
        for sub in SUITE_NAMES:
            reports.extend(run_suite(sub, fast))
        return reports
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    reports = []
    for check, fast_args, full_args in _SUITES[name]:
        args = fast_args if fast else full_args
        if args is not None:
            reports.append(globals()[check](*args))
    return reports
