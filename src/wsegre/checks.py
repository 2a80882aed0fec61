"""Named verification checks and the suites behind the ``verify`` command.

Each check returns a ``VerificationReport``.  One table, ``_SUITES``, lists
every check once, in run order, with its arguments for a ``--fast`` run and
for a full run; a size that never varies is a constant inside its check.
Suites are deterministic: randomized checks draw from a fixed seed.  On a
2-vCPU shared Xeon with Python 3.11 the fast suites take about 0.1 s in
process (0.21 s for a whole ``wsegre verify --fast`` call) and the full
suites about 0.7 s (0.8 s for ``wsegre verify``).
"""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

from . import bounds, chow, jets, oracles
from .bounds import GAMMA, PI
from .combinatorics import _product_coefficients, harmonic, sum_nondecreasing, sum_repeated
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
        sign, digits, _ = Decimal(value).as_tuple()
        lead = "".join(map(str, digits[:_LEADING_DIGITS]))
        return f"{'-' if sign else ''}{lead}... ({len(digits)} digits)"


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
    for _ in range(trials):
        k = rng.randint(2, 400)
        step = harmonic(k) - harmonic(k - 1)
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


def check_orbifold_growth(fast: bool) -> VerificationReport:
    steps = 500 if fast else 2000
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
    ks = list(range(1, k_dense + 1)) + list(k_spots)
    for k in ks:
        h = harmonic(k)
        logterm = math.log(k) + GAMMA
        for n in range(1, n_max + 1):
            lhs = math.factorial(n) * sum_repeated(n, k)
            mid = Fraction((n + 1) ** n) * h**n
            if lhs < mid:
                return _report(
                    "interior sum chain", False, lhs, mid, f"exact step, n={n}, k={k}"
                )
            approx, floor = float(mid), (n + 1) ** n * logterm**n
            if approx < floor * (1 - 1e-12):
                return _report(
                    "interior sum chain", False, approx, floor, f"float step, n={n}, k={k}"
                )
    return _report(
        "interior sum chain", True,
        f"n <= {n_max}, k in 1..{k_dense} plus {list(k_spots)}",
        "n! * sum >= ((n+1) H_k)^n >= ((n+1)(log k + gamma))^n",
    )


def _boundary_rhs(n: int, k: int) -> float:
    j = math.log(k) + GAMMA
    return (j + 0.5) ** n / math.factorial(n) + (PI * PI / 6) * (n - 2) * (j + 1.5) ** (n - 2)


def check_boundary_chain(k_dense: int, k_spots: Sequence[int], sweep_to: int) -> VerificationReport:
    degrees = range(3, 9)
    for k in list(range(2, k_dense + 1)) + list(k_spots):
        # e[n] = sum_nondecreasing(n, k) for every n, from one series
        e = _product_coefficients(degrees[-1], k, 1)
        for n in degrees:
            value, bound = float(e[n]), _boundary_rhs(n, k)
            if value > bound * (1 + 1e-12):
                return _report(
                    "boundary sum upper bound", False, value, bound, f"exact value, n={n}, k={k}"
                )
    # dense float sweep: c holds the coefficients of prod_{j<=k} (1 - x/j)^(-1)
    # up to x^8; multiplying by 1/(1 - x/k) in place is c_d += c_(d-1)/k for d
    # increasing.  The report names the smallest failing n at its first k.
    first_failure = {}
    c = [1.0] * (degrees[-1] + 1)  # 1/(1 - x), the product at k = 1
    for k in range(2, sweep_to + 1):
        for d in range(1, len(c)):
            c[d] += c[d - 1] / k
        for n in degrees:
            if n not in first_failure:
                bound = _boundary_rhs(n, k)
                if c[n] > bound * (1 + 1e-9):
                    first_failure[n] = (c[n], bound, k)
    if first_failure:
        n = min(first_failure)
        value, bound, k = first_failure[n]
        return _report(
            "boundary sum upper bound", False, value, bound, f"float sweep, n={n}, k={k}"
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
        if gap < lo:
            lo = gap
        if gap > hi:
            hi = gap
        if not floor < gap <= ceiling:
            return _report(
                "harmonic bracketing", False, gap, (GAMMA, GAMMA + 0.5), f"k={k}"
            )
    return _report(
        "harmonic bracketing", True,
        f"H_k - log k in [{lo:.12f}, {hi:.12f}] for k <= {k_max}",
        f"(gamma, gamma + 1/2] = ({GAMMA:.12f}, {GAMMA + 0.5:.12f}]",
    )


def check_partition_power_growth(fast: bool) -> VerificationReport:
    pairs = ((1, 1), (1, 2), (2, 2)) if fast else ((1, 1), (1, 2), (2, 2), (2, 3))
    r_max = 150 if fast else 500
    for n, k in pairs:
        rep = oracles.check_partition_power_growth(n, k, r_max)
        if not rep.passed:
            return rep
    return _report(
        "partition power growth", True,
        f"pairs {pairs}", f"ratio <= 1 + 10/r on the top decade of r <= {r_max}",
    )


def check_monotone_sums() -> VerificationReport:
    n_max, k_max = 4, 25
    for n in range(1, n_max + 1):
        prev = {"repeated": sum_repeated(n, 1), "non-decreasing": sum_nondecreasing(n, 1)}
        for k in range(1, k_max):
            for label, total in (("repeated", sum_repeated), ("non-decreasing", sum_nondecreasing)):
                cur = total(n, k + 1)
                if not cur > prev[label]:
                    return _report(
                        "sums increase with k", False, cur, prev[label], f"{label}, n={n}, k={k}"
                    )
                prev[label] = cur
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
    n_max = 5
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            simple = bounds.simple_lower_bound(n, k, Fraction(1))
            exact = float(bounds.logarithmic_volume(n, k, Fraction(1)))
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
        ("check_orbifold_growth", (True,), (False,)),
        ("check_partition_power_examples", (), ()),
        ("check_boundary_leading_coefficient", None, ()),
    ),
    "inequalities": (
        ("check_interior_chain", (5, 40, ()), (5, 100, (1000,))),
        ("check_boundary_chain", (40, (), 10**3), (100, (1000,), 10**4)),
        ("check_harmonic_bracketing", (10**5,), (10**6,)),
        ("check_partition_power_growth", (True,), (False,)),
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
