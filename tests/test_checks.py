"""The reports of the inequality checks behind ``verify``, pinned field by
field, so that a faster evaluation of a check must reproduce its report
exactly."""

import math
from fractions import Fraction
from itertools import chain

import pytest

from wsegre import bounds, checks, chow, jets, oracles
from wsegre.cli import main
from wsegre.combinatorics import harmonic, sum_nondecreasing, sum_repeated

RHS_BOUNDARY = "sum <= (j+1/2)^n/n! + (pi^2/6)(n-2)(j+3/2)^(n-2)"
RHS_HARMONIC = "(gamma, gamma + 1/2] = (0.577215664902, 1.077215664902]"

PINNED = [
    (
        lambda: checks.check_boundary_chain(40, (), 10**3),
        ("boundary sum upper bound", True,
         "exact on k <= 40 plus []; float sweep to k = 1000", RHS_BOUNDARY, ""),
    ),
    (
        lambda: checks.check_boundary_chain(100, (), 10**4),
        ("boundary sum upper bound", True,
         "exact on k <= 100 plus []; float sweep to k = 10000", RHS_BOUNDARY, ""),
    ),
    (
        lambda: checks.check_harmonic_bracketing(10**5),
        ("harmonic bracketing", True,
         "H_k - log k in [0.577220664893, 1.000000000000] for k <= 100000",
         RHS_HARMONIC, ""),
    ),
    (
        lambda: checks.check_harmonic_bracketing(10**6),
        ("harmonic bracketing", True,
         "H_k - log k in [0.577216164901, 1.000000000000] for k <= 1000000",
         RHS_HARMONIC, ""),
    ),
    (
        lambda: checks.check_partition_power_growth(((1, 1), (1, 2), (2, 2)), 150),
        ("partition power growth", True, "pairs ((1, 1), (1, 2), (2, 2))",
         "ratio <= 1 + 10/r on the top decade of r <= 150", ""),
    ),
    (
        lambda: checks.check_partition_power_growth(((1, 1), (1, 2), (2, 2), (2, 3)), 500),
        ("partition power growth", True, "pairs ((1, 1), (1, 2), (2, 2), (2, 3))",
         "ratio <= 1 + 10/r on the top decade of r <= 500", ""),
    ),
    (
        lambda: checks.check_monotone_sums(),
        ("sums increase with k", True, "n <= 4, k < 25", "strict growth in k", ""),
    ),
]

# (n, k, r_max) -> (max r*(ratio-1) on the window, first r of the final run)
GROWTH = {
    (1, 1, 150): ("0.000", 1),
    (1, 2, 150): ("2.000", 1),
    (2, 2, 150): ("2.161", 1),
    (2, 3, 150): ("8.338", 7),
    (1, 1, 500): ("0.000", 1),
    (1, 2, 500): ("2.000", 1),
    (2, 2, 500): ("2.149", 1),
    (2, 3, 500): ("7.652", 7),
}


def _fields(report):
    return (report.name, report.passed, report.lhs, report.rhs, report.detail)


@pytest.mark.parametrize("make,expected", PINNED)
def test_pinned_check_report(make, expected):
    assert _fields(make()) == expected


@pytest.mark.parametrize("n,k,r_max", sorted(GROWTH))
def test_pinned_partition_power_growth_report(n, k, r_max):
    worst, hold_from = GROWTH[n, k, r_max]
    report = oracles.check_partition_power_growth(n, k, r_max)
    assert _fields(report) == (
        f"partition power growth (n={n}, k={k})",
        True,
        f"max r*(ratio-1) = {worst} on [{r_max // 10}, {r_max}]",
        "allowed slack 10.0",
        f"ratio <= 1 + 10.0/r holds from r = {hold_from}",
    )


def _patch_boundary_rhs(monkeypatch, zero):
    """Make ``checks._boundary_rhs`` bound (n, k) by 0.0 where ``zero(n, k)``."""
    true_rhs = checks._boundary_rhs

    def rhs(k):
        pairs = zip(checks._BOUNDARY_DEGREES, true_rhs(k))
        return [0.0 if zero(n, k) else bound for n, bound in pairs]

    monkeypatch.setattr(checks, "_boundary_rhs", rhs)


def test_boundary_sweep_failure_names_first_k_then_smallest_n(monkeypatch):
    # the exact part (k <= 40) passes; in the sweep n = 6 fails from k = 300
    # and n = 5 from k = 500, so n = 6 at k = 300 is reported
    _patch_boundary_rhs(monkeypatch, lambda n, k: (n == 6 and k >= 300) or (n == 5 and k >= 500))
    report = checks.check_boundary_chain(40, (), 10**3)
    assert not report.passed
    assert report.detail == "float sweep, n=6, k=300"
    assert report.rhs == "0.0"


def test_boundary_exact_failure_names_first_k_then_smallest_n(monkeypatch):
    # the exact part starts at k = 2, so (3, 1) is never checked
    _patch_boundary_rhs(monkeypatch, lambda n, k: (n, k) in ((7, 5), (4, 9), (3, 1)))
    report = checks.check_boundary_chain(40, (), 10**3)
    assert not report.passed
    assert report.detail == "exact value, n=7, k=5"
    assert report.lhs == str(float(sum_nondecreasing(7, 5)))


def _patch_walk(monkeypatch, at, change):
    """Make the series of ``checks._inverse_at`` at k = ``at`` read
    ``change(k, k!, B, B of the previous k)`` instead of B."""
    walk = checks._inverse_at

    def patched(n, ks):
        before = None
        for k, scale, b in walk(n, ks):
            yield k, scale, change(k, scale, b, before) if k == at else b
            before = b

    monkeypatch.setattr(checks, "_inverse_at", patched)


def test_interior_exact_failure_report(monkeypatch):
    # B_2 = 0 at k = 7 takes 3 sum_nondecreasing(2, 7) off sum_repeated(2, 7)
    # and keeps H_7; n = 1 holds with equality, so n = 2 fails first
    _patch_walk(monkeypatch, 7, lambda k, scale, b, before: b[:2] + [0] + b[3:])
    report = checks.check_interior_chain(5, 40, ())
    assert _fields(report) == (
        "interior sum chain", False,
        str(2 * (sum_repeated(2, 7) - 3 * sum_nondecreasing(2, 7))), str(9 * harmonic(7) ** 2),
        "exact step, n=2, k=7",
    )
    assert (report.lhs, report.rhs) == ("395307/9800", "1185921/19600")


def test_interior_float_failure_report(monkeypatch):
    # H_k - log k falls below 0.6 first at k = 22
    monkeypatch.setattr(checks, "GAMMA", 0.6)
    report = checks.check_interior_chain(5, 40, ())
    assert _fields(report) == (
        "interior sum chain", False,
        str(float(2 * harmonic(22))), str(2 * (math.log(22) + 0.6)),
        "float step, n=1, k=22",
    )
    assert (report.lhs, report.rhs) == ("7.38162650043455", "7.382084906716632")


def test_monotone_sums_failure_report(monkeypatch):
    # the series at k = 12 rescaled to the sums at k = 11: B_d 12^d over (12!)^d
    _patch_walk(
        monkeypatch, 12, lambda k, scale, b, before: [c * k**d for d, c in enumerate(before)]
    )
    report = checks.check_monotone_sums()
    expected = str(sum_repeated(1, 11))
    assert _fields(report) == (
        "sums increase with k", False, expected, expected, "repeated, n=1, k=11"
    )
    assert expected == "83711/13860"


def test_open_bound_failure_names_smallest_n_then_first_k(monkeypatch):
    true_simple = bounds.simple_lower_bound

    def exact(n, k):
        return float(bounds.logarithmic_volume(n, k, Fraction(1)))

    def simple(n, k, kd_n):
        return 2 * exact(n, k) if (n, k) in ((2, 30), (3, 5), (4, 2)) else true_simple(n, k, kd_n)

    monkeypatch.setattr(bounds, "simple_lower_bound", simple)
    report = checks.check_simple_bound_dominated(40)
    assert _fields(report) == (
        "open bound below exact volume", False,
        str(2 * exact(2, 30)), str(exact(2, 30)), "n=2, k=30",
    )
    assert report.rhs == "1.1723650759436195e-64"


@pytest.mark.parametrize("gamma,k,lhs,rhs", [
    # H_k - log k falls from 1 at k = 1: to 0.58 first at k = 180, and above
    # 0.45 + 1/2 only at k = 1
    (0.58, 180, "0.5799908706707875", "(0.58, 1.08)"),
    (0.45, 1, "1.0", "(0.45, 0.95)"),
])
def test_harmonic_bracketing_failure_names_first_k(monkeypatch, gamma, k, lhs, rhs):
    monkeypatch.setattr(checks, "GAMMA", gamma)
    report = checks.check_harmonic_bracketing(10**5)
    assert _fields(report) == (
        "harmonic bracketing", False,
        str(float(harmonic(k)) - math.log(k)), str((gamma, gamma + 0.5)), f"k={k}",
    )
    assert (report.lhs, report.rhs) == (lhs, rhs)


HUGE = Fraction(10**5000 + 1, 3)
HUGE_TEXT = "10000000000000000000... (5001 digits)/3"


def test_failure_report_past_the_int_str_digit_limit(monkeypatch):
    monkeypatch.setattr(checks, "sum_repeated", lambda n, k: HUGE)
    report = checks.check_sum_oracles(2)
    assert _fields(report) == (
        "reciprocal sums vs enumeration", False, HUGE_TEXT, "2",
        "repeated alphabet, n=1, k=1",
    )


def test_verify_reports_a_huge_failure_instead_of_raising(monkeypatch, capsys):
    monkeypatch.setattr(checks, "sum_repeated", lambda n, k: HUGE)
    assert main(["verify", "--suite", "oracles", "--fast"]) == 2
    out = capsys.readouterr().out
    assert f"[FAIL] reciprocal sums vs enumeration: {HUGE_TEXT} vs 2" in out


def test_failure_report_of_a_class_past_the_int_str_digit_limit(monkeypatch):
    def huge(summands):
        return chow.TotalClass(summands[0].segre.dim, (HUGE,))

    monkeypatch.setattr(chow, "segre_of_weighted_sum", huge)
    report = checks.check_whitney_weight_one(1)
    assert not report.passed
    assert report.lhs.startswith("1" + "0" * 4999) and report.lhs.endswith("1/3")



CHECKS = sorted(name for name in vars(checks) if name.startswith("check_"))


def _suite_calls(monkeypatch, fast):
    """Patch a stub over every public check, run every suite, and return
    (check, suite) for each call in order."""
    calls, current = [], []
    run_suite = checks.run_suite

    def tracked(name, fast=False):
        current.append(name)
        try:
            return run_suite(name, fast)
        finally:
            current.pop()

    def stub(check):
        def call(*args):
            calls.append((check, current[-1]))
            return oracles.VerificationReport(check, True, "", "")
        return call

    monkeypatch.setattr(checks, "run_suite", tracked)
    for name in CHECKS:
        monkeypatch.setattr(checks, name, stub(name))
    reports = checks.run_suite("all", fast)
    assert [r.name for r in reports] == [check for check, _ in calls]
    return calls


def test_every_check_runs_in_one_suite_and_fast_leaves_out_one(monkeypatch):
    # run_suite must look each check up on the module when it runs, and
    # run_suite("all") must call run_suite per suite: the benchmark's tracer
    # patches module attributes and tags each suite's span by its name
    full = _suite_calls(monkeypatch, fast=False)
    assert sorted(check for check, _ in full) == CHECKS
    suites = [suite for _, suite in full]
    assert suites == sorted(suites, key=checks.SUITE_NAMES.index)
    assert set(suites) == set(checks.SUITE_NAMES)
    fast = _suite_calls(monkeypatch, fast=True)
    assert fast == [call for call in full if call[0] != "check_boundary_leading_coefficient"]


def _fast_args(check):
    return next(fast for name, fast, _ in chain(*checks._SUITES.values()) if name == check)


# check -> (module or class, function patched onto it, the stand-in, the
# failed report's name and detail)
BROKEN = {
    "check_ring_axioms": (chow.TotalClass, "inverse", lambda self: self,
                          "class ring axioms", "two-sided inverse"),
    "check_weighted_single_coefficients": (
        chow, "segre_of_weighted_summand", lambda summand: summand.segre,
        "weighted summand coefficients", "degree 1, weight 3, rank 1"),
    "check_volume_decomposition": (
        jets, "boundary_coeff", lambda n, k: Fraction(0), "volume bound decomposition",
        "GeometryInput(n=5, kd_n=Fraction(19, 7), neg_dn=Fraction(-23, 2), components=2), k=4"),
    "check_harmonic_recurrence": (checks, "harmonic", lambda k: Fraction(k),
                                  "harmonic recurrence", "k=140"),
    "check_boundary_small_cases": (jets, "boundary_jet_sections", lambda k, m, b: Fraction(1),
                                   "boundary sections, small cases", "order 1, degree 0"),
    "check_sum_oracles": (oracles, "sum_repeated_bruteforce", lambda n, k: Fraction(0),
                          "reciprocal sums vs enumeration", "repeated alphabet, n=1, k=1"),
    "check_jet_rank_partitions": (jets, "jet_rank", lambda n, k, m: 0,
                                  "curve jet ranks vs partition counts", "k=1, m=0"),
    "check_orbifold_growth": (oracles, "count_weighted_monomials", lambda weights, m: 0,
                              "orbifold monomial growth (1, 1)",
                              "500 multiples of lcm = 1, tolerance 2%"),
    "check_partition_power_examples": (oracles, "partition_power_sum",
                                       lambda n, k, r: Fraction(-1),
                                       "partition power sums", "spot value"),
    "check_partition_power_growth": (oracles, "_part_count_sums",
                                     lambda values, k, m: [10**9] * (m + 1),
                                     "partition power growth (n=1, k=1)",
                                     "ratio <= 1 + 10.0/r holds from r = None"),
    "check_boundary_factor_monotone": (bounds, "boundary_factor", lambda x, n: x,
                                       "boundary factor decreasing", "n=2"),
    "check_threshold_consistency": (bounds, "threshold_logk", lambda n, neg_dn=None: 1.0,
                                    "threshold consistency", "root condition, n=6"),
}


@pytest.mark.parametrize("check", sorted(BROKEN))
def test_check_fails_on_a_broken_function(monkeypatch, check):
    owner, attr, stand_in, name, detail = BROKEN[check]
    monkeypatch.setattr(owner, attr, stand_in)
    report = getattr(checks, check)(*_fast_args(check))
    assert (report.passed, report.name, report.detail) == (False, name, detail)


def _mean(self, other):
    return chow.TotalClass(self.dim, [(a + b) / 2 for a, b in zip(self.coeffs, other.coeffs)])


def _partition_power_spots(n, k, r):
    spots = {(1, 2, 2): Fraction(3), (2, 1, 6): Fraction(18), (3, 2, 0): Fraction(0)}
    return spots.get((n, k, r), Fraction(-r))


# the failure branches BROKEN leaves unreached, in the same layout under
# "check, branch"; check_rank_telescoping and the half-threshold branch of
# check_threshold_consistency read only math, so no patch can fail them
BROKEN_BRANCHES = {
    "check_ring_axioms, commutativity": (chow.TotalClass, "__mul__", lambda self, other: self,
                                         "class ring axioms", "commutativity"),
    "check_ring_axioms, associativity": (chow.TotalClass, "__mul__", _mean,
                                         "class ring axioms", "associativity"),
    "check_monomial_quasipolynomial": (oracles, "count_weighted_monomials",
                                       lambda weights, m: m ** len(weights),
                                       "monomial counts are quasi-polynomial",
                                       "weights (1, 2), offset 0"),
    "check_partition_power_examples, monotone": (oracles, "partition_power_sum",
                                                 _partition_power_spots,
                                                 "partition power sums", "not monotone at r=3"),
    "check_boundary_factor_monotone, limit": (bounds, "boundary_factor", lambda x, n: 1 / x,
                                              "boundary factor decreasing", "limit, n=2"),
    "check_threshold_consistency, factor": (bounds, "boundary_factor", lambda x, n: math.inf,
                                            "threshold consistency",
                                            "factor at threshold, n=6"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_BRANCHES))
def test_check_fails_on_a_broken_branch(monkeypatch, case):
    check = case.split(",")[0]
    owner, attr, stand_in, name, detail = BROKEN_BRANCHES[case]
    monkeypatch.setattr(owner, attr, stand_in)
    report = getattr(checks, check)(*_fast_args(check))
    assert (report.passed, report.name, report.detail) == (False, name, detail)


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        checks.run_suite("nope")
