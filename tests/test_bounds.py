import math
import random
from fractions import Fraction

import pytest

from wsegre.bounds import (
    GAMMA,
    PI,
    GeometryInput,
    boundary_factor,
    find_min_k,
    logarithmic_volume,
    simple_lower_bound,
    threshold_logk,
    threshold_table,
    volume_lower_bound,
)
from wsegre.jets import boundary_coeff


def random_geometry(rng):
    return GeometryInput(
        n=rng.randint(2, 5),
        kd_n=Fraction(rng.randint(0, 80), rng.randint(1, 7)),
        neg_dn=Fraction(-rng.randint(0, 30), rng.randint(1, 5)),
        components=rng.randint(1, 3),
    )


class TestGeometryInput:
    def test_canonical_volume(self):
        g = GeometryInput(2, Fraction(9), Fraction(-1))
        assert g.canonical_volume == 8

    def test_warnings(self):
        assert GeometryInput(2, Fraction(9), Fraction(-1)).warnings == ()
        assert any("(-D)^n" in w for w in GeometryInput(2, Fraction(9), Fraction(1)).warnings)
        assert any("(K+D)^n" in w for w in GeometryInput(2, Fraction(0), Fraction(-1)).warnings)

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometryInput(1, Fraction(1), Fraction(-1))


class TestLogarithmicVolume:
    def test_surface_order_one(self):
        assert logarithmic_volume(2, 1, Fraction(9)) == 6

    def test_curve_order_two(self):
        # (K+D)/((n+1)^n (k!)^n) * sum = 2/(2*2) * 3
        assert logarithmic_volume(1, 2, Fraction(2)) == Fraction(3, 2)

    def test_zero_intersection(self):
        assert logarithmic_volume(3, 4, Fraction(0)) == 0


class TestVolumeLowerBound:
    def test_no_boundary_equals_volume(self):
        rng = random.Random(17)
        for _ in range(25):
            n, k = rng.randint(2, 5), rng.randint(1, 7)
            kd = Fraction(rng.randint(1, 60), rng.randint(1, 9))
            g = GeometryInput(n, kd, Fraction(0))
            assert volume_lower_bound(g, k) == logarithmic_volume(n, k, kd)

    def test_surface_order_one(self):
        g = GeometryInput(2, Fraction(9), Fraction(-1))
        assert volume_lower_bound(g, 1) == 5

    def test_two_code_paths_agree(self):
        rng = random.Random(19)
        for _ in range(25):
            g = random_geometry(rng)
            k = rng.randint(1, 6)
            assert volume_lower_bound(g, k) == logarithmic_volume(
                g.n, k, g.kd_n
            ) + g.neg_dn * boundary_coeff(g.n, k)

    def test_surface_order_two_cross_evaluation(self):
        g = GeometryInput(2, Fraction(9), Fraction(-1))
        from wsegre.combinatorics import sum_repeated

        expected = sum_repeated(2, 2) / Fraction(9 * 4) * 9 - Fraction(7, 16)
        assert volume_lower_bound(g, 2) == expected


class TestSimpleLowerBound:
    def test_order_one(self):
        for n in range(1, 6):
            got = simple_lower_bound(n, 1, Fraction(3))
            want = 3 * GAMMA**n / math.factorial(n)
            assert got == pytest.approx(want, rel=1e-12)

    def test_independent_float_evaluation(self):
        got = simple_lower_bound(2, 10, Fraction(1))
        want = (math.log(10) + GAMMA) ** 2 / (2 * float(math.factorial(10)) ** 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_below_exact_volume(self):
        assert simple_lower_bound(2, 5, Fraction(1)) <= float(
            logarithmic_volume(2, 5, Fraction(1))
        )

    def test_underflows_to_zero_instead_of_raising(self):
        assert simple_lower_bound(5, 400, Fraction(1)) == 0.0

    def test_sign_follows_input(self):
        assert simple_lower_bound(2, 3, Fraction(-2)) < 0
        assert simple_lower_bound(2, 3, Fraction(0)) == 0.0


class TestBoundaryFactor:
    def test_surface_has_no_tail_term(self):
        j = 2.5
        assert boundary_factor(j - GAMMA, 2) == pytest.approx((1 + 1 / (2 * j)) ** 2, rel=1e-15)
        # the tail carries the factor n - 2, so at n = 2 it adds exactly 0.0
        for k in (1, 2, 3, 10, 1000, 10**9):
            j = math.log(k) + GAMMA
            assert boundary_factor(math.log(k), 2) == (1 + 1 / (2 * j)) ** 2

    def test_surface_at_unit_j(self):
        assert boundary_factor(1 - GAMMA, 2) == pytest.approx(2.25, rel=1e-15)

    def test_tail_term_formula(self):
        j = 3.0
        n = 5
        want = (1 + 1 / (2 * j)) ** n + (PI**2 / 6) * (n - 2) * math.factorial(n) * (
            1 + 3 / (2 * j)
        ) ** (n - 2) / j
        assert boundary_factor(j - GAMMA, n) == pytest.approx(want, rel=1e-15)

    def test_tends_to_one(self):
        # tail decays like n!/j, so convergence is slow for large n
        for n in range(2, 9):
            assert boundary_factor(1e12, n) == pytest.approx(1.0, abs=1e-6)

    def test_strictly_decreasing(self):
        for n in range(2, 9):
            grid = [0.5 + 0.25 * i for i in range(60)]
            vals = [boundary_factor(x, n) for x in grid]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            boundary_factor(-GAMMA, 4)


class TestThreshold:
    def test_uniform_range_values(self):
        assert round(threshold_logk(6)) == 41534
        assert abs(round(threshold_logk(7)) - 151711) <= 1
        assert abs(round(threshold_logk(8)) - 920325) <= 1

    def test_low_dimension_formula(self):
        assert threshold_logk(5, Fraction(-1)) == pytest.approx(-GAMMA + 361, rel=1e-15)
        assert threshold_logk(4, Fraction(-1)) == pytest.approx(-GAMMA + 49, rel=1e-15)
        assert threshold_logk(4, Fraction(-3)) == pytest.approx(-GAMMA + 147, rel=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            threshold_logk(3)
        with pytest.raises(ValueError):
            threshold_logk(4)  # missing boundary intersection

    @pytest.mark.parametrize("n", [170, 10**6])
    def test_past_the_float_range(self, n):
        # 170! is a float but the threshold is not; 10**6! is neither, and
        # the error comes before it is computed
        assert math.isfinite(threshold_logk(169))
        with pytest.raises(ValueError, match="float range"):
            threshold_logk(n)

    def test_threshold_solves_linearized_condition(self):
        for n in (6, 7, 8):
            j = threshold_logk(n) + GAMMA
            lhs = 1 + ((PI**2 / 6) * (n - 2) * math.factorial(n) + 1) / j
            assert lhs == pytest.approx((n + 1) / (2 * PI), rel=1e-12)


class TestFindMinK:
    def test_no_boundary(self):
        g = GeometryInput(2, Fraction(5), Fraction(0))
        assert find_min_k(g, 10) == 1

    def test_no_interior(self):
        g = GeometryInput(2, Fraction(0), Fraction(-1))
        assert find_min_k(g, 30) is None

    def test_certificate(self):
        g = GeometryInput(2, Fraction(9), Fraction(-8))
        k_star = find_min_k(g, 400)
        assert k_star is not None and k_star > 1
        assert volume_lower_bound(g, k_star) > 0
        assert volume_lower_bound(g, k_star - 1) <= 0


class TestThresholdTable:
    def test_rows(self):
        rows = threshold_table()
        assert [r.n for r in rows] == [4, 5, 6, 7, 8]
        by_n = {r.n: r for r in rows}
        assert by_n[4].coefficient == 49
        assert by_n[5].coefficient == 361
        assert by_n[6].text == "41534"
        assert abs(int(by_n[7].text) - 151711) <= 1
        assert abs(int(by_n[8].text) - 920325) <= 1

    def test_low_dimension_footnote_records_discrepancy(self):
        row = {r.n: r for r in threshold_table()}[4]
        note = " ".join(row.footnotes)
        assert "49" in note and "5" in note

    def test_sign_convention_footnote(self):
        row = {r.n: r for r in threshold_table()}[5]
        assert any("sign" in note.lower() for note in row.footnotes)
