import copy
import pickle
import random
from fractions import Fraction

import pytest

from wsegre.chow import (
    TotalClass,
    WeightedSummand,
    projective_tangent_segre,
    segre_of_weighted_summand,
    segre_of_weighted_sum,
    weighted_tangent_top_segre,
)


def tc(dim, *coeffs):
    return TotalClass(dim, coeffs)


def random_class(rng, dim, unit_constant=False):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(dim + 1)]
    if unit_constant or coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    return TotalClass(dim, coeffs)


class TestTotalClass:
    def test_construction_pads_and_truncates(self):
        assert tc(3, 1).coeffs == (1, 0, 0, 0)
        assert tc(1, 1, 2, 3, 4).coeffs == (1, 2)  # silent truncation
        with pytest.raises(ValueError):
            TotalClass(-1, (1,))

    def test_is_an_immutable_value_and_no_tuple(self):
        x = tc(2, 1, Fraction(1, 2))
        with pytest.raises(TypeError):
            x + x  # no ring addition is defined; a tuple would concatenate
        with pytest.raises(AttributeError):
            x.dim = 3
        with pytest.raises(AttributeError):
            del x.coeffs
        assert x != (2, x.coeffs)
        for same in (copy.deepcopy(x), pickle.loads(pickle.dumps(x)), tc(2, 1, 0.5)):
            assert same == x and hash(same) == hash(x)
        assert repr(x) == "TotalClass(dim=2, coeffs=(Fraction(1, 1), Fraction(1, 2), Fraction(0, 1)))"

    def test_mul_truncates(self):
        assert tc(1, 1, 1) * tc(1, 1, -1) == TotalClass.unit(1)

    def test_mul_identity(self):
        assert tc(1, 1, 1) * TotalClass.unit(1) == tc(1, 1, 1)

    def test_mul_hand_expansion(self):
        assert tc(1, 1, -2) * tc(1, 1, -1) == tc(1, 1, -3)

    def test_mul_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tc(1, 1) * tc(2, 1)

    def test_inverse_of_unit(self):
        assert TotalClass.unit(3).inverse() == TotalClass.unit(3)

    def test_inverse_geometric_series(self):
        assert tc(2, 1, 1).inverse() == tc(2, 1, -1, 1)

    def test_inverse_of_cube(self):
        # (1+H)^3 = 1 + 3H + 3H^2 (truncated); the inverse is the degree-wise
        # alternating binomial series sum_d (-1)^d C(d+2,2) H^d.
        cube = tc(2, 1, 3, 3)
        assert cube.inverse() == tc(2, 1, -3, 6)
        assert cube.inverse().coeffs[2] == 6

    def test_inverse_requires_unit_constant(self):
        with pytest.raises(ValueError):
            tc(1, 0, 1).inverse()

    def test_pow(self):
        assert tc(1, 1, -1) ** 2 == tc(1, 1, -2)
        assert tc(2, 1, 5, -3) ** 0 == TotalClass.unit(2)
        assert tc(1, 1, 1) ** -2 == tc(1, 1, -2)

    def test_pow_negative_needs_invertible(self):
        with pytest.raises(ValueError):
            tc(1, 0, 1) ** -1

    def test_top(self):
        assert tc(2, 1, -3, 6).top() == 6
        assert TotalClass.unit(4).top() == 0

    def test_str(self):
        assert str(tc(1, Fraction(1, 2), Fraction(-3, 2))) == "1/2 - 3/2·H"
        assert str(tc(2, 1, -3, 6)) == "1 - 3·H + 6·H^2"
        assert str(tc(2)) == "0"

    def test_ring_axioms_randomized(self):
        rng = random.Random(5)
        for _ in range(60):
            dim = rng.randint(1, 6)
            x, y, z = (random_class(rng, dim) for _ in range(3))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            unit = TotalClass.unit(dim)
            assert x * x.inverse() == unit
            assert x.inverse() * x == unit


class TestTangentSegre:
    def test_curve(self):
        assert projective_tangent_segre(1) == tc(1, 1, -2)

    def test_surface(self):
        assert projective_tangent_segre(2) == tc(2, 1, -3, 6)

    def test_normalization(self):
        for n in range(1, 7):
            assert projective_tangent_segre(n).coeffs[0] == 1

    def test_needs_positive_dim(self):
        with pytest.raises(ValueError):
            projective_tangent_segre(0)


class TestWeightedSummand:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedSummand(tc(1, 2, 1), 1, 1)  # constant term must be 1
        with pytest.raises(ValueError):
            WeightedSummand(tc(1, 1), 0, 1)
        with pytest.raises(ValueError):
            WeightedSummand(tc(1, 1), 1, 0)

    def test_weight_one_unchanged(self):
        s = WeightedSummand(tc(2, 1, -3, 6), 2, 1)
        assert segre_of_weighted_summand(s) == s.segre

    def test_line_bundle_weight_two(self):
        s = WeightedSummand(tc(1, 1, -2), 1, 2)
        assert segre_of_weighted_summand(s) == tc(1, 1, -1)

    def test_degreewise_formula_randomized(self):
        rng = random.Random(7)
        for _ in range(40):
            dim = rng.randint(1, 5)
            s = WeightedSummand(
                random_class(rng, dim, unit_constant=True),
                rank=rng.randint(1, 4),
                weight=rng.randint(1, 5),
            )
            got = segre_of_weighted_summand(s)
            for j in range(dim + 1):
                assert got.coeffs[j] == s.segre.coeffs[j] / Fraction(s.weight) ** (
                    s.rank - 1 + j
                )

    def test_from_chern(self):
        s = WeightedSummand.from_chern(tc(2, 1, 3, 3), 2, 1)
        assert s.segre == tc(2, 1, -3, 6)

    def test_from_chern_names_the_chern_class(self):
        for chern in (tc(1, 2, 1), tc(1, 0, 1)):
            with pytest.raises(ValueError, match="total Chern class must start with 1"):
                WeightedSummand.from_chern(chern, 1, 1)


class TestWeightedSum:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            segre_of_weighted_sum([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            segre_of_weighted_sum(
                [WeightedSummand(tc(1, 1), 1, 1), WeightedSummand(tc(2, 1), 1, 1)]
            )

    def test_all_weights_one_is_plain_product(self):
        rng = random.Random(11)
        for _ in range(30):
            dim = rng.randint(1, 5)
            classes = [
                random_class(rng, dim, unit_constant=True)
                for _ in range(rng.randint(1, 4))
            ]
            summands = [WeightedSummand(s, rng.randint(1, 3), 1) for s in classes]
            plain = TotalClass.unit(dim)
            for s in classes:
                plain = plain * s
            assert segre_of_weighted_sum(summands) == plain

    def test_curve_tangent_weights_one_two(self):
        tangent = projective_tangent_segre(1)
        result = segre_of_weighted_sum(
            [WeightedSummand(tangent, 1, 1), WeightedSummand(tangent, 1, 2)]
        )
        assert result == tc(1, Fraction(1, 2), Fraction(-3, 2))

    def test_equal_weights_prefactor(self):
        # three summands of weight 2: prefactor gcd/prod = 2/8
        rng = random.Random(13)
        classes = [random_class(rng, 3, unit_constant=True) for _ in range(3)]
        summands = [WeightedSummand(s, 2, 2) for s in classes]
        product = TotalClass.unit(3)
        for s in summands:
            product = product * segre_of_weighted_summand(s)
        assert segre_of_weighted_sum(summands) == Fraction(2, 8) * product


class TestWeightedTangentTopSegre:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(1, 1, Fraction(2)), (1, 2, Fraction(3, 2)), (2, 1, Fraction(6))],
    )
    def test_values(self, n, k, expected):
        assert weighted_tangent_top_segre(n, k) == expected

    def test_positive(self):
        for n in range(1, 5):
            for k in range(1, 5):
                assert weighted_tangent_top_segre(n, k) > 0
