"""Every input validator of the library and of the CLI's parsing helpers
rejects a bad input with its own exception type and message."""

import argparse
from fractions import Fraction

import pytest

from wsegre import bounds, chow, combinatorics, jets, oracles
from wsegre.cli import _fraction, _parse_summand, _read_geometry_file, main

GEOMETRY = bounds.GeometryInput(2, Fraction(9), Fraction(-1))
BOUNDARY = jets.BoundaryData(2, Fraction(1))
CLASS = chow.TotalClass(1, (1, 1))

REJECTED = {
    "geometry components": (lambda: bounds.GeometryInput(2, 1, -1, components=0),
                            ValueError, "components must be >= 1"),
    "logarithmic_volume": (lambda: bounds.logarithmic_volume(0, 1, Fraction(1)),
                           ValueError, "n and k must be >= 1"),
    "volume_lower_bound": (lambda: bounds.volume_lower_bound(GEOMETRY, 0),
                           ValueError, "k must be >= 1"),
    "simple_lower_bound": (lambda: bounds.simple_lower_bound(1, 0, Fraction(1)),
                           ValueError, "n and k must be >= 1"),
    "boundary_factor n": (lambda: bounds.boundary_factor(1.0, 1), ValueError, "n must be >= 2"),
    "find_min_k": (lambda: bounds.find_min_k(GEOMETRY, 0), ValueError, "k_max must be >= 1"),
    "harmonic": (lambda: combinatorics.harmonic(0), ValueError, "needs k >= 1"),
    "series orders": (lambda: list(combinatorics._inverse_at(2, (3, 3))),
                      ValueError, "orders must increase strictly from 0: 3 after 3"),
    "sum_repeated": (lambda: combinatorics.sum_repeated(0, 1), ValueError, "n and k must be >= 1"),
    "sum_nondecreasing": (lambda: combinatorics.sum_nondecreasing(1, 0),
                          ValueError, "n and k must be >= 1"),
    "weighted_partitions k": (lambda: list(combinatorics.weighted_partitions(0, 1)),
                              ValueError, "k must be >= 1"),
    "weighted_partitions m": (lambda: list(combinatorics.weighted_partitions(1, -1)),
                              ValueError, "m must be >= 0"),
    "boundary n": (lambda: jets.BoundaryData(1, Fraction(1)), ValueError, "needs n >= 2"),
    "boundary sign": (lambda: jets.BoundaryData(2, Fraction(0)),
                      ValueError, "boundary data needs a negative signed value"),
    "jet_rank": (lambda: jets.jet_rank(0, 1, 1), ValueError, "need n >= 1"),
    "boundary_jet_sections": (lambda: jets.boundary_jet_sections(1, -1, BOUNDARY),
                              ValueError, "need k >= 1, m >= 0"),
    "boundary_coeff": (lambda: jets.boundary_coeff(1, 1), ValueError, "need n >= 2"),
    "sum_repeated_bruteforce": (lambda: oracles.sum_repeated_bruteforce(1, 0),
                                ValueError, "n and k must be >= 1"),
    "sum_repeated_bruteforce guard": (lambda: oracles.sum_repeated_bruteforce(5, 100),
                                      ValueError, "exceeds the enumeration guard"),
    "sum_nondecreasing_bruteforce": (lambda: oracles.sum_nondecreasing_bruteforce(0, 1),
                                     ValueError, "n and k must be >= 1"),
    "sum_nondecreasing_bruteforce guard": (lambda: oracles.sum_nondecreasing_bruteforce(10, 100),
                                           ValueError, "exceeds the enumeration guard"),
    "count_weighted_monomials weights": (lambda: oracles.count_weighted_monomials((1, 0), 3),
                                         ValueError, "non-empty tuple of positive ints"),
    "count_weighted_monomials m": (lambda: oracles.count_weighted_monomials((1,), -1),
                                   ValueError, "m must be >= 0"),
    "check_orbifold_h0 weights": (lambda: oracles.check_orbifold_h0((1,), 10),
                                  ValueError, "need at least two weights"),
    "check_orbifold_h0 m_max": (lambda: oracles.check_orbifold_h0((2, 3), 5),
                                ValueError, "m_max must be at least lcm(weights)"),
    "partition_power_sum": (lambda: oracles.partition_power_sum(1, 1, -1),
                            ValueError, "need n >= 1, k >= 1, r >= 0"),
    "check_partition_power_growth": (lambda: oracles.check_partition_power_growth(1, 1, 9),
                                     ValueError, "r_max must be >= 10"),
    "cross_check_volume_identity": (lambda: oracles.cross_check_volume_identity(6, 1),
                                    ValueError, "guarded range"),
    "class times a float": (lambda: CLASS * 1.5, TypeError, "unsupported operand"),
    "class to a float power": (lambda: CLASS ** 1.5, TypeError, "exponent must be an integer"),
    "weighted_tangent_top_segre": (lambda: chow.weighted_tangent_top_segre(1, 0),
                                   ValueError, "n and k must be >= 1"),
    "cli rational": (lambda: _fraction("1/x"), argparse.ArgumentTypeError,
                     "not a rational P/Q: '1/x'"),
    "cli summand field": (lambda: _parse_summand("rank=1,colour=2,segre=1", 1),
                          ValueError, "unknown summand field 'colour'"),
    "cli stray token": (lambda: _parse_summand("7,segre=1", 1),
                        ValueError, "stray token '7' in summand '7,segre=1'"),
    "cli summand past dim": (lambda: _parse_summand("chern=1,3,3", 1),
                             ValueError, "--dim 1 takes at most 2 coefficients"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_validator_rejects(case):
    call, error, text = REJECTED[case]
    with pytest.raises(error) as caught:
        call()
    assert text in str(caught.value)


# a geometry file's text and the message its reader raises
GEOMETRY_FILES = {
    "line without =": ("n = 2\nkd_n 9\n", ":2: expected 'key = value'"),
    "unknown key": ("n = 2\ncomponent = 2\n", ":2: unknown key 'component'"),
    "bad value": ("n = 2\nkd_n = 9/0\n", "bad value for 'kd_n' in geometry file"),
    "bad integer": ("n = 2x\n", ":1: bad value for 'n' in geometry file: invalid int value: '2x'"),
    "exponent past the bound": ("n = 2\nkd_n = 1e1000000000\n",
                                ":2: bad value for 'kd_n' in geometry file: "
                                "exponent out of bounds (|e| <= 1000000): '1e1000000000'"),
    "repeated key": ("n = 2\nkd_n = 9\n# again\nn = 3\n", ":4: repeated key 'n'"),
}


@pytest.mark.parametrize("case", sorted(GEOMETRY_FILES))
def test_geometry_file_rejects(tmp_path, case):
    text, message = GEOMETRY_FILES[case]
    path = tmp_path / "geometry.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as caught:
        _read_geometry_file(str(path))
    assert message in str(caught.value)


def test_a_flag_does_not_hide_a_bad_geometry_value(tmp_path, capsys):
    path = tmp_path / "geometry.txt"
    path.write_text("n = 2\nkd_n = 9/0\nneg_dn = -1\n")
    assert main(["bound", "--k", "1", "--kd-n", "9", "--geometry", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {path}:2: bad value for 'kd_n' in geometry file: "
                              "not a rational P/Q: '9/0'\n")


def test_unreadable_geometry_file(tmp_path):
    with pytest.raises(ValueError, match="cannot read geometry file"):
        _read_geometry_file(str(tmp_path / "missing.txt"))


def test_partition_count_of_an_empty_range_is_zero():
    assert oracles.count_partitions_max_part(-1, 3) == 0
    assert oracles.count_partitions_max_part(4, 0) == 0
