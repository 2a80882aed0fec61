import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wsegre.chow as chow
from wsegre.bounds import GeometryInput, logarithmic_volume, volume_lower_bound
from wsegre.cli import _fraction, _shown, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSegreCommand:
    def test_weighted_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "segre",
            "--dim", "1",
            "--summand", "rank=1,weight=1,segre=1,-2",
            "--summand", "rank=1,weight=2,segre=1,-2",
        )
        assert code == 0
        assert out.strip() == "1/2 - 3/2·H"

    def test_single_weight_one_echoes_input(self, capsys):
        code, out, _ = run(
            capsys, "segre", "--dim", "2", "--summand", "rank=2,weight=1,segre=1,-3,6"
        )
        assert code == 0
        assert out.strip() == "1 - 3·H + 6·H^2"

    def test_chern_input_is_inverted(self, capsys):
        code, out, _ = run(
            capsys, "segre", "--dim", "2", "--summand", "rank=2,weight=1,chern=1,3,3"
        )
        assert code == 0
        assert out.strip() == "1 - 3·H + 6·H^2"

    def test_malformed_summand(self, capsys):
        code, _, err = run(capsys, "segre", "--dim", "1", "--summand", "rank=x,segre=1")
        assert code == 1
        assert "error" in err

    def test_summand_needs_a_class(self, capsys):
        code, _, err = run(capsys, "segre", "--dim", "1", "--summand", "rank=1,weight=1")
        assert code == 1
        assert "segre" in err

    def test_chern_class_must_start_with_one(self, capsys):
        code, out, err = run(
            capsys, "segre", "--dim", "1", "--summand", "rank=1,weight=1,chern=2,1"
        )
        assert (code, out) == (1, "")
        assert "total Chern class must start with 1" in err

    def test_csv_lists_degrees(self, capsys):
        code, out, _ = run(
            capsys, "segre", "--dim", "1", "--format", "csv",
            "--summand", "rank=1,weight=1,segre=1,-2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,num,den,approx"
        assert lines[1] == "0,1,1,1.0"
        assert lines[2] == "1,-2,1,-2.0"


class TestBoundCommand:
    def test_example_value(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--n", "2", "--k", "1", "--kd-n", "9", "--neg-dn", "-1"
        )
        assert code == 0
        assert out.strip() == "5"

    def test_missing_inputs(self, capsys):
        code, _, err = run(capsys, "bound", "--n", "2", "--k", "1")
        assert code == 1
        assert "kd_n" in err

    def test_warning_for_positive_boundary_number(self, capsys):
        code, out, err = run(
            capsys, "bound", "--n", "2", "--k", "1", "--kd-n", "9", "--neg-dn", "1"
        )
        assert code == 0
        assert "warning" in err

    def test_json_structure(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--n", "2", "--k", "1", "--kd-n", "9", "--neg-dn", "-1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "wsegre/1"
        assert payload["result"] == {"num": "5", "den": "1", "approx": 5.0}
        assert payload["inputs"]["kd_n"] == {"num": "9", "den": "1", "approx": 9.0}
        assert payload["inputs"]["canonical_volume"]["num"] == "8"

    def test_geometry_file_matches_flags_byte_for_byte(self, capsys, tmp_path):
        geom = tmp_path / "geom.txt"
        geom.write_text("# sample geometry\nn = 2\nkd_n = 9/1\nneg_dn = -1/1\ncomponents = 1\n")
        _, via_flags, _ = run(
            capsys, "bound", "--n", "2", "--k", "1", "--kd-n", "9", "--neg-dn", "-1",
            "--components", "1", "--format", "json",
        )
        code, via_file, _ = run(
            capsys, "bound", "--k", "1", "--geometry", str(geom), "--format", "json"
        )
        assert code == 0
        assert via_file == via_flags

    def test_csv_row(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--n", "2", "--k", "1", "--kd-n", "9", "--neg-dn", "-1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,m,num,den,approx"
        assert lines[1] == "2,1,,5,1,5.0"


class TestVolumeCommand:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "volume", "--n", "2", "--k", "1", "--kd-n", "9")
        assert code == 0
        assert out.strip() == "6"

    def test_geometry_file_supplies_inputs(self, capsys, tmp_path):
        geom = tmp_path / "geom.txt"
        geom.write_text("n = 2\nkd_n = 9\nneg_dn = -1\n")
        code, out, _ = run(capsys, "volume", "--k", "1", "--geometry", str(geom))
        assert code == 0
        assert out.strip() == "6"


class TestThresholdCommand:
    def test_uniform_range(self, capsys):
        code, out, _ = run(capsys, "threshold", "--n", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "rounded: 41534"
        assert "astronomically large" in lines[2]

    def test_low_range_needs_boundary_number(self, capsys):
        code, _, err = run(capsys, "threshold", "--n", "5")
        assert code == 1
        assert "--neg-dn" in err

    def test_low_range_value(self, capsys):
        code, out, _ = run(capsys, "threshold", "--n", "5", "--neg-dn", "-1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["rounded"] == 360
        assert payload["result"]["min_integer_k"] is not None

    def test_below_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "threshold", "--n", "3")
        assert code == 1
        assert "n = 4" in err

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("n,neg_dn", [("4", "20"), ("5", "0")])
    def test_nonnegative_boundary_number_warns_and_keeps_order_one(self, capsys, fmt, n, neg_dn):
        # exp(log k) underflows to 0 at n = 4, (-D)^n = 20, but orders start at 1
        warning = "(-D)^n >= 0: expected a negative signed value"
        code, out, err = run(capsys, "threshold", "--n", n, f"--neg-dn={neg_dn}", "--format", fmt)
        assert code == 0
        assert err == f"warning: {warning}\n"
        _, _, bound_err = run(capsys, "bound", "--n", n, "--k", "1", "--kd-n", "1",
                              f"--neg-dn={neg_dn}", "--format", fmt)
        assert bound_err == err
        if fmt == "json":
            payload = json.loads(out)
            assert payload["result"]["min_integer_k"] == 1
            assert payload["warnings"] == [warning]
        elif fmt == "csv":
            assert out.splitlines()[1].split(",")[-1] == "1"
        else:
            assert out.splitlines()[-1] == "min integer k: 1"

    @pytest.mark.parametrize("n", ["170", "1000000"])
    def test_past_the_float_range_is_an_error(self, capsys, n):
        code, out, err = run(capsys, "threshold", "--n", n)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "float range" in err

    def test_negative_boundary_number_does_not_warn(self, capsys):
        code, out, err = run(capsys, "threshold", "--n", "4", "--neg-dn=-1/3", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["warnings"] == []


class TestTableCommand:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        assert "41534" in out
        assert "49" in out and "361" in out
        assert "note 1" in out

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "table1", "--format", "json")
        payload = json.loads(out)
        rows = payload["result"]["rows"]
        assert [row["n"] for row in rows] == [4, 5, 6, 7, 8]
        assert rows[0]["coefficient"] == 49
        assert rows[0]["footnotes"]

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "table1", "--format", "csv")
        assert out.splitlines()[0] == "n,coefficient,logk,text"


class TestRanksCommand:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "ranks", "--n", "1", "--k", "2", "--m", "4")
        assert code == 0
        assert out.strip() == "3"

    def test_order_far_above_degree(self, capsys):
        code, out, _ = run(capsys, "ranks", "--n", "1", "--k", "1500", "--m", "3")
        assert code == 0
        assert out.strip() == "3"


class TestBoundaryCommand:
    def test_small_case(self, capsys):
        code, out, _ = run(
            capsys, "boundary", "--n", "2", "--k", "1", "--m", "2", "--neg-dn", "-1"
        )
        assert code == 0
        assert out.strip() == "3"  # 2*components + 1

    def test_requires_negative_signed_value(self, capsys):
        code, _, err = run(
            capsys, "boundary", "--n", "2", "--k", "1", "--m", "2", "--neg-dn", "1"
        )
        assert code == 1
        assert "negative" in err

    def test_rejects_zero_components(self, capsys):
        code, _, err = run(
            capsys, "boundary", "--n", "2", "--k", "1", "--m", "2",
            "--neg-dn", "-1", "--components", "0",
        )
        assert code == 1
        assert "components" in err


class TestMinorderCommand:
    def test_no_boundary(self, capsys):
        code, out, _ = run(
            capsys, "minorder", "--n", "2", "--kd-n", "5", "--neg-dn", "0"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_none_result(self, capsys):
        code, out, _ = run(
            capsys, "minorder", "--n", "2", "--kd-n", "0", "--neg-dn", "-1",
            "--k-max", "10",
        )
        assert code == 0
        assert out.strip() == "none"


class TestVerifyCommand:
    def test_identities_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identities", "--fast")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "0 failed" in out

    def test_corrupted_whitney_prefactor_fails(self, capsys, monkeypatch):
        def corrupted(summands):
            out = chow.TotalClass.unit(summands[0].segre.dim)
            for s in summands:
                # E^(a) from its closed form s_j / a^(rank-1+j)
                a = Fraction(s.weight)
                closed = (c / a ** (s.rank - 1 + j) for j, c in enumerate(s.segre.coeffs))
                out = out * chow.TotalClass(s.segre.dim, closed)
            return out  # prefactor dropped

        monkeypatch.setattr(chow, "segre_of_weighted_sum", corrupted)
        code, out, _ = run(capsys, "verify", "--suite", "identities", "--fast")
        assert code == 2
        assert "[FAIL]" in out
        assert "first failures" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "identities", "--fast", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["passed"] is True
        assert all(check["passed"] for check in payload["result"]["checks"])

    def test_fast_full_run_stays_under_a_minute(self, capsys):
        import time

        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--fast")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert "0 failed" in out
        assert elapsed < 60.0


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run(capsys, "bound", "--bogus")[0] == 1

    def test_missing_required(self, capsys):
        assert run(capsys, "ranks", "--n", "1")[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_console_entry_point(self):
        # The child imports the same package as this process, installed or not.
        src = str(pathlib.Path(chow.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "wsegre", "ranks", "--n", "1", "--k", "2", "--m", "4"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3"


# ------------------------------------------------------------- byte contract
#
# Exact stdout and exit code of each case in every format, pinned in
# cli_golden.json.  "{geometry}" in an argv stands for a file holding the
# case's geometry text.

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

CONTRACT = {
    "segre": (["segre", "--dim", "2", "--summand", "rank=1,weight=2,segre=1,-3,6",
               "--summand", "rank=2,weight=1,chern=1,3,3"], None),
    "volume": (["volume", "--n", "2", "--k", "3", "--kd-n", "9"], None),
    "volume-n1": (["volume", "--n", "1", "--k", "4", "--kd-n", "3/2"], None),
    "volume-kd0": (["volume", "--n", "2", "--k", "5", "--kd-n", "0"], None),
    "volume-geometry": (["volume", "--k", "2", "--geometry", "{geometry}"],
                        "n = 3\nkd_n = 7/2\nneg_dn = -1/3\n"),
    "volume-missing": (["volume", "--n", "2", "--k", "3"], None),
    "bound": (["bound", "--n", "3", "--k", "4", "--kd-n", "7/2", "--neg-dn=-1/3"], None),
    "bound-positive-neg-dn": (["bound", "--n", "2", "--k", "2", "--kd-n", "9",
                               "--neg-dn", "1"], None),
    "bound-geometry": (["bound", "--k", "3", "--geometry", "{geometry}"],
                       "# two cusps\nn = 2\nkd_n = 9\nneg_dn = -1/2\ncomponents = 2\n"),
    "threshold-n4": (["threshold", "--n", "4", "--neg-dn=-1/3"], None),
    "threshold-n6": (["threshold", "--n", "6"], None),
    "threshold-n7": (["threshold", "--n", "7"], None),
    "table1": (["table1"], None),
    "ranks": (["ranks", "--n", "2", "--k", "2", "--m", "6"], None),
    "boundary": (["boundary", "--n", "2", "--k", "2", "--m", "4", "--neg-dn=-1/2",
                  "--components", "2"], None),
    "minorder": (["minorder", "--n", "2", "--kd-n", "9", "--neg-dn=-8"], None),
    "minorder-none": (["minorder", "--n", "2", "--kd-n", "0", "--neg-dn=-1",
                       "--k-max", "10"], None),
    "minorder-geometry": (["minorder", "--geometry", "{geometry}", "--k-max", "20"],
                          "n = 3\nkd_n = 1\nneg_dn = -1/2\ncomponents = 2\n"),
    "verify": (["verify", "--suite", "identities", "--fast"], None),
    "verify-fast": (["verify", "--fast"], None),
    "verify-full": (["verify"], None),
}


def contract_argv(case, fmt, tmp_path):
    argv, geometry = CONTRACT[case]
    if geometry is not None:
        path = tmp_path / "geometry.txt"
        path.write_text(geometry)
        argv = [str(path) if arg == "{geometry}" else arg for arg in argv]
    return argv + ["--format", fmt]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("case", list(CONTRACT))
def test_stdout_bytes_and_exit_code(capsys, tmp_path, case, fmt):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"{case} {fmt}"]
    code, out, _ = run(capsys, *contract_argv(case, fmt, tmp_path))
    assert (code, out) == (expected["code"], expected["stdout"])


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_exact_result_past_the_int_str_digit_limit(capsys, fmt):
    code, out, _ = run(capsys, "bound", "--n", "2", "--k", "2000", "--kd-n", "9",
                       "--neg-dn", "-1", "--format", fmt)
    assert code == 0
    if fmt == "json":
        result = json.loads(out)["result"]
        num, den = result["num"], result["den"]
    elif fmt == "csv":
        num, den = out.splitlines()[1].split(",")[3:5]
    else:
        num, den = out.split(" ", 1)[0].split("/")
    assert max(len(num), len(den)) > sys.get_int_max_str_digits()
    expected = volume_lower_bound(GeometryInput(2, Fraction(9), Fraction(-1)), 2000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(int(num), int(den)) == expected
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_segre_class_past_the_int_str_digit_limit(capsys, fmt):
    weight = 1000000007
    code, out, _ = run(capsys, "segre", "--dim", "1", "--summand",
                       f"rank=600,weight={weight},segre=1,1", "--format", fmt)
    assert code == 0
    if fmt == "json":
        coeffs = [(c["num"], c["den"]) for c in json.loads(out)["result"]["coeffs"]]
    elif fmt == "csv":
        coeffs = [tuple(line.split(",")[1:3]) for line in out.splitlines()[1:]]
    else:
        coeffs = [tuple(term.removesuffix("·H").split("/"))
                  for term in out.strip().split(" + ")]
    assert max(len(den) for _, den in coeffs) > sys.get_int_max_str_digits()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert [Fraction(int(num), int(den)) for num, den in coeffs] == [
            Fraction(1, weight**599), Fraction(1, weight**600)
        ]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_exact_result_beyond_float_range_has_no_approx(capsys, fmt):
    # a nonzero value too large or too small for a nonzero float has no approx
    for kd_n in ("1e400", "1e-400"):
        code, out, _ = run(capsys, "volume", "--n", "2", "--k", "1", "--kd-n", kd_n,
                           "--format", fmt)
        assert code == 0
        if fmt == "json":
            payload = json.loads(out)
            assert payload["inputs"]["kd_n"]["approx"] is None
            result = payload["result"]
            assert result["approx"] is None
            num, den = result["num"], result["den"]
        elif fmt == "csv":
            num, den, approx = out.splitlines()[1].split(",")[3:]
            assert approx == ""
        else:
            assert "~" not in out
            num, den = out.strip().split("/")
        assert Fraction(int(num), int(den)) == logarithmic_volume(2, 1, Fraction(kd_n))


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_float_only_command_reports_overflow(capsys, fmt):
    code, out, err = run(capsys, "threshold", "--n", "4", "--neg-dn=-1e400", "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_recursion_past_the_limit_reports_instead_of_a_traceback(capsys, fmt):
    # weighted_partitions recurses once per part size up to min(k, m)
    code, out, err = run(capsys, "ranks", "--n", "1", "--k", "1200", "--m", "1200",
                         "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_golden_file_pins_exactly_the_contract_cases():
    # a stale golden entry, or a case without pinned bytes, fails here
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert set(golden) == {f"{case} {fmt}" for case in CONTRACT for fmt in ("text", "json", "csv")}


def test_every_subcommand_has_a_contract_case():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subparsers.choices) <= {argv[0] for argv, _ in CONTRACT.values()}


FORMAT = ("--format", "format", None, False, "text")
# every subcommand's flags in order: option string, dest, type, required, default
FLAGS = {
    "segre": [FORMAT, ("--dim", "dim", int, True, None),
              ("--summand", "summand", None, True, None)],
    "volume": [FORMAT, ("--n", "n", int, False, None), ("--k", "k", int, True, None),
               ("--kd-n", "kd_n", _fraction, False, None),
               ("--geometry", "geometry", None, False, None)],
    "bound": [FORMAT, ("--n", "n", int, False, None), ("--k", "k", int, True, None),
              ("--kd-n", "kd_n", _fraction, False, None),
              ("--neg-dn", "neg_dn", _fraction, False, None),
              ("--components", "components", int, False, None),
              ("--geometry", "geometry", None, False, None)],
    "threshold": [FORMAT, ("--n", "n", int, True, None),
                  ("--neg-dn", "neg_dn", _fraction, False, None)],
    "table1": [FORMAT],
    "ranks": [FORMAT, ("--n", "n", int, True, None), ("--k", "k", int, True, None),
              ("--m", "m", int, True, None)],
    "boundary": [FORMAT, ("--n", "n", int, True, None), ("--k", "k", int, True, None),
                 ("--m", "m", int, True, None), ("--neg-dn", "neg_dn", _fraction, True, None),
                 ("--components", "components", int, False, None)],
    "minorder": [FORMAT, ("--n", "n", int, False, None),
                 ("--kd-n", "kd_n", _fraction, False, None),
                 ("--neg-dn", "neg_dn", _fraction, False, None),
                 ("--components", "components", int, False, None),
                 ("--geometry", "geometry", None, False, None),
                 ("--k-max", "k_max", int, False, 50)],
    "verify": [FORMAT, ("--suite", "suite", None, False, "all"),
               ("--fast", "fast", None, False, False)],
}


def test_every_subcommand_takes_its_pinned_flags():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert list(subparsers.choices) == list(FLAGS)
    for command, parser in subparsers.choices.items():
        flags = [
            (*action.option_strings, action.dest,
             action.type, action.required, action.default)
            for action in parser._actions if action.dest != "help"
        ]
        assert flags == FLAGS[command], command


@pytest.mark.parametrize("key", ["segre=1,-2,99", "chern=1,3,3"])
def test_summand_past_dim_is_rejected(capsys, key):
    spec = f"rank=1,weight=1,{key}"
    code, out, err = run(capsys, "segre", "--dim", "1", "--summand", spec)
    assert (code, out) == (1, "")
    assert err == f"error: summand {spec!r}: --dim 1 takes at most 2 coefficients\n"


def test_geometry_file_rejects_an_unknown_key(capsys, tmp_path):
    geom = tmp_path / "geom.txt"
    geom.write_text("n = 2\nkd_n = 9\nneg_dn = -1\ncomponent = 2\n")
    code, out, err = run(capsys, "bound", "--k", "1", "--geometry", str(geom))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {geom}:4: unknown key 'component'")


def test_volume_reads_a_geometry_file_with_every_key(capsys, tmp_path):
    geom = tmp_path / "geom.txt"
    geom.write_text("n = 2\nkd_n = 9\nneg_dn = -1\ncomponents = 2\n")
    assert run(capsys, "volume", "--k", "1", "--geometry", str(geom)) == (0, "6\n", "")


# one invalid input per subcommand; most reach a library rule's ValueError
INVALID = {
    "segre": ["--dim", "1", "--summand", "segre=1,-2,99"],
    "volume": ["--n", "0", "--k", "1", "--kd-n", "1"],
    "bound": ["--n", "2", "--k", "0", "--kd-n", "9", "--neg-dn", "-1"],
    "threshold": ["--n", "5"],
    "table1": ["--format", "xml"],
    "ranks": ["--n", "0", "--k", "1", "--m", "1"],
    "boundary": ["--n", "2", "--k", "1", "--m", "2", "--neg-dn", "1"],
    "minorder": ["--n", "2", "--kd-n", "9", "--neg-dn", "-1", "--k-max", "0"],
    "verify": ["--suite", "nope"],
}


def test_invalid_input_to_every_subcommand_reports_without_a_traceback(capsys):
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(INVALID) == set(subparsers.choices)
    for command, argv in INVALID.items():
        code, out, err = run(capsys, command, *argv)
        assert (command, code, out) == (command, 1, "")
        assert err.startswith(("error:", "usage:")), (command, err)
        assert "Traceback" not in err


# ------------------------------------------------------------ resolved inputs
#
# json "inputs" echoes each declared input as resolved: from its flag, else the
# geometry file, else its GeometryInput default, in the order n, k, m, kd_n,
# neg_dn, components.

def test_boundary_echoes_the_default_component_count(capsys):
    code, out, _ = run(capsys, "boundary", "--n", "2", "--k", "2", "--m", "4",
                       "--neg-dn=-1/2", "--format", "json")
    assert code == 0
    inputs = json.loads(out)["inputs"]
    assert list(inputs) == ["n", "k", "m", "neg_dn", "components"]
    assert inputs["components"] == 1


def test_geometry_file_without_components_matches_flags(capsys, tmp_path):
    geom = tmp_path / "geom.txt"
    geom.write_text("n = 2\nkd_n = 9\nneg_dn = -1\n")
    code, via_file, _ = run(capsys, "bound", "--k", "3", "--geometry", str(geom),
                            "--format", "json")
    assert code == 0
    assert json.loads(via_file)["inputs"]["components"] == 1
    assert run(capsys, "bound", "--n", "2", "--k", "3", "--kd-n", "9", "--neg-dn", "-1",
               "--format", "json") == (0, via_file, "")


def test_flag_value_is_echoed_over_the_file_value(capsys, tmp_path):
    geom = tmp_path / "geom.txt"
    geom.write_text("n = 2\nkd_n = 9\nneg_dn = -1\n")
    code, out, _ = run(capsys, "minorder", "--geometry", str(geom), "--kd-n", "5",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["inputs"]["kd_n"] == {"num": "5", "den": "1", "approx": 5.0}


def test_threshold_echoes_a_given_boundary_number(capsys):
    code, out, _ = run(capsys, "threshold", "--n", "6", "--neg-dn=-1", "--format", "json")
    assert code == 0
    assert json.loads(out)["inputs"] == {
        "n": 6, "neg_dn": {"num": "-1", "den": "1", "approx": -1.0}
    }


# a call that lacks one required input, with "{geometry}" as in CONTRACT
MISSING_INPUT = {
    "volume": (["volume", "--k", "1"], "n"),
    "bound": (["bound", "--k", "1", "--geometry", "{geometry}"], "neg_dn"),
    "minorder": (["minorder", "--n", "2", "--kd-n", "9"], "neg_dn"),
}


@pytest.mark.parametrize("command", list(MISSING_INPUT))
def test_missing_input_is_named_on_stderr(capsys, tmp_path, command):
    argv, key = MISSING_INPUT[command]
    geom = tmp_path / "geom.txt"
    geom.write_text("n = 2\nkd_n = 9\n")
    argv = [str(geom) if arg == "{geometry}" else arg for arg in argv]
    assert run(capsys, *argv) == (
        1, "", f"error: missing required input {key!r} (flag or geometry file)\n"
    )


def test_input_past_the_int_str_digit_limit_is_read_and_echoed(capsys, tmp_path):
    sevens = "7" * 5000
    code, out, _ = run(capsys, "bound", "--n", "2", "--k", "1", "--kd-n", sevens,
                       "--neg-dn=-1", "--format", "json")
    assert code == 0
    assert json.loads(out)["inputs"]["kd_n"]["num"] == sevens
    geom = tmp_path / "geom.txt"
    geom.write_text(f"n = 2\nkd_n = {sevens}\nneg_dn = -1\n")
    assert run(capsys, "bound", "--k", "1", "--geometry", str(geom),
               "--format", "json") == (0, out, "")


@settings(deadline=None, max_examples=40)
@given(num_digits=st.integers(1, 10**4), den_digits=st.integers(1, 10**4),
       negative=st.booleans(), rng=st.randoms(use_true_random=True))
def test_fraction_reads_back_the_printed_text(num_digits, den_digits, negative, rng):
    num = rng.randrange(10 ** (num_digits - 1), 10**num_digits)
    den = rng.randrange(10 ** (den_digits - 1), 10**den_digits)
    value = Fraction(-num if negative else num, den)
    assert _fraction(chow._fraction_text(value)) == value


def test_fraction_reads_back_a_fixed_value_past_the_hypothesis_sizes():
    # 10^5 sevens over 3^209590 (100,000 digits), and its negative
    value = Fraction(7 * (10**100000 - 1) // 9, 3**209590)
    for signed in (value, -value):
        assert _fraction(chow._fraction_text(signed)) == signed


LONG_DECIMALS = {
    "point": "0." + "7" * 5000,
    "exponent": "7" * 5000 + "e-5000",
    "signed": " -." + "7" * 5000 + " ",
    "both": "+" + "7" * 5000 + "." + "7" * 5000 + "E2500",
}


@pytest.mark.parametrize("text", list(LONG_DECIMALS.values()), ids=list(LONG_DECIMALS))
def test_fraction_reads_long_decimal_notation_exactly(text):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = Fraction(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert _fraction(text) == expected


@pytest.mark.parametrize("text", ["1e1000000000", "1E-1_000_000_000", "-7e+" + "9" * 5000])
def test_exponent_past_the_bound_is_refused_before_any_power(capsys, tmp_path, text):
    # 1e1000000000 would build a power of 10^9 digits, for hours; a flag, a
    # geometry file and a summand coefficient each refuse it at once
    start = time.perf_counter()
    code, out, err = run(capsys, "bound", "--n", "2", "--k", "1", f"--kd-n={text}",
                         "--neg-dn=-1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.endswith(
        f"argument --kd-n: exponent out of bounds (|e| <= 1000000): {_shown(text)}\n"
    )
    assert len(err) < 400
    geom = tmp_path / "geom.txt"
    geom.write_text(f"n = 2\nkd_n = {text}\nneg_dn = -1\n")
    code, out, err = run(capsys, "bound", "--k", "1", "--geometry", str(geom))
    assert (code, out) == (1, "")
    assert err == f"error: {geom}:2: bad value for 'kd_n' in geometry file\n"
    assert time.perf_counter() - start < 2
    spec = f"segre=1,{text}"
    code, out, err = run(capsys, "segre", "--dim", "1", "--summand", spec)
    assert (code, out) == (1, "")
    assert err == (f"error: summand {_shown(spec)}: "
                   f"exponent out of bounds (|e| <= 1000000): {_shown(text)}\n")
    assert time.perf_counter() - start < 3


def test_exponent_within_the_bound_reads_exactly():
    assert _fraction("7" * 5000 + "e-5000") == Fraction(7 * (10**5000 - 1) // 9, 10**5000)
    assert _fraction("3e+0_01") == 30
    assert _fraction("-1E-5") == Fraction(-1, 10**5)


def test_long_bad_input_is_shortened_in_the_error(capsys):
    code, out, err = run(capsys, "bound", "--n", "2", "--k", "1",
                         "--kd-n", "7" * 5000 + "x", "--neg-dn=-1")
    assert (code, out) == (1, "")
    assert err.endswith("argument --kd-n: not a rational P/Q: "
                        "'77777777777777777777'... (5001 characters)\n")
    assert len(err) < 400


# ------------------------------------------------------------- one grammar
#
# _fraction reads what Fraction reads (with the int-to-string digit limit off),
# in one grammar, at every length: ASCII and other scripts' decimal digits,
# single underscores between digits, signs, "/", ".", exponents and
# surrounding whitespace.

DIGITS = "0123456789" "\u0660\u0661\u0662\u0667\u0669" "\u0966\u0968" "\uff10\uff11\uff17"
SPACES = " \t\n\u3000"
ALPHABET = DIGITS + SPACES + "+-_./eE"


def _numeral():
    # one to three digit runs joined by "_"; a run may pass 4300 digits
    times = st.one_of(st.integers(1, 3), st.integers(700, 1200))
    run = st.builds(str.__mul__, st.text(DIGITS, min_size=1, max_size=6), times)
    return st.lists(run, min_size=1, max_size=3).map("_".join)


@st.composite
def _rational_texts(draw):
    space = st.text(SPACES, max_size=2)
    text = draw(space) + draw(st.sampled_from(["", "+", "-"])) + draw(_numeral())
    form = draw(st.sampled_from(["integer", "ratio", "decimal"]))
    if form == "ratio":
        text += "/" + draw(_numeral())
    elif form == "decimal":
        if draw(st.booleans()):
            text += "." + draw(st.one_of(st.just(""), _numeral()))
        if draw(st.booleans()):
            # at most six exponent digits: |e| < 10^6
            exp = st.text(DIGITS, min_size=1, max_size=3)
            text += (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
                     + "_".join(draw(st.lists(exp, min_size=1, max_size=2))))
    text += draw(space)
    if draw(st.booleans()):  # one stray character, which may break the text
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(ALPHABET)) + text[at:]
    return text


@settings(deadline=None, max_examples=300)
@given(text=st.one_of(_rational_texts(), st.text(ALPHABET, max_size=24)))
def test_fraction_reads_exactly_what_fraction_reads(text):
    assume(not re.search(r"[eE][-+]?(?:\d_?){7}", text))  # |e| < 10^6
    # The CLI reads Python 3.11's grammar on every version: 3.10's Fraction
    # reads no underscore, and 3.12's also reads whitespace around "/".
    if sys.version_info < (3, 11):
        assume("_" not in text)
    elif sys.version_info >= (3, 12):
        assume(not re.search(r"\s/|/\s", text))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        expected = None
    finally:
        sys.set_int_max_str_digits(limit)
    if expected is None:
        with pytest.raises(argparse.ArgumentTypeError):
            _fraction(text)
    else:
        assert _fraction(text) == expected


def test_summand_coefficient_past_the_int_str_digit_limit_reads_back(capsys):
    code, first, _ = run(capsys, "segre", "--dim", "1", "--format", "csv",
                         "--summand", "segre=1," + "7" * 5000, "--summand", "segre=1,1/3")
    assert code == 0
    coeffs = [line.split(",")[1:3] for line in first.splitlines()[1:]]
    assert max(len(num) for num, _ in coeffs) > sys.get_int_max_str_digits()
    spec = "segre=" + ",".join(f"{num}/{den}" for num, den in coeffs)
    assert run(capsys, "segre", "--dim", "1", "--format", "csv",
               "--summand", spec) == (0, first, "")


@pytest.mark.parametrize("spec", [
    "segre=1," + "7" * 5000 + "x",
    "k" * 5000 + "=1,segre=1",
    "7" * 5000 + ",segre=1",
], ids=["coefficient", "field", "stray token"])
def test_long_bad_summand_is_shortened_in_the_error(capsys, spec):
    code, out, err = run(capsys, "segre", "--dim", "1", "--summand", spec)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert len(err) < 400
