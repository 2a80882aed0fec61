"""Command-line frontend.

Subcommands expose the library computations with text, json, or csv output;
``verify`` runs the self-check suites.  Exit codes: 0 success, 1 usage or
input error, 2 verification failure.  Results go to stdout, warnings to
stderr.  Exact rationals cross the boundary as "P/Q" or decimal strings on
input and as {"num", "den", "approx"} objects in json.  One reader serves the
flags, geometry files and --summand coefficients: it reads underscores and
any script's decimal digits, at any length and on every supported Python, and
refuses a decimal exponent past 10^6 in absolute value.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction
from itertools import chain
from typing import Iterable, NamedTuple, Optional

from . import bounds, checks, jets
from .chow import TotalClass, WeightedSummand, _digits, _fraction_text, segre_of_weighted_sum
from .oracles import VerificationReport

SCHEMA = "wsegre/1"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# The notation Fraction reads (Python 3.11's grammar): a sign, then decimal
# digits of any script with single underscores between them, then "/Q", or
# fraction digits and an exponent; whitespace around the whole.
_RATIONAL = re.compile(
    r"\s*([-+]?)(?=\.?\d)((?:\d+(?:_\d+)*)?)(?:/(\d+(?:_\d+)*)"
    r"|(?:\.((?:\d+(?:_\d+)*)?))?(?:[eE]([-+]?)(\d+(?:_\d+)*))?)\s*"
)
_LEAF_DIGITS = 512  # under the smallest int-to-string digit limit Python allows (640)
# 1e(10^6) already builds a power of a million digits (0.3 s), and a few more
# exponent digits would run for hours.
_MAX_EXPONENT = 10**6


def _read_int(digits: str) -> int:
    """``int(digits)`` for decimal digits of any length: the text is split in
    halves, read half by half and joined as ``high·10^len(low) + low``, the
    inverse of ``chow._digits``, in subquadratic time."""
    powers = {}  # 10^w for the few widths w that the halving meets

    def read(start: int, stop: int) -> int:
        if stop - start <= _LEAF_DIGITS:
            return int(digits[start:stop])
        mid = (start + stop) >> 1
        if stop - mid not in powers:
            powers[stop - mid] = 10 ** (stop - mid)
        return read(start, mid) * powers[stop - mid] + read(mid, stop)

    return read(0, len(digits))


def _shown(text: str) -> str:
    """``repr(text)``, except that a text past the int-to-string digit limit
    shows as its leading characters and its length, as ``checks._show_int``
    shows a long integer."""
    if 0 < sys.get_int_max_str_digits() < len(text):
        return f"{text[:checks._LEADING_DIGITS]!r}... ({len(text)} characters)"
    return repr(text)


def _fraction(text: str) -> Fraction:
    """The rational of a "P/Q" or decimal text, the one reader of every
    rational the CLI takes: flags, geometry files and ``--summand``
    coefficients.  The text is matched once against ``_RATIONAL``, so
    underscores and non-ASCII digits read as Python 3.11's ``Fraction`` reads
    them, on every Python the package supports; every digit run is read by
    ``_read_int``, so a text of any length reads, and every value
    ``chow._digits`` prints reads back.  An exponent past +-``_MAX_EXPONENT``
    is refused before any power is built."""
    match = _RATIONAL.fullmatch(text)
    if match:
        sign, num, den, frac, exp_sign, exp = (part.replace("_", "") for part in match.groups(""))
        den = _read_int(den or "1")
    if not match or not den:
        raise argparse.ArgumentTypeError(f"not a rational P/Q: {_shown(text)}")
    exponent = _read_int(exp or "0")
    if exponent > _MAX_EXPONENT:
        raise argparse.ArgumentTypeError(
            f"exponent out of bounds (|e| <= {_MAX_EXPONENT}): {_shown(text)}"
        )
    shift = (-exponent if exp_sign == "-" else exponent) - len(frac)
    num = _read_int(num + frac) * 10 ** max(shift, 0)
    return Fraction(-num if sign == "-" else num, den * 10 ** max(-shift, 0))


class _Record(NamedTuple):
    """What a subcommand computed, for ``_emit`` to render in one format.

    A Fraction may stand anywhere in ``inputs`` and ``result``, as a csv cell
    (it fills the three columns num, den, approx) or as a text line.  Only
    the requested format reads ``rows`` or ``lines``, so they may be lazy.
    """

    command: str
    inputs: dict
    result: object
    header: tuple
    rows: Iterable
    lines: Iterable
    warnings: tuple = ()
    code: int = 0


def _approx(value: Fraction) -> Optional[float]:
    """float(value), or None where a nonzero value is too large or too small
    to be a nonzero float."""
    try:
        approx = float(value)
    except OverflowError:
        return None
    return approx if approx or not value else None


def _rational_text(value: Fraction) -> str:
    text = _fraction_text(value)
    if value.denominator == 1:
        return text
    approx = _approx(value)
    return text if approx is None else f"{text} (~ {approx:.12g})"


def _parts(value: Fraction) -> tuple:
    """The num, den and approx of a Fraction, as json fields or csv cells."""
    return _digits(value.numerator), _digits(value.denominator), _approx(value)


def _csv_cells(row):
    for cell in row:
        if isinstance(cell, Fraction):
            yield from _parts(cell)
        else:
            yield cell


def _emit(args, record: _Record) -> int:
    """Write the record to stdout in ``args.format`` and its warnings to
    stderr; return its exit code."""
    for note in record.warnings:
        print(f"warning: {note}", file=sys.stderr)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": record.command,
            "inputs": record.inputs,
            "result": record.result,
            "warnings": list(record.warnings),
        }
        text = json.dumps(payload, indent=2, default=lambda value: dict(
            zip(("num", "den", "approx"), _parts(value)))) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(record.header)
        writer.writerows(_csv_cells(row) for row in record.rows)
        text = buf.getvalue()
    else:
        text = "".join(
            f"{_rational_text(line) if isinstance(line, Fraction) else line}\n"
            for line in record.lines
        )
    sys.stdout.write(text)
    return record.code


def _scalar(command: str, inputs: dict, value: Fraction, warnings=()) -> _Record:
    row = (inputs.get("n", ""), inputs.get("k", ""), inputs.get("m", ""), value)
    header = ("n", "k", "m", "num", "den", "approx")
    return _Record(command, inputs, value, header, [row], [value], warnings)


# ------------------------------------------------------------ geometry input


# Each input a subcommand takes as a flag ``--key`` (``_`` spelt ``-``) or,
# for the fields of ``GeometryInput``, as a geometry-file line ``key = value``,
# with the type that converts its text; flags are registered, and inputs
# resolved and echoed, in this order.
_INPUTS = {"n": int, "k": int, "m": int, "kd_n": _fraction, "neg_dn": _fraction, "components": int}
# The fields of ``GeometryInput``; ``GeometryInput._field_defaults`` holds their defaults.
_GEOMETRY = bounds.GeometryInput._fields


def _read_geometry_file(path: str) -> dict:
    """The converted value of each key the file sets; an error names
    ``path:line``."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, val = line.partition("=")
                key = key.strip()
                where = f"{path}:{lineno}:"
                if not eq:
                    raise ValueError(f"{where} expected 'key = value'")
                if key not in _GEOMETRY:
                    raise ValueError(
                        f"{where} unknown key {key!r} (expected {', '.join(_GEOMETRY)})"
                    )
                if key in values:
                    raise ValueError(f"{where} repeated key {key!r}")
                try:
                    values[key] = _INPUTS[key](val.strip())
                except (ValueError, argparse.ArgumentTypeError):
                    raise ValueError(f"{where} bad value for {key!r} in geometry file")
    except OSError as exc:
        raise ValueError(f"cannot read geometry file: {exc}")
    return values


def _resolve_inputs(args) -> dict:
    """Each input the subcommand declares, in ``_INPUTS`` order, from its flag,
    else from the geometry file, else from its ``GeometryInput`` default; an
    optional input with no value is left out."""
    given = _read_geometry_file(args.geometry) if getattr(args, "geometry", None) else {}
    inputs = {}
    for key, required in args.inputs.items():
        val = getattr(args, key)
        if val is None:
            val = given.get(key, bounds.GeometryInput._field_defaults.get(key))
        if val is not None:
            inputs[key] = val
        elif required:
            raise ValueError(f"missing required input {key!r} (flag or geometry file)")
    return inputs


# ---------------------------------------------------------------- subcommands


def _parse_summand(spec: str, dim: int) -> WeightedSummand:
    fields: dict = {}
    tail: Optional[list] = None
    for token in spec.split(","):
        if "=" in token:
            key, _, val = token.partition("=")
            key = key.strip()
            if key in ("segre", "chern"):
                fields[key] = [val]
                tail = fields[key]
            elif key in ("rank", "weight"):
                fields[key] = val
                tail = None
            else:
                raise ValueError(f"unknown summand field {_shown(key)}")
        else:
            if tail is None:
                raise ValueError(f"stray token {_shown(token)} in summand {_shown(spec)}")
            tail.append(token)
    if ("segre" in fields) == ("chern" in fields):
        raise ValueError("each summand needs exactly one of segre=... or chern=...")
    key = "segre" if "segre" in fields else "chern"
    try:
        rank, weight = int(fields.get("rank", 1)), int(fields.get("weight", 1))
        coeffs = [_fraction(c) for c in fields[key]]
        cls = TotalClass(dim, coeffs)
        if len(coeffs) > dim + 1:
            raise ValueError(f"--dim {dim} takes at most {dim + 1} coefficients")
        if key == "chern":
            return WeightedSummand.from_chern(cls, rank, weight)
        return WeightedSummand(cls, rank, weight)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"summand {_shown(spec)}: {exc}")


def _cmd_segre(args, inputs) -> _Record:
    summands = [_parse_summand(spec, args.dim) for spec in args.summand]
    result = segre_of_weighted_sum(summands)
    echo = {
        "dim": args.dim,
        "summands": [
            {"rank": s.rank, "weight": s.weight, "segre": s.segre.coeffs}
            for s in summands
        ],
    }
    return _Record("segre", echo, {"coeffs": result.coeffs},
                   ("degree", "num", "den", "approx"), enumerate(result.coeffs), [result])


def _cmd_volume(args, inputs) -> _Record:
    return _scalar("volume", inputs, bounds.logarithmic_volume(**inputs))


def _cmd_bound(args, inputs) -> _Record:
    geometry = bounds.GeometryInput(*map(inputs.get, _GEOMETRY))
    value = bounds.volume_lower_bound(geometry, inputs["k"])
    echo = {**inputs, "canonical_volume": geometry.canonical_volume}
    return _scalar("bound", echo, value, geometry.warnings)


def _cmd_threshold(args, inputs) -> _Record:
    n, neg_dn = inputs["n"], inputs.get("neg_dn")
    value = bounds.threshold_logk(n, neg_dn)
    rounded = round(value)
    try:
        min_k: Optional[int] = max(1, math.ceil(math.exp(value)))  # orders start at 1
    except OverflowError:
        min_k = None
    min_k_text = str(min_k) if min_k is not None else "astronomically large (exp overflows)"
    warnings = (bounds._NEG_DN_WARNING,) if n in (4, 5) and neg_dn >= 0 else ()
    shown = (("threshold log k", value), ("rounded", rounded), ("min integer k", min_k_text))
    return _Record(
        "threshold", inputs, {"logk": value, "rounded": rounded, "min_integer_k": min_k},
        ("n", "logk", "rounded", "min_integer_k"), [(n, value, rounded, min_k_text)],
        (f"{label}: {val}" for label, val in shown), warnings,
    )


def _cmd_table1(args, inputs) -> _Record:
    rows = bounds.threshold_table()
    notes = dict.fromkeys(note for row in rows for note in row.footnotes)
    result = {"rows": [row._asdict() for row in rows]}
    lines = chain(
        ["n    threshold on log k"],
        (f"{row.n:<4} {row.text}" for row in rows),
        (f"note {i}: {note}" for i, note in enumerate(notes, start=1)),
    )
    cells = ((row.n, row.coefficient, row.logk, row.text) for row in rows)
    return _Record("table1", inputs, result, ("n", "coefficient", "logk", "text"), cells, lines)


def _cmd_ranks(args, inputs) -> _Record:
    return _scalar("ranks", inputs, Fraction(jets.jet_rank(**inputs)))


def _cmd_boundary(args, inputs) -> _Record:
    boundary = jets.BoundaryData(inputs["n"], -inputs["neg_dn"], inputs["components"])
    value = jets.boundary_jet_sections(inputs["k"], inputs["m"], boundary)
    return _scalar("boundary", inputs, value)


def _cmd_minorder(args, inputs) -> _Record:
    geometry = bounds.GeometryInput(*map(inputs.get, _GEOMETRY))
    found = bounds.find_min_k(geometry, args.k_max)
    return _Record("minorder", {**inputs, "k_max": args.k_max}, {"min_k": found},
                   ("n", "k_max", "min_k"), [(geometry.n, args.k_max, found)],
                   ["none" if found is None else found], geometry.warnings)


def _cmd_verify(args, inputs) -> _Record:
    reports = checks.run_suite(args.suite, fast=args.fast)
    failed = [r.name for r in reports if not r.passed]
    result = {"passed": not failed, "checks": [r._asdict() for r in reports]}

    def lines():
        for r in reports:
            detail = f" ({r.detail})" if r.detail else ""
            yield f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.lhs} vs {r.rhs}{detail}"
        yield (f"{len(reports) - len(failed)} passed, {len(failed)} failed "
               f"(suite: {args.suite}{', fast' if args.fast else ''})")
        if failed:
            yield "first failures: " + "; ".join(failed[:3])

    return _Record("verify", {"suite": args.suite, "fast": args.fast}, result,
                   VerificationReport._fields, reports, lines(), code=2 if failed else 0)


# --------------------------------------------------------------------- wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="wsegre", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, required=(), optional=(), geometry=False):
        # The one declaration of the subcommand's inputs, which main resolves;
        # a geometry file may supply a required geometry key in place of its flag.
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        inputs = {key: key in required for key in _INPUTS if key in required or key in optional}
        for key, needed in inputs.items():
            p.add_argument("--" + key.replace("_", "-"), type=_INPUTS[key],
                           required=needed and not (geometry and key in _GEOMETRY))
        if geometry:
            p.add_argument("--geometry")
        p.set_defaults(func=func, inputs=inputs)
        return p

    p = add("segre", _cmd_segre, "Segre class of a weighted direct sum")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--summand", action="append", required=True,
                   metavar="rank=R,weight=A,segre=1,s1,...",
                   help="repeatable; accepts segre=... or chern=...")
    add("volume", _cmd_volume, "exact volume of the logarithmic jet algebra",
        ("n", "k", "kd_n"), geometry=True)
    add("bound", _cmd_bound, "exact volume lower bound with boundary term",
        ("n", "k", "kd_n", "neg_dn"), ("components",), geometry=True)
    add("threshold", _cmd_threshold, "log k threshold for bigness", ("n",), ("neg_dn",))
    add("table1", _cmd_table1, "threshold summary table for n = 4..8")
    add("ranks", _cmd_ranks, "rank of a graded jet piece", ("n", "k", "m"))
    add("boundary", _cmd_boundary, "exact boundary section count",
        ("n", "k", "m", "neg_dn"), ("components",))
    p = add("minorder", _cmd_minorder, "smallest order with a positive bound",
            ("n", "kd_n", "neg_dn"), ("components",), geometry=True)
    p.add_argument("--k-max", type=int, default=50)
    p = add("verify", _cmd_verify, "run the self-check suites")
    p.add_argument("--suite", choices=(*checks.SUITE_NAMES, "all"), default="all")
    p.add_argument("--fast", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _emit(args, args.func(args, _resolve_inputs(args)))
    except (ValueError, OverflowError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
