"""Seeded op lists for the benchmark workloads.

An op is the argv list of one ``wsegre`` CLI call.  A workload is an endless
sequence of passes; a pass is the op list that one fresh worker runs.  Every
pass of a workload draws from the same strata (an op kind, a range of ``n``,
``k`` or ``m``), so passes and seeds differ in the exact inputs but not in
the mix of costs; that is what keeps medians and quantiles steady across
seeds.  The same ``(workload, seed)`` always yields byte-identical passes.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from typing import Iterator

WORKLOADS = ("orders", "sweeps", "jets", "verify")

# orders: for each n in 2..8, ORDER_BANDS equal k bands from 10 up to
# PRINT_KMAX[n]; every pass puts one op of each n into each band, so no
# (n, k) repeats within a pass, and each pass runs in a fresh worker.  With
# the interpreter's default int-to-string limit the CLI cannot print exact
# bound and volume results from k = ORDER_FAIL_K[n] on (the worst case over
# the kd_n and neg_dn this generator draws), so PRINT_KMAX[n] stays 10% below
# that, which also covers the slightly larger denominators of sweeps: no op of
# either workload fails.  LIMIT_PROBE keeps the failure in view:
# one volume call per n at 1.2 * ORDER_FAIL_K[n], run outside the workload
# by the traced run and counted in the cli.limit_probe_failed metric.
ORDER_NS = tuple(range(2, 9))
ORDER_FAIL_K = {2: 748, 3: 527, 4: 411, 5: 341, 6: 290, 7: 255, 8: 228}
PRINT_KMAX = {n: round(0.9 * k) for n, k in ORDER_FAIL_K.items()}
ORDER_KMIN = 10
ORDER_BANDS = 24
LIMIT_PROBE = tuple(["volume", "--n", str(n), "--k", str(round(1.2 * k)), "--kd-n", "1",
                     "--format", "json"] for n, k in ORDER_FAIL_K.items())

# sweeps: for each n in turn, twice over, one block whose minorder sweep finds
# an order and one whose sweep runs to k_max and prints "none"; each minorder is
# followed by a run of bound calls at one (n, k <= k_max) that vary only the
# geometry, so the run reuses the sums the sweep computed; k also stays within
# PRINT_KMAX[n], which n = 5 would pass.  One op in six is
# a minorder, so p90 lands inside the minorder costs and p50 inside the bound
# calls.  FOUND_RATIO[n] brackets |(-D)^n| / (K+D)^n so that the order found
# lies between about 20 and 220.  Blocks keep a fixed order because the
# caches carry from one block to the next.
SWEEP_NS = (2, 3, 4, 5)
SWEEP_RUN = 5
SWEEP_KMAX = (300, 360)
FOUND_RATIO = {2: (0.93, 0.97), 3: (0.82, 0.90), 4: (0.70, 0.79), 5: (0.55, 0.66)}

# jets: (command, k, m range, n range); m ranges are set so that each cell
# costs from milliseconds to a few tenths of a second at the seed.  The last
# cell of each command has small k and large m.
JET_CELLS = (
    ("ranks", 6, (55, 85), (1, 2)),
    ("ranks", 5, (50, 90), (1, 3)),
    ("ranks", 4, (80, 160), (1, 4)),
    ("ranks", 3, (150, 400), (1, 4)),
    ("ranks", 2, (1000, 3000), (1, 4)),
    ("boundary", 6, (25, 45), (2, 3)),
    ("boundary", 5, (30, 50), (2, 4)),
    ("boundary", 4, (50, 90), (2, 4)),
    ("boundary", 3, (80, 150), (2, 4)),
    ("boundary", 2, (150, 400), (2, 4)),
    ("boundary", 1, (500, 1500), (2, 4)),
)
JET_REPEATS = 6


def _rational(rng: random.Random, lo: int, hi: int, den_max: int) -> str:
    return str(Fraction(rng.randint(lo, hi), rng.randint(1, den_max)))


def _in_half(rng: random.Random, lo: float, hi: float, half: int) -> float:
    return lo + (hi - lo) * (half + rng.random()) / 2


def _orders_pass(rng: random.Random) -> list[list[str]]:
    ops = []
    for n in ORDER_NS:
        # equal bands, not log-spaced ones: the sums cost more with k, and
        # most of an op's time at small k is the CLI's own
        width = (PRINT_KMAX[n] - ORDER_KMIN) / ORDER_BANDS
        edges = [round(ORDER_KMIN + b * width) for b in range(ORDER_BANDS + 1)]
        for lo, hi in zip(edges, edges[1:]):
            # the seed moves k only within its band, so every pass has the
            # same mix of costs; the bands are disjoint, so k never repeats
            k = lo + int((hi - lo) * rng.random())
            kd = _rational(rng, 1, 60, 4)
            if rng.random() < 0.5:
                ops.append(["volume", "--n", str(n), "--k", str(k), "--kd-n", kd,
                            "--format", "json"])
            else:
                neg = _rational(rng, 1, 30, 3)
                ops.append(["bound", "--n", str(n), "--k", str(k), "--kd-n", kd,
                            f"--neg-dn=-{neg}", "--format", "json"])
    rng.shuffle(ops)
    return ops


def _sweeps_pass(rng: random.Random) -> list[list[str]]:
    ops = []
    for n in SWEEP_NS:
        # each kind of block appears twice per n: once in the lower and once
        # in the upper half of its k_max and ratio ranges
        for found, half in ((True, 0), (False, 0), (True, 1), (False, 1)):
            k_max = round(_in_half(rng, *SWEEP_KMAX, half))
            kd = rng.randint(2, 40)
            if found:
                ratio = _in_half(rng, *FOUND_RATIO[n], half)
                neg = Fraction(round(kd * ratio * 1000), 1000)
            else:
                # |(-D)^n| >= (K+D)^n keeps the bracket negative at every order
                neg = Fraction(kd + rng.randint(0, 3 * kd))
            ops.append(["minorder", "--n", str(n), "--kd-n", str(kd), f"--neg-dn=-{neg}",
                        "--k-max", str(k_max), "--format", "json"])
            k = rng.randint(k_max // 3, min(k_max, PRINT_KMAX[n]))
            for _ in range(SWEEP_RUN):
                ops.append(["bound", "--n", str(n), "--k", str(k),
                            "--kd-n", _rational(rng, 1, 90, 5),
                            f"--neg-dn=-{_rational(rng, 1, 40, 4)}", "--format", "json"])
    return ops


def _jets_pass(rng: random.Random) -> list[list[str]]:
    ops = []
    for command, k, (m_lo, m_hi), (n_lo, n_hi) in JET_CELLS:
        ns = [n_lo + rep % (n_hi - n_lo + 1) for rep in range(JET_REPEATS)]
        rng.shuffle(ns)
        for rep, n in enumerate(ns):
            m = m_lo + int((m_hi - m_lo) * (rep + rng.random()) / JET_REPEATS)
            op = [command, "--n", str(n), "--k", str(k), "--m", str(m)]
            if command == "boundary":
                op += [f"--neg-dn=-{_rational(rng, 1, 20, 4)}",
                       "--components", str(rng.randint(1, 3))]
            ops.append(op + ["--format", "json"])
    rng.shuffle(ops)
    return ops


def passes(workload: str, seed: int) -> Iterator[list[list[str]]]:
    """Yield the op lists of successive passes of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    index = 0
    while True:
        rng = random.Random(f"{workload}:{seed}:{index}")
        if workload == "orders":
            yield _orders_pass(rng)
        elif workload == "sweeps":
            yield _sweeps_pass(rng)
        elif workload == "jets":
            yield _jets_pass(rng)
        else:
            # --fast runs every check at smaller sizes: about 0.3 s a call,
            # where the full 5 s call times too unsteadily on a shared host
            yield [["verify", "--fast", "--format", "json"]]
        index += 1


def digest(op_lists: list[list[list[str]]]) -> str:
    """sha256 of the op lists as canonical json."""
    blob = json.dumps(op_lists, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
