"""Self-tests of the benchmark harness: failure accounting, seeding, trace
restore and the correctness reference.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from wsegre import cli, jets, oracles  # noqa: E402

BOUND = ["bound", "--n", "2", "--k", "5", "--kd-n", "9", "--neg-dn=-1", "--format", "json"]
BAD_BOUND = ["bound", "--n", "1", "--k", "5", "--kd-n", "9", "--neg-dn=-1", "--format", "json"]


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_failed_op_is_counted_not_dropped():
    ops = [BAD_BOUND, BOUND, BAD_BOUND]
    setup_s, result = run.spawn(ops, False)
    records = result["records"]
    assert setup_s > 0
    assert [r["rc"] for r in records] == [1, 0, 1]
    verdicts = run.judge(ops, records)
    assert verdicts == ["error", "ok", "error"]
    passes = [{"ops": ops, "untraced": result}]
    metrics = run.end_to_end(passes, [setup_s], verdicts)
    assert metrics["ok_frac"] == 1 / 3
    # every attempted op, failed ones included, is a latency sample
    latencies = [r["ms"] for r in records]
    assert len(latencies) == len(ops) and all(ms > 0 for ms in latencies)
    assert metrics["op_p90_ms"] == run.quantile(latencies, 90)


def test_wrong_answers_are_caught():
    rc, out = _cli(BOUND)
    assert rc == 0
    payload = json.loads(out)
    assert run.judge([BOUND], [{"rc": 0, "out": out}]) == ["ok"]
    payload["result"]["num"] = str(int(payload["result"]["num"]) + 1)
    assert run.judge([BOUND], [{"rc": 0, "out": json.dumps(payload)}]) == ["wrong"]
    assert run.judge([BOUND], [{"rc": 0, "out": "not json"}]) == ["wrong"]

    minorder = ["minorder", "--n", "2", "--kd-n", "9", "--neg-dn=-8", "--k-max", "200",
                "--format", "json"]
    rc, out = _cli(minorder)
    payload = json.loads(out)
    assert run.judge([minorder], [{"rc": 0, "out": out}]) == ["ok"]
    for bad in (payload["result"]["min_k"] + 1, payload["result"]["min_k"] - 1, None):
        payload["result"]["min_k"] = bad
        assert run.judge([minorder], [{"rc": 0, "out": json.dumps(payload)}]) == ["wrong"]


def test_verify_verdicts_count_checks():
    report = {"result": {"checks": [{"passed": True}, {"passed": False}, {"passed": True}]}}
    assert run.judge_verify({"rc": 2, "out": json.dumps(report)}) == ["ok", "wrong", "ok"]
    assert run.judge_verify({"rc": 1, "out": ""}) == ["error"]
    assert run.judge_verify({"rc": None, "out": ""}) == ["error"]


def test_same_seed_gives_identical_ops():
    for workload in workloads.WORKLOADS:
        first, second = workloads.passes(workload, 7), workloads.passes(workload, 7)
        a = [next(first) for _ in range(3)]
        b = [next(second) for _ in range(3)]
        assert json.dumps(a).encode() == json.dumps(b).encode()
        assert workloads.digest(a) == workloads.digest(b)
        if workload != "verify":
            other = workloads.passes(workload, 8)
            assert [next(other) for _ in range(3)] != a


def test_orders_never_repeats_n_k_within_a_pass():
    generator = workloads.passes("orders", 3)
    for _ in range(20):
        keys = [(op[2], op[4]) for op in next(generator)]
        assert len(set(keys)) == len(keys) == len(workloads.ORDER_NS) * workloads.ORDER_BANDS


def test_bound_and_volume_stay_within_the_cli_print_limit():
    for workload in ("orders", "sweeps"):
        generator = workloads.passes(workload, 4)
        assert all(int(op[4]) <= workloads.PRINT_KMAX[int(op[2])]
                   for _ in range(20) for op in next(generator) if op[0] in ("bound", "volume"))
    # the largest k of each n, with the largest denominators the workloads draw
    for n, k in workloads.PRINT_KMAX.items():
        for kd, neg in (("59/4", "29/3"), ("89/5", "39/4")):
            op = ["bound", "--n", str(n), "--k", str(k), "--kd-n", kd, f"--neg-dn=-{neg}",
                  "--format", "json"]
            assert _cli(op)[0] == 0


def test_best_of_runs_takes_each_ops_fastest_run():
    runs = [{"wall_s": 3.0, "peak_rss_mb": 20.0, "records": [{"rc": 0, "ms": 5.0}, {"rc": 0, "ms": 1.0}]},
            {"wall_s": 2.0, "peak_rss_mb": 22.0, "records": [{"rc": 0, "ms": 4.0}, {"rc": 0, "ms": 2.0}]}]
    merged = run.best(runs)
    assert merged["wall_s"] == 2.0 and merged["peak_rss_mb"] == 21.0
    assert [r["ms"] for r in merged["records"]] == [4.0, 1.0]


def test_result_records_seed_digest_and_machine():
    result = run.run("sweeps", 5, 0.0, False)
    first_pass = next(workloads.passes("sweeps", 5))
    assert result["passes"] == 1 and result["runs_per_pass"] == run.REPEATS
    assert result["attempted"] == run.REPEATS * len(first_pass)
    assert result["seed"] == 5
    assert result["ops_digest"] == workloads.digest([first_pass])
    assert result["python"] and result["nproc"] >= 1 and result["cpu"]
    assert result["wrong"] == 0


def _wsegre_namespaces():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "wsegre" or name.startswith("wsegre.")}


def test_trace_wraps_inner_calls_and_restores_every_name():
    before = _wsegre_namespaces()
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        patched = {(module.__name__, attr) for module, attr, _ in patches}
        assert ("wsegre.bounds", "sum_repeated") in patched
        assert ("wsegre.checks", "sum_repeated") in patched
        assert ("wsegre", "sum_repeated") in patched
        assert _cli(BOUND)[0] == 0
        assert _cli(BOUND)[0] == 0
    finally:
        assert spans.restore(patches)
    assert _wsegre_namespaces() == before

    names = [s[0] for s in tracer.spans]
    assert names.count("cli.main") == 2
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    inner = [s for s in tracer.spans if s[0] == "combinatorics.sum_repeated"]
    assert inner and by_index[inner[0][3]][0] == "bounds.volume_lower_bound"
    assert tracer.sum_calls == 4 and tracer.sum_repeats == 2
    rows = spans.aggregate(tracer.spans)
    assert rows["cli.main"]["self_ms"] < rows["cli.main"]["total_ms"]


def test_traced_worker_reports_restored():
    _, result = run.spawn([BOUND], True)
    assert result["restored"] is True
    assert "combinatorics.sum_repeated" in result["wrapped"]


def test_self_time_subtracts_children():
    rows = spans.aggregate([["a", 0.0, 1.0, -1], ["b", 0.2, 0.5, 0], ["b", 0.6, 0.7, 0]])
    assert abs(rows["a"]["self_ms"] - 600.0) < 1e-9
    assert rows["b"]["calls"] == 2 and abs(rows["b"]["self_ms"] - 400.0) < 1e-9


def test_reference_sums_match_oracles():
    for n in range(1, 4):
        ks = range(1, 5)
        repeated = reference.series_coefficients(n, n + 1, ks)
        nondecreasing = reference.series_coefficients(n, 1, ks)
        residues = reference.series_coefficients(n, 1, ks, reference.PRIME)
        for k in ks:
            assert repeated[k] == oracles.sum_repeated_bruteforce(n, k)
            assert nondecreasing[k] == oracles.sum_nondecreasing_bruteforce(n, k)
            assert residues[k] == reference.residue(nondecreasing[k])


def test_reference_ranks_match_oracles():
    for k in range(1, 5):
        profile = reference.rank_profile(1, k, 25)
        assert profile == [oracles.count_partitions_max_part(m, k) for m in range(26)]
    weights = (1, 1, 2, 2, 3, 3)
    assert reference.rank_profile(2, 3, 30)[30] == oracles.count_weighted_monomials(weights, 30)


def test_reference_boundary_paths_agree():
    cases = [(2, 1, 2, Fraction(11, 4), 3), (3, 3, 30, Fraction(5, 2), 2), (4, 2, 25, Fraction(1), 1)]
    for n, k, m, beta, c in cases:
        per_tuple = reference.boundary_per_tuple(n, k, m, beta, c)
        layers = reference.layer_counts(n, k, m + 7)
        assert per_tuple == reference.boundary_by_parts(n, k, m, beta, c, layers)
        assert per_tuple == jets.boundary_jet_sections(k, m, jets.BoundaryData(n, beta, c))
    assert reference.boundary_sections(2, 1, 2, Fraction(11, 4), 3) == 2 * 3 + Fraction(11, 4)
    assert reference.boundary_sections(3, 2, 1, Fraction(7, 3), 2) == 2
    assert reference.boundary_sections(3, 2, 0, Fraction(7, 3), 2) == 0
