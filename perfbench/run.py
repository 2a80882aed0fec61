"""wsegre benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload orders --seed 1 --seconds 30 --trace 0

A run generates the workload's passes from the seed and hands each pass to a
fresh worker process (``worker.py``), one client in a closed loop.  With
``--trace 0`` the passes of the first third of ``--seconds`` are run twice
more, in the same order, and each op's latency is its best of the three
runs (``verify``, whose passes are all the same call, runs passes for the
whole time and pools them); the end-to-end metrics of ``BENCHMARK.json``
come from these.  With ``--trace 1`` every pass runs once untraced and once
traced in its own worker, for ``--seconds`` in all, and the per-layer
metrics, the tracing overhead and the CLI's output-limit probe are
reported.  Outputs are checked against ``reference.py`` outside the timed
region.  The last stdout line is one json object:
``{"correct", "attempted", "failed", "metrics"}``.  Full results go to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 5
REPEATS = 3  # untraced runs of each pass; an op's latency is its best run
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def spawn(ops: list, trace: bool) -> tuple[float, dict]:
    """Run one pass in a fresh worker; return (set-up seconds, result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(ROOT)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != b"READY":
            raise BenchError("worker did not start (is src/wsegre importable?)")
        job = json.dumps({"ops": ops, "trace": trace}).encode()
        out, _ = proc.communicate(job, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran longer than {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return setup_s, json.loads(out)


# ------------------------------------------------------------------ checking


def _options(argv: list[str]) -> dict:
    opts, i = {}, 1
    while i < len(argv):
        key, eq, value = argv[i].partition("=")
        if not eq:
            i += 1
            value = argv[i] if i < len(argv) else ""
        opts[key.lstrip("-").replace("-", "_")] = value
        i += 1
    return opts


def _exact(payload: dict) -> Fraction:
    return Fraction(int(payload["result"]["num"]), int(payload["result"]["den"]))


def judge(ops: list, records: list) -> list[str]:
    """Verdict per query op: "ok", "error" (no answer: non-zero exit or an
    exception) or "wrong" (an answer that disagrees with the reference)."""
    modular: dict = {}  # (n, mult) -> ks needing residues
    exact: dict = {}    # (n, mult) -> ks needing exact values
    layers_m: dict = {}  # (n, k) -> largest boundary m
    parsed = []
    for argv, rec in zip(ops, records):
        if rec["rc"] != 0:
            parsed.append(None)
            continue
        try:
            payload = json.loads(rec["out"])
        except ValueError:
            payload = {}
        opts = _options(argv)
        parsed.append((argv[0], opts, payload))
        if argv[0] in ("bound", "volume"):
            n, k = int(opts["n"]), int(opts["k"])
            modular.setdefault((n, n + 1), set()).add(k)
            modular.setdefault((n, 1), set()).add(k)
        elif argv[0] == "minorder":
            n = int(opts["n"])
            found = payload.get("result", {}).get("min_k")
            ks = {found, max(found - 1, 1)} if isinstance(found, int) else {int(opts["k_max"])}
            exact.setdefault((n, n + 1), set()).update(ks)
            exact.setdefault((n, 1), set()).update(ks)
        elif argv[0] == "boundary":
            key = (int(opts["n"]), int(opts["k"]))
            layers_m[key] = max(layers_m.get(key, 0), int(opts["m"]))
    residues = {key: reference.series_coefficients(*key, ks, reference.PRIME)
                for key, ks in modular.items()}
    values = {key: reference.series_coefficients(*key, ks) for key, ks in exact.items()}
    layers = {key: reference.layer_counts(*key, m) for key, m in layers_m.items()
              if m > reference.PER_TUPLE_MAX_M}

    verdicts = []
    for item in parsed:
        if item is None:
            verdicts.append("error")
            continue
        try:
            good = _matches(*item, residues, values, layers)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            good = False
        verdicts.append("ok" if good else "wrong")
    return verdicts


def _matches(command: str, opts: dict, payload: dict, residues: dict, values: dict,
             layers: dict) -> bool:
    n = int(opts["n"])
    if command in ("bound", "volume"):
        k = int(opts["k"])
        neg = Fraction(opts["neg_dn"]) if command == "bound" else Fraction(0)
        want = reference.bound_value(n, k, Fraction(opts["kd_n"]), neg,
                                     residues[(n, n + 1)][k], residues[(n, 1)][k])
        return reference.residue(_exact(payload)) == want
    if command == "minorder":
        kd, neg, k_max = Fraction(opts["kd_n"]), Fraction(opts["neg_dn"]), int(opts["k_max"])

        def bracket(k):
            return kd / (n + 1) ** n * values[(n, n + 1)][k] + neg * values[(n, 1)][k]

        found = payload["result"]["min_k"]
        if found is None:
            return bracket(k_max) <= 0
        return 1 <= found <= k_max and bracket(found) > 0 and (found == 1 or bracket(found - 1) <= 0)
    k, m = int(opts["k"]), int(opts["m"])
    if command == "ranks":
        from wsegre.oracles import count_weighted_monomials

        weights = tuple(t for t in range(1, k + 1) for _ in range(n))
        return _exact(payload) == count_weighted_monomials(weights, m)
    if command == "boundary":
        want = reference.boundary_sections(n, k, m, -Fraction(opts["neg_dn"]),
                                           int(opts.get("components", 1)), layers.get((n, k)))
        return _exact(payload) == want
    return False


def judge_verify(record: dict) -> list[str]:
    """One verdict per check of a verify call; a call that gives no report
    (exit other than 0 or 2, an exception, unreadable json) is one error."""
    if record["rc"] not in (0, 2):
        return ["error"]
    try:
        checks = json.loads(record["out"])["result"]["checks"]
        return ["ok" if c["passed"] is True else "wrong" for c in checks] or ["error"]
    except (ValueError, KeyError, TypeError):
        return ["error"]


# ------------------------------------------------------------------- metrics


def quantile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def best(runs: list) -> dict:
    """The runs of one pass merged: each op's best latency, the best wall
    time and the median peak RSS.  Best-of-runs keeps the slow spells of a
    shared host out of the figures; the runs of one pass lie far apart."""
    records = [dict(rec, ms=min(r["records"][i]["ms"] for r in runs))
               for i, rec in enumerate(runs[0]["records"])]
    return {"records": records,
            "wall_s": min(r["wall_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}


def end_to_end(passes: list, setups: list, verdicts: list, rounds: int = 1) -> dict:
    """``verdicts`` cover every run of every pass; ``rounds`` runs each."""
    walls = [p["untraced"]["wall_s"] for p in passes]
    latencies = [r["ms"] for p in passes for r in p["untraced"]["records"]]
    ok = verdicts.count("ok")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": ok / rounds / sum(walls),
        "ok_frac": ok / len(verdicts),
        "peak_rss_mb": statistics.median(p["untraced"]["peak_rss_mb"] for p in passes),
        "op_p50_ms": quantile(latencies, 50),
        "op_p90_ms": quantile(latencies, 90),
    }


def per_layer(passes: list) -> dict:
    """Per-pass means of the traced counters, by metric name."""
    traced = [p["traced"] for p in passes]
    count = len(traced)
    rows: dict = {}
    for result in traced:
        for name, row in spans.aggregate(result["spans"]).items():
            into = rows.setdefault(name, dict.fromkeys(row, 0.0))
            for key, value in row.items():
                into[key] += value
    out = {}
    for name in traced[0]["wrapped"]:
        row = rows.get(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        if name.startswith("checks."):
            out[f"{name}.ms"] = row["total_ms"] / count
        else:
            out[f"{name}.calls"] = row["calls"] / count
            out[f"{name}.self_ms"] = row["self_ms"] / count
    for suite in ("identities", "oracles", "inequalities"):
        out[f"checks.{suite}.ms"] = rows.get(f"checks.run_suite[{suite}]", {}).get("total_ms", 0.0) / count
    for result in traced:
        for key, value in result["counts"].items():
            out[key] = out.get(key, 0) + value / count
    for key in ("combinatorics.weighted_partitions.calls", "combinatorics.weighted_partitions.items",
                "bounds.find_min_k.k_steps"):
        out.setdefault(key, 0)
    sum_calls = sum(r["sum_calls"] for r in traced)
    repeats = sum(r["sum_repeats"] for r in traced)
    out["combinatorics.repeat_share"] = repeats / sum_calls if sum_calls else 0.0
    out["combinatorics.result_bits_max"] = max(r["result_bits_max"] for r in traced)
    out["cli.self_ms"] = sum(v for k, v in out.items() if k.startswith("cli.") and k.endswith(".self_ms"))
    records = [rec for r in traced for rec in r["records"]]
    out["cli.out_bytes"] = sum(len(rec["out"].encode()) for rec in records) / count
    out["cli.exit_nonzero"] = sum(rec["rc"] != 0 for rec in records) / count
    out["trace.overhead_frac"] = statistics.median(
        p["traced"]["wall_s"] / p["untraced"]["wall_s"] for p in passes) - 1
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


# ---------------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setups = [spawn([], False)[0] for _ in range(SETUP_PROBES)]
    generator = workloads.passes(workload, seed)
    # every pass of verify is the same call, so its passes are its repeats
    rounds = 1 if trace or workload == "verify" else REPEATS

    def run_pass(entry: dict) -> None:
        setup_s, untraced = spawn(entry["ops"], False)
        setups.append(setup_s)
        entry["runs"].append(untraced)
        if trace:
            entry["traced"] = spawn(entry["ops"], True)[1]
            if entry["traced"]["restored"] is not True:
                raise BenchError("traced worker left a wrapped name in place")

    # round one takes its share of the time and later rounds re-run its
    # passes; a pass starts only if it should end within that share, so a
    # run lasts about --seconds
    passes, last = [], 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + last <= seconds / rounds:
        began = time.perf_counter()
        passes.append({"ops": next(generator), "runs": []})
        run_pass(passes[-1])
        last = time.perf_counter() - began
    for _ in range(rounds - 1):
        for entry in passes:
            run_pass(entry)
    pooled: dict = {}  # passes with the same ops (every pass of verify) pool their runs
    for entry in passes:
        pooled.setdefault(json.dumps(entry["ops"]), []).extend(entry["runs"])
    for entry in passes:
        entry["untraced"] = best(pooled[json.dumps(entry["ops"])])
    probe = spawn(list(workloads.LIMIT_PROBE), False)[1]["records"] if trace else []

    # every untraced run gives verdicts; traced ones and the probe must not
    # give a wrong answer either
    check_start = time.perf_counter()
    pairs = {"untraced": [(op, rec) for p in passes for r in p["runs"]
                          for op, rec in zip(p["ops"], r["records"])]}
    if trace:
        pairs["traced"] = [(op, rec) for p in passes
                           for op, rec in zip(p["ops"], p["traced"]["records"])]
        pairs["probe"] = list(zip(workloads.LIMIT_PROBE, probe))
    marks = {}
    if workload == "verify":
        marks = {key: [v for _, rec in pairs.pop(key) for v in judge_verify(rec)]
                 for key in ("untraced", "traced") if key in pairs}
    items = [pair for key in pairs for pair in pairs[key]]
    flat = iter(judge([op for op, _ in items], [rec for _, rec in items]))
    marks.update({key: [next(flat) for _ in pairs[key]] for key in pairs})
    verdicts = marks["untraced"]
    wrong = sum(m.count("wrong") for m in marks.values())
    check_s = time.perf_counter() - check_start

    if trace:
        values = per_layer(passes)
        values["cli.limit_probe_failed"] = sum(rec["rc"] != 0 for rec in probe)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(passes, setups, verdicts, rounds)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    latencies = [r["ms"] for p in passes for r in p["untraced"]["records"]]
    p90 = quantile(latencies, 90)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "runs_per_pass": rounds,
        "ops_digest": workloads.digest([p["ops"] for p in passes]),
        **machine(),
        "attempted": len(verdicts),
        "failed": len(verdicts) - verdicts.count("ok"),
        "wrong": wrong,
        "check_s": check_s,
        "error_frac": 1 - verdicts.count("ok") / len(verdicts),
        "latency_samples": len(latencies),
        "beyond_p90": sum(x > p90 for x in latencies),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "layers": values if trace else None,
        "passes_detail": passes if trace else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # run the finally blocks that stop a worker when the run itself is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.set_int_max_str_digits(0)  # the checker reads outputs of any size; workers keep the default
    sys.path.insert(0, str(ROOT / "src"))
    if not (ROOT / "src" / "wsegre" / "__init__.py").is_file():
        print(f"perfbench: no wsegre sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes = result.pop("passes_detail")
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        spans_out = [{"ops": p["ops"], "spans": p["traced"]["spans"], "counts": p["traced"]["counts"]}
                     for p in passes]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans_out))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['passes']} passes x {result['runs_per_pass']} runs, {result['attempted']} attempted, {result['failed']} failed "
          f"(error_frac {result['error_frac']:.4f}), {result['wrong']} wrong, "
          f"checked in {result['check_s']:.1f} s")
    print(f"  ops sha256 {result['ops_digest']}  python {result['python']}  "
          f"nproc {result['nproc']}  cpu {result['cpu']}")
    print(f"  latency samples {result['latency_samples']}, {result['beyond_p90']} beyond p90")
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
