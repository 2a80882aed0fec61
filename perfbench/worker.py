"""Benchmark worker: runs one pass of ops against ``wsegre.cli.main`` in
process and reports each op's exit code, latency and captured output.

Usage: python3 perfbench/worker.py <checkout root>

The worker imports ``wsegre`` from ``<root>/src`` and builds the CLI parser,
then prints ``READY``; the time until then is the set-up time.  It then
reads one json job from stdin, ``{"ops": [argv, ...], "trace": bool}``,
runs the ops and writes one json result to stdout.  A traced job wraps the
layer functions for the whole pass and restores them before reporting.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def run_ops(main, ops: list) -> list[dict]:
    """Call ``main(argv)`` for each op with stdout and stderr captured."""
    records = []
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc, error = None, f"{type(exc).__name__}: {exc}"[:300]
        ms = (time.perf_counter() - start) * 1e3
        records.append({"rc": rc, "ms": ms, "out": out.getvalue(),
                        "err": err.getvalue()[-300:], "error": error})
    return records


def main() -> int:
    root = os.path.abspath(sys.argv[1])
    sys.path.insert(0, os.path.join(root, "src"))
    from wsegre import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src")):
        print(f"worker: imported wsegre from {cli.__file__}, not {root}", file=sys.stderr)
        return 2
    cli.build_parser()
    print("READY", flush=True)

    job = json.load(sys.stdin)
    tracer = patches = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        patches = spans.install(tracer)
    start = time.perf_counter()
    try:
        # look main up through the module so a traced pass calls the wrapper
        records = run_ops(lambda argv: cli.main(argv), job["ops"])
    finally:
        restored = spans.restore(patches) if tracer else None
    wall_s = time.perf_counter() - start
    result = {
        "records": records,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "restored": restored,
    }
    if tracer:
        result.update(wrapped=tracer.wrapped, spans=tracer.spans, counts=tracer.counts,
                      result_bits_max=tracer.result_bits_max,
                      sum_calls=tracer.sum_calls, sum_repeats=tracer.sum_repeats)
    json.dump(result, sys.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
