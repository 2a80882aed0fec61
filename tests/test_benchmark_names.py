"""The functions the benchmark's per-layer metrics name exist.

A per-layer metric ``<layer>.<function>.<metric>`` in ``BENCHMARK.json`` is
read from the spans that a traced run (``perfbench/run.py --trace 1``)
records around the public functions of ``wsegre.<layer>``.  Renaming or
deleting one of those functions leaves the metric unmeasured, so each name
is checked here.  Suite tags (``checks.<suite>.ms``) and aggregate counters
(two-part names such as ``cli.self_ms``) name no function and are skipped.
"""

import importlib
import inspect
import json
import pathlib

from wsegre.checks import SUITE_NAMES

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _named_functions():
    names = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and not (parts[0] == "checks" and parts[1] in SUITE_NAMES):
            names.add((parts[0], parts[1]))
    return sorted(names)


def test_per_layer_metrics_name_public_functions_of_their_layer():
    named = _named_functions()
    assert len(named) >= 41
    missing = []
    for layer, function in named:
        module = importlib.import_module(f"wsegre.{layer}")
        fn = getattr(module, function, None)
        defined_here = inspect.isfunction(fn) and fn.__module__ == module.__name__
        if function.startswith("_") or not defined_here:
            missing.append(f"{layer}.{function}")
    assert missing == []
