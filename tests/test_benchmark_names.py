"""The functions the benchmark's per-layer metrics name exist.

A per-layer metric ``<layer>.<function>.<metric>`` in ``BENCHMARK.json`` is
read from the spans that a traced run (``perfbench/run.py --trace 1``)
records around the public functions of ``wsegre.<layer>``.  Renaming or
deleting one of those functions leaves the metric unmeasured, so each name
is checked here.  Suite tags (``checks.<suite>.ms``) and aggregate counters
(two-part names such as ``cli.self_ms``) name no function and are skipped.

The ``combinatorics.sum_*`` spans see a call only when it goes through a
name the tracer patches, so the volume functions must call the public sums
through the names ``bounds`` binds, and ``checks`` must bind
``sum_repeated`` by name.
"""

import importlib
import inspect
import json
import pathlib
from fractions import Fraction

from wsegre import bounds, checks, combinatorics
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


def test_volume_functions_call_the_public_sums_through_bound_names(monkeypatch):
    calls = []
    for name in ("sum_repeated", "sum_nondecreasing"):
        original = getattr(bounds, name)

        def counted(n, k, name=name, original=original):
            calls.append(name)
            return original(n, k)

        monkeypatch.setattr(bounds, name, counted)
    geometry = bounds.GeometryInput(n=3, kd_n=Fraction(9), neg_dn=Fraction(-1))
    bounds.volume_lower_bound(geometry, 5)
    assert sorted(calls) == ["sum_nondecreasing", "sum_repeated"]
    calls.clear()
    bounds.logarithmic_volume(3, 5, Fraction(9))
    assert calls == ["sum_repeated"]
    assert checks.sum_repeated is combinatorics.sum_repeated
