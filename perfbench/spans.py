"""In-memory spans around the public functions of the ``wsegre`` modules.

``install`` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent index).  A module that
imported a function by name (``bounds`` imports ``sum_repeated``) gets the
wrapper under that name as well, so inner calls are seen.  Generator
functions get a call and item count instead of a span, because their body
runs inside the consumer's span.  ``restore`` puts every original back.

``aggregate`` turns the spans into per-function calls, inclusive and self
time; self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import ModuleType

LAYERS = ("chow", "combinatorics", "jets", "bounds", "oracles", "checks", "cli")
SUMS = ("combinatorics.sum_repeated", "combinatorics.sum_nondecreasing")
BITS = SUMS + ("combinatorics.harmonic",)
TAGGED = {"checks.run_suite": 0}  # span name gets this argument appended


class Tracer:
    """Spans and counters of one traced worker."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.wrapped: list[str] = []
        self.result_bits_max = 0
        self.sum_calls = 0
        self.sum_repeats = 0
        self._stack: list[int] = []
        self._seen_sums: set = set()

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def observe(self, name: str, args: tuple, kwargs: dict, result) -> None:
        if name in BITS:
            bits = max(result.numerator.bit_length(), result.denominator.bit_length())
            self.result_bits_max = max(self.result_bits_max, bits)
        if name in SUMS:
            key = (name, args, tuple(sorted(kwargs.items())))
            self.sum_calls += 1
            if key in self._seen_sums:
                self.sum_repeats += 1
            self._seen_sums.add(key)
        elif name == "bounds.find_min_k":
            k_max = args[1] if len(args) > 1 else kwargs["k_max"]
            self.count("bounds.find_min_k.k_steps", k_max if result is None else result)

    def wrap(self, name: str, fn):
        self.wrapped.append(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                self.count(name + ".calls")
                items = 0
                try:
                    for item in fn(*args, **kwargs):
                        items += 1
                        yield item
                finally:
                    self.count(name + ".items", items)
            return generator

        tag_index = TAGGED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if tag_index is None else f"{name}[{args[tag_index]}]"
            index = len(self.spans)
            span = [label, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            self.observe(name, args, kwargs, result)
            return result
        return traced


def _layer_functions(module: ModuleType) -> dict:
    return {
        attr: value
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    }


def install(tracer: Tracer, package: str = "wsegre") -> list[tuple]:
    """Wrap the public functions of every layer module; return the patches
    as (module, attribute, original) for ``restore``."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, fn in _layer_functions(module).items():
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
    patches = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patches.append((module, attr, value))
    return patches


def restore(patches: list[tuple]) -> bool:
    """Put every original back; True when each name holds its original."""
    for module, attr, original in patches:
        setattr(module, attr, original)
    return all(getattr(module, attr) is original for module, attr, original in patches)


def aggregate(spans: list[list]) -> dict:
    """Per span name: calls, inclusive ``total_ms`` and ``self_ms``."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _), children in zip(spans, child_s):
        row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (end - start) * 1e3
        row["self_ms"] += (end - start - children) * 1e3
    return out
