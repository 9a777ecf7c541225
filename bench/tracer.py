"""Per-layer spans and counters for a traced benchmark round.

The tracer wraps every public function of each `convexparts` module (names
without a leading underscore, defined in that module) and rebinds the
wrapper at every module attribute that holds the original, so names imported
into other modules (`partitions.hulls_common_point`, `partitions.pmap`,
`geometry.lp_feasible`, ...) are traced too. Nothing under `src/` changes.

A span is one call of a wrapped function, or one resume of a wrapped
generator. A layer's self time is the sum of its spans' durations minus the
time covered by their child spans. Spans live in memory only; the counters
below are derived from call arguments and results at the same boundaries.

Pool workers inherit the wrappers when they fork; the tracer restores the
original functions in the child, so workers run untraced code and their work
shows only as the parent's `parallel.*` numbers and the children's CPU time
from rusage.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pickle
import time
from collections import Counter, defaultdict

# Modules traced as layers, in dependency order. The leaf utilities
# (rational, rng, errors) are not wrapped: they run per coordinate, and their
# time counts as self time of the layer that calls them.
LAYERS = ("linprog", "geometry", "combinat", "setsystems",
          "ranges", "partitions", "parallel", "constructions", "abstract",
          "serialize", "cli")

# Entry points of the partition searches; nested calls count once.
_SEARCHES = frozenset({"good_radon_partition", "good_tverberg_partition",
                       "st_separable", "st_separability_report",
                       "joint_cover_empty"})
_REALIZABILITY = frozenset({"count_realizable", "is_r_shattered"})


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []                      # [start, child_seconds] per open span
        self.self_s = defaultdict(float)     # layer -> self seconds
        self.outer_s = defaultdict(float)    # "layer.fn" -> outermost inclusive seconds
        self.depth = Counter()               # "layer.fn" -> open spans
        self.calls = Counter()               # "layer.fn" -> calls
        self.counts = Counter()              # derived counters
        self.search_depth = 0
        self._wrapped = []                   # (module, attribute, original)
        os.register_at_fork(after_in_child=self.uninstall)

    # ------------------------------------------------------------- spans

    def _enter(self, key):
        self.calls[key] += 1
        self.depth[key] += 1
        self.stack.append([time.perf_counter(), 0.0])

    def _exit(self, layer, key):
        start, children = self.stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - children
        if self.stack:
            self.stack[-1][1] += duration
        self.depth[key] -= 1
        if not self.depth[key]:
            self.outer_s[key] += duration

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        before, after = _HOOKS.get(key, (None, None))
        search = layer == "partitions" and name in _SEARCHES
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                tracer.calls[key] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        tracer._enter(key + ".resume")
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(layer, key + ".resume")
                        tracer.counts[key + ".yielded"] += 1
                        yield item
                finally:
                    inner.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(tracer, args, kwargs)
            if search:
                if not tracer.search_depth:
                    tracer.counts["partitions.searches"] += 1
                tracer.search_depth += 1
            tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, key)
                if search:
                    tracer.search_depth -= 1
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        return wrapper

    # ---------------------------------------------------------- install

    def install(self):
        """Rebind wrappers everywhere the originals are reachable."""
        modules = {layer: importlib.import_module(f"convexparts.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._wrapped.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        self.active = True

    def uninstall(self):
        self.active = False
        for mod, attr, obj in reversed(self._wrapped):
            setattr(mod, attr, obj)
        self._wrapped.clear()

    # ----------------------------------------------------------- report

    def layer_metrics(self) -> dict:
        """Raw per-layer numbers, before division into per-round values."""
        c, calls = self.counts, self.calls
        lp = calls["linprog.lp_feasible"]
        hulls = calls["geometry.hulls_common_point"]
        searches = c["partitions.searches"]
        out = {
            "linprog.calls": lp,
            "linprog.cells": c["linprog.cells"],
            "linprog.infeasible_frac": c["linprog.infeasible"] / lp if lp else 0.0,
            "linprog.check_farkas.calls": calls["linprog.check_farkas"],
            "geometry.hull_queries": hulls,
            "geometry.meet_frac": c["geometry.meets"] / hulls if hulls else 0.0,
            "geometry.separator.calls": calls["geometry.strict_separator"],
            "partitions.searches": searches,
            "partitions.hull_queries_per_search":
                c["partitions.hull_queries"] / searches if searches else 0.0,
            "combinat.partitions_yielded": c["combinat.rgs_partitions.yielded"],
            "parallel.pmap.calls": calls["parallel.pmap"],
            "parallel.pools": c["parallel.pools"],
            "parallel.items": c["parallel.items"],
            "parallel.pickled_bytes": c["parallel.pickled_bytes"],
            "parallel.pmap_s": self.outer_s["parallel.pmap"],
            "constructions.colorings": c["constructions.colorings"],
            "ranges.traces.calls": calls["ranges.halfspace_traces"],
            "setsystems.realizability_calls":
                sum(calls[f"setsystems.{n}"] for n in _REALIZABILITY),
            "abstract.calls": sum(v for k, v in calls.items()
                                  if k.startswith("abstract.")),
            "serialize.bytes_out": c["serialize.bytes_out"],
            "serialize.check_certificate.calls": calls["serialize.check_certificate"],
            "serialize.check_certificate_s": self.outer_s["serialize.check_certificate"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out


# ------------------------------------------------------------------- hooks
# before(tracer, args, kwargs) -> args   runs before the span opens
# after(tracer, args, kwargs, result)    runs after the span closes

def _lp_before(tracer, args, kwargs):
    constraints = list(args[0])
    rows = sum(2 if rel == "==" else 1 for _, rel, _ in constraints)
    nvars = kwargs.get("nvars", args[1] if len(args) > 1 else None)
    if nvars is None and constraints:
        nvars = len(constraints[0][0])
    tracer.counts["linprog.cells"] += rows * (nvars or 0)
    return (constraints,) + tuple(args[1:])


def _lp_after(tracer, args, kwargs, result):
    if not result.feasible:
        tracer.counts["linprog.infeasible"] += 1


def _hull_after(tracer, args, kwargs, result):
    if result:
        tracer.counts["geometry.meets"] += 1
    if tracer.search_depth:
        tracer.counts["partitions.hull_queries"] += 1


def _pmap_before(tracer, args, kwargs):
    fn, items = args[0], list(args[1])
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    tracer.counts["parallel.items"] += len(items)
    if jobs > 1 and len(items) > 1:
        tracer.counts["parallel.pools"] += 1
        tracer.counts["parallel.pickled_bytes"] += sum(
            len(pickle.dumps(item)) for item in items)
    return (fn, items) + tuple(args[2:])


def _colorings_after(tracer, args, kwargs, result):
    tracer.counts["constructions.colorings"] += result.verified


def _bytes_after(tracer, args, kwargs, result):
    tracer.counts["serialize.bytes_out"] += len(result)


def _text_after(tracer, args, kwargs, result):
    tracer.counts["serialize.bytes_out"] += len(result.encode("utf-8"))


_HOOKS = {
    "linprog.lp_feasible": (_lp_before, _lp_after),
    "geometry.hulls_common_point": (None, _hull_after),
    "parallel.pmap": (_pmap_before, None),
    "constructions.moment_adversary_exhaustive": (None, _colorings_after),
    "serialize.canonical_bytes": (None, _bytes_after),
    "serialize.canonical_text": (None, _text_after),
}
