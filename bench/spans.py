"""Spans around the calls into survcmp's modules, and per-layer figures from them.

The tracer wraps each listed public function (and the simulator's data
generator) where the package binds it, in every loaded ``survcmp`` module,
so calls made through ``from .x import f`` are seen too.  The program's
files are not changed, and :meth:`Tracer.uninstall` restores every binding.
A span is (id, name, parent, op, start, end, attrs); spans stay in memory
until :meth:`Tracer.dump` writes them as JSON lines.
"""

from __future__ import annotations

import json
import statistics
import sys
import tracemalloc
from time import perf_counter

# (module, function, attrs from (args, kwargs, result)); the span is "module.function"
TARGETS = [
    ("cli", "main", None),
    ("datasets", "ingest_csv", lambda a, kw, r: {"rows": int(r[0].n + r[1].n)}),
    ("survival", "kaplan_meier", None),
    ("effect", "mann_whitney_effect", None),
    ("effect", "effect_from_fits", None),
    ("variance", "variance_estimate", None),
    ("variance", "variance_from_fits", None),
    ("variance", "sigma2_jk", lambda a, kw, r: {"cells": _quadform_cells(a, kw)}),
    ("inference", "asymptotic_ci", None),
    ("rng", "stream", None),
    ("_engine", "batch_context", None),
    ("_engine", "bootstrap_indices", None),
    ("_engine", "permutation_indices", None),
    ("_engine", "batch_statistics", lambda a, kw, r: {"rows": int(a[1].shape[0])}),
    ("resampling", "replicate_set", lambda a, kw, r: {
        "scheme": a[1].scheme, "b": int(a[1].b), "dropped": int(r.dropped)}),
    ("resampling", "replicate_quantile", None),
    ("resampling", "resampling_ci", None),
    ("simulate", "coverage_study", None),
    ("simulate", "_generate", None),
    ("simulate", "calibrate_censoring", None),
    ("simulate", "true_effect", None),
]

# span name -> layer whose self time it adds to
LAYER_OF = {
    "cli.main": "cli.self_s",
    "datasets.ingest_csv": "datasets.ingest_s",
    "survival.kaplan_meier": "survival.km_fit_s",
    "effect.mann_whitney_effect": "effect.effect_s",
    "effect.effect_from_fits": "effect.effect_s",
    "variance.variance_estimate": "variance.variance_s",
    "variance.variance_from_fits": "variance.variance_s",
    "variance.sigma2_jk": "variance.variance_s",
    "inference.asymptotic_ci": "inference.self_s",
    "rng.stream": "rng.stream_s",
    "_engine.batch_context": "engine.context_s",
    "_engine.bootstrap_indices": "engine.index_draw_s",
    "_engine.permutation_indices": "engine.index_draw_s",
    "_engine.batch_statistics": "engine.batch_s",
    "resampling.replicate_set": "resampling.self_s",
    "resampling.resampling_ci": "resampling.self_s",
    "resampling.replicate_quantile": "resampling.quantile_s",
    "simulate._generate": "simulate.generate_s",
}
SETUP_LAYERS = {"simulate.calibrate_censoring": "simulate.calibrate_s",
                "simulate.true_effect": "simulate.true_effect_s"}
ROOT = "bench.op"


def _quadform_cells(args, kwargs) -> int:
    # sigma2_jk(kernel_j, fit_k, boundary=False) sums an m x m table,
    # m = fit_k's jumps plus the boundary atom
    fit_k = args[1] if len(args) > 1 else kwargs["fit_k"]
    boundary = args[2] if len(args) > 2 else kwargs.get("boundary", False)
    m = int(fit_k.survival.jump_times.size) + (1 if boundary else 0)
    return m * m


def patch(package: str, targets, make_wrapper) -> list[tuple]:
    """Rebind each target wherever a loaded module of the package holds it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    patches = []
    for mod_name, fn_name, attrs in targets:
        home = sys.modules.get(f"{package}.{mod_name}")
        original = getattr(home, fn_name, None) if home is not None else None
        if original is None:
            continue
        wrapper = make_wrapper(f"{mod_name}.{fn_name}", original, attrs)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    patches.append((mod, attr, original))
    return patches


def unpatch(patches) -> None:
    for mod, attr, original in reversed(patches):
        setattr(mod, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.op = None

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [len(spans), name, stack[-1] if stack else None, self.op, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                rec[4] = start
                stack.pop()
            if attrs is not None:
                rec[6] = attrs(args, kwargs, result)
            return result
        return wrapper

    def install(self, package: str = "survcmp") -> None:
        self._patches = patch(package, TARGETS, self._wrap)

    def uninstall(self) -> None:
        unpatch(self._patches)
        self._patches = []

    def run_op(self, op_id, fn):
        """Run one operation under a root span; returns its result."""
        self.op = op_id
        rec = [len(self.spans), ROOT, None, op_id, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        start = perf_counter()
        try:
            return fn()
        finally:
            rec[5] = perf_counter()
            rec[4] = start
            self._stack.pop()
            self.op = None

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, parent, op, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent, "op": op,
                                     "start": start, "end": end, "attrs": attrs}) + "\n")


def variance_peak_alloc_mb(package: str, fn) -> float:
    """Largest tracemalloc peak of one variance call while fn() runs, in MB."""
    peaks = []
    depth = [0]

    def measured(original):
        def wrapper(*args, **kwargs):
            outer = depth[0] == 0
            if outer:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1
                if outer:
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return wrapper

    patches = patch(package, [t for t in TARGETS if t[0] == "variance" and t[1] in
                              ("variance_estimate", "variance_from_fits")],
                    lambda name, original, attrs: measured(original))
    tracemalloc.start()
    try:
        fn()
    finally:
        tracemalloc.stop()
        unpatch(patches)
    return max(peaks) / 2**20 if peaks else 0.0


def layer_metrics(spans, n_ops: int, untraced_p50: float) -> dict[str, float]:
    """Per-operation layer figures from the spans of n_ops traced operations."""
    by_id = {rec[0]: rec for rec in spans}
    child_time: dict[int, float] = {}
    for sid, name, parent, op, start, end, attrs in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def layer_of(rec):
        return rec[1].split(".")[0]

    def outermost(rec):
        parent = by_id.get(rec[2])
        return parent is None or layer_of(parent) != layer_of(rec)

    def scheme_of(rec):
        while rec is not None:
            if rec[1] == "resampling.replicate_set":
                return rec[6]["scheme"]
            rec = by_id.get(rec[2])
        return None

    totals = {name: 0.0 for name in set(LAYER_OF.values()) | set(SETUP_LAYERS.values())}
    counts = {"datasets.rows": 0, "survival.km_fits": 0, "effect.calls": 0,
              "variance.calls": 0, "variance.quadform_cells": 0, "rng.streams": 0,
              "engine.blocks": 0, "resampling.replicate_sets": 0,
              "resampling.replicates": 0, "resampling.dropped": 0}
    engine = {"bootstrap": [0.0, 0], "permutation": [0.0, 0]}
    per_op_covered: dict[int, float] = {}
    per_op_total: dict[int, float] = {}
    for rec in spans:
        sid, name, parent, op, start, end, attrs = rec
        dur = end - start
        self_time = dur - child_time.get(sid, 0.0)
        if name == ROOT:
            per_op_total[op] = dur
            per_op_covered[op] = child_time.get(sid, 0.0)
            continue
        if op is None:
            if name in SETUP_LAYERS:
                totals[SETUP_LAYERS[name]] += self_time
            continue
        if name in LAYER_OF:
            totals[LAYER_OF[name]] += self_time
        if name == "datasets.ingest_csv":
            counts["datasets.rows"] += attrs["rows"]
        elif name == "survival.kaplan_meier":
            counts["survival.km_fits"] += 1
        elif name == "variance.sigma2_jk":
            counts["variance.quadform_cells"] += attrs["cells"]
        elif name == "rng.stream":
            counts["rng.streams"] += 1
        elif name == "resampling.replicate_set":
            counts["resampling.replicate_sets"] += 1
            counts["resampling.replicates"] += attrs["b"]
            counts["resampling.dropped"] += attrs["dropped"]
        if name == "_engine.batch_statistics":
            counts["engine.blocks"] += 1
        scheme = engine.get(scheme_of(rec)) if name.startswith("_engine.") else None
        if scheme is not None and name != "_engine.batch_context":
            # index draw and batch evaluation, per replicate of the scheme
            scheme[0] += dur
            scheme[1] += attrs["rows"] if name == "_engine.batch_statistics" else 0
        if outermost(rec) and name.startswith("effect."):
            counts["effect.calls"] += 1
        if outermost(rec) and name in ("variance.variance_estimate",
                                       "variance.variance_from_fits"):
            counts["variance.calls"] += 1

    out = {}
    for name, total in totals.items():
        out[name] = total if name in SETUP_LAYERS.values() else total / n_ops
    rows = counts.pop("datasets.rows")
    out["datasets.rows_per_s"] = rows / totals["datasets.ingest_s"] if rows else 0.0
    for name, count in counts.items():
        out[name] = count / n_ops
    for scheme, (seconds, reps) in engine.items():
        out[f"engine.{scheme}_us_per_replicate"] = 1e6 * seconds / reps if reps else 0.0
    # layer self times plus the unattributed part make up the traced
    # operation; less the tracing overhead, the untraced one
    out["bench.unattributed_s"] = statistics.median(
        per_op_total[op] - per_op_covered[op] for op in per_op_total)
    out["bench.tracing_overhead_s"] = statistics.median(per_op_total.values()) - untraced_p50
    return out
