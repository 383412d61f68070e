"""In-memory span tracing around the public names each ldprobust layer calls.

Tracing is installed from outside the library: while `Tracer.active()` is
entered, each entry of WRAPS replaces a module attribute (the binding the
caller looks up at call time) with a wrapper that records a span; on exit
the originals are put back.  Only public names are wrapped.  A name, or a
result attribute, that a later version of the library no longer has is
skipped (wrap targets are listed in `missing`), and the metrics that depend
on it then read 0.

A span is [name, parent index, start, end] with perf_counter times.  Spans
nest strictly because the traced run is single-process and single-threaded,
so a span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module whose attribute the caller looks up, attribute, span name).  The
# span name is "<layer>.<function>", the layer being the module that defines
# the function.
WRAPS = (
    ("harness", "make_clean_collection", "adversary.make_clean_collection"),
    ("harness", "contaminate", "adversary.contaminate"),
    ("harness", "robust_estimate", "estimator.robust_estimate"),
    ("harness", "naive_estimate", "estimator.naive_estimate"),
    ("harness", "hard_pair", "lowerbound.hard_pair"),
    ("harness", "write_csv", "harness.write_csv"),
    ("adversary", "attack_batch", "adversary.attack_batch"),
    ("adversary", "sample_privatized", "channel.sample_privatized"),
    ("adversary", "privatize_batch", "channel.privatize_batch"),
    ("adversary", "BatchCollection.batch_digests", "adversary.batch_digests"),
    ("estimator", "all_batch_means", "estimator.batch_means"),
    ("estimator", "score_collection", "estimator.score_collection"),
    ("estimator", "build_cov_bundle", "estimator.build_cov_bundle"),
    ("estimator", "gram_maximize", "gram.gram_maximize"),
    ("gram", "gram_maximize", "gram.gram_maximize"),
    ("gram", "subset_bilinear_max", "gram.subset_bilinear_max"),
    ("gram", "sandwich_check", "gram.sandwich_check"),
)

LAYERS = ("channel", "adversary", "estimator", "gram", "lowerbound", "harness")


def _nbytes_mb(obj) -> float:
    """Computed size of the numpy arrays an object holds as attributes, in MB."""
    return sum(v.nbytes for v in getattr(obj, "__dict__", {}).values()
               if isinstance(v, np.ndarray)) / 2**20


class Tracer:
    """Records spans and result-derived gauges while active."""

    def __init__(self, modules: dict):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.gauges: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        observers = {
            "estimator.build_cov_bundle":
                lambda r: self.gauges["cov_bundle_mb"].append(_nbytes_mb(r)),
            "adversary.make_clean_collection":
                lambda r: self.gauges["collection_mb"].append(_nbytes_mb(r)),
            "adversary.contaminate":
                lambda r: self.gauges["collection_mb"].append(_nbytes_mb(r)),
            "gram.gram_maximize": self._record_sweeps,
        }
        self._patches = []
        for mod_name, attr, span in WRAPS:
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, span, observers.get(span))
            self._patches.append((owner, leaf, original, wrapper))

    def _record_sweeps(self, solution) -> None:
        history = getattr(solution, "history", None)
        if history:
            self.gauges["best_half_sweeps"].append(len(history) - 1)

    @contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        for owner, leaf, _, wrapper in self._patches:
            setattr(owner, leaf, wrapper)
        try:
            yield self
        finally:
            for owner, leaf, original, _ in self._patches:
                setattr(owner, leaf, original)

    def _wrap(self, fn, name, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Inclusive ms, self ms and call count per span name; self ms per layer."""
        incl = defaultdict(float)
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        child_ms = defaultdict(float)
        top_ms = 0.0
        for idx in range(len(self.spans) - 1, -1, -1):
            name, parent, start, end = self.spans[idx]
            dur = (end - start) * 1e3
            incl[name] += dur
            calls[name] += 1
            self_ms[name] += dur - child_ms.pop(idx, 0.0)
            if parent >= 0:
                child_ms[parent] += dur
            else:
                top_ms += dur
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, ms in self_ms.items():
            layer_self[name.split(".", 1)[0]] += ms
        return {"incl_ms": dict(incl), "self_ms": dict(self_ms),
                "calls": dict(calls), "layer_self_ms": layer_self,
                "top_level_ms": top_ms}


def layer_metrics(tracer: Tracer, ops: int, traced_s: float, untraced_s: float,
                  trials: list, margins: list) -> dict:
    """Per-layer metrics of one traced phase; times and counts are per operation."""
    s = tracer.summary()
    incl, selfms, calls = s["incl_ms"], s["self_ms"], s["calls"]

    def per_op(table, name):
        return table.get(name, 0.0) / ops

    g = tracer.gauges
    deleted_good = sum(t.deleted_good for t in trials)
    deleted_bad = sum(t.deleted_bad for t in trials)
    deleted = deleted_good + deleted_bad
    n_trials = max(len(trials), 1)
    values = {
        "adversary.contaminate_ms": (per_op(incl, "adversary.contaminate"), "ms"),
        "adversary.attack_batch_calls": (per_op(calls, "adversary.attack_batch"), "count"),
        "channel.sample_privatized_calls": (per_op(calls, "channel.sample_privatized"), "count"),
        "channel.sample_privatized_ms": (per_op(incl, "channel.sample_privatized"), "ms"),
        "estimator.filter_self_ms": (per_op(selfms, "estimator.robust_estimate"), "ms"),
        "adversary.batch_digests_ms": (per_op(incl, "adversary.batch_digests"), "ms"),
        "estimator.iterations": (sum(t.iterations for t in trials) / n_trials, "count"),
        "estimator.build_cov_bundle_ms": (per_op(incl, "estimator.build_cov_bundle"), "ms"),
        "estimator.score_self_ms": (per_op(selfms, "estimator.score_collection"), "ms"),
        "estimator.batch_means_ms": (per_op(incl, "estimator.batch_means"), "ms"),
        "estimator.cov_bundle_mb": (max(g["cov_bundle_mb"], default=0.0), "MB"),
        "adversary.make_clean_collection_ms":
            (per_op(incl, "adversary.make_clean_collection"), "ms"),
        "adversary.collection_mb": (max(g["collection_mb"], default=0.0), "MB"),
        "gram.gram_maximize_ms": (per_op(incl, "gram.gram_maximize"), "ms"),
        "gram.calls": (per_op(calls, "gram.gram_maximize"), "count"),
        "gram.best_half_sweeps": (float(np.mean(g["best_half_sweeps"]))
                                  if g["best_half_sweeps"] else 0.0, "count"),
        "gram.subset_bilinear_max_ms": (per_op(incl, "gram.subset_bilinear_max"), "ms"),
        "gram.min_lower_margin": (min(margins, default=0.0), "margin"),
        "lowerbound.hard_pair_ms": (per_op(incl, "lowerbound.hard_pair"), "ms"),
        "lowerbound.hard_pair_calls": (per_op(calls, "lowerbound.hard_pair"), "count"),
        "estimator.naive_estimate_ms": (per_op(incl, "estimator.naive_estimate"), "ms"),
        "harness.write_csv_ms": (per_op(incl, "harness.write_csv"), "ms"),
        "estimator.deleted_good": (deleted_good / n_trials, "count"),
        "estimator.deleted_bad": (deleted_bad / n_trials, "count"),
        "estimator.deletion_precision": (deleted_bad / deleted if deleted else 0.0, "ratio"),
    }
    for layer, ms in s["layer_self_ms"].items():
        values[f"{layer}.self_ms"] = (ms / ops, "ms")
    values["trace.coverage"] = (s["top_level_ms"] / (traced_s * 1e3), "ratio")
    values["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    bad = [name for name, (v, _) in values.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite per-layer metrics: {bad}")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
