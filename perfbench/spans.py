"""In-memory span tracing of locstruct's layers, installed from outside.

The library has no timers of its own, so a traced pass swaps each layer's
entry point for a wrapper that opens a span around the call. Functions are
replaced wherever a ``locstruct`` module binds them (``from .kernels import
gram_matrix`` makes a second binding), methods on their class, and
``scipy.linalg.cho_factor`` only inside ``locstruct`` modules. ``uninstall``
puts every original back, so untraced passes run the library untouched.

A span records its name, start, end, parent and pass id. Counts are attached
to the span where the work happens. ``extract_part`` runs hundreds of
thousands of times per pass, so it is a leaf tally (calls and seconds) on the
enclosing span instead of a span of its own. A span's self time is its
duration minus its children's durations and its leaf time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time

import numpy as np
from locstruct.parts import part_weights

# Layers in the order the tables print them. "bench" is the self time of
# the synthetic-study code, "other" is the benchmark's own glue.
LAYERS = ("parts", "kernels", "training", "decoder", "losses", "locality",
          "modelio", "cli", "bench", "other")

# Every per-layer metric a traced run reports, with its unit. A layer a
# workload never calls reads 0.
PER_LAYER = {
    "parts.extract_s": "s", "parts.extract_calls": "count",
    "kernels.gram_s": "s", "kernels.gram_entries": "count",
    "kernels.cross_s": "s", "kernels.cross_entries": "count",
    "training.aux_s": "s", "training.m": "count", "training.jitter_fits": "count",
    "training.factor_s": "s", "training.factor_count": "count",
    "training.factor_gflop": "gflop", "training.factor_gflops": "gflop/s",
    "decoder.dual_s": "s",
    "decoder.closed_form_s": "s", "decoder.readout_self_s": "s",
    "decoder.exact_s": "s", "decoder.exact_candidates": "count",
    "decoder.exact_loss_evals": "count",
    "decoder.sgm_s": "s", "decoder.sgm_iterations": "count",
    "decoder.degenerate_warnings": "count",
    "losses.score_s": "s", "losses.part_loss_evals": "count",
    "locality.cov_map_s": "s", "locality.cells": "count",
    "locality.similarity_entries": "count",
    "bench.cell_global_ls_s": "s", "bench.cell_independent_parts_ls_s": "s",
    "bench.cell_local_ls_s": "s", "bench.cell_local_delta_s": "s",
    "bench.nan_rows": "count",
    "modelio.read_dataset_s": "s", "modelio.save_model_s": "s",
    "modelio.load_model_s": "s", "modelio.model_bytes": "bytes",
    "cli.train_s": "s", "cli.predict_s": "s",
    "trace.traced_pass_s": "s", "trace.untraced_pass_s": "s", "trace.overhead_s": "s",
}

# Counts that report a largest value, not a total.
_MAX_COUNTS = {"training.m"}


class Span:
    __slots__ = ("id", "parent", "pass_id", "name", "start", "end", "child_s",
                 "leaf_calls", "leaf_s", "counts", "outermost")

    def __init__(self, id_, parent, pass_id, name, start, outermost):
        self.id = id_
        self.parent = parent
        self.pass_id = pass_id
        self.name = name
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.leaf_calls = 0
        self.leaf_s = 0.0
        self.counts = {}
        self.outermost = outermost

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.leaf_s

    def to_json(self) -> dict:
        d = {"id": self.id, "parent": self.parent, "pass": self.pass_id, "name": self.name,
             "start": self.start, "end": self.end, "self_s": self.self_s}
        if self.leaf_calls:
            d["parts.extract"] = {"calls": self.leaf_calls, "s": self.leaf_s}
        if self.counts:
            d["counts"] = self.counts
        return d


class NullTracer:
    """Stand-in for untraced passes: spans cost one no-op context manager."""

    _ctx = contextlib.nullcontext()

    def span(self, name: str):
        return self._ctx


NULL = NullTracer()


class Tracer:
    """Spans of one run, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = -1
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        outermost = all(s.name != name for s in self._stack)
        span = Span(len(self.spans), parent, self.pass_id, name, time.perf_counter(), outermost)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def _leaf(self, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    top = stack[-1]
                    top.leaf_calls += 1
                    top.leaf_s += clock() - t0
        return wrapper

    def _spanned(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.counts.update(counter(args, result))
                return result
            finally:
                tracer.end(span)
        return wrapper

    # -- hooks into the library ---------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point listed in ``_HOOKS``.

        A hook point that no longer resolves is an error: left unwrapped, its
        metrics would read 0, which looks like the layer's cost collapsed.
        """
        if self._patches:
            raise RuntimeError("tracer hooks already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "locstruct" or n.startswith("locstruct."))]
        for module_name, attr, name, counter in _HOOKS:
            owner = importlib.import_module(module_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = cls.__dict__.get(meth) if cls is not None else None
            else:
                original = getattr(owner, attr, None)
            if original is None:
                self.uninstall()
                raise LookupError(f"hook point {module_name}.{attr} not found; "
                                  "update the hook table in spans.py")
            if cls_name:
                self._patch(cls, meth, original, self._spanned(original, name, counter))
                continue
            wrapper = (self._leaf(original) if name is None
                       else self._spanned(original, name, counter))
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, original, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr, original, wrapper) -> None:
        setattr(target, attr, wrapper)
        self._patches.append((target, attr, original))

    def dump(self) -> list[dict]:
        return [s.to_json() for s in self.spans]


# ---------------------------------------------------------------------------
# Hook table: (module, attribute or Class.method, span name, counter)
# A span name of None makes a leaf tally. Counters get (args, result) and
# return counts keyed by metric name.
# ---------------------------------------------------------------------------

def _gram_counts(args, result):
    n = result.entries.shape[0]
    return {"kernels.gram_entries": n * n}


def _cross_counts(args, result):
    return {"kernels.cross_entries": int(np.size(result))}


def _fit_counts(args, result):
    return {"training.m": result.m, "training.jitter_fits": int(result.jitter > 0)}


def _factor_counts(args, result):
    n = np.shape(args[0])[0]
    return {"training.factor_count": 1, "training.factor_gflop": n**3 / 3.0 / 1e9}


def _exact_counts(args, result):
    req = args[0]
    scheme = req.model.scheme
    candidates = len(req.method.alphabet) ** scheme.seq_len
    active = int(np.count_nonzero(part_weights(req.pi, scheme.num_parts)))
    # computed: every candidate scores each active part against every anchor
    # (a Gaussian restriction kernel leaves no alpha entry exactly zero)
    return {"decoder.exact_candidates": candidates,
            "decoder.exact_loss_evals": candidates * active * req.model.m}


def _sgm_counts(args, result):
    return {"decoder.sgm_iterations": int(args[0].method.iterations)}


def _score_counts(args, result):
    scheme, pi = args[4], args[5]
    return {"losses.part_loss_evals": int(np.count_nonzero(part_weights(pi, scheme.num_parts)))}


def _cov_counts(args, result):
    n = result.n_samples
    P = result.cov_map.shape[0]
    cells = P * (P + 1) // 2
    return {"locality.cells": cells, "locality.similarity_entries": cells * n * n}


def _save_counts(args, result):
    return {"modelio.model_bytes": os.path.getsize(args[1])}


_HOOKS = (
    ("locstruct.parts", "extract_part", None, None),
    ("locstruct.kernels", "gram_matrix", "kernels.gram", _gram_counts),
    ("locstruct.kernels", "cross_matrix", "kernels.cross", _cross_counts),
    ("locstruct.kernels", "PreparedAnchors.cross", "kernels.cross", _cross_counts),
    ("locstruct.training", "generate_auxiliary", "training.aux", None),
    ("locstruct.training", "enumerate_auxiliary", "training.aux", None),
    ("locstruct.training", "fit_alpha", "training.fit", _fit_counts),
    ("locstruct.training", "cho_factor", "training.factor", _factor_counts),
    ("locstruct.decoder", "LeastSquaresDecoder.__init__", "decoder.dual", None),
    ("locstruct.decoder", "AngularDecoder.__init__", "decoder.dual", None),
    ("locstruct.decoder", "LeastSquaresDecoder.decode_batch", "decoder.closed_form", None),
    ("locstruct.decoder", "AngularDecoder.decode_batch", "decoder.closed_form", None),
    ("locstruct.decoder", "decode_exact", "decoder.exact", _exact_counts),
    ("locstruct.decoder", "decode_sgm", "decoder.sgm", _sgm_counts),
    ("locstruct.losses", "structured_loss", "losses.score", _score_counts),
    ("locstruct.locality", "empirical_cov_map", "locality.cov_map", _cov_counts),
    ("locstruct.modelio", "read_dataset", "modelio.read_dataset", None),
    ("locstruct.modelio", "save_model", "modelio.save_model", _save_counts),
    ("locstruct.modelio", "load_model", "modelio.load_model", None),
)


# ---------------------------------------------------------------------------
# Per-pass layer metrics
# ---------------------------------------------------------------------------

def _layer(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "other"


def pass_metrics(spans: list[Span], root: Span, pass_lap) -> dict:
    """Layer totals over the subtree of one pass's root span, with times
    divided by the pass's host slowdown, plus each layer's share of the pass
    time as ``share.<layer>``.

    ``pass_lap.seconds`` is the pass time without the host-speed
    measurements between its segments; they fall in the root's self time
    and are taken out of it."""
    inside = {root.id}
    metrics = {name: 0.0 for name in PER_LAYER}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for span in spans[root.id:]:
        if span.id != root.id and span.parent not in inside:
            continue
        inside.add(span.id)
        self_by_layer[_layer(span.name)] += span.self_s
        self_by_layer["parts"] += span.leaf_s
        metrics["parts.extract_s"] += span.leaf_s
        metrics["parts.extract_calls"] += span.leaf_calls
        if span.name == "decoder.closed_form":
            metrics["decoder.readout_self_s"] += span.self_s
        if not span.outermost:
            continue
        key = span.name + "_s"
        if key in metrics:
            metrics[key] += span.duration
        for k, v in span.counts.items():
            metrics[k] = max(metrics[k], v) if k in _MAX_COUNTS else metrics[k] + v
    for key in metrics:
        if key.endswith("_s"):
            metrics[key] /= pass_lap.slowdown
    if metrics["training.factor_s"] > 0:
        metrics["training.factor_gflops"] = (metrics["training.factor_gflop"]
                                             / metrics["training.factor_s"])
    self_by_layer["other"] -= root.duration - pass_lap.seconds
    for layer, s in self_by_layer.items():
        metrics[f"share.{layer}"] = s / pass_lap.seconds
    return metrics


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
