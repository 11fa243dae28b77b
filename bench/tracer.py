"""Spans and counters recorded from outside logitlab.

:class:`Tracer` replaces the layers' public functions in the module
namespaces of the running process with wrappers that record a span (name,
start, end, parent) per call. A function is replaced under every name it is
bound to in any logitlab module, so ``from .rng import substream`` in
``forge`` is traced as well as ``rng.substream``. Nothing on disk changes;
:meth:`Tracer.uninstall` restores the originals.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable

# (module, function) pairs whose calls become spans, by layer.
TRACED = (
    ("cli", "main"),
    ("store", "load_matrix"), ("store", "store_matrix"),
    ("store", "load_labels"), ("store", "load_flags"),
    ("stats", "average_overlap"), ("stats", "within_class_permuted_overlap"),
    ("stats", "error_prediction_profile"), ("stats", "confidence_ranks"),
    ("stats", "cosine_neighbors"), ("stats", "max_logit_distribution"),
    ("stats", "gap_distribution"), ("stats", "gap_accuracy_curve"),
    ("stats", "logit_gaps"), ("stats", "softmax"),
    ("forge", "fix_k_permute"), ("forge", "fix_k_average"),
    ("forge", "correct_fix_1"), ("forge", "hybrid_merge"),
    ("rng", "substream"),
    ("surrogate", "admissible"), ("surrogate", "gap_shrinkage"),
    ("surrogate", "mean_field_loss_surface"), ("surrogate", "admissibility_threshold"),
    ("surrogate", "surrogate_logit"),
    ("response", "gap_shift_experiment"), ("response", "fyodorov_omega"),
    ("response", "solve_lambda_star"), ("response", "fgsm_logit_response"),
    ("mftma", "anchor_point"), ("mftma", "mftma_capacity"),
    ("mftma", "empirical_capacity"), ("mftma", "linprog"),
    ("mftma", "project_null_centers"), ("mftma", "center_correlation"),
    ("report", "emit_report"),
)
# store's matrix IO is split by format, so text and binary paths read apart:
# (module, function) -> position of the ``format`` argument.
BY_FORMAT = {("store", "load_matrix"): 1, ("store", "store_matrix"): 2}
FORMATS = ("text", "binary")


def span_names() -> list[str]:
    names = []
    for mod, fn in TRACED:
        base = f"{mod}.{fn}"
        names += [f"{base}.{f}" for f in FORMATS] if (mod, fn) in BY_FORMAT else [base]
    return names


# Counters beside the spans: (name, unit).
COUNTERS = (
    ("store.read_bytes", "B"),
    ("store.write_bytes", "B"),
    ("mftma.linprog.failed", "count"),
    ("response.lambda_star.evals", "count"),
    ("report.svg_files", "count"),
)


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric :func:`layer_metrics` reports, with its unit."""
    units = []
    for name in span_names():
        units += [(f"{name}.self_s", "s"), (f"{name}.calls", "count")]
    return units + list(COUNTERS) + [("mftma.anchor_point.interior_frac", "ratio")]


def layer_metrics(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """Self time and calls per span name, the counters, and the share of
    anchor draws that needed no QP (INTERIOR returns over calls)."""
    own = self_times(spans)
    calls = Counter(span[0] for span in spans)
    metrics = {}
    for name in span_names():
        metrics[f"{name}.self_s"] = own.get(name, 0.0)
        metrics[f"{name}.calls"] = calls[name]
    for name, _ in COUNTERS:
        metrics[name] = counts[name]
    anchors = calls["mftma.anchor_point"]
    metrics["mftma.anchor_point.interior_frac"] = (
        counts["mftma.anchor_point.interior"] / anchors if anchors else 0.0)
    return metrics


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` holds ``(name, start, end, parent)`` tuples where ``parent`` is
    the index of the enclosing span in the list, or -1 for a root.
    """
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - _covered(children.get(i, ()), start, end)
    return dict(out)


def _covered(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Records spans and counters while installed and active."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    def _wrap(self, fn: Callable, name_of: Callable, after: Callable | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx] = (name, start, time.perf_counter(), parent)
                tracer._stack.pop()
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in :data:`TRACED`, under all its bindings."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and k.partition(".")[0] == "logitlab"]
        for mod, fn in TRACED:
            original = getattr(sys.modules[f"logitlab.{mod}"], fn)
            label = f"{mod}.{fn}"
            if (mod, fn) in BY_FORMAT:
                name_of = _format_name(label, BY_FORMAT[mod, fn])
            else:
                name_of = lambda args, kwargs, label=label: label  # noqa: E731
            wrapper = self._wrap(original, name_of, _AFTER.get(label))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, original))
        response = sys.modules["logitlab.response"]
        self._restore.append((response, "brentq", response.brentq))
        response.brentq = self._counting_root_finder(response.brentq)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore = []

    def _counting_root_finder(self, brentq: Callable) -> Callable:
        """brentq whose objective counts its evaluations while active."""
        tracer = self

        def counted(f, *args, **kwargs):
            def objective(x, *fargs):
                if tracer.active:
                    tracer.counts["response.lambda_star.evals"] += 1
                return f(x, *fargs)
            return brentq(objective, *args, **kwargs)

        return counted


def _format_name(label: str, position: int) -> Callable:
    def name_of(args, kwargs) -> str:
        fmt = args[position] if len(args) > position else kwargs.get("format", "binary")
        return f"{label}.{fmt}"
    return name_of


def _read_size(counts, args, kwargs, result) -> None:
    counts["store.read_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _write_size(counts, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["store.write_bytes"] += os.path.getsize(path)


def _anchor(counts, args, kwargs, result) -> None:
    counts["mftma.anchor_point.interior"] += result[0] is None


def _linprog(counts, args, kwargs, result) -> None:
    counts["mftma.linprog.failed"] += not result.success


def _svgs(counts, args, kwargs, result) -> None:
    counts["report.svg_files"] += len(result)


_AFTER = {
    "store.load_matrix": _read_size,
    "store.load_labels": _read_size,
    "store.load_flags": _read_size,
    "store.store_matrix": _write_size,
    "mftma.anchor_point": _anchor,
    "mftma.linprog": _linprog,
    "report.emit_report": _svgs,
}
