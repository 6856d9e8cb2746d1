"""Spans around the calls into each dsffs module, recorded from outside.

`install` replaces module attributes with timing wrappers. A call is
wrapped in the namespace of the module that makes it: fed_core and
metrics do `from .sparse_net import forward`, so patching
dsffs.sparse_net.forward would see none of their calls. Parents come from
a call stack, which holds only for single-threaded runs (workers=1).

A span is [name, start, end, parent index]. Its self time is its duration
minus the durations of its direct children, so self times over a subtree
add up to the duration of the subtree's root.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

ROOT = "fed_core.run_training"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.global_masks: list[list[np.ndarray]] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a wrapper recording a span per call.

        `after(args, result)` runs once the span is closed, so the counting
        it does is charged to the caller's span, not to this one.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def _self_seconds(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, covered)]

    def self_times(self) -> dict[str, list]:
        """name -> [total self seconds, calls]."""
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (name, *_), own in zip(self.spans, self._self_seconds()):
            totals[name][0] += own
            totals[name][1] += 1
        return totals

    def root_breakdown(self) -> tuple[float, dict[str, float]]:
        """Duration of the run_training span and the self time under it by module."""
        roots = [s for s in self.spans if s[0] == ROOT]
        if len(roots) != 1:
            raise RuntimeError(f"expected one {ROOT} span, found {len(roots)}")
        _, r_start, r_end, _ = roots[0]
        by_module: dict[str, float] = defaultdict(float)
        for (name, start, end, _), own in zip(self.spans, self._self_seconds()):
            if start >= r_start and end <= r_end:
                by_module[name.split(".")[0]] += own
        return r_end - r_start, dict(by_module)


def _jaccard_distance(a: np.ndarray, b: np.ndarray) -> float:
    union = int(np.count_nonzero(a | b))
    return 1.0 - int(np.count_nonzero(a & b)) / union if union else 0.0


def mask_turnover(masks: list[list[np.ndarray]]) -> list[float]:
    """Mean Jaccard distance between consecutive global masks, per layer."""
    pairs = list(zip(masks, masks[1:]))
    n_layers = len(masks[0])
    return [sum(_jaccard_distance(p[l], q[l]) for p, q in pairs) / len(pairs)
            for l in range(n_layers)]


def install(tracer: Tracer) -> None:
    """Wrap the module boundaries below cli.prepare and cli.run_training.

    The caller wraps those two itself (as "cli.prepare" and ROOT), on
    untraced runs too.
    """
    from dsffs import cli, dst_update, fed_core, metrics

    counts = tracer.counts

    def count_input(args, update):
        # prune_input and regrow_input share one delta; after the regrow it
        # holds both halves of the update
        counts["input_selector.pruned_conns"] += len(update.delta.pruned)
        counts["input_selector.regrown_conns"] += len(update.delta.regrown)

    def count_delta(delta):
        counts["dst_update.pruned_conns"] += len(delta.pruned)
        counts["dst_update.regrown_conns"] += len(delta.regrown)

    def record_masks(args, out):
        if not tracer.global_masks:
            tracer.global_masks.append([l.mask.copy() for l in args[0].global_model.layers])
        tracer.global_masks.append([l.mask.copy() for l in out.layers])

    for attr in ("generate_synthetic", "partition_noniid", "normalize"):
        tracer.wrap(cli, attr, f"data.{attr}")

    for attr in ("forward", "backward", "sgd_step", "mask_velocity"):
        tracer.wrap(fed_core, attr, f"sparse_net.{attr}")
    tracer.wrap(fed_core, "local_train", "fed_core.local_train")
    tracer.wrap(fed_core, "aggregate", "fed_core.aggregate")
    tracer.wrap(fed_core, "resparsify_and_reconcile", "fed_core.resparsify_and_reconcile",
                after=record_masks)

    tracer.wrap(fed_core, "prune_input", "input_selector.prune_input")
    tracer.wrap(fed_core, "regrow_input", "input_selector.regrow_input", after=count_input)

    # the hidden-layer helpers call the per-layer routines inside dst_update;
    # fed_core calls the per-layer routines itself for layer 0 when input
    # selection is off
    for owner in (dst_update, fed_core):
        tracer.wrap(owner, "prune_layer_by_magnitude", "dst_update.prune_layer_by_magnitude")
    tracer.wrap(dst_update, "regrow_layer_by_gradient", "dst_update.regrow_layer_by_gradient")
    tracer.wrap(fed_core, "regrow_layer_by_gradient", "dst_update.regrow_layer_by_gradient",
                after=lambda args, _: count_delta(args[3]))
    tracer.wrap(fed_core, "magnitude_prune_hidden", "dst_update.magnitude_prune_hidden")
    tracer.wrap(fed_core, "gradient_regrow_hidden", "dst_update.gradient_regrow_hidden",
                after=lambda args, delta: count_delta(delta))

    tracer.wrap(metrics.MetricsRecorder, "record_round", "metrics.record_round")
    tracer.wrap(metrics, "forward", "metrics.forward")
