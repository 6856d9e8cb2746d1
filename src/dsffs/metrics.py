"""Accuracy, the per-round record, and the sparsity-aware cost conventions.

Conventions, fixed for reproducibility: one multiply-accumulate costs 2
FLOPs, a training pass costs 3x an inference pass (forward plus roughly
twice that for the backward), and a transmitted sparse model costs
(32 * (1 - S) + 1) * n bits: 32-bit values for the live weights plus one
mask bit per maskable position. The live weights charged are the layer
targets, together (1 - S) of the positions, not a count of the fewer
live weights a client sends (`fed_core.ClientUpdate`).
Topology-update overhead (strength sums, sorting, the extra gradient
evaluation) is excluded from FLOPs. The costs are fixed before round 1:
`fed_core.plan_run` applies these conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparse_net import SparseNetwork, forward

EVAL_BATCH = 256    # test rows per evaluation forward pass


@dataclass
class RoundMetrics:
    """Everything recorded about one round; `csv_row` writes a subset."""

    round: int
    test_accuracy: float
    cumulative_flops: int
    cumulative_upload_bits: int
    connected_input_neurons: int
    layer_nnz: list[int]      # per-layer connection count of the global model
    # mean L2 distance of the clients' sent weights from the broadcast, at
    # the sent positions the broadcast holds live
    client_drift: float

    @property
    def global_nnz(self) -> int:
        return sum(self.layer_nnz)

    CSV_HEADER = (
        "round,accuracy,cumulative_flops,cumulative_upload_bits,"
        "connected_input_neurons,global_nnz"
    )

    def csv_row(self) -> str:
        return (
            f"{self.round},{self.test_accuracy:.10g},{self.cumulative_flops},"
            f"{self.cumulative_upload_bits},{self.connected_input_neurons},"
            f"{self.global_nnz}"
        )


def accuracy(net: SparseNetwork, data, rows: np.ndarray) -> float:
    """Fraction of argmax-correct predictions on rows `rows` of an (X, y) pair.

    Each evaluation batch gathers its rows of X, so the evaluated rows are
    never copied as a whole. Ties go to the lowest class.
    """
    X, y = data
    if len(rows) == 0:
        raise ValueError("test set is empty")
    correct = 0
    for start in range(0, len(rows), EVAL_BATCH):
        sel = rows[start:start + EVAL_BATCH]
        logits, _ = forward(net, X[sel])
        correct += int((np.argmax(logits, axis=1) == y[sel]).sum())
    return correct / len(rows)


def inference_flops(nnz_per_layer, bias_units_per_layer=None) -> int:
    """FLOPs for one example: 2 per live weight plus one add per bias unit."""
    total = sum(2 * int(n) for n in nnz_per_layer)
    if bias_units_per_layer is not None:
        total += sum(int(b) for b in bias_units_per_layer)
    return total


def upload_cost_bits(n_params: int, sparsity: float) -> int:
    """Bits to transmit a sparse model of n maskable positions at sparsity S."""
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    exact = (32.0 * (1.0 - sparsity) + 1.0) * n_params
    # sub-microbit float fuzz must not push an exact integer up a whole bit
    return int(math.ceil(round(exact, 6)))


class MetricsRecorder:
    """Each round's costs from `plan`, a `fed_core.RunPlan`, and accuracy on its test rows."""

    def __init__(self, plan):
        self.plan = plan

    def record_round(self, net: SparseNetwork, r: int, client_drift: float) -> RoundMetrics:
        """Round `r`'s planned costs and what `net`, the global model after it, measures.

        `client_drift` is the round's mean client drift from the broadcast.
        """
        ds, test = self.plan.data.data, self.plan.data.test
        acc = accuracy(net, (ds.X, ds.y), test)
        connected = int(net.layers[0].mask.any(axis=1).sum())
        return RoundMetrics(
            round=r,
            test_accuracy=acc,
            cumulative_flops=self.plan.cumulative_flops[r - 1],
            cumulative_upload_bits=self.plan.cumulative_upload_bits[r - 1],
            connected_input_neurons=connected,
            layer_nnz=net.layer_nnz(),
            client_drift=client_drift,
        )
