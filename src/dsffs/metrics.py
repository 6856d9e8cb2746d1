"""Accuracy, sparsity-aware FLOPs, and communication-cost accounting.

Conventions, fixed for reproducibility: one multiply-accumulate costs 2
FLOPs, a training pass costs 3x an inference pass (forward plus roughly
twice that for the backward), and a transmitted sparse model costs
(32 * (1 - S) + 1) * n bits: 32-bit values for the live weights plus one
mask bit per maskable position. Topology-update overhead (strength sums,
sorting, the extra gradient evaluation) is excluded from FLOPs.
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
    client_drift: float       # mean L2 distance of client weights from the broadcast

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


def flops_per_example(net: SparseNetwork, layer_nnz: list[int]) -> int:
    """Per-example training cost of `net` with `layer_nnz` live weights: 3x inference."""
    return 3 * inference_flops(layer_nnz, [layer.cols for layer in net.layers])


def upload_cost_bits(n_params: int, sparsity: float) -> int:
    """Bits to transmit a sparse model of n maskable positions at sparsity S."""
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    exact = (32.0 * (1.0 - sparsity) + 1.0) * n_params
    # sub-microbit float fuzz must not push an exact integer up a whole bit
    return int(math.ceil(round(exact, 6)))


class MetricsRecorder:
    """Accumulates per-round metrics and the cumulative cost counters.

    Upload is charged per participating client per round. Accuracy is
    evaluated on rows `test_rows` of the (X, y) pair `data`.
    """

    def __init__(self, data, test_rows: np.ndarray, batch_size: int, local_epochs: int):
        self.data = data
        self.test_rows = test_rows
        self.batch_size = batch_size
        self.local_epochs = local_epochs
        self.cumulative_flops = 0
        self.cumulative_upload_bits = 0

    def record_round(self, net: SparseNetwork, r: int, participant_sizes,
                     client_drift: float) -> RoundMetrics:
        """Metrics of the global model `net` after round `r`.

        `participant_sizes` holds the local sample count of every client
        that trained this round, and `client_drift` their mean drift from
        the broadcast model. FLOPs charge Q * ceil(N_m / B) * B
        training examples per client; the connection count is conserved
        across the round, so the per-example cost is well defined.
        """
        layer_nnz = net.layer_nnz()
        train_cost = flops_per_example(net, layer_nnz)
        per_model_bits = upload_cost_bits(net.dense_param_count(), net.sparsity)
        for n_m in participant_sizes:
            batches = math.ceil(n_m / self.batch_size)
            self.cumulative_flops += self.local_epochs * batches * self.batch_size * train_cost
            self.cumulative_upload_bits += per_model_bits
        acc = accuracy(net, self.data, self.test_rows)
        connected = int(net.layers[0].mask.any(axis=1).sum())
        return RoundMetrics(
            round=r,
            test_accuracy=acc,
            cumulative_flops=self.cumulative_flops,
            cumulative_upload_bits=self.cumulative_upload_bits,
            connected_input_neurons=connected,
            layer_nnz=layer_nnz,
            client_drift=client_drift,
        )
