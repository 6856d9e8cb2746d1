"""Simulated horizontal federated training with dynamic sparse topology.

One round: broadcast the global sparse model, let each selected client run
Q local epochs (minibatch SGD plus per-epoch input-layer and hidden-layer
topology updates), aggregate the returned models by sample-count-weighted
averaging with zero fill, then project the union-mask aggregate back onto
the fixed connection budget and the shared neuron-removal schedule.
Communication is an accounting event, not a wire transfer.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import PartitionedDataset
from .dst_update import (
    TopologyDelta,
    churn_count,
    gradient_regrow_hidden,
    magnitude_prune_hidden,
    prune_layer_by_magnitude,
    regrow_layer_by_gradient,
    smallest,
)
from .input_selector import (
    InputLayerState,
    InputSchedule,
    ScheduleCounts,
    SelectionResult,
    compute_schedule,
    prune_input,
    regrow_input,
    row_strengths,
    select_features,
)
from .metrics import MetricsRecorder, RoundMetrics
from .sparse_net import (
    ConfigError,
    SparseNetwork,
    backward,
    forward,
    init_er_topology,
    mask_velocity,
    sgd_step,
)

log = logging.getLogger(__name__)


@dataclass
class FedConfig:
    """Everything the orchestrator needs besides the data itself."""

    hidden_dims: list[int] = field(default_factory=lambda: [200, 200])
    n_clients: int = 10
    clients_per_round: int | None = None   # None = all clients every round
    local_epochs: int = 10
    rounds: int = 400
    sparsity: float = 0.8
    k_features: int = 150
    zeta: float = 0.2
    beta: float = 0.65
    mu: float = 0.0
    adjust_every: int = 10
    adjust_rate: float = 0.05
    lr: float = 0.1
    momentum: float = 0.9
    batch_size: int = 32
    seed: int = 0
    workers: int | None = None
    feature_selection: bool = True

    def validate(self) -> None:
        if self.n_clients < 2:
            raise ConfigError("a federation needs at least two clients")
        cpr = self.clients_per_round
        if cpr is not None and not 1 <= cpr <= self.n_clients:
            raise ConfigError(
                f"clients_per_round must be in 1..{self.n_clients}, got {cpr}"
            )
        if self.local_epochs < 0:
            raise ConfigError("local_epochs cannot be negative")
        if self.rounds < 1:
            raise ConfigError("need at least one round")
        if not 0.0 <= self.sparsity < 1.0:
            raise ConfigError(f"sparsity must be in [0, 1), got {self.sparsity}")
        if not 0.0 <= self.zeta < 1.0:
            raise ConfigError(f"zeta must be in [0, 1), got {self.zeta}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must be in (0, 1), got {self.beta}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.mu < 0:
            raise ConfigError(f"mu cannot be negative, got {self.mu}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.k_features < 1:
            raise ConfigError("k_features must be at least 1")
        if not 0.0 <= self.adjust_rate < 1.0:
            raise ConfigError(f"adjust_rate must be in [0, 1), got {self.adjust_rate}")
        if self.adjust_every < 0:
            raise ConfigError("adjust_every cannot be negative")


@dataclass
class ClientState:
    id: int
    shard: np.ndarray           # index set into the shared dataset
    n_samples: int
    X: np.ndarray
    y: np.ndarray


@dataclass
class ServerState:
    global_model: SparseNetwork
    round: int
    schedule: InputSchedule
    global_removed: np.ndarray
    drift_history: list[float] = field(default_factory=list)
    layer_nnz_history: list[list[int]] = field(default_factory=list)


def local_train(client: ClientState, global_net: SparseNetwork,
                sched: InputSchedule, r: int, config: FedConfig,
                global_removed: np.ndarray) -> SparseNetwork:
    """Train one client for Q epochs starting from the broadcast model.

    Each epoch runs minibatch SGD over the shard, then one topology
    update: the dense gradient is re-evaluated on the epoch's last
    minibatch at the post-step weights and feeds both the input-layer and
    the hidden-layer prune/regrow. The first epoch of a round applies the
    round's neuron schedule; later epochs apply steady-state churn (equal
    prune/regrow, no net removal).
    """
    net = global_net.copy()
    if config.local_epochs == 0:
        return net
    if config.feature_selection:
        state = InputLayerState.from_layer(net.layers[0], permanently_removed=global_removed)

    counts_round = (
        compute_schedule(sched, r) if config.feature_selection else ScheduleCounts(0, 0, 0)
    )
    prox = (config.mu, global_net) if config.mu > 0 else None
    velocity = None
    n = client.n_samples
    batch = min(config.batch_size, n)

    for q in range(1, config.local_epochs + 1):
        # one shared shuffle stream per (seed, round, epoch): clients with
        # identical shards then train identically, which aggregation
        # preserves
        rng = np.random.default_rng([config.seed, r, q])
        order = rng.permutation(n)
        last_batch = None
        for start in range(0, n, batch):
            sel = order[start:start + batch]
            xb, yb = client.X[sel], client.y[sel]
            logits, cache = forward(net, xb)
            grads = backward(net, cache, yb)
            velocity = sgd_step(net, grads, config.lr, config.momentum, velocity, prox)
            last_batch = (xb, yb)

        # dense gradients at the current weights drive this epoch's
        # prune/regrow; this extra evaluation is topology overhead and is
        # not charged to the FLOPs accounting
        xb, yb = last_batch
        _, cache = forward(net, xb)
        grads = backward(net, cache, yb)

        if config.feature_selection:
            counts = counts_round if q == 1 else counts_round.churn()
            update = prune_input(net, state, counts, config.zeta)
            regrow_input(net, state, counts, grads.dense[0], update)
        elif config.zeta > 0.0:
            # plain dynamic sparse training on the input layer too
            delta0 = TopologyDelta()
            prune_layer_by_magnitude(net, 0, churn_count(net, 0, config.zeta), delta0)
            regrow_layer_by_gradient(net, 0, grads.dense[0], delta0)
            net.touch()
        if config.zeta > 0.0:
            delta = magnitude_prune_hidden(net, config.zeta)
            gradient_regrow_hidden(net, grads, delta)
        mask_velocity(net, velocity)
    return net


def aggregate(clients) -> SparseNetwork:
    """Sample-count-weighted average of client networks with union masks.

    Positions a client masked off contribute zero to the average; the
    result generally exceeds the connection budget and must be
    resparsified before broadcast.
    """
    clients = list(clients)
    if not clients:
        raise ValueError("nothing to aggregate")
    total = float(sum(n for n, _ in clients))
    # normalized coefficients keep the one-client case exactly the identity
    coeffs = [n_m / total for n_m, _ in clients]
    out = clients[0][1].copy()
    for l, layer in enumerate(out.layers):
        w = np.zeros_like(layer.weights)
        b = np.zeros_like(layer.bias)
        m = np.zeros_like(layer.mask)
        for c_m, (_, net) in zip(coeffs, clients):
            w += c_m * net.layers[l].weights
            b += c_m * net.layers[l].bias
            m |= net.layers[l].mask
        layer.weights = w
        layer.bias = b
        layer.mask = m
        layer.enforce_mask()
    out.touch()
    return out


def _keep_topk(agg_layer, kept: np.ndarray, target: int, allowed_rows: np.ndarray,
               adjust: bool, adjust_rate: float) -> np.ndarray:
    """Resolve one layer's kept mask against the aggregated magnitudes.

    `kept` starts as the previous global mask (minus removed rows). Any
    deficit against `target` is refilled from inactive positions on
    allowed rows in descending |weight|. When `adjust` is set, up to
    floor(adjust_rate * target) kept connections may additionally be
    swapped for strictly stronger candidates: the i-th weakest kept for
    the i-th strongest candidate, stopping at the first pair that does not
    improve. All picks are `dst_update.smallest` partial selections.
    """
    w_abs = np.abs(agg_layer.weights)
    allowed = allowed_rows[:, None] & ~kept

    deficit = target - int(np.count_nonzero(kept))
    if deficit > 0:
        cand = np.flatnonzero(allowed)
        if len(cand) < deficit:
            raise ConfigError(
                "cannot restore the layer connection target: "
                f"{len(cand)} candidate positions for {deficit} needed"
            )
        pick = cand[smallest(-np.take(w_abs, cand), deficit)]
        np.put(kept, pick, True)
        np.put(allowed, pick, False)

    if adjust and adjust_rate > 0.0:
        budget = int(adjust_rate * target)
        if budget > 0:
            live, cand = np.flatnonzero(kept), np.flatnonzero(allowed)
            weak = live[smallest(np.take(w_abs, live), budget, ordered=True)]
            strong = cand[smallest(-np.take(w_abs, cand), budget, ordered=True)]
            n_swaps = min(len(weak), len(strong))
            weak, strong = weak[:n_swaps], strong[:n_swaps]
            # kept ascends and candidates descend, so the pairs that
            # improve form a prefix
            stop = np.take(w_abs, strong) <= np.take(w_abs, weak)
            n_swaps = int(np.argmax(stop)) if stop.any() else n_swaps
            np.put(kept, weak[:n_swaps], False)
            np.put(kept, strong[:n_swaps], True)
    return kept


def resparsify_and_reconcile(server: ServerState, aggregated: SparseNetwork,
                             config: FedConfig, r: int) -> SparseNetwork:
    """Project the union-mask aggregate back onto the global budget.

    Input layer first: the globally weakest neurons (by aggregated
    strength, previously removed ones staying removed) are disconnected
    until the removed count matches the schedule's cumulative total. Then
    every layer keeps its previous global mask, refills any deficit from
    union candidates by descending |weight|, and, on adjustment rounds
    (every `adjust_every`-th), may swap up to a fraction `adjust_rate` of
    kept connections for strictly stronger ones.
    """
    out = aggregated.copy()
    prev = server.global_model
    in_layer = out.layers[0]

    removed = server.global_removed.copy()
    if config.feature_selection:
        target_removed = server.schedule.T_r
        extra = target_removed - int(removed.sum())
        if extra > 0:
            alive = np.flatnonzero(~removed)
            removed[alive[smallest(row_strengths(in_layer)[alive], extra)]] = True
        in_layer.mask[removed, :] = False
        in_layer.weights[removed, :] = 0.0
    server.global_removed = removed

    adjust = config.adjust_every > 0 and r % config.adjust_every == 0
    for l, layer in enumerate(out.layers):
        kept = prev.layers[l].mask.copy()
        if l == 0:
            kept[removed, :] = False
            allowed_rows = ~removed
        else:
            allowed_rows = np.ones(layer.rows, dtype=bool)
        kept = _keep_topk(layer, kept, out.nnz_targets[l], allowed_rows,
                          adjust, config.adjust_rate)
        layer.mask = kept
        layer.weights[~kept] = 0.0
    out.touch()
    return out


def _shared_mask_drift(client_net: SparseNetwork, global_net: SparseNetwork) -> float:
    """L2 distance between client and broadcast weights at jointly live positions."""
    total = 0.0
    for lc, lg in zip(client_net.layers, global_net.layers):
        both = lc.mask & lg.mask
        diff = (lc.weights - lg.weights)[both]
        total += float((diff * diff).sum())
    return math.sqrt(total)


def run_training(config: FedConfig, data: PartitionedDataset):
    """Full federated run; returns (server, per-round metrics, selection).

    Clients may train in parallel (config.workers); every client draws its
    randomness from (seed, round, epoch) and aggregation walks clients in
    id order, so results do not depend on scheduling.
    """
    config.validate()
    if data.n_clients != config.n_clients:
        raise ConfigError(
            f"config says {config.n_clients} clients but data has {data.n_clients} shards"
        )
    for m, shard in enumerate(data.shards):
        if len(shard) == 0:
            raise ConfigError(f"client {m} has an empty shard")
    if len(data.test) == 0:
        raise ConfigError("held-out test split is empty")

    ds = data.data
    dims = [ds.d] + list(config.hidden_dims) + [ds.n_classes]
    k = min(config.k_features, ds.d)
    if k < config.k_features:
        log.warning("k_features %d exceeds feature count %d; using %d",
                    config.k_features, ds.d, k)

    global_model = init_er_topology(dims, config.sparsity, config.seed)
    schedule = InputSchedule(ds.d, k, config.zeta, config.beta, config.rounds)
    server = ServerState(global_model, 0, schedule, np.zeros(ds.d, dtype=bool))

    clients = []
    for m, shard in enumerate(data.shards):
        X, y = data.shard_xy(m)
        clients.append(ClientState(m, shard, len(shard), X, y))

    recorder = MetricsRecorder(data.test_xy(), config.batch_size, config.local_epochs)
    metrics: list[RoundMetrics] = []
    workers = config.workers or config.n_clients
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    try:
        for r in range(1, config.rounds + 1):
            counts = compute_schedule(schedule, r) if config.feature_selection else None

            if config.clients_per_round is None or config.clients_per_round == config.n_clients:
                selected = list(range(config.n_clients))
            else:
                pick_rng = np.random.default_rng([config.seed, r, 0xC11])
                selected = sorted(
                    int(i) for i in pick_rng.choice(
                        config.n_clients, size=config.clients_per_round, replace=False
                    )
                )

            broadcast = server.global_model
            removed = server.global_removed

            def train_one(m: int) -> SparseNetwork:
                return local_train(clients[m], broadcast, schedule, r, config, removed)

            if pool is not None:
                results = dict(zip(selected, pool.map(train_one, selected)))
            else:
                results = {m: train_one(m) for m in selected}

            drifts = [_shared_mask_drift(results[m], broadcast) for m in selected]
            server.drift_history.append(float(np.mean(drifts)))

            aggregated = aggregate([(clients[m].n_samples, results[m]) for m in selected])
            if config.feature_selection:
                schedule.record(counts.n_remove)
            server.global_model = resparsify_and_reconcile(server, aggregated, config, r)
            if not all(np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()
                       for layer in server.global_model.layers):
                raise FloatingPointError(
                    f"round {r}: training diverged (non-finite global weights or biases)"
                )
            server.round = r
            server.layer_nnz_history.append(server.global_model.layer_nnz())
            rm = recorder.record_round(server, [clients[m].n_samples for m in selected])
            metrics.append(rm)
            log.info("round %d/%d: acc=%.4f connected=%d nnz=%d",
                     r, config.rounds, rm.test_accuracy,
                     rm.connected_input_neurons, rm.global_nnz)
    finally:
        if pool is not None:
            pool.shutdown()

    final_state = InputLayerState.from_layer(
        server.global_model.layers[0], permanently_removed=server.global_removed
    )
    selection: SelectionResult = select_features(server.global_model, final_state, k)
    return server, metrics, selection
