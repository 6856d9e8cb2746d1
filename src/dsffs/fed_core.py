"""Simulated horizontal federated training with dynamic sparse topology.

One round: broadcast the global sparse model, let each selected client run
Q local epochs (minibatch SGD plus per-epoch input-layer and hidden-layer
topology updates) and send its live weights and biases, average those by
sample count (a position a client did not send counts as zero), then bring
the input layer to the shared neuron-removal schedule and each layer to
its fixed connection budget: its previous global mask minus removed rows,
refilled from the strongest averaged positions, with up to `adjust_rate` x
target connections swapped for stronger ones every `adjust_every` rounds.
Communication is an accounting event, not a wire transfer.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

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
    RemovalPlan,
    SelectionResult,
    prune_input,
    regrow_input,
    removal_plan,
    row_strengths,
    select_features,
)
from .metrics import MetricsRecorder, RoundMetrics, inference_flops, upload_cost_bits
from .sparse_net import (
    ConfigError,
    SparseLayer,
    SparseNetwork,
    backward,
    er_allocation,
    forward,
    init_er_topology,
    mask_velocity,
    sgd_step,
)

log = logging.getLogger(__name__)


@dataclass
class FedConfig:
    """Everything the orchestrator needs besides the data, whose shards are the clients."""

    hidden_dims: list[int] = field(default_factory=lambda: [200, 200])
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
    seed: int = 1
    workers: int | None = None
    feature_selection: bool = True

    def validate(self) -> None:
        for ok, problem in [
            (self.local_epochs >= 0, "local_epochs cannot be negative"),
            (self.rounds >= 1, "need at least one round"),
            (0.0 <= self.sparsity < 1.0, f"sparsity must be in [0, 1), got {self.sparsity}"),
            (0.0 <= self.zeta < 1.0, f"zeta must be in [0, 1), got {self.zeta}"),
            (0.0 < self.beta < 1.0, f"beta must be in (0, 1), got {self.beta}"),
            (self.lr > 0, f"lr must be positive, got {self.lr}"),
            (0.0 <= self.momentum < 1.0, f"momentum must be in [0, 1), got {self.momentum}"),
            (self.mu >= 0, f"mu cannot be negative, got {self.mu}"),
            (self.batch_size >= 1, "batch_size must be at least 1"),
            (self.k_features >= 1, "k_features must be at least 1"),
            (0.0 <= self.adjust_rate < 1.0,
             f"adjust_rate must be in [0, 1), got {self.adjust_rate}"),
            (self.adjust_every >= 0, "adjust_every cannot be negative"),
            (self.workers is None or self.workers >= 1,
             f"workers must be at least 1, got {self.workers}"),
            (self.seed >= 0, f"seed must be non-negative, got {self.seed}"),
        ]:
            if not ok:
                raise ConfigError(problem)


@dataclass(frozen=True)
class RunPlan:
    """The inputs `plan_run` checked, and what it fixed before round 1.

    `config` and the index arrays in `data` are copies (the shards as a
    tuple), so a later edit of the caller's does not reach the run; the
    data matrix and its labels are shared, so an edit to them does.
    Round r's entries sit at index r - 1. Equality ignores the inputs.
    """

    config: FedConfig = field(compare=False, repr=False)
    data: PartitionedDataset = field(compare=False, repr=False)
    dims: tuple[int, ...]                   # layer widths, input first
    k: int                                  # features the run selects
    targets: tuple[int, ...]                # per-layer connection counts
    removal: RemovalPlan
    clients: tuple[tuple[int, ...], ...]    # the ids that train, ascending
    coeffs: tuple[tuple[float, ...], ...]   # their fold coefficients, n_m / total
    cumulative_flops: tuple[int, ...]
    cumulative_upload_bits: tuple[int, ...]


@dataclass
class ServerState:
    global_model: SparseNetwork
    schedule: RemovalPlan
    global_removed: np.ndarray


@dataclass(frozen=True)
class ClientUpdate:
    """What a client sends: per layer, its sorted flat live index, the weights there, its bias."""

    layers: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @classmethod
    def of(cls, net: SparseNetwork) -> ClientUpdate:
        live = [np.flatnonzero(layer.mask) for layer in net.layers]
        return cls(tuple((idx, np.take(layer.weights, idx), layer.bias)
                         for idx, layer in zip(live, net.layers)))


def local_train(plan: RunPlan, r: int, m: int, global_net: SparseNetwork,
                global_removed: np.ndarray) -> ClientUpdate:
    """Train client m in round r for Q epochs from the broadcast model; return its upload.

    The config, the data matrix, client m's shard index and round r's
    neuron schedule all come from `plan`; each minibatch gathers its rows
    of the matrix through the shard index, so no shard is copied.
    Each epoch runs minibatch SGD over the shard, then one topology
    update: the dense gradient is re-evaluated on the epoch's last
    minibatch at the post-step weights and feeds both the input-layer and
    the hidden-layer prune/regrow; before another epoch, the momentum
    moves onto the new masks. The schedule is read only when feature
    selection is on: the first epoch applies round r's counts, later
    epochs apply steady-state churn (equal prune/regrow, no net removal).

    The last epoch stops at its prunes: no re-evaluation and no regrowth,
    which would only set positions at weight +0.0. The client sends what
    is then live, and its network copy dies here.
    """
    config, ds, rows = plan.config, plan.data.data, plan.data.shards[m]
    X, y, counts = ds.X, ds.y, plan.removal.counts[r - 1]
    net = global_net.copy()
    removed = global_removed.copy()

    prox = (config.mu, global_net) if config.mu > 0 else None
    velocity = None
    n = len(rows)

    for q in range(1, config.local_epochs + 1):
        # one shared shuffle stream per (seed, round, epoch): clients with
        # identical shards then train identically, which aggregation
        # preserves
        rng = np.random.default_rng([config.seed, r, q])
        order = rng.permutation(n)
        # range and the slice clamp a batch larger than the shard
        for start in range(0, n, config.batch_size):
            sel = rows[order[start:start + config.batch_size]]
            xb, yb = X[sel], y[sel]
            _, cache = forward(net, xb)
            # no name holds the gradients, so they die in the step, before
            # the next backward makes more
            velocity = sgd_step(net, backward(net, cache, yb), config.lr, config.momentum,
                                velocity, prox)
            del cache

        last = q == config.local_epochs
        if last:
            # nothing reads the momentum again: free it before the prunes
            velocity = None
        else:
            # dense gradients on the last minibatch at the current weights
            # drive this epoch's regrowth; this extra evaluation is topology
            # overhead and is not charged to the FLOPs accounting
            _, cache = forward(net, xb)
            grads = backward(net, cache, yb)
            del cache

        if config.feature_selection:
            epoch_counts = counts if q == 1 else counts.churn()
            update = prune_input(net, removed, epoch_counts, config.zeta)
        elif config.zeta > 0.0:
            # plain dynamic sparse training on the input layer too
            delta0 = TopologyDelta()
            prune_layer_by_magnitude(net, 0, churn_count(net, 0, config.zeta), delta0)
        if config.zeta > 0.0:
            delta = magnitude_prune_hidden(net, config.zeta)
        if last:
            break

        if config.feature_selection:
            regrow_input(net, removed, epoch_counts, grads.weights[0], update)
        elif config.zeta > 0.0:
            regrow_layer_by_gradient(net, 0, grads.weights[0], delta0)
        if config.zeta > 0.0:
            gradient_regrow_hidden(net, grads.weights, delta)
        del grads
        mask_velocity(net, velocity)
    return ClientUpdate.of(net)


def aggregate(sums: list[tuple[np.ndarray, np.ndarray]], coeff: float,
              update: ClientUpdate) -> None:
    """Fold one client's update into the round's sample-count-weighted average.

    `sums` holds one (weights, bias) pair per layer, zeroed before the
    round's first client, and `coeff` is this client's n_m / total. A
    position the client did not send counts as zero: a sum that starts at
    +0.0 never holds -0.0, so adding +0.0 would change no byte. Folding the
    clients in id order fixes the order of every float sum. No mask is
    formed: resparsify_and_reconcile decides the next global mask.
    """
    for (w, b), (idx, values, bias) in zip(sums, update.layers):
        w.reshape(-1, copy=False)[idx] += coeff * values   # a view, never a copy
        b += coeff * bias


def _keep_topk(weights: np.ndarray, kept: np.ndarray, target: int, allowed_rows: np.ndarray,
               adjust: bool, adjust_rate: float) -> np.ndarray:
    """Resolve one layer's kept mask against the aggregated magnitudes.

    `kept` starts as the previous global mask (minus removed rows). Any
    deficit against `target` is refilled from inactive positions on
    allowed rows in descending |weight|. When `adjust` is set, up to
    floor(adjust_rate * target) kept connections may additionally be
    swapped for strictly stronger candidates: the i-th weakest kept for
    the i-th strongest candidate, stopping at the first pair that does not
    improve. The candidates are ranked once, by `dst_update.smallest`: the
    refill takes the first `deficit` and the swaps draw from the rest. With
    no deficit and no swap budget, `kept` comes back untouched.
    """
    budget = int(adjust_rate * target) if adjust else 0
    deficit = target - int(np.count_nonzero(kept))
    if deficit <= 0 and budget == 0:
        return kept
    w_abs = np.abs(weights)
    cand = np.flatnonzero(allowed_rows[:, None] & ~kept)
    if len(cand) < deficit:
        raise ConfigError(
            "cannot restore the layer connection target: "
            f"{len(cand)} candidate positions for {deficit} needed"
        )
    refill = max(deficit, 0)
    scores = np.take(w_abs, cand)
    np.negative(scores, out=scores)
    ranked = cand[smallest(scores, refill + budget, ordered=True)]
    np.put(kept, ranked[:refill], True)

    if budget:
        live = np.flatnonzero(kept)
        weak = live[smallest(np.take(w_abs, live), budget, ordered=True)]
        strong = ranked[refill:]
        n_swaps = min(len(weak), len(strong))
        weak, strong = weak[:n_swaps], strong[:n_swaps]
        # kept ascends and candidates descend, so the pairs that
        # improve form a prefix
        stop = np.take(w_abs, strong) <= np.take(w_abs, weak)
        n_swaps = int(np.argmax(stop)) if stop.any() else n_swaps
        np.put(kept, weak[:n_swaps], False)
        np.put(kept, strong[:n_swaps], True)
    return kept


def resparsify_and_reconcile(server: ServerState,
                             aggregated: list[tuple[np.ndarray, np.ndarray]],
                             config: FedConfig, r: int) -> SparseNetwork:
    """Build the next global model from the aggregate's (weights, bias) pairs.

    Input layer first: the globally weakest neurons (by aggregated
    strength, previously removed ones staying removed) are disconnected
    until the removed count matches the plan's removals through round r. Then
    every layer keeps its previous global mask, refills any deficit from
    the inactive positions on allowed rows by descending |weight| (those
    no client kept carry weight 0 and tie by index), and, on adjustment
    rounds (every `adjust_every`-th), may swap up to a fraction
    `adjust_rate` of kept connections for strictly stronger ones.
    The aggregated arrays become the new model's, zeroed off its mask.
    `server.global_removed` is updated; `server.global_model`, the
    previous model, is left for the caller to replace.
    """
    prev = server.global_model

    removed = server.global_removed.copy()
    extra = sum(server.schedule.history[:r]) - int(removed.sum())
    if extra > 0:
        alive = np.flatnonzero(~removed)
        removed[alive[smallest(row_strengths(aggregated[0][0])[alive], extra)]] = True
    server.global_removed = removed

    adjust = config.adjust_every > 0 and r % config.adjust_every == 0
    layers = []
    for l, (weights, bias) in enumerate(aggregated):
        allowed_rows = ~removed if l == 0 else np.ones(len(weights), dtype=bool)
        # removed rows leave the kept mask here; the zeroing below clears
        # their weights
        kept = prev.layers[l].mask & allowed_rows[:, None]
        kept = _keep_topk(weights, kept, prev.nnz_targets[l], allowed_rows,
                          adjust, config.adjust_rate)
        weights[~kept] = 0.0
        layers.append(SparseLayer(weights, kept, bias))
    return SparseNetwork(layers, prev.sparsity, prev.layer_densities, prev.nnz_targets)


def _shared_mask_drift(update: ClientUpdate, global_net: SparseNetwork) -> float:
    """L2 distance between sent and broadcast weights at positions live in both."""
    total = 0.0
    for (idx, values, _), lg in zip(update.layers, global_net.layers):
        # the sent positions the broadcast holds, ascending as a boolean
        # index over both masks would give them
        both = np.take(lg.mask, idx)
        diff = values[both] - np.take(lg.weights, idx[both])
        total += float((diff * diff).sum())
    return math.sqrt(total)


def plan_run(config: FedConfig, data: PartitionedDataset) -> RunPlan:
    """Check a config against its data; fix what a run knows before round 1.

    Raises every ConfigError a run can meet before training, on the copies
    the plan keeps. The shards are the clients. K is k_features capped at
    the input width; with selection off, T = 0. Round r trains the clients
    drawn from (seed, r, 0xC11). Every round ends each layer on its target,
    so a client's cost is fixed too: Q * ceil(N_m / B) * B training examples
    at 3x the targets' inference FLOPs, and one sparse-model upload.
    """
    config = replace(config, hidden_dims=list(config.hidden_dims))
    config.validate()
    data = PartitionedDataset(data.data, tuple(map(np.array, data.shards)), np.array(data.test))
    n, cpr = len(data.shards), config.clients_per_round
    if n < 2:
        raise ConfigError("a federation needs at least two clients")
    if cpr is not None and not 1 <= cpr <= n:
        raise ConfigError(f"clients_per_round must be in 1..{n}, got {cpr}")
    for m, shard in enumerate(data.shards):
        if len(shard) == 0:
            raise ConfigError(f"client {m} has an empty shard")
    if len(data.test) == 0:
        raise ConfigError("held-out test split is empty")
    ds = data.data
    if ds.n_classes < 2:
        raise ConfigError(f"need at least two classes, the data has {ds.n_classes}")

    dims = (ds.d, *config.hidden_dims, ds.n_classes)
    _, targets = er_allocation(dims, config.sparsity)
    k = min(config.k_features, ds.d)
    if k < config.k_features:
        log.warning("k_features %d exceeds feature count %d; using %d",
                    config.k_features, ds.d, k)
    removal = removal_plan(ds.d, k if config.feature_selection else ds.d,
                           config.zeta, config.beta, config.rounds)
    survivors = ds.d - removal.T
    if targets[0] > survivors * dims[1]:
        raise ConfigError(f"layer 0 must keep {targets[0]} connections, but the removal "
                          f"schedule leaves {survivors} of {ds.d} inputs, {survivors} x "
                          f"{dims[1]} = {survivors * dims[1]} positions")
    # under selection, layer 0 may end with fewer free positions than an
    # update prunes (plain DST caps its churn at them, so it never does);
    # only an epoch before a client's last regrows, so Q = 1 cannot fall short
    free = survivors * dims[1] - targets[0]
    churn = math.floor(config.zeta * targets[0])
    if config.feature_selection and config.local_epochs >= 2 and free < churn:
        log.warning("layer 0 has %d free positions (%d inputs left x %d units - %d "
                    "connections), fewer than the %d connections one update churns; "
                    "its regrowth can fall short", free, survivors, dims[1], targets[0], churn)

    example_flops = 3 * inference_flops(targets, dims[1:])
    model_bits = upload_cost_bits(sum(a * b for a, b in zip(dims, dims[1:])), config.sparsity)
    clients, coeffs, flops, bits = [], [], [0], [0]
    for r in range(1, config.rounds + 1):
        # drawing every client gives a permutation, so sorted range(n)
        pick_rng = np.random.default_rng([config.seed, r, 0xC11])
        selected = tuple(sorted(int(i) for i in pick_rng.choice(n, cpr or n, replace=False)))
        sizes = [len(data.shards[m]) for m in selected]
        total = float(sum(sizes))
        clients.append(selected)
        # normalized coefficients keep the one-client case exactly the identity
        coeffs.append(tuple(n_m / total for n_m in sizes))
        examples = sum(math.ceil(n_m / config.batch_size) * config.batch_size for n_m in sizes)
        flops.append(flops[-1] + config.local_epochs * examples * example_flops)
        bits.append(bits[-1] + len(sizes) * model_bits)
    return RunPlan(config, data, dims, k, tuple(targets), removal, tuple(clients), tuple(coeffs),
                   tuple(flops[1:]), tuple(bits[1:]))


def run_training(plan: RunPlan):
    """Train the plan's config on its data; returns (server, per-round metrics, selection).

    Each round the plan's clients train in a thread pool and fold with its
    coefficients, and the server resparsifies what they aggregated. The
    pool has the config's `workers` threads; by default
    (None) one per shard, but no more than the CPUs this process may run
    on (`os.sched_getaffinity`, else `os.cpu_count()`), since a thread per
    client beyond that adds a client network to memory and no speed. Every
    client draws its randomness from (seed, round, epoch), and each pool
    task folds its client into the aggregate only after the client before
    it in id order has, so results do not depend on the thread count or
    on scheduling.

    What stays resident is the one normalized matrix the plan shares with
    its caller, which every client indexes through the plan's copy of its
    shard and the evaluator through the plan's copy of the test index,
    plus the global model and the round's (weights, bias) sums. A client's
    network copy lives only while it trains, so at most `workers` of them
    are alive at once; a finished client holds its update, its live values
    and biases, until its fold.

    The initial topology, each round's server step (resparsify, the
    non-finite check, the evaluation) and the final feature selection
    also run as tasks on the pool, while this thread waits on them. glibc
    gives each thread that allocates its own malloc arena, and one arena
    cannot reuse what another freed, so a server step on this thread
    would keep a second arena's worth of freed client and evaluation
    buffers resident. On the pool, at workers=1 every array of the run
    comes from one arena: moving the server step there took the
    `wide_input` benchmark workload's peak from 164 MB to 150 MB, with the
    same outputs.
    """
    config, data = plan.config, plan.data
    recorder = MetricsRecorder(plan)
    metrics: list[RoundMetrics] = []

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=config.workers or min(len(data.shards), cpus)) as pool:
        server = ServerState(
            pool.submit(init_er_topology, plan.dims, config.sparsity, config.seed).result(),
            plan.removal, np.zeros(plan.dims[0], dtype=bool))
        for r, (selected, coeffs) in enumerate(zip(plan.clients, plan.coeffs), start=1):
            broadcast, removed = server.global_model, server.global_removed
            sums = [(np.zeros_like(layer.weights), np.zeros_like(layer.bias))
                    for layer in broadcast.layers]

            # a diverging run overflows on its way to the non-finite weights
            # that the check below reports, with the round; np.errstate is
            # per thread, so each pool thread sets its own. Tasks start in
            # id order, so the client before this one is running or done
            # and its result() returns; a client that raises passes its
            # error down the chain, and the first result() below raises it.
            # A client whose predecessor has already failed raises untrained.
            def train_one(i: int, before) -> float:
                if before is not None and before.done():
                    before.result()
                with np.errstate(over="ignore", invalid="ignore"):
                    update = local_train(plan, r, selected[i], broadcast, removed)
                    drift = _shared_mask_drift(update, broadcast)
                    if before is not None:
                        before.result()
                    aggregate(sums, coeffs[i], update)
                return drift

            tasks = []
            for i in range(len(selected)):
                tasks.append(pool.submit(train_one, i, tasks[i - 1] if i else None))
            drifts = [t.result() for t in tasks]

            def server_step() -> RoundMetrics:
                with np.errstate(over="ignore", invalid="ignore"):
                    drift = float(np.mean(drifts))
                server.global_model = resparsify_and_reconcile(server, sums, config, r)
                if not all(np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()
                           for layer in server.global_model.layers):
                    raise FloatingPointError(
                        f"round {r}: training diverged (non-finite global weights or biases)"
                    )
                return recorder.record_round(server.global_model, r, drift)

            # on a pool thread, so its arrays share an arena with the clients'
            # (see the docstring); result() re-raises its error here
            rm = pool.submit(server_step).result()
            metrics.append(rm)
            log.info("round %d/%d: acc=%.4f connected=%d nnz=%d",
                     r, config.rounds, rm.test_accuracy,
                     rm.connected_input_neurons, rm.global_nnz)

        selection: SelectionResult = pool.submit(
            select_features, server.global_model, plan.k).result()
    return server, metrics, selection
