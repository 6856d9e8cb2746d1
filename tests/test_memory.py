"""Memory regressions: how many copies of the data and of the client networks live at once.

tracemalloc counts numpy's array allocations on any platform, so the data
path's peak is measured in bytes against the matrix it builds. During
training, clients and the evaluator must gather from the one normalized
matrix, a client's network copy must die inside `local_train`, which
returns the client's update, each update must be folded and dropped
before its pool thread trains another, and a round's updates must be
gone before the next round trains. The initial topology, the server step and the
final selection must run on the pool, where the clients allocate, a
client's last topology update must not hold its SGD state or forward
cache, and no step's gradients may outlive it.
"""

import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from dsffs import cli, fed_core, metrics
from dsffs.data import generate_synthetic
from dsffs.fed_core import FedConfig

from test_fed_core import plan_and_train, tiny_partition


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


# a 2000 x 650 float64 matrix, about 10 MB; a first call in the process
# pays for lazy set-up (about 0.7 MB) that is not the data path
SHAPE = dict(n_informative=10, n_noise=640, n_samples=2000)


@pytest.mark.parametrize("mode", ["minmax", "zscore"])
def test_prepare_holds_one_matrix(mode):
    cfg = cli.ExperimentConfig(**SHAPE, normalize=mode, clients=4)
    cli.prepare(cli.ExperimentConfig(n_informative=2, n_noise=3, n_samples=20,
                                     normalize=mode, clients=2))
    parts, peak = traced_peak(lambda: cli.prepare(cfg))
    assert parts.data.X.nbytes == 2000 * 650 * 8
    assert peak <= 1.3 * parts.data.X.nbytes, peak / parts.data.X.nbytes


def test_generate_synthetic_holds_one_matrix():
    generate_synthetic(2, 3, 20, 2, seed=1)
    ds, peak = traced_peak(lambda: generate_synthetic(**SHAPE, n_classes=2, seed=1))
    assert ds.X.nbytes == 2000 * 650 * 8
    assert peak <= 1.2 * ds.X.nbytes, peak / ds.X.nbytes


@pytest.mark.parametrize("mode", ["minmax", "zscore"])
def test_prepare_normalizes_a_callers_dataset_in_place(mode):
    # figure1 builds its datasets itself and hands them to prepare
    cfg = cli.ExperimentConfig(**SHAPE, normalize=mode, clients=4)
    cli.prepare(cli.ExperimentConfig(n_informative=2, n_noise=3, n_samples=20,
                                     normalize=mode, clients=2))
    ds = cli.build_dataset(cfg)
    X = ds.X
    parts, peak = traced_peak(lambda: cli.prepare(cfg, ds))
    # one chunk of rows at a time, never a copy of the matrix
    assert peak < 0.3 * X.nbytes, peak / X.nbytes
    assert parts.data.X is X and ds.X is X
    # the same bytes as a dataset that prepare builds itself
    assert ds.X.tobytes() == cli.prepare(cfg).data.X.tobytes()


def cfg(**kw):
    base = dict(hidden_dims=[5], clients=3, rounds=3, sparsity=0.5, k_features=2,
                local_epochs=2, batch_size=4, seed=0, lr=0.05, zeta=0.2, beta=0.5)
    base.update(kw)
    return FedConfig(**base)


def test_clients_index_the_shared_matrix(monkeypatch):
    parts = tiny_partition(m=3)
    seen = []
    real = fed_core.local_train

    def spy(X, y, rows, *rest):
        seen.append((X, y, rows))
        return real(X, y, rows, *rest)

    monkeypatch.setattr(fed_core, "local_train", spy)
    plan_and_train(cfg(), parts)
    assert len(seen) == 3 * 3
    for k, (X, y, rows) in enumerate(seen):
        assert X is parts.data.X and y is parts.data.y
        assert rows is parts.shards[k % 3]


def test_evaluator_indexes_the_shared_matrix(monkeypatch):
    parts = tiny_partition(m=3)
    seen = []
    real = metrics.accuracy

    def spy(net, data, rows):
        seen.append((data, rows))
        return real(net, data, rows)

    monkeypatch.setattr(metrics, "accuracy", spy)
    plan_and_train(cfg(), parts)
    assert len(seen) == 3
    for (X, y), rows in seen:
        assert X is parts.data.X and y is parts.data.y
        assert rows is parts.test


def spy_on_client_networks(monkeypatch):
    """Per thread, a weakref to the network the latest `local_train` there trained.

    Only a client's own copy goes through `fed_core.forward`: the
    evaluator calls `metrics.forward`.
    """
    trained = {}
    real = fed_core.forward

    def forward(net, *rest):
        trained[threading.get_ident()] = weakref.ref(net)
        return real(net, *rest)

    monkeypatch.setattr(fed_core, "forward", forward)
    return trained


@pytest.mark.parametrize("workers", [1, 3])
def test_round_client_networks_released_before_next_round(monkeypatch, workers):
    parts = tiny_partition(m=3)
    trained = spy_on_client_networks(monkeypatch)
    returned = []          # (round, weakref to a client update)
    alive_at_start = []
    net_alive_at_return = []
    real = fed_core.local_train

    def spy(X, y, rows, global_net, counts, r, *rest):
        alive_at_start.extend((r, q) for q, ref in returned if q < r and ref() is not None)
        update = real(X, y, rows, global_net, counts, r, *rest)
        net_alive_at_return.append(trained[threading.get_ident()]() is not None)
        returned.append((r, weakref.ref(update)))
        return update

    monkeypatch.setattr(fed_core, "local_train", spy)
    plan_and_train(cfg(workers=workers), parts)
    assert len(returned) == 3 * 3
    assert alive_at_start == []
    assert np.all([ref() is None for _, ref in returned])
    # the client's network copy died inside local_train
    assert net_alive_at_return == [False] * 3 * 3


@pytest.mark.parametrize("workers", [1, 3])
def test_at_most_one_client_network_per_worker(monkeypatch, workers):
    # five clients on fewer threads: a client's network dies inside
    # local_train, and a thread folds its client's update and drops it
    # before it trains the next, so when local_train starts the other
    # threads hold at most one update each and this thread none
    parts = tiny_partition(m=5)
    trained = spy_on_client_networks(monkeypatch)
    returned = []          # weakrefs to every client update made so far
    alive_at_start = []
    net_alive_at_return = []
    real = fed_core.local_train

    def spy(*args):
        alive_at_start.append(sum(ref() is not None for ref in list(returned)))
        update = real(*args)
        net_alive_at_return.append(trained[threading.get_ident()]() is not None)
        returned.append(weakref.ref(update))
        return update

    monkeypatch.setattr(fed_core, "local_train", spy)
    plan_and_train(cfg(clients=5, workers=workers, hidden_dims=[8]), parts)
    assert len(alive_at_start) == 5 * 3
    assert max(alive_at_start) <= workers - 1, alive_at_start
    assert net_alive_at_return == [False] * 5 * 3


def test_failing_client_fails_the_run(monkeypatch):
    # client 1 of 4 raises in round 2. At three workers client 2 waits on
    # its fold, and the run must raise its error rather than hang; at one
    # worker clients 2 and 3 find it failed and raise without training
    parts = tiny_partition(m=4)
    real = fed_core.local_train
    trained = []           # the clients round 2 called local_train for

    def spy(X, y, rows, global_net, counts, r, *rest):
        if r == 2:
            trained.append(next(m for m, shard in enumerate(parts.shards) if rows is shard))
        if r == 2 and rows is parts.shards[1]:
            raise RuntimeError("client 1 failed in round 2")
        return real(X, y, rows, global_net, counts, r, *rest)

    monkeypatch.setattr(fed_core, "local_train", spy)
    for workers in (3, 1):
        trained.clear()
        raised = []

        def run():
            try:
                plan_and_train(cfg(clients=4, workers=workers), parts)
            except Exception as exc:  # noqa: BLE001 - handed to the test thread
                raised.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "the round hung after a client failed"
        assert [(type(exc), str(exc)) for exc in raised] == [
            (RuntimeError, "client 1 failed in round 2")]
    assert trained == [0, 1]


@pytest.mark.parametrize("workers", [1, 3])
def test_server_step_runs_on_the_pool(monkeypatch, workers):
    # glibc gives each allocating thread its own arena; at one worker the
    # whole round must allocate on one thread, and never on the caller's
    parts = tiny_partition(m=3)
    threads = {"client": [], "server": []}

    def on_thread(role, real):
        def spy(*args):
            threads[role].append(threading.get_ident())
            return real(*args)
        return spy

    monkeypatch.setattr(fed_core, "local_train", on_thread("client", fed_core.local_train))
    for name in ("init_er_topology", "resparsify_and_reconcile", "select_features"):
        monkeypatch.setattr(fed_core, name, on_thread("server", getattr(fed_core, name)))
    monkeypatch.setattr(metrics.MetricsRecorder, "record_round",
                        on_thread("server", metrics.MetricsRecorder.record_round))
    plan_and_train(cfg(workers=workers), parts)
    # the initial topology, two calls a round and the final selection
    assert len(threads["client"]) == 3 * 3 and len(threads["server"]) == 1 + 2 * 3 + 1
    assert threading.get_ident() not in threads["server"]
    if workers == 1:
        assert set(threads["server"]) == set(threads["client"])


@pytest.mark.parametrize("local_epochs", [1, 3])
def test_step_gradients_die_before_the_next_backward(monkeypatch, local_epochs):
    # a layer's dense weight gradient is as large as the layer; the one a
    # step or a topology update read must be gone when the next is made
    parts = tiny_partition(m=3)
    made = []              # weakref to every Gradients backward returned
    alive = []             # Gradients still alive when backward is called
    real = fed_core.backward

    def backward(*args):
        alive.append(sum(ref() is not None for ref in made))
        grads = real(*args)
        made.append(weakref.ref(grads))
        return grads

    monkeypatch.setattr(fed_core, "backward", backward)
    plan_and_train(cfg(workers=1, local_epochs=local_epochs), parts)
    assert len(made) > 3 * 3 * local_epochs
    assert alive == [0] * len(made)


def test_last_topology_update_holds_no_sgd_state_or_cache(monkeypatch):
    # the last epoch's update runs after the last sgd_step and the last
    # forward; neither's state is read again, so neither may be alive
    parts = tiny_partition(m=3)
    config = cfg(workers=1, local_epochs=3)
    last = {}              # "state" / "cache" -> weakref to the latest one
    alive = []             # (epoch, state alive, cache alive) at each prune_input
    real_step, real_forward, real_prune = (
        fed_core.sgd_step, fed_core.forward, fed_core.prune_input)

    def step(*args):
        state = real_step(*args)
        last["state"] = weakref.ref(state)
        return state

    def forward(*args):
        out, cache = real_forward(*args)
        last["cache"] = weakref.ref(cache)
        return out, cache

    def prune(*args):
        alive.append((len(alive) % config.local_epochs + 1,
                      last["state"]() is not None, last["cache"]() is not None))
        return real_prune(*args)

    monkeypatch.setattr(fed_core, "sgd_step", step)
    monkeypatch.setattr(fed_core, "forward", forward)
    monkeypatch.setattr(fed_core, "prune_input", prune)
    plan_and_train(config, parts)
    assert len(alive) == 3 * 3 * config.local_epochs
    # earlier epochs still move the momentum onto the new masks
    assert all(state for q, state, _ in alive if q < config.local_epochs)
    assert not any(state for q, state, _ in alive if q == config.local_epochs)
    assert not any(cache for _, _, cache in alive)
