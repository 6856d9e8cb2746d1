"""Memory regressions: how many copies of the data and of the client networks live at once.

tracemalloc counts numpy's array allocations on any platform, so the data
path's peak is measured in bytes against the matrix it builds. During
training, clients and the evaluator must gather from the one normalized
matrix, each client network must be folded and dropped before its pool
thread trains another, and a round's client networks must be gone before
the next round trains. The server step must run on the pool, where the
clients allocate, and a client's last topology update must not hold its
SGD state or forward cache.
"""

import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from dsffs import cli, fed_core, metrics
from dsffs.data import generate_synthetic
from dsffs.fed_core import FedConfig, run_training

from test_fed_core import tiny_partition


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
    run_training(cfg(), parts)
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
    run_training(cfg(), parts)
    assert len(seen) == 3
    for (X, y), rows in seen:
        assert X is parts.data.X and y is parts.data.y
        assert rows is parts.test


@pytest.mark.parametrize("workers", [1, 3])
def test_round_client_networks_released_before_next_round(monkeypatch, workers):
    parts = tiny_partition(m=3)
    returned = []          # (round, weakref to a client network)
    alive_at_start = []
    real = fed_core.local_train

    def spy(X, y, rows, global_net, counts, r, *rest):
        alive_at_start.extend((r, q) for q, ref in returned if q < r and ref() is not None)
        net = real(X, y, rows, global_net, counts, r, *rest)
        returned.append((r, weakref.ref(net)))
        return net

    monkeypatch.setattr(fed_core, "local_train", spy)
    run_training(cfg(workers=workers), parts)
    assert len(returned) == 3 * 3
    assert alive_at_start == []
    assert np.all([ref() is None for _, ref in returned])


@pytest.mark.parametrize("workers", [1, 3])
def test_at_most_one_client_network_per_worker(monkeypatch, workers):
    # five clients on fewer threads: a thread folds its client and drops
    # the network before it trains the next, so when local_train starts the
    # other threads hold at most one network each and this thread none
    parts = tiny_partition(m=5)
    returned = []          # weakrefs to every client network trained so far
    alive_at_start = []
    real = fed_core.local_train

    def spy(*args):
        alive_at_start.append(sum(ref() is not None for ref in list(returned)))
        net = real(*args)
        returned.append(weakref.ref(net))
        return net

    monkeypatch.setattr(fed_core, "local_train", spy)
    run_training(cfg(clients=5, workers=workers, hidden_dims=[8]), parts)
    assert len(alive_at_start) == 5 * 3
    assert max(alive_at_start) <= workers - 1, alive_at_start


def test_failing_client_fails_the_run(monkeypatch):
    # client 1 of 4 raises in round 2 at three workers: client 2 waits on
    # its fold, and the run must raise its error rather than hang
    parts = tiny_partition(m=4)
    real = fed_core.local_train

    def spy(X, y, rows, global_net, counts, r, *rest):
        if r == 2 and rows is parts.shards[1]:
            raise RuntimeError("client 1 failed in round 2")
        return real(X, y, rows, global_net, counts, r, *rest)

    monkeypatch.setattr(fed_core, "local_train", spy)
    raised = []

    def run():
        try:
            run_training(cfg(clients=4, workers=3), parts)
        except Exception as exc:  # noqa: BLE001 - handed to the test thread
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "the round hung after a client failed"
    assert [(type(exc), str(exc)) for exc in raised] == [
        (RuntimeError, "client 1 failed in round 2")]


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
    monkeypatch.setattr(fed_core, "resparsify_and_reconcile",
                        on_thread("server", fed_core.resparsify_and_reconcile))
    monkeypatch.setattr(metrics.MetricsRecorder, "record_round",
                        on_thread("server", metrics.MetricsRecorder.record_round))
    run_training(cfg(workers=workers), parts)
    assert len(threads["client"]) == 3 * 3 and len(threads["server"]) == 2 * 3
    assert threading.get_ident() not in threads["server"]
    if workers == 1:
        assert set(threads["server"]) == set(threads["client"])


def test_last_topology_update_holds_no_sgd_state_or_cache(monkeypatch):
    # the last epoch's update runs after the last sgd_step and the last
    # forward; neither's state is read again, so neither may be alive
    parts = tiny_partition(m=3)
    config = cfg(workers=1, local_epochs=3)
    last = {}              # "state" / "cache" -> weakref to the latest one
    alive = []             # (epoch, state alive, cache alive) at each regrow_input
    real_step, real_forward, real_regrow = (
        fed_core.sgd_step, fed_core.forward, fed_core.regrow_input)

    def step(*args):
        state = real_step(*args)
        last["state"] = weakref.ref(state)
        return state

    def forward(*args):
        out, cache = real_forward(*args)
        last["cache"] = weakref.ref(cache)
        return out, cache

    def regrow(*args):
        alive.append((len(alive) % config.local_epochs + 1,
                      last["state"]() is not None, last["cache"]() is not None))
        return real_regrow(*args)

    monkeypatch.setattr(fed_core, "sgd_step", step)
    monkeypatch.setattr(fed_core, "forward", forward)
    monkeypatch.setattr(fed_core, "regrow_input", regrow)
    run_training(config, parts)
    assert len(alive) == 3 * 3 * config.local_epochs
    # earlier epochs still move the momentum onto the new masks
    assert all(state for q, state, _ in alive if q < config.local_epochs)
    assert not any(state for q, state, _ in alive if q == config.local_epochs)
    assert not any(cache for _, _, cache in alive)
