"""One program run of a benchmark workload, in a fresh process.

Follows `dsffs run --workers 1 --out out` (cli.cmd_run): load_config ->
prepare -> run_training -> metrics.csv and selected_features.json under
./out. Then it checks the outputs from outside the program and prints one
JSON line. An untraced run records spans (spans.py) only around the two
calls cmd_run makes into prepare and run_training. With --trace 1 every
module boundary below them is wrapped too, and a per-layer
microbenchmark runs after the outputs are written.

Run by run.py, which sets PYTHONPATH to the repository's src/ and pins the
BLAS thread pools to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import sys
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from dsffs import cli
from dsffs.sparse_net import SparseNetwork, backward, forward, sgd_step

OUT = "out"
OUTPUT_FILES = ("metrics.csv", "selected_features.json")
SETUP_REPEATS = 3          # prepare() calls timed per untraced run, at least ...
SETUP_BUDGET_S = 0.5       # ... and until this much time went to them
MICRO_BATCH = 32
MICRO_BUDGET_S = 0.2       # time spent timing each (layer, operation) pair


def check_outputs(cfg, server, selection, out: Path) -> list[str]:
    """The invariants a finished run must satisfy, checked on what it returned and wrote."""
    problems = []
    net = server.global_model
    if net.layer_nnz() != net.nnz_targets:
        problems.append(f"layer nnz {net.layer_nnz()} != targets {net.nnz_targets}")
    try:
        net.validate()
    except AssertionError as exc:
        problems.append(f"validate: {exc}")
    layer0 = net.layers[0]
    removed = server.global_removed
    if layer0.mask[removed].any() or np.any(layer0.weights[removed] != 0.0):
        problems.append("a removed input row still has connections or weights")
    planned = server.schedule.T if cfg.feature_selection else 0
    if sum(server.schedule.history) != planned:
        problems.append(f"schedule removed {sum(server.schedule.history)}, planned {planned}")
    k = min(cfg.k_features, layer0.rows)
    connected = int(layer0.mask.any(axis=1).sum())
    if connected < k:
        problems.append(f"{connected} connected inputs < K={k}")
    if not all(np.isfinite(l.weights).all() and np.isfinite(l.bias).all() for l in net.layers):
        problems.append("non-finite weight or bias")
    idx = selection.indices
    if len(idx) != k or len(set(idx)) != k or not all(0 <= i < layer0.rows for i in idx):
        problems.append(f"selection is not {k} distinct in-range indices")
    lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    if len(lines) != cfg.rounds + 1:
        problems.append(f"metrics.csv has {len(lines) - 1} rows for {cfg.rounds} rounds")
    manifest = json.loads((out / "selected_features.json").read_text(encoding="utf-8"))
    if manifest["selected_features"] != idx:
        problems.append("selected_features.json disagrees with the returned selection")
    return problems


def per_call_us(fn) -> float:
    """Median wall time of one call, over MICRO_BUDGET_S of repeated calls."""
    times = []
    end = perf_counter() + MICRO_BUDGET_S
    while perf_counter() < end or len(times) < 5:
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return 1e6 * statistics.median(times)


def layer_microbench(net: SparseNetwork, seed: int) -> dict[str, float]:
    """forward/backward/sgd_step at batch 32 on one-layer networks cut from `net`."""
    rng = np.random.default_rng(seed)
    out, live, dense = {}, 0, 0
    for l, layer in enumerate(net.layers):
        one = SparseNetwork([layer.copy()], net.sparsity, [net.layer_densities[l]],
                            [net.nnz_targets[l]])
        x = rng.standard_normal((MICRO_BATCH, layer.rows))
        y = rng.integers(0, layer.cols, MICRO_BATCH)
        _, cache = forward(one, x)
        grads = backward(one, cache, y)
        velocity = sgd_step(one, grads, 1e-3, 0.9)
        out[f"sparse_net.L{l}.forward_us"] = per_call_us(lambda: forward(one, x))
        # backward checks that the cache is current, so it goes before the steps
        _, cache = forward(one, x)
        out[f"sparse_net.L{l}.backward_us"] = per_call_us(lambda: backward(one, cache, y))
        out[f"sparse_net.L{l}.sgd_step_us"] = per_call_us(
            lambda: sgd_step(one, grads, 1e-3, 0.9, velocity))
        out[f"sparse_net.L{l}.live_macs"] = layer.nnz()
        out[f"sparse_net.L{l}.dense_macs"] = layer.rows * layer.cols
        live += layer.nnz()
        dense += layer.rows * layer.cols
    out["sparse_net.useful_mac_fraction"] = live / dense
    return out


def traced_metrics(tracer: spans.Tracer, cfg, metrics) -> dict:
    """Per-module metrics of a traced run, per round unless named otherwise."""
    rounds = cfg.rounds
    st = tracer.self_times()
    out = {}
    with_calls = [f"sparse_net.{f}" for f in ("forward", "backward", "sgd_step", "mask_velocity")]
    with_calls += [f"input_selector.{f}" for f in ("prune_input", "regrow_input")]
    with_calls += [f"dst_update.{f}" for f in ("magnitude_prune_hidden", "gradient_regrow_hidden",
                                               "prune_layer_by_magnitude",
                                               "regrow_layer_by_gradient")]
    with_calls.append("metrics.forward")
    for name in with_calls:
        self_s, calls = st.get(name, (0.0, 0))
        out[f"{name}.self_s"] = self_s / rounds
        out[f"{name}.calls"] = calls / rounds
    for name in ("fed_core.local_train", "fed_core.aggregate",
                 "fed_core.resparsify_and_reconcile", spans.ROOT, "metrics.record_round"):
        out[f"{name}.self_s"] = st[name][0] / rounds
    for name in ("generate_synthetic", "partition_noniid", "normalize"):
        out[f"data.{name}.s"] = st[f"data.{name}"][0]
    for name in ("input_selector.pruned_conns", "input_selector.regrown_conns",
                 "dst_update.pruned_conns", "dst_update.regrown_conns"):
        out[name] = tracer.counts[name] / rounds
    for l, turnover in enumerate(spans.mask_turnover(tracer.global_masks)):
        out[f"fed_core.L{l}.global_mask_turnover"] = turnover
    out["metrics.accounted_gflop_per_round"] = metrics[-1].cumulative_flops / rounds / 1e9
    out["metrics.upload_bits_per_round"] = metrics[-1].cumulative_upload_bits / rounds
    return out


def topology_updates(cfg) -> tuple[int, int]:
    """(input-layer, dst_update) topology updates a run attempts."""
    per_client = cfg.rounds * cfg.local_epochs * (cfg.clients_per_round or cfg.clients)
    input_updates = per_client if cfg.feature_selection else 0
    dst_updates = per_client if cfg.zeta > 0.0 else 0
    return input_updates, dst_updates


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cfg = cli.load_config(args.config, {"workers": 1})
    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)
    metas, trained = [], []
    tracer.wrap(cli, "prepare", "cli.prepare",
                after=lambda _, parts: metas.append(parts.data.meta))
    tracer.wrap(cli, "run_training", spans.ROOT, after=lambda _, out: trained.append(out))

    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        cli.cmd_run(argparse.Namespace(config=args.config, workers=1, out=OUT))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        # cmd_run's own prepare call was the first sample; take more now
        # that the run's peak memory has been read
        while (len(tracer.durations("cli.prepare")) < SETUP_REPEATS
               or sum(tracer.durations("cli.prepare")) < SETUP_BUDGET_S):
            cli.prepare(cfg)

    informative = set(metas[0]["informative_idx"])
    server, metrics, selection = trained.pop()
    [train_s] = tracer.durations(spans.ROOT)
    out = Path(OUT)
    warned = Counter(Path(w.filename).stem for w in caught
                     if issubclass(w.category, RuntimeWarning))
    input_updates, dst_updates = topology_updates(cfg)
    degraded = {
        # select_features warns from input_selector too; keep it apart
        "input_selector.shortfall_events": warned["input_selector"] - int(selection.shortfall),
        "input_selector.topology_updates": input_updates,
        "dst_update.shortfall_events": warned["dst_update"],
        "dst_update.topology_updates": dst_updates,
        "selection_shortfall": int(selection.shortfall),
    }
    result = {
        "problems": check_outputs(cfg, server, selection, out),
        "sha256": {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in OUTPUT_FILES},
        "round_s": train_s / cfg.rounds,
        "setup_s": tracer.durations("cli.prepare"),
        "peak_rss_mb": peak_rss_mb,
        "final_accuracy": metrics[-1].test_accuracy,
        "recovery_fraction": len(informative & set(selection.indices)) / len(informative),
        "degraded": degraded,
        "environment": environment(),
    }

    if args.trace:
        run_span, by_module = tracer.root_breakdown()
        unaccounted = run_span - sum(by_module.values())
        if abs(unaccounted) > 1e-6:
            result["problems"].append(f"self times miss {unaccounted:.3g} s of run_training")
        result["module_share"] = {m: s / run_span for m, s in sorted(by_module.items())}
        per_layer = traced_metrics(tracer, cfg, metrics)
        per_layer.update(layer_microbench(server.global_model, cfg.seed))
        per_layer.update(degraded)
        per_layer.update((key, result[key]) for key in ("final_accuracy", "recovery_fraction"))
        result["per_layer"] = per_layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
