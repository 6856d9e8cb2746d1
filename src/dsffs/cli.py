"""Experiment driver: config parsing, training runs, metric/manifest output.

Configs are flat key: value files (YAML syntax, one level deep). Every
unset key resolves to a documented default and the fully resolved config
is written next to the outputs by the same YAML library that reads it, so
it loads back and a run is reproducible from its output directory alone.

Each command builds the text of every file it writes, then `write_outputs`
writes them all or none: a run that fails before its files are moved into
place leaves no new output directory, and an existing one as it was.

Exit codes: 0 ok, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import shutil
import sys
import uuid
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import yaml

from .data import (Dataset, generate_synthetic, load_csv, load_idx, load_libsvm, normalize,
                   partition_noniid)
from .fed_core import FedConfig, plan_run, run_training
from .metrics import RoundMetrics
from .sparse_net import ConfigError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


@dataclass
class ExperimentConfig(FedConfig):
    """One run: FedConfig's training keys plus the data and output keys.

    Every key is declared once, here or on FedConfig, and `load_config`
    parses it by its field type. Defaults follow the standard setup.
    """

    dataset: str = "synthetic"          # synthetic | csv | idx | libsvm
    path: str | None = None             # idx: "images_path,labels_path"
    label_column: str | None = None
    n_features: int | None = None       # libsvm width override
    n_informative: int = 20
    n_noise: int = 480
    n_samples: int = 2000
    n_classes: int = 2
    separation: float = 1.0
    normalize: str = "minmax"           # minmax | zscore | none
    test_fraction: float = 0.2
    dirichlet_alpha: float = 0.5
    out_dir: str = "runs/out"


def _number(name: str, value, integer: bool):
    """A finite YAML number, or a string float() reads ("1e-05" is one)."""
    what = "an integer" if integer else "a number"
    wrong = ConfigError(f"config key {name!r} must be {what}")
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise wrong
    try:
        number = float(value)
    except (ValueError, OverflowError):
        raise wrong from None
    if not math.isfinite(number):
        raise ConfigError(f"config key {name!r} must be finite, got {number}")
    if not integer:
        return number
    if not number.is_integer():
        raise wrong
    return value if isinstance(value, int) else int(number)


def _coerce(name: str, value, kind: str):
    """Parse one value by its field's annotation, e.g. "int | None"."""
    if value is None:
        if kind.endswith(" | None"):
            return None
        raise ConfigError(f"config key {name!r} may not be null")
    kind = kind.removesuffix(" | None")
    if kind == "bool":
        if isinstance(value, bool):
            return value
        raise ConfigError(f"config key {name!r} must be true or false")
    if kind in ("int", "float"):
        return _number(name, value, kind == "int")
    if kind == "list[int]":
        if isinstance(value, str):
            value = [v for v in value.replace(",", " ").split() if v]
        if not isinstance(value, list) or not value:
            raise ConfigError(f"config key {name!r} must be a non-empty list")
        return [_number(name, v, integer=True) for v in value]
    return str(value)


# annotations are strings (postponed evaluation in this module and fed_core)
_KINDS = {f.name: f.type for f in fields(ExperimentConfig)}


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a flat config file; unknown keys are rejected."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a flat key: value mapping")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    cfg = ExperimentConfig()
    for key, value in raw.items():
        if key not in _KINDS:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _coerce(key, value, _KINDS[key]))
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.dataset not in ("synthetic", "csv", "idx", "libsvm"):
        raise ConfigError(f"unknown dataset kind {cfg.dataset!r}")
    for part in _dataset_files(cfg):
        if not os.path.exists(part):
            raise ConfigError(f"dataset file not found: {part}")
    if cfg.n_features is not None and cfg.n_features < 1:
        raise ConfigError(f"n_features must be at least 1, got {cfg.n_features}")
    if cfg.normalize not in ("minmax", "zscore", "none"):
        raise ConfigError(f"unknown normalize mode {cfg.normalize!r}")
    if not 0.0 < cfg.test_fraction < 1.0:
        raise ConfigError("test_fraction must be in (0, 1)")
    cfg.validate()


def _dataset_files(cfg: ExperimentConfig) -> list[str]:
    """A config's dataset files: none, its path, or idx's stripped images and labels."""
    if cfg.dataset == "synthetic":
        return []
    if not cfg.path:
        raise ConfigError(f"dataset {cfg.dataset!r} requires a path")
    if cfg.dataset != "idx":
        return [cfg.path]   # a comma or blank in any other path is part of it
    files = [p.strip() for p in cfg.path.split(",")]
    if len(files) != 2:
        raise ConfigError(f"idx path must name 'images_path,labels_path', got {cfg.path!r}")
    return files


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    files = _dataset_files(cfg)
    if cfg.dataset == "csv":
        return load_csv(*files, label_column=cfg.label_column)
    if cfg.dataset == "idx":
        return load_idx(*files)
    if cfg.dataset == "libsvm":
        return load_libsvm(*files, n_features=cfg.n_features)
    return generate_synthetic(cfg.n_informative, cfg.n_noise, cfg.n_samples,
                              cfg.n_classes, cfg.seed, cfg.separation)


def prepare(cfg: ExperimentConfig, ds: Dataset | None = None):
    """Dataset -> normalized, partitioned dataset ready for run_training.

    Builds the dataset unless given one. Either way its matrix is normalized
    in place, with statistics from the training shards, and the partition
    holds that same dataset: a caller's `ds` comes back normalized.
    """
    if ds is None:
        ds = build_dataset(cfg)
    parts = partition_noniid(ds, cfg.clients, cfg.dirichlet_alpha, cfg.seed,
                             test_fraction=cfg.test_fraction)
    if cfg.normalize != "none":
        normalize(ds, cfg.normalize, np.sort(np.concatenate(parts.shards)))
    return parts


def write_outputs(cfg: ExperimentConfig, files: dict[str, str]) -> None:
    """Write `config.resolved` and each (file name, text) of `files` into cfg.out_dir.

    All files or none. Each is written, UTF-8 with "\\n" line ends, into a
    fresh directory: a new out_dir is that directory renamed into place;
    into an existing one each file is moved up, and files this call does
    not write stay. On any error the fresh directory is removed and the
    error re-raised. Callers build every text before the call, so nothing
    is formatted once a file exists.
    """
    # the library that reads configs quotes what it would misread
    texts = {"config.resolved": yaml.safe_dump(asdict(cfg), sort_keys=True,
                                               default_flow_style=None, width=math.inf),
             **files}
    out = os.path.normpath(cfg.out_dir)
    exists = os.path.isdir(out)
    parent = out if exists else os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    # os.mkdir gives the mode os.makedirs gives, where tempfile.mkdtemp gives 0o700
    scratch = os.path.join(parent, f".dsffs-{uuid.uuid4().hex}.tmp")
    os.mkdir(scratch)
    try:
        for name, text in texts.items():
            with open(os.path.join(scratch, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        if exists:
            for name in texts:
                os.replace(os.path.join(scratch, name), os.path.join(out, name))
            os.rmdir(scratch)
        else:
            os.rename(scratch, out)
    except BaseException:
        shutil.rmtree(scratch, ignore_errors=True)
        raise


def cmd_run(args) -> int:
    cfg = load_config(args.config, {"workers": args.workers, "out_dir": args.out})
    parts = prepare(cfg)
    server, metrics, selection = run_training(cfg, parts, plan_run(cfg, parts))

    manifest = {
        "selected_features": selection.indices,
        "strengths": selection.strengths,
        "k_requested": selection.requested,
        "shortfall": selection.shortfall,
        "seed": cfg.seed,
        "config": asdict(cfg),
    }
    rows = [RoundMetrics.CSV_HEADER] + [m.csv_row() for m in metrics]
    # written only once training returned: a failed run leaves no directory
    write_outputs(cfg, {
        "metrics.csv": "\n".join(rows) + "\n",
        "selected_features.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    })

    final = metrics[-1]
    print(f"done: {cfg.rounds} rounds, final accuracy {final.test_accuracy:.4f}, "
          f"{final.connected_input_neurons} connected inputs, "
          f"{len(selection.indices)} features -> {cfg.out_dir}")
    return EXIT_OK


def figure1_study(cfg: ExperimentConfig):
    """The noisy-feature study on cfg's synthetic draw; returns (informative, runs).

    Trains three configurations on one draw: (1) informative columns only,
    no feature selection; (2) all columns, no feature selection; (3) all
    columns with feature selection on. `informative` holds the ground-truth
    column indices and `runs` the three `run_training` results, in that
    order. Every run is planned before any trains, so a config error
    raises first.
    """
    if cfg.dataset != "synthetic":
        raise ConfigError("the figure1 study requires a synthetic dataset config")
    ds = build_dataset(cfg)
    informative = ds.meta["informative_idx"]
    # taken before prepare normalizes ds; np.take keeps the columns row-major
    original = Dataset(np.take(ds.X, informative, axis=1), ds.y.copy(),
                       name=ds.name + "_original", meta=dict(ds.meta))

    informative_only = prepare(cfg, original)
    # run_training only reads its data: both noisy runs share one partition
    noisy = prepare(cfg, ds)
    runs = [(replace(cfg, feature_selection=fs, k_features=min(cfg.k_features, parts.data.d)),
             parts, what)
            for parts, fs, what in [
                (informative_only, False, "informative features only (no selection)"),
                (noisy, False, "noisy features (no selection)"),
                (noisy, True, "noisy features with selection")]]
    plans = [plan_run(sub, parts) for sub, parts, _ in runs]
    results = []
    for (sub, parts, what), plan in zip(runs, plans):
        log.info("figure1: training on %s", what)
        results.append(run_training(sub, parts, plan))
    return informative, results


def cmd_figure1(args) -> int:
    """Write the three accuracy curves and the recovery report of `figure1_study`.

    Acceptance criterion 6 (tests/test_acceptance.py) gates this study
    itself, on the shipped desk config at seeds 1-5.
    """
    cfg = load_config(args.config, {"out_dir": args.out})
    informative, runs = figure1_study(cfg)
    (_, m_orig, _), (_, m_noisy, _), (_, m_fs, selection) = runs

    recovered = sorted(set(selection.indices) & set(informative))
    report = {
        "n_informative": len(informative),
        "informative_idx": list(informative),
        "selected_features": selection.indices,
        "recovered": recovered,
        "recovery_fraction": len(recovered) / len(informative),
        "final_acc_original": m_orig[-1].test_accuracy,
        "final_acc_noisy_nofs": m_noisy[-1].test_accuracy,
        "final_acc_noisy_fs": m_fs[-1].test_accuracy,
        "seed": cfg.seed,
    }
    curves = ["round,acc_original,acc_noisy_nofs,acc_noisy_fs"] + [
        f"{a.round},{a.test_accuracy:.10g},{b.test_accuracy:.10g},{c.test_accuracy:.10g}"
        for a, b, c in zip(m_orig, m_noisy, m_fs)]
    write_outputs(cfg, {
        "figure1_curves.csv": "\n".join(curves) + "\n",
        "figure1_report.json": json.dumps(report, indent=2, sort_keys=True) + "\n",
    })

    print(f"figure1: original {report['final_acc_original']:.4f}, "
          f"noisy {report['final_acc_noisy_nofs']:.4f}, "
          f"with selection {report['final_acc_noisy_fs']:.4f}, "
          f"recovery {report['recovery_fraction']:.2f} -> {cfg.out_dir}")
    return EXIT_OK


def _histogram_line(y: np.ndarray, n_classes: int) -> str:
    counts = np.bincount(y, minlength=n_classes)
    return " ".join(f"{c}:{n}" for c, n in enumerate(counts))


def cmd_inspect(args) -> int:
    """Print the dataset, partition and plan (`plan_run`) a run of this config has."""
    cfg = load_config(args.config)
    parts = prepare(cfg)
    plan = plan_run(cfg, parts)
    ds = parts.data
    print(f"name: {ds.name}")
    print(f"N={ds.n} D={ds.d} C={ds.n_classes}")
    print("class histogram:", _histogram_line(ds.y, ds.n_classes))
    print(f"test split: {len(parts.test)} samples")
    for m, shard in enumerate(parts.shards):
        print(f"shard {m}: {len(shard)} samples |",
              _histogram_line(ds.y[shard], ds.n_classes))
    rows = ds.d - plan.removal.T
    print("layers:", "-".join(map(str, plan.dims)), "| connection targets:", *plan.targets)
    print(f"removal: T={plan.removal.T} r_remove={plan.removal.r_remove} K={plan.k}, "
          f"{rows} inputs left")
    print(f"layer 0 after removal: {rows} rows x {plan.dims[1]} = {rows * plan.dims[1]} "
          f"positions for {plan.targets[0]} connections")
    print(f"planned costs: {plan.cumulative_flops[-1]} FLOPs, "
          f"{plan.cumulative_upload_bits[-1]} upload bits")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsffs",
        description="Dynamic sparse federated feature selection simulator",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log per-round progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train and emit metrics + feature manifest")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--workers", type=int, default=None,
                       help="client training threads (default: one per client, at most "
                            "one per CPU this process may run on)")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.set_defaults(func=cmd_run)

    p_fig = sub.add_parser("figure1", help="noisy-feature study on synthetic data")
    p_fig.add_argument("--config", required=True)
    p_fig.add_argument("--out", default=None)
    p_fig.set_defaults(func=cmd_figure1)

    p_ins = sub.add_parser("inspect", help="print the dataset, partition and plan of a run")
    p_ins.add_argument("--config", required=True)
    p_ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.debug("runtime failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
