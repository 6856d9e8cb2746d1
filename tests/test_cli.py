import importlib.util
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsffs.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ExperimentConfig,
    load_config,
    main,
    prepare,
    write_resolved_config,
)
from dsffs.sparse_net import ConfigError

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("*.yaml"))
_spec = importlib.util.spec_from_file_location("workloads", REPO / "roundbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# one path component: any text a file system takes that stays inside the cwd
FILE_NAMES = st.text(min_size=1, max_size=40).filter(
    lambda s: "/" not in s and "\x00" not in s and s not in (".", ".."))

TINY = """\
dataset: synthetic
n_informative: 4
n_noise: 8
n_samples: 120
n_classes: 2
hidden_dims: [8]
sparsity: 0.5
k_features: 4
rounds: 2
local_epochs: 1
clients: 2
batch_size: 16
seed: 11
"""


# T=0, so nothing is scheduled for removal. Yet the clients' zeta=0.9
# connection prune takes rows' last connections, and the round-3 adjust
# swap leaves 10 of the 14 inputs connected: fewer than the 11 requested
SHORTFALL = json.dumps({
    "dataset": "synthetic", "n_informative": 3, "n_noise": 11, "n_samples": 39,
    "n_classes": 2, "hidden_dims": [8, 8], "sparsity": 0.5, "k_features": 11,
    "rounds": 3, "local_epochs": 3, "clients": 4, "batch_size": 4, "lr": 0.05,
    "zeta": 0.9, "beta": 0.9, "adjust_every": 3, "adjust_rate": 0.9, "seed": 14267,
})

# numpy warns on its way to the non-finite weights that fail the run
DIVERGES = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                      "ignore:invalid value encountered:RuntimeWarning")


def write_cfg(tmp_path, text=TINY, name="exp.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_defaults_fill_unset_keys(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.rounds == 2
        assert cfg.zeta == 0.2 and cfg.beta == 0.65  # untouched defaults
        assert cfg.mu == 0.0

    def test_unknown_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path, TINY + "bogus_knob: 3\n")
        with pytest.raises(ConfigError, match="bogus_knob"):
            load_config(p)

    def test_single_client_rejected(self, tmp_path):
        p = write_cfg(tmp_path, TINY.replace("clients: 2", "clients: 1"))
        with pytest.raises(ConfigError, match="two clients"):
            load_config(p)

    def test_type_errors_named(self, tmp_path):
        p = write_cfg(tmp_path, TINY.replace("rounds: 2", "rounds: soon"))
        with pytest.raises(ConfigError, match="rounds"):
            load_config(p)

    def test_hidden_dims_accepts_csv_string(self, tmp_path):
        p = write_cfg(tmp_path, TINY.replace("hidden_dims: [8]", "hidden_dims: 16, 8"))
        assert load_config(p).hidden_dims == [16, 8]

    @pytest.mark.parametrize("entry", ["2.7", "true", ".inf"])
    def test_hidden_dims_entries_parsed_as_integers(self, tmp_path, entry):
        # each entry is an int key: no truncation, no bool, no overflow
        p = write_cfg(tmp_path, TINY.replace("hidden_dims: [8]", f"hidden_dims: [{entry}]"))
        with pytest.raises(ConfigError, match="'hidden_dims' must be (an integer|finite)"):
            load_config(p)
        out = tmp_path / "out"
        assert main(["run", "--config", p, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "rounds: .inf", "mu: .nan", "dirichlet_alpha: .nan", "lr: -.inf",
        "k_features: .nan", "workers: .inf", "n_features: -.inf", "lr: nan",
        "sparsity: inf", "separation: 1e400",
    ])
    def test_non_finite_number_rejected(self, tmp_path, line):
        key = line.split(":")[0]
        p = write_cfg(tmp_path, TINY + line + "\n")
        with pytest.raises(ConfigError, match=f"{key}.*finite"):
            load_config(p)
        out = tmp_path / "out"
        assert main(["run", "--config", p, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("n_features", [0, -3])
    def test_n_features_below_one_rejected(self, tmp_path, n_features):
        svm = tmp_path / "toy.svm"
        svm.write_text("0 1:0.5 2:1.0\n1 2:0.25\n" * 10)
        p = write_cfg(tmp_path, TINY.replace("dataset: synthetic",
                                             f"dataset: libsvm\npath: {svm}")
                      + f"n_features: {n_features}\n")
        with pytest.raises(ConfigError, match="n_features must be at least 1"):
            load_config(p)
        out = tmp_path / "out"
        assert main(["run", "--config", p, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_number_written_without_a_dot(self, tmp_path):
        # YAML reads 1e-5 as a string; float() reads it as a number
        cfg = load_config(write_cfg(tmp_path, TINY + "lr: 1e-5\nrounds: '3'\n"))
        assert cfg.lr == 1e-5 and cfg.rounds == 3
        p = write_cfg(tmp_path, TINY + "lr: 1e-5x\n")
        with pytest.raises(ConfigError, match="'lr' must be a number"):
            load_config(p)

    @pytest.mark.parametrize("source", CONFIGS + ["lr: 1e-5"] + sorted(workloads.WORKLOADS),
                             ids=lambda s: getattr(s, "name", s))
    def test_resolved_config_loads_back(self, tmp_path, monkeypatch, source):
        monkeypatch.chdir(tmp_path)
        if isinstance(source, Path):
            p = str(source)
            path = yaml.safe_load(source.read_text(encoding="utf-8")).get("path")
            # stub the dataset files the path check looks for
            for part in path.split(",") if path else []:
                (tmp_path / part).parent.mkdir(parents=True, exist_ok=True)
                (tmp_path / part).touch()
        elif source in workloads.WORKLOADS:
            # a benchmark workload, written the way roundbench/run.py writes it
            p = write_cfg(tmp_path, json.dumps(dict(workloads.WORKLOADS[source], seed=1)))
        else:
            p = write_cfg(tmp_path, TINY + source + "\n")
        cfg = load_config(p)
        write_resolved_config(cfg)
        written = Path(cfg.out_dir, "config.resolved")
        text = written.read_text(encoding="utf-8")
        again = load_config(str(written))
        assert again == cfg
        write_resolved_config(again)
        assert written.read_text(encoding="utf-8") == text

    @settings(max_examples=150, deadline=None)
    @given(out_dir=st.none() | FILE_NAMES, path=st.none() | FILE_NAMES,
           label_column=st.none() | st.text(max_size=150),
           lr=st.floats(min_value=1e-300, max_value=1e300),
           separation=st.floats(allow_nan=False, allow_infinity=False),
           test_fraction=st.floats(min_value=0.0, max_value=1.0,
                                   exclude_min=True, exclude_max=True))
    @example(out_dir="a: b", path="x #1", label_column="true", lr=1e-5,
             separation=1.0, test_fraction=0.2)
    @example(out_dir="012", path="null", label_column="-", lr=0.1,
             separation=-0.0, test_fraction=1e-5)
    @example(out_dir=None, path=None, label_column=None, lr=0.1,
             separation=1.0, test_fraction=0.2)
    def test_resolved_config_round_trip(self, out_dir, path, label_column, lr,
                                        separation, test_fraction):
        # drawn keys are relative names inside a scratch working directory
        keys = dict(label_column=label_column, lr=lr, separation=separation,
                    test_fraction=test_fraction)
        if out_dir is not None:
            keys["out_dir"] = out_dir
        if path is not None and path != out_dir:
            keys.update(dataset="csv", path=path)
        cfg = ExperimentConfig(**keys)
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                if cfg.path is not None:
                    Path(cfg.path).touch()       # the path check looks for it
                write_resolved_config(cfg)
                assert load_config(os.path.join(cfg.out_dir, "config.resolved")) == cfg
            finally:
                os.chdir(cwd)

    def test_comma_in_csv_path(self, tmp_path):
        data = tmp_path / "toy,v2.csv"
        data.write_text("a,label\n1,0\n2,1\n")
        p = write_cfg(tmp_path, TINY.replace(
            "dataset: synthetic", f"dataset: csv\npath: '{data}'"))
        assert load_config(p).path == str(data)

    def test_csv_path_checked_as_loaded(self, tmp_path):
        # the csv loader opens the path as written, blanks included
        (tmp_path / "toy.csv").write_text("a,label\n1,0\n2,1\n")
        p = write_cfg(tmp_path, TINY.replace(
            "dataset: synthetic", f"dataset: csv\npath: '{tmp_path}/toy.csv '"))
        with pytest.raises(ConfigError, match="not found"):
            load_config(p)

    def test_idx_path_names_two_files(self, tmp_path):
        images = tmp_path / "images.gz"
        images.write_bytes(b"")
        p = write_cfg(tmp_path, TINY.replace(
            "dataset: synthetic", f"dataset: idx\npath: {images},{tmp_path}/labels.gz"))
        with pytest.raises(ConfigError, match="labels.gz"):
            load_config(p)

    def test_resolved_config_covers_every_key(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        cfg.out_dir = str(tmp_path / "out")
        write_resolved_config(cfg)
        written = yaml.safe_load((tmp_path / "out" / "config.resolved").read_text("utf-8"))
        assert sorted(written) == sorted(f.name for f in fields(ExperimentConfig))


class TestCmdRun:
    def test_outputs_and_row_count(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK
        lines = open(os.path.join(out, "metrics.csv")).read().splitlines()
        assert lines[0].startswith("round,accuracy,cumulative_flops")
        assert len(lines) == 1 + 2  # header + one row per round
        manifest = json.load(open(os.path.join(out, "selected_features.json")))
        assert len(manifest["selected_features"]) == 4
        assert manifest["seed"] == 11
        assert os.path.exists(os.path.join(out, "config.resolved"))

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", cfg, "--out", out_a]) == EXIT_OK
        assert main(["run", "--config", cfg, "--out", out_b]) == EXIT_OK
        for name in ("metrics.csv", "selected_features.json", "config.resolved"):
            a = open(os.path.join(out_a, name), "rb").read()
            b = open(os.path.join(out_b, name), "rb").read()
            # out_dir differs inside the echoed config; normalize it away
            a = a.replace(out_a.encode(), b"OUT")
            b = b.replace(out_b.encode(), b"OUT")
            assert a == b, name

    def test_config_error_exit_code(self, tmp_path):
        cases = [("clients: 1", []), ("clients: 2", ["--workers", "0"]),
                 ("clients: 2", ["--workers", "-1"])]
        for i, (clients, extra) in enumerate(cases):
            p = write_cfg(tmp_path, TINY.replace("clients: 2", clients), name=f"exp{i}.yaml")
            out = tmp_path / f"out{i}"
            assert main(["run", "--config", p, "--out", str(out), *extra]) == EXIT_CONFIG, extra
            assert not out.exists()

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_missing_dataset_file_is_config_error(self, tmp_path):
        p = write_cfg(tmp_path, TINY.replace(
            "dataset: synthetic", f"dataset: csv\npath: {tmp_path}/absent.csv"))
        assert main(["run", "--config", p, "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_malformed_dataset_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,label\n1,oops,0\n")
        p = write_cfg(tmp_path, TINY.replace(
            "dataset: synthetic", f"dataset: csv\npath: {bad}"))
        out = tmp_path / "out"
        assert main(["run", "--config", p, "--out", str(out)]) == EXIT_RUNTIME
        assert not out.exists()

    def test_selection_shortfall_run(self, tmp_path):
        p = write_cfg(tmp_path, SHORTFALL)
        csvs = []
        for workers in ("1", "2"):
            out = tmp_path / f"out{workers}"
            with pytest.warns(RuntimeWarning, match="layer 0: only .* positions available"), \
                    pytest.warns(RuntimeWarning, match="only 10 input neurons connected, "
                                                       "fewer than the 11 requested"):
                assert main(["run", "--config", p, "--out", str(out),
                             "--workers", workers]) == EXIT_OK
            manifest = json.loads((out / "selected_features.json").read_text())
            assert manifest["shortfall"] is True
            assert manifest["k_requested"] == 11
            assert len(manifest["selected_features"]) == 10
            csvs.append((out / "metrics.csv").read_text())
        header, *_, last = csvs[0].splitlines()
        assert dict(zip(header.split(","), last.split(",")))["connected_input_neurons"] == "10"
        assert csvs[0] == csvs[1]

    def test_k_features_above_d_logs_and_clamps(self, tmp_path, caplog):
        p = write_cfg(tmp_path, TINY.replace("k_features: 4", "k_features: 40"))
        out = tmp_path / "out"
        assert main(["run", "--config", p, "--out", str(out)]) == EXIT_OK
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "k_features 40 exceeds feature count 12; using 12"]
        manifest = json.loads((out / "selected_features.json").read_text())
        assert manifest["k_requested"] == 12
        assert sorted(manifest["selected_features"]) == list(range(12))

    @DIVERGES
    def test_diverging_run_fails_with_round(self, tmp_path, capsys):
        p = write_cfg(tmp_path, TINY + "lr: 1.0e+200\n")
        out = tmp_path / "out"
        assert main(["run", "--config", p, "--out", str(out)]) == EXIT_RUNTIME
        assert "round 1:" in capsys.readouterr().err
        # not even config.resolved: a failed run leaves no output directory
        assert not out.exists()


class TestCmdFigure1:
    def test_three_curves_and_recovery(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "fig")
        assert main(["figure1", "--config", cfg, "--out", out]) == EXIT_OK
        lines = open(os.path.join(out, "figure1_curves.csv")).read().splitlines()
        assert lines[0] == "round,acc_original,acc_noisy_nofs,acc_noisy_fs"
        assert len(lines) == 1 + 2
        report = json.load(open(os.path.join(out, "figure1_report.json")))
        inter = set(report["selected_features"]) & set(report["informative_idx"])
        assert report["recovery_fraction"] == pytest.approx(
            len(inter) / report["n_informative"])

    def test_requires_synthetic(self, tmp_path):
        p = write_cfg(tmp_path, TINY.replace("dataset: synthetic",
                                             "dataset: csv\npath: x.csv"))
        assert main(["figure1", "--config", p, "--out", str(tmp_path / "fig")]) == EXIT_CONFIG

    @DIVERGES
    def test_diverging_study_leaves_no_output(self, tmp_path, capsys):
        p = write_cfg(tmp_path, TINY + "lr: 1.0e+200\n")
        out = tmp_path / "fig"
        assert main(["figure1", "--config", p, "--out", str(out)]) == EXIT_RUNTIME
        assert "round 1:" in capsys.readouterr().err
        assert not out.exists()


class TestCmdInspect:
    def test_synthetic_dims(self, tmp_path, capsys):
        assert main(["inspect", "--config", write_cfg(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "N=120 D=12 C=2" in out

    def test_csv_with_partition(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        rows = ["a,b,label"] + [f"{i},{i * 2},{i % 2}" for i in range(40)]
        data.write_text("\n".join(rows) + "\n")
        p = write_cfg(tmp_path, TINY.replace("dataset: synthetic", f"dataset: csv\npath: {data}"))
        assert main(["inspect", "--config", p]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "N=40 D=2 C=2" in out
        # the partition printed is the one a run of this config trains on
        parts = prepare(load_config(p))
        assert f"test split: {len(parts.test)} samples" in out
        shard_sizes = [int(line.split()[2]) for line in out if line.startswith("shard")]
        assert shard_sizes == [len(shard) for shard in parts.shards]

    def test_bad_partition_spec(self, tmp_path):
        p = write_cfg(tmp_path, TINY + "dirichlet_alpha: 0\n")
        assert main(["inspect", "--config", p]) == EXIT_CONFIG

    def test_missing_dataset_file_is_config_error(self, tmp_path):
        p = write_cfg(tmp_path, TINY.replace(
            "dataset: synthetic", f"dataset: csv\npath: {tmp_path}/absent.csv"))
        assert main(["inspect", "--config", p]) == EXIT_CONFIG
