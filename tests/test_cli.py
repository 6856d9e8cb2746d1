import importlib.util
import json
import os
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsffs import cli, fed_core
from dsffs.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ExperimentConfig,
    load_config,
    main,
    prepare,
    write_outputs,
)
from dsffs.sparse_net import ConfigError

from conftest import REPO
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


def main_warning_free(argv) -> int:
    """main(argv), asserting that it emits no RuntimeWarning from any thread.

    A diverging run overflows on its way to the non-finite weights that
    fail it; the one report of that is the exit code and the round.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return code


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

    def test_single_client_rejected(self, tmp_path, capsys):
        # the partition owns the client count: a config of one client
        # parses, and its partition is what rejects it
        p = write_cfg(tmp_path, TINY.replace("clients: 2", "clients: 1"))
        assert load_config(p).clients == 1
        out = tmp_path / "out"
        for argv in (["run", "--config", p, "--out", str(out)], ["inspect", "--config", p]):
            assert main(argv) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                "config error: a federation needs at least two clients\n")
            assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path):
        p = write_cfg(tmp_path, TINY.replace("seed: 11", "seed: -1"))
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            load_config(p)
        out = tmp_path / "out"
        assert main(["run", "--config", p, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert main(["inspect", "--config", p]) == EXIT_CONFIG

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
        write_outputs(cfg, {})
        written = Path(cfg.out_dir, "config.resolved")
        text = written.read_text(encoding="utf-8")
        again = load_config(str(written))
        assert again == cfg
        write_outputs(again, {})
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
                write_outputs(cfg, {})
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

    @pytest.mark.parametrize("copies", [1, 3])
    def test_idx_path_naming_other_than_two_files_rejected(self, tmp_path, copies):
        images = tmp_path / "images.gz"
        images.write_bytes(b"")
        p = write_cfg(tmp_path, TINY.replace(
            "dataset: synthetic", "dataset: idx\npath: " + ",".join([str(images)] * copies)))
        with pytest.raises(ConfigError, match="idx path must name 'images_path,labels_path'"):
            load_config(p)
        out = tmp_path / "out"
        assert main(["run", "--config", p, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_resolved_config_covers_every_key(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        cfg.out_dir = str(tmp_path / "out")
        write_outputs(cfg, {})
        written = yaml.safe_load((tmp_path / "out" / "config.resolved").read_text("utf-8"))
        assert sorted(written) == sorted(f.name for f in fields(ExperimentConfig))


def fail_after_first_write(monkeypatch):
    """Make cli's second open for writing raise, as a full disk would."""
    written = []

    def fake_open(path, mode="r", *args, **kwargs):
        if "w" in mode:
            if written:
                raise OSError(28, "No space left on device")
            written.append(path)
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", fake_open, raising=False)


class TestWriteOutputs:
    def test_failed_write_leaves_no_new_directory(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(out_dir=str(tmp_path / "runs" / "out"))
        fail_after_first_write(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            write_outputs(cfg, {"metrics.csv": "round\n"})
        # neither the output directory nor a temporary one
        assert os.listdir(tmp_path / "runs") == []

    def test_failed_write_keeps_existing_bytes(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = ExperimentConfig(out_dir=str(out))
        write_outputs(cfg, {"metrics.csv": "round\n1\n"})
        (out / "notes.txt").write_text("kept\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with monkeypatch.context() as patch:
            fail_after_first_write(patch)
            with pytest.raises(OSError, match="No space left"):
                write_outputs(cfg, {"metrics.csv": "round\n2\n"})
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # a rerun replaces what it writes and keeps the rest
        write_outputs(cfg, {"metrics.csv": "round\n2\n"})
        assert {p.name: p.read_bytes() for p in out.iterdir()} == dict(
            before, **{"metrics.csv": b"round\n2\n"})

    def test_new_directory_gets_the_makedirs_mode(self, tmp_path):
        os.makedirs(tmp_path / "reference")
        write_outputs(ExperimentConfig(out_dir=str(tmp_path / "out")), {})
        assert ((tmp_path / "out").stat().st_mode
                == (tmp_path / "reference").stat().st_mode)

    @pytest.mark.parametrize("command", ["run", "figure1"])
    def test_text_that_fails_to_build_leaves_no_directory(self, tmp_path, monkeypatch,
                                                          capsys, command):
        # every text is built before the first file exists
        def broken(*args, **kwargs):
            raise ValueError("cannot encode")

        monkeypatch.setattr(json.JSONEncoder, "iterencode", broken)
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path), "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "error: cannot encode\n"
        assert os.listdir(tmp_path) == ["exp.yaml"]


# TINY removes ceil(0.8 * 12 - K) of its 12 inputs. Layer 0 holds 40
# connections of 8 units, and an update churns floor(0.2 * 40) = 8 of them:
# K=4 leaves 6 x 8 - 40 = 8 free positions, K=3 leaves 5 x 8 - 40 = 0.
# Only an epoch before a client's last regrows, so with TINY's one local
# epoch nothing can fall short. figure1 plans each of its runs once, before
# any trains, and logs the warning once (None: it cannot run this config)
@pytest.mark.parametrize("edits, flagged, figure1_logs", [
    ([("k_features: 4", "k_features: 3"), ("local_epochs: 1", "local_epochs: 2")], True, 1),
    ([("k_features: 4", "k_features: 3")], False, 0),
    ([], False, 0),
    # plain DST caps its churn at the free positions: a dense layer 0 has
    # none. figure1's selection run of this config is rejected
    ([("sparsity: 0.5", "sparsity: 0.0\nfeature_selection: false")], False, None),
], ids=["K=3", "K=3,Q=1", "K=4", "dense_plain_dst"])
def test_layer0_churn_warning_at_plan_time(tmp_path, caplog, edits, flagged, figure1_logs):
    text = TINY
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    p = write_cfg(tmp_path, text)
    warning = ("layer 0 has 0 free positions (5 inputs left x 8 units - 40 connections), "
               "fewer than the 8 connections one update churns; its regrowth can fall short")
    commands = [(["inspect"], 1), (["run", "--out", str(tmp_path / "run")], 1)]
    if figure1_logs is not None:
        commands.append((["figure1", "--out", str(tmp_path / "figure1")], figure1_logs))
    for argv, times in commands:
        caplog.clear()
        assert main([*argv, "--config", p]) == EXIT_OK
        logged = [r.getMessage() for r in caplog.records
                  if r.name == "dsffs.fed_core" and r.levelname == "WARNING"]
        assert logged == ([warning] * times if flagged else []), argv


class TestCmdRun:
    def test_outputs_and_row_count(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK
        lines = Path(out, "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("round,accuracy,cumulative_flops")
        assert len(lines) == 1 + 2  # header + one row per round
        manifest = json.loads(Path(out, "selected_features.json").read_text())
        assert len(manifest["selected_features"]) == 4
        assert manifest["seed"] == 11
        assert os.path.exists(os.path.join(out, "config.resolved"))
        # inspect prints the costs the run records in its last round
        flops, bits = lines[-1].split(",")[2:4]
        assert main(["inspect", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"planned costs: {flops} FLOPs, {bits} upload bits")

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", cfg, "--out", out_a]) == EXIT_OK
        assert main(["run", "--config", cfg, "--out", out_b]) == EXIT_OK
        for name in ("metrics.csv", "selected_features.json", "config.resolved"):
            a = Path(out_a, name).read_bytes()
            b = Path(out_b, name).read_bytes()
            # out_dir differs inside the echoed config; normalize it away
            a = a.replace(out_a.encode(), b"OUT")
            b = b.replace(out_b.encode(), b"OUT")
            assert a == b, name

    def test_config_error_exit_code(self, tmp_path):
        # each case replaces the "clients: 2" line of TINY
        cases = [("clients: 1", []), ("clients: 2", ["--workers", "0"]),
                 ("clients: 2", ["--workers", "-1"]), ("clients: 2\nbeta: 1.0", []),
                 ("clients: 2\nzeta: 1.0", [])]
        for i, (lines, extra) in enumerate(cases):
            p = write_cfg(tmp_path, TINY.replace("clients: 2", lines), name=f"exp{i}.yaml")
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

    def test_diverging_run_fails_with_round(self, tmp_path, capsys):
        p = write_cfg(tmp_path, TINY + "lr: 1.0e+200\n")
        out = tmp_path / "out"
        assert main_warning_free(["run", "--config", p, "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "error: round 1: training diverged (non-finite global weights or biases)\n")
        # not even config.resolved: a failed run leaves no output directory
        assert not out.exists()


# edits of TINY that every command rejects before round 1, with the error
REJECTED_BEFORE_TRAINING = {
    "no_hidden_units": (("hidden_dims: [8]", "hidden_dims: [0]"),
                        "layer dimensions must be positive"),
    "starved_layer": (("hidden_dims: [8]", "hidden_dims: [1]"),
                      # figure1 trains on the 4 informative columns first
                      r"leaves layer 0 \((12x1\) with 6|4x1\) with 2) connections"),
    "no_test_rows": (("n_samples: 120", "n_samples: 3"), "held-out test split is empty"),
    # T = ceil(0.8 * 12 - 4) = 6 removed, so 6 x 8 = 48 positions for a dense 96
    "layer0_budget": (("sparsity: 0.5", "sparsity: 0.0"),
                      "layer 0 must keep 96 connections.* 6 of 12 inputs"),
    "no_test_rows_small_fraction": (("n_samples: 120", "n_samples: 4\ntest_fraction: 0.1"),
                                    "held-out test split is empty"),
    "one_class": (("n_classes: 2", "n_classes: 1"), "need at least two classes, the data has 1"),
    # the partition rejects one client; the plan checks the draw against its shards
    "one_client": (("clients: 2", "clients: 1"), "a federation needs at least two clients"),
    "no_clients_per_round": (("clients: 2", "clients: 2\nclients_per_round: 0"),
                             r"clients_per_round must be in 1\.\.2, got 0"),
    "clients_per_round_above_clients": (("clients: 2", "clients: 2\nclients_per_round: 3"),
                                        r"clients_per_round must be in 1\.\.2, got 3"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_BEFORE_TRAINING))
def test_every_command_rejects_before_training(tmp_path, capsys, monkeypatch, case):
    (old, new), error = REJECTED_BEFORE_TRAINING[case]
    p = write_cfg(tmp_path, TINY.replace(old, new))
    out = tmp_path / "out"
    trained = []
    monkeypatch.setattr(fed_core, "local_train", lambda *args: trained.append(args))
    for argv in (["run", "--config", p, "--out", str(out)], ["inspect", "--config", p],
                 ["figure1", "--config", p, "--out", str(out)]):
        assert main(argv) == EXIT_CONFIG, argv
        captured = capsys.readouterr()
        assert re.match(f"config error: .*{error}", captured.err), captured.err
        assert captured.out == ""
        assert not out.exists()
        # figure1 plans all three of its runs before it trains any
        assert trained == [], argv


class TestCmdFigure1:
    def test_three_curves_and_recovery(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "fig")
        assert main(["figure1", "--config", cfg, "--out", out]) == EXIT_OK
        lines = Path(out, "figure1_curves.csv").read_text().splitlines()
        assert lines[0] == "round,acc_original,acc_noisy_nofs,acc_noisy_fs"
        assert len(lines) == 1 + 2
        report = json.loads(Path(out, "figure1_report.json").read_text())
        inter = set(report["selected_features"]) & set(report["informative_idx"])
        assert report["recovery_fraction"] == pytest.approx(
            len(inter) / report["n_informative"])

    def test_requires_synthetic(self, tmp_path):
        p = write_cfg(tmp_path, TINY.replace("dataset: synthetic",
                                             "dataset: csv\npath: x.csv"))
        assert main(["figure1", "--config", p, "--out", str(tmp_path / "fig")]) == EXIT_CONFIG

    def test_diverging_study_leaves_no_output(self, tmp_path, capsys):
        p = write_cfg(tmp_path, TINY + "lr: 1.0e+200\n")
        out = tmp_path / "fig"
        assert main_warning_free(["figure1", "--config", p, "--out", str(out)]) == EXIT_RUNTIME
        assert "round 1:" in capsys.readouterr().err
        assert not out.exists()


class TestCmdInspect:
    def test_synthetic_dims(self, tmp_path, capsys):
        assert main(["inspect", "--config", write_cfg(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "N=120 D=12 C=2" in out

    def test_prints_the_run_plan(self, capsys):
        # the desk study: D=500, K=30, zeta 0.2, beta 0.65, 60 rounds
        assert main(["inspect", "--config", str(REPO / "configs" / "synthetic_noisy.yaml")]) \
            == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[-4:] == [
            "layers: 500-100-50-2 | connection targets: 8736 2184 100",
            "removal: T=370 r_remove=39 K=30, 130 inputs left",
            "layer 0 after removal: 130 rows x 100 = 13000 positions for 8736 connections",
            "planned costs: 13549547520 FLOPs, 97857600 upload bits",
        ]

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
