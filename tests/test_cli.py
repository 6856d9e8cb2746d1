import json
import os

import pytest

from dsffs.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ExperimentConfig,
    load_config,
    main,
    resolved_lines,
)
from dsffs.sparse_net import ConfigError

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

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DSFFS_SEED", "777")
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.seed == 777

    def test_resolved_lines_cover_every_key(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        text = resolved_lines(cfg)
        from dataclasses import fields
        for f in fields(ExperimentConfig):
            assert f"{f.name}:" in text


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
        p = write_cfg(tmp_path, TINY.replace("clients: 2", "clients: 1"))
        assert main(["run", "--config", p, "--out", str(tmp_path / "out")]) == EXIT_CONFIG

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
        assert main(["run", "--config", p, "--out", str(tmp_path / "out")]) == EXIT_RUNTIME

    def test_diverging_run_fails_with_round(self, tmp_path, capsys):
        p = write_cfg(tmp_path, TINY + "lr: 1.0e+200\n")
        out = tmp_path / "out"
        assert main(["run", "--config", p, "--out", str(out)]) == EXIT_RUNTIME
        assert "round 1:" in capsys.readouterr().err
        assert not (out / "selected_features.json").exists()
        assert not (out / "metrics.csv").exists()


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


class TestCmdInspect:
    def test_synthetic_dims(self, capsys):
        assert main(["inspect", "--dataset", "synthetic"]) == EXIT_OK
        out = capsys.readouterr().out
        cfg = ExperimentConfig()
        assert f"D={cfg.n_informative + cfg.n_noise}" in out

    def test_csv_with_partition(self, tmp_path, capsys):
        p = tmp_path / "toy.csv"
        rows = ["a,b,label"] + [f"{i},{i * 2},{i % 2}" for i in range(40)]
        p.write_text("\n".join(rows) + "\n")
        assert main(["inspect", "--dataset", f"csv:{p}",
                     "--partition", "2,0.5,3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "N=40 D=2 C=2" in out
        shard_sizes = [int(line.split()[2]) for line in out.splitlines()
                       if line.startswith("shard")]
        test_size = [int(line.split()[2]) for line in out.splitlines()
                     if line.startswith("test split")][0]
        assert sum(shard_sizes) + test_size == 40

    def test_bad_partition_spec(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("a,label\n1,0\n2,1\n")
        assert main(["inspect", "--dataset", f"csv:{p}",
                     "--partition", "nope"]) == EXIT_CONFIG
