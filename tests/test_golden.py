"""Golden outputs of short desk runs: refactors must keep them byte for byte.

Each run takes the desk config (configs/synthetic_noisy.yaml), cuts it to
a few rounds, optionally overrides keys, and trains in a child process
with one BLAS thread: the last digits of the reported strengths depend on
how the matmuls split their work. The package pins the BLAS thread pools
to one thread unless the environment sets a count, and `conftest.py` sets
the same default for the suite and the children it starts. Five
variants cover the distinct training branches: the desk config as is
(input selection on, no proximal term), selection off (layer 0 runs plain
DST on the dense input-layer gradient), FedProx (mu > 0, the proximal
branch of the SGD step), three kept features (layer 0's connected rows
run out of free positions, so its regrow takes the shortfall path) and a
client draw (two of the four clients train each round). A sixth covers
the data path: zscore normalization, whose statistics and
output `data.normalize` computes in place on the one matrix. Two figure1
studies, under minmax and under zscore, cover a dataset that the caller
builds and `prepare` normalizes in place: the informative columns taken
before normalizing, and two runs trained on one prepared partition. The
digests hold for a given numpy/BLAS build and CPU at one BLAS thread; a
child with no thread variable in its environment must write them too, so
a plain `dsffs run` writes what they describe. Re-record them only
when the platform changes, never to absorb a change in what the program
computes.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import REPO, child_env

# a synthetic study small enough to run three trainings in about a second;
# JSON is flow-style YAML, which is what load_config parses
FIGURE1 = {
    "dataset": "synthetic", "n_informative": 6, "n_noise": 54, "n_samples": 800,
    "n_classes": 2, "separation": 2.0, "hidden_dims": [16], "sparsity": 0.7,
    "k_features": 6, "rounds": 5, "local_epochs": 2, "clients": 3, "batch_size": 16,
    "lr": 0.05,
}


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DESK_DIGESTS = {
    "metrics.csv": "df79f270a7b4a6fc9f787b9a5b9e33907b4c4b3cc5c0b94859c3144e98ae3387",
    "selected_features.json": "07bd239d4bba02403ee87923314b2485a99dd31bfe1562dd7bf595bb43f054e1",
}


def run_desk(tmp_path, env=None, **keys):
    """Run the desk config with `keys` set; return {file name: sha256} of its outputs.

    A key the desk config sets has its line replaced; any other is appended,
    so no key appears twice. `env` defaults to `child_env()`.
    """
    lines = (REPO / "configs" / "synthetic_noisy.yaml").read_text(encoding="utf-8").splitlines()
    for key, value in keys.items():
        line = f"{key}: {value}"
        at = [i for i, old in enumerate(lines) if old.startswith(f"{key}:")]
        if at:
            lines[at[0]] = line
        else:
            lines.append(line)
    return run_cli(tmp_path, "\n".join(lines) + "\n", ["run", "--workers", "1"],
                   ("metrics.csv", "selected_features.json"), env)


def run_figure1(tmp_path, **keys):
    """Run the figure1 study on FIGURE1 with `keys` set; return {file name: sha256}."""
    text = json.dumps({**FIGURE1, **keys}) + "\n"
    return run_cli(tmp_path, text, ["figure1"], ("figure1_curves.csv", "figure1_report.json"))


def run_cli(tmp_path, config_text, args, outputs, env=None):
    """Run `dsffs.cli` `args` on a config in a child process; hash its `outputs`."""
    (tmp_path / "config.yaml").write_text(config_text, encoding="utf-8")
    # a relative --out keeps the echoed out_dir, and so the manifest, stable
    proc = subprocess.run(
        [sys.executable, "-m", "dsffs.cli", *args, "--config", "config.yaml", "--out", "out"],
        cwd=tmp_path, env=env or child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in outputs}


@pytest.mark.parametrize("inherited", [None, "", "/elsewhere"])
def test_child_pythonpath_has_src_first_and_no_empty_entry(monkeypatch, inherited):
    # an empty entry would put each child's working directory on sys.path
    if inherited is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", inherited)
    entries = child_env()["PYTHONPATH"].split(os.pathsep)
    assert "" not in entries
    assert entries == [str(REPO / "src"), *([inherited] if inherited else [])]


def test_desk_run_matches_recorded_hashes(tmp_path):
    assert run_desk(tmp_path, rounds=5) == DESK_DIGESTS


def test_desk_run_pins_its_own_blas_threads(tmp_path):
    # no thread variable in the child's environment: on a machine with
    # several CPUs, BLAS would split the matmuls unless the package pins it
    env = {k: v for k, v in child_env().items() if k not in THREAD_VARS}
    assert run_desk(tmp_path, env, rounds=5) == DESK_DIGESTS


def test_selection_off_run_matches_recorded_hashes(tmp_path):
    assert run_desk(tmp_path, rounds=3, feature_selection="false") == {
        "metrics.csv": "531d3a084ef4ce9f94ffca1f8ff44c05de0fa6610b984d23356e82a34ae51ba2",
        "selected_features.json":
            "bf7dbf5b5ae75bb45ed00dfb06ecffb882493bc2dee73c19aeb9f076913eba96",
    }


def test_fedprox_run_matches_recorded_hashes(tmp_path):
    assert run_desk(tmp_path, rounds=3, mu=0.01) == {
        "metrics.csv": "d1d0013dbf946ac8fd4ffb087825052b0aa4183a1d719f3b486adb6a9fb73e8a",
        "selected_features.json":
            "522f6d09621826db7ac2a7def30e62056da0b70b6a4af02463fbdddf3ea9884a",
    }


def test_regrow_shortfall_run_matches_recorded_hashes(tmp_path):
    # three kept features leave layer 0 fewer free positions on its
    # connected rows than its target needs: the regrow-shortfall path
    assert run_desk(tmp_path, rounds=3, k_features=3) == {
        "metrics.csv": "cfbfbd567bc5ac5b9bebcaf9fffd1a31be6c03374efef4a1cdf60cce291a944a",
        "selected_features.json":
            "b095c598a7c4ad0c72db4080d6e6c928735df37a376e03ac3b5de0310d79b34d",
    }


def test_client_draw_run_matches_recorded_hashes(tmp_path):
    assert run_desk(tmp_path, rounds=5, clients_per_round=2) == {
        "metrics.csv": "f42cf78c3c4b575288cd2e9e5f02a39207a372b5705f80215de3ce4ef13d921d",
        "selected_features.json":
            "6481cbd78648530f776d83dada6eddd5b7bc8f27fee1976e5cd5bc4825dd5b6e",
    }


def test_zscore_run_matches_recorded_hashes(tmp_path):
    assert run_desk(tmp_path, rounds=3, normalize="zscore") == {
        "metrics.csv": "7958b74433878ef1c18d6a4cbd9490a31754702a74e792eea4a5e0827a012556",
        "selected_features.json":
            "20201ccf399788f9463a52af47a9ce38506f653c1659379b0de79c259370e256",
    }


def test_figure1_minmax_matches_recorded_hashes(tmp_path):
    assert run_figure1(tmp_path, normalize="minmax", seed=3) == {
        "figure1_curves.csv":
            "8249bf164dd48dd089160228ef6092435d3ee64b35ff3b0312d8ba98cac9c6f5",
        "figure1_report.json":
            "52fe8810b216fbf2310f10ee1a1daa556b8496853553cb301f35877094fdeeb6",
    }


def test_figure1_zscore_matches_recorded_hashes(tmp_path):
    assert run_figure1(tmp_path, normalize="zscore", seed=4) == {
        "figure1_curves.csv":
            "e5ec62fe242449c6516032cbe046297f46fb172c3912f96da91432e4186eaec3",
        "figure1_report.json":
            "cf859397a8a4c7d7b264968bc05f43c3e74aed8311ed708686d48ce0c4a74fae",
    }
