"""Golden outputs of short desk runs: refactors must keep them byte for byte.

Each run takes the desk config (configs/synthetic_noisy.yaml), cuts it to
a few rounds, optionally overrides keys, and trains in a child process
with the BLAS thread pools pinned to one thread: the last digits of the
reported strengths depend on how the matmuls split their work. Four
variants cover the distinct training branches: the desk config as is
(input selection on, no proximal term), selection off (layer 0 runs plain
DST on the dense input-layer gradient), FedProx (mu > 0, the proximal
branch of the SGD step) and three kept features (layer 0's connected rows
run out of free positions, so its regrow takes the shortfall path). A
fifth covers the data path: zscore normalization, whose statistics and
output `data.normalize` builds in place. The
digests hold for a given numpy/BLAS build and CPU; re-record them only
when the platform changes, never to absorb a change in what the program
computes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_desk(tmp_path, **keys):
    """Run the desk config with `keys` set; return {file name: sha256} of its outputs.

    A key the desk config sets has its line replaced; any other is appended,
    so no key appears twice.
    """
    lines = (REPO / "configs" / "synthetic_noisy.yaml").read_text(encoding="utf-8").splitlines()
    for key, value in keys.items():
        line = f"{key}: {value}"
        at = [i for i, old in enumerate(lines) if old.startswith(f"{key}:")]
        if at:
            lines[at[0]] = line
        else:
            lines.append(line)
    text = "\n".join(lines) + "\n"
    (tmp_path / "desk.yaml").write_text(text, encoding="utf-8")
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(REPO / "src"), env.get("PYTHONPATH", "")]))
    # a relative --out keeps the echoed out_dir, and so the manifest, stable
    proc = subprocess.run(
        [sys.executable, "-m", "dsffs.cli", "run", "--config", "desk.yaml",
         "--out", "out", "--workers", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in ("metrics.csv", "selected_features.json")}


def test_desk_run_matches_recorded_hashes(tmp_path):
    assert run_desk(tmp_path, rounds=5) == {
        "metrics.csv": "df79f270a7b4a6fc9f787b9a5b9e33907b4c4b3cc5c0b94859c3144e98ae3387",
        "selected_features.json":
            "07bd239d4bba02403ee87923314b2485a99dd31bfe1562dd7bf595bb43f054e1",
    }


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


def test_zscore_run_matches_recorded_hashes(tmp_path):
    assert run_desk(tmp_path, rounds=3, normalize="zscore") == {
        "metrics.csv": "7958b74433878ef1c18d6a4cbd9490a31754702a74e792eea4a5e0827a012556",
        "selected_features.json":
            "20201ccf399788f9463a52af47a9ce38506f653c1659379b0de79c259370e256",
    }
