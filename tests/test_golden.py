"""Golden output of a short desk run: refactors must keep it byte for byte.

The desk config (configs/synthetic_noisy.yaml) runs for 5 rounds in a
child process with the BLAS thread pools pinned to one thread: the last
digits of the reported strengths depend on how the matmuls split their
work. The digests hold for a given numpy/BLAS build and CPU; re-record
them only when the platform changes, never to absorb a change in what the
program computes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

GOLDEN = {
    "metrics.csv": "df79f270a7b4a6fc9f787b9a5b9e33907b4c4b3cc5c0b94859c3144e98ae3387",
    "selected_features.json":
        "07bd239d4bba02403ee87923314b2485a99dd31bfe1562dd7bf595bb43f054e1",
}


def test_desk_run_matches_recorded_hashes(tmp_path):
    text = (REPO / "configs" / "synthetic_noisy.yaml").read_text(encoding="utf-8")
    assert "rounds: 60" in text
    (tmp_path / "desk.yaml").write_text(text.replace("rounds: 60", "rounds: 5"),
                                        encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "DSFFS_SEED"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(REPO / "src"), env.get("PYTHONPATH", "")]))
    # a relative --out keeps the echoed out_dir, and so the manifest, stable
    proc = subprocess.run(
        [sys.executable, "-m", "dsffs.cli", "run", "--config", "desk.yaml",
         "--out", "out", "--workers", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name, digest in GOLDEN.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name
