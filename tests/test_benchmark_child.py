"""The benchmark's traced child run still works against the package.

roundbench/child.py --trace 1 wraps module attributes of dsffs by name
(roundbench/spans.py) and reads the server state a run returns, so a
package change that drops or renames one of them breaks the benchmark.
This runs one traced child on a tiny feasible config in a fresh process,
the way roundbench/run.py does, with input selection on and off: the
child's schedule check expects T removals with it on and none with it off
(mnist_shape's path).
"""

import json
import subprocess
import sys

import pytest

from conftest import REPO, child_env

TINY = {
    "dataset": "synthetic", "n_informative": 5, "n_noise": 45, "n_samples": 200,
    "n_classes": 2, "hidden_dims": [16], "sparsity": 0.8, "k_features": 5,
    "rounds": 3, "local_epochs": 2, "clients": 2, "batch_size": 16, "seed": 1,
}


@pytest.mark.parametrize("feature_selection", [True, False])
def test_traced_child_run_reports_no_problems(tmp_path, feature_selection):
    config = dict(TINY, feature_selection=feature_selection)
    # JSON is flow-style YAML, which is what load_config parses
    (tmp_path / "config.yaml").write_text(json.dumps(config) + "\n", encoding="utf-8")
    env = dict(child_env(), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(REPO / "roundbench" / "child.py"),
         "--config", "config.yaml", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    assert isinstance(result["per_layer"], dict)
    # the spans wrap cli.normalize: a run must normalize through it
    assert result["per_layer"]["data.normalize.s"] > 0
