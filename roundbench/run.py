"""Round benchmark for dsffs: time per federated round, set-up, memory, quality.

    python3 roundbench/run.py --workload desk_noisy --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Each program run happens in a fresh
child process (child.py) with the BLAS thread pools pinned to one thread
and `--workers 1`: a closed loop, one run at a time. Runs of the same seed
repeat until --seconds have passed, and at least three times; the
median is reported and their outputs are compared byte for byte. With --trace 1 one traced run
follows and the per-module metrics are printed instead of the end-to-end
ones.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, with the metric names and units of BENCHMARK.json. The line
before it holds the details: every run's numbers, output hashes,
degraded-path counts and the environment. Exits 2 without a result when
the checkout has no dsffs sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3                 # untraced runs per invocation: a median, and the determinism check
DEADLINE_S = 170.0           # the whole invocation must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DSFFS_SEED", None)          # the seed reaches the program through its config
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(config: Path, trace: int, cwd: Path, timeout: float) -> dict:
    """One program run; a crash or timeout comes back as a run with a problem."""
    cwd.mkdir()
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(config),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {timeout:.0f} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"problems": [f"exit code {proc.returncode}: {tail[0]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def check_determinism(runs: list[dict]) -> None:
    """Every run of one seed must write byte-identical outputs; mark the odd ones."""
    hashed = [r for r in runs if "sha256" in r]
    if not hashed:
        return
    reference = hashed[0]["sha256"]
    for r in hashed[1:]:
        if r["sha256"] != reference:
            r["problems"].append("outputs differ from the first run of this seed")


def end_to_end(plain: list[dict], attempted: int, failed: int) -> dict[str, float]:
    ok = [r for r in plain if not r["problems"]]
    values = {key: statistics.median(r[key] for r in ok) for key in ("round_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(s for r in ok for s in r["setup_s"])
    values["ok_share"] = (attempted - failed) / attempted
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dsffs" / "__init__.py").is_file():
        print(f"no dsffs sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = perf_counter()
    deadline = start + DEADLINE_S
    scratch = ROOT / ".roundbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        config = work / "config.yaml"
        # JSON is flow-style YAML, which is what load_config parses
        config.write_text(json.dumps(dict(WORKLOADS[args.workload], seed=args.seed)) + "\n",
                          encoding="utf-8")
        plain: list[dict] = []
        while len(plain) < MIN_RUNS or perf_counter() - start < args.seconds:
            plain.append(run_child(config, 0, work / f"run{len(plain)}",
                                   deadline - perf_counter()))
        runs = list(plain)
        if args.trace:
            runs.append(run_child(config, 1, work / "traced", deadline - perf_counter()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass             # another invocation still uses it

    check_determinism(runs)
    attempted = len(runs)
    failed = sum(1 for r in runs if r["problems"])
    ok_plain = [r for r in plain if not r["problems"]]
    if not ok_plain or (args.trace and "per_layer" not in runs[-1]):
        print(json.dumps({"problems": [r["problems"] for r in runs]}), file=sys.stderr)
        return 1

    if args.trace:
        values = dict(runs[-1]["per_layer"])
        values["trace_overhead"] = (runs[-1]["round_s"]
                                    / statistics.median(r["round_s"] for r in ok_plain) - 1.0)
    else:
        values = end_to_end(plain, attempted, failed)
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        print(f"metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": dict(
            next((r["environment"] for r in runs if "environment" in r), {}),
            git_commit=git_commit(),
            nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
            threads={var: "1" for var in THREAD_VARS}),
        "runs": [{k: v for k, v in r.items() if k not in ("environment", "per_layer")}
                 for r in runs],
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
