"""The benchmark's seed-commit digests, on a copy of the checkout so that the
runs leave no record in it. Between them, the two training workloads call
every public anchor and point assignment function; eval_paper adds the
simulated predictions, detections, NMS and AP of the paper's experiment."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["train_sparse", "train_crowded", "eval_paper"])
def test_workload_matches_the_seed_digest(workload, tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".bench_out")
    for part in ("src", "benchmarks"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "oracles.py", tmp_path / "tests")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.05", "--trace", "0"]
    run = subprocess.run(
        [sys.executable, "benchmarks/bench.py", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    assert "matches the seed-commit digest" in run.stdout
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
