"""The benchmark's digests, on a copy of the checkout so that the runs leave
no record in it. Between them, the two training workloads call every public
anchor and point assignment function; eval_paper adds the simulated
predictions, detections, NMS and AP of the paper's experiment; cli_io runs the
three CLI commands on generated files and pins the bytes they write.

cli_io's seed-commit digest in benchmarks/baseline.json predates the
``"baseline": "fcos"`` fix of the label JSON, so its run prints DIFFERS there;
the test pins the digest of the fixed output instead."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# cli_io, seed 1, since the "baseline": "fcos" fix
CLI_IO_DIGEST = "ea09591d5eabb8374b28361e10f7f47ef4e837386c89e2c0b825c295bda3a69b"


def run_bench(workload, tmp_path):
    """bench.py's stdout for ``workload`` at seed 1, run briefly on a copy."""
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
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
    return run.stdout


@pytest.mark.parametrize("workload", ["train_sparse", "train_crowded", "eval_paper"])
def test_workload_matches_the_seed_digest(workload, tmp_path):
    assert "matches the seed-commit digest" in run_bench(workload, tmp_path)


def test_cli_io_prints_the_fixed_output_digest(tmp_path):
    assert f"digest cli_io seed 1: {CLI_IO_DIGEST} " in run_bench("cli_io", tmp_path)
