"""Per-layer A/B timing of two source trees of boxmatch in one process.

Run from the repository root, comparing a git revision with the working tree:

    python3 tools/ab_layers.py --rev HEAD~1 --rounds 20
    python3 tools/ab_layers.py --rev HEAD~1 --workload cli_io --ops 2

The `src` directory of `--rev` is extracted with `git archive` into a temporary
directory. Both trees are imported under their own package names, and each
builds its own grids and the scenes (seed 1) of a benchmark workload
(`benchmarks/workloads.py`, read-only). Every
round times each public layer function of the workload's operation, and the
whole operation, on the first `--ops` operations of a pass, calling the two
trees in turn, call by call; the tree that goes first alternates by round. On
`cli_io` a round times each of the four commands of a pass in process, and
the whole pass, on `--ops` passes; each tree writes into its own temporary
directory. A round's ratio is the change's time over the base's, summed over
the operations. Per function the script prints the median ratio over the rounds,
a bootstrap 95% interval of that median and in how many rounds the change was
faster. Timing is `time.perf_counter` inside this process.
"""

from __future__ import annotations

import os

# one thread, as in the benchmark: pin the numeric libraries before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RESAMPLES = 2000
# the commands of a `cli_io` pass, in its order
CLI_COMMANDS = ("assign_anchors", "assign_points", "simulate", "evaluate")


def load_package(name: str, src: Path):
    """Import the ``boxmatch`` package under ``src`` as the top-level package ``name``."""
    package = src / "boxmatch"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def extract_revision(rev: str, into: Path) -> Path:
    """The ``src`` directory of git revision ``rev``, extracted under ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "boxmatch_ab_workloads", ROOT / "benchmarks" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Tree:
    """One package with its own grids, workload scenes and per-operation inputs."""

    def __init__(self, bm, workloads, workload: str, seed: int, ops: int, workdir: Path):
        cls = workloads.WORKLOADS[workload]
        spec = bm.AnchorGridSpec(image_width=cls.width, image_height=cls.width)
        self.bm = bm
        self.anchors, self.points = bm.generate_anchors(spec), bm.generate_points(spec)
        self.workload = cls(bm, seed, (self.anchors, self.points), workdir, None)
        if workload == "cli_io":
            self.calls = [self._cli_calls(p) for p in range(ops)]
        else:
            self.calls = [self._calls(k, workloads.TRAJ_TS) for k in range(ops)]

    def _cli_calls(self, p: int) -> dict:
        """Each command of pass p, run in process as the workload runs it, and the pass."""
        wl = self.workload
        cli = importlib.import_module(f"{self.bm.__name__}.cli")
        layer = SimpleNamespace(cli_main=cli.main, span=lambda name: nullcontext())

        def command(k: int):
            code, log = wl.op(k, layer)[2:]
            if code:
                raise RuntimeError(f"{wl.commands[k % wl.pass_len][0]} exited {code}: {log}")

        ks = range(p * wl.pass_len, (p + 1) * wl.pass_len)
        calls = {name: partial(command, k) for name, k in zip(CLI_COMMANDS, ks)}
        calls["pass"] = lambda: [command(k) for k in ks]
        return calls

    def _calls(self, k: int, ts) -> dict:
        """Each layer function of operation k, bound to its inputs, and the operation."""
        bm, wl = self.bm, self.workload
        i = k % wl.scenes_per_pass
        scene, gt, seed = wl.scenes[i], wl.gt_arrays[i], wl.seed + i
        t = float(ts[k % len(ts)])
        iou_anchor = bm.pairwise_iou(self.anchors.array, gt)
        snap = bm.synth_predictions(scene, self.anchors, wl.traj, t, seed=seed)
        iou_reg, scores = bm.synth_point_predictions(scene, self.points, wl.traj, t, seed=seed)
        points, boxes = self.points, scene.boxes
        return {
            "pairwise_iou": lambda: bm.pairwise_iou(self.anchors.array, gt),
            "synth_predictions": lambda: bm.synth_predictions(
                scene, self.anchors, wl.traj, t, seed=seed
            ),
            "static_assign": lambda: bm.static_assign(iou_anchor),
            "localize_to_classify": lambda: bm.localize_to_classify(
                iou_anchor, snap.iou_regressed
            ),
            "classify_to_localize": lambda: bm.classify_to_localize(
                iou_anchor, snap.classif_scores
            ),
            "mutual_guidance_assign": lambda: bm.mutual_guidance_assign(
                iou_anchor, snap.iou_regressed, snap.classif_scores
            ),
            "synth_point_predictions": lambda: bm.synth_point_predictions(
                scene, points, wl.traj, t, seed=seed
            ),
            "fcos_assign_original": lambda: bm.fcos_assign_original(points, boxes),
            "fcos_localize_to_classify": lambda: bm.fcos_localize_to_classify(
                points, boxes, iou_reg
            ),
            "fcos_classify_to_localize": lambda: bm.fcos_classify_to_localize(
                points, boxes, scores
            ),
            "op": lambda: wl.op(k, bm),
        }


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def summarize(ratios: np.ndarray, level: float = 0.95, resamples: int = RESAMPLES) -> dict:
    """Median of the per-round ratios, its bootstrap interval at ``level`` and
    the number of rounds in which the change was faster."""
    rng = np.random.default_rng(0)
    picks = rng.integers(0, ratios.size, size=(resamples, ratios.size))
    tail = 50.0 * (1.0 - level)
    low, high = np.percentile(np.median(ratios[picks], axis=1), [tail, 100.0 - tail])
    return {
        "median": float(np.median(ratios)),
        "interval": (float(low), float(high)),
        "faster": int(np.count_nonzero(ratios < 1.0)),
        "rounds": int(ratios.size),
    }


def compare(base_src: Path, change_src: Path, workload: str = "train_crowded", seed: int = 1,
            rounds: int = 20, ops: int = 10, functions=None, level: float = 0.95) -> dict:
    """Time both trees round by round; returns {function: summarize(...)}."""
    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as tmp:  # where each tree's workload writes
        trees = [
            Tree(load_package(name, src), workloads, workload, seed, ops, Path(tmp) / name)
            for name, src in (("boxmatch_ab_base", base_src), ("boxmatch_ab_change", change_src))
        ]
        names = [f for f in trees[0].calls[0] if functions is None or f in functions]
        for tree in trees:  # warm-up: one untimed call of everything
            for calls in tree.calls:
                for name in names:
                    calls[name]()
        seconds = np.zeros((rounds, len(names), 2))
        for r in range(rounds):
            gc.collect()
            sides = (0, 1) if r % 2 == 0 else (1, 0)
            for f, name in enumerate(names):
                for k in range(ops):
                    for side in sides:
                        seconds[r, f, side] += timed(trees[side].calls[k][name])
    ratios = seconds[:, :, 1] / seconds[:, :, 0]
    return {name: summarize(ratios[:, f], level) for f, name in enumerate(names)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="git revision of the base tree")
    parser.add_argument("--workload", default="train_crowded",
                        choices=("train_sparse", "train_crowded", "cli_io"))
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--ops", type=int, default=10, help="operations (cli_io: passes) per round")
    parser.add_argument("--functions", nargs="*", help="time only these (default: all)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        results = compare(extract_revision(args.rev, Path(tmp)), ROOT / "src", args.workload,
                          rounds=args.rounds, ops=args.ops, functions=args.functions)
    print(f"change / {args.rev}, {args.workload}, {args.ops} ops per round")
    for name, s in results.items():
        low, high = s["interval"]
        print(f"{name:28s} x{s['median']:.3f}  95% [{low:.3f}, {high:.3f}]  "
              f"faster in {s['faster']} of {s['rounds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
