"""Per-layer A/B timing of two source trees of boxmatch in one process.

Run from the repository root, comparing a git revision with the working tree:

    python3 tools/ab_layers.py --rev HEAD~1 --rounds 20
    python3 tools/ab_layers.py --rev HEAD~1 --workload eval_paper --rounds 10

The `src` of `--rev` is extracted with `git archive` into a temporary directory,
and both trees are imported under their own package names. Each builds the
seed-1 inputs of a benchmark workload (on `cli_io`, in its own directory) and
runs the first `--passes` passes once through the benchmark's `Layers`, which
records every layer call with its arguments under its span name: `cli.<command>`
for a CLI command, plus `:<strategy>` if it names one. `benchmarks/` is only
read. A round replays the recorded calls row by row, the two trees in turn
call by call, then each whole pass (the `pass` row); the tree that goes first
alternates by round. Per row the script prints the median over the rounds of
the change's time over the base's, a distribution-free 95% interval of it (two
order statistics; min to max below 6 rounds) and in how many rounds the change
was faster, and beside it each tree's minor page faults per call of the row,
read by `resource.getrusage` around each timed call: a kernel's time can be
mostly page faults, which move with the heap's layout as well as with the
code. Timing is `time.perf_counter` inside this process. An interval
reflects the load of the run it comes from, since its rounds share that load:
two runs of the same two trees have read disjoint intervals, so repeat a run
before reading a row's interval as a difference.
"""

from __future__ import annotations

import os

# one thread, as in the benchmark: pin the numeric libraries before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import importlib.util
import io
import math
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 1  # the workload inputs are the benchmark's first seed's


def load_package(name: str, src: Path):
    """Import the ``boxmatch`` package under ``src`` as the top-level package
    ``name``, with its ``cli`` module, which the benchmark's `Layers` reads."""
    for stale in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[stale]  # an earlier import's submodules would shadow this tree's
    package = src / "boxmatch"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def extract_revision(rev: str, into: Path) -> Path:
    """The ``src`` directory of git revision ``rev``, extracted under ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def load_benchmark(name: str):
    """The module ``benchmarks/<name>.py``, imported from its file."""
    spec = importlib.util.spec_from_file_location(
        f"boxmatch_ab_{name}", ROOT / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def quiet_cli(main, argv) -> int:
    """Run one CLI command with its output captured; a failed command raises."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        code = main(argv)
    if code:
        raise RuntimeError(f"{argv[0]} exited {code}: {log.getvalue().strip()}")
    return code


class Tree:
    """One package with its own grids and workload. The workload's first passes
    run once through a copy of the benchmark's `Layers` that records each layer
    call, bound to its arguments, under its span name (`calls`); `passes` runs
    each of them again through the plain `Layers`."""

    def __init__(self, bm, tracing, workloads, workload: str, passes: int, workdir: Path):
        cls = workloads.WORKLOADS[workload]
        spec = bm.AnchorGridSpec(image_width=cls.width, image_height=cls.width)
        grid = bm.generate_anchors(spec), bm.generate_points(spec)
        self.workload = cls(bm, SEED, grid, workdir, None)
        self.calls, self.spans = [], []
        layers = tracing.Layers(bm)
        for name, (_, attr) in tracing.FUNCTIONS.items():
            setattr(layers, attr, partial(self.record, name, getattr(layers, attr)))
        layers.span = lambda name: self.spans.append(name) or contextlib.nullcontext()
        layers.cli_main = partial(self.record_cli, bm.cli.main)
        for p in range(passes):
            self.run_pass(layers, p)
        self.passes = [partial(self.run_pass, tracing.Layers(bm), p) for p in range(passes)]

    def record(self, name, fn, /, *args, **kwargs):
        call = partial(fn, *args, **kwargs)
        self.calls.append((name, call))
        return call()

    def record_cli(self, main, argv):
        """A command is named by the span it runs in, and by its strategy if it has one."""
        name = self.spans[-1]
        if "--strategy" in argv:
            name += ":" + argv[argv.index("--strategy") + 1]
        return self.record(name, quiet_cli, main, argv)

    def run_pass(self, layers, p: int):
        wl = self.workload
        for k in range(p * wl.pass_len, (p + 1) * wl.pass_len):
            wl.op(k, layers)


def minor_faults() -> int:
    """The minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def summarize(ratios: np.ndarray, level: float = 0.95) -> dict:
    """Median of the per-round ratios, the k-th lowest to k-th highest ratio as its
    interval at ``level`` and the number of rounds in which the change was faster."""
    n, ranked = ratios.size, np.sort(ratios)
    # it misses the median w.p. 2 P(Binomial(n, 1/2) < k): the largest k within 1 - level, or 1
    miss = 2 * np.cumsum([math.comb(n, i) / 2**n for i in range(n)])
    k = max(1, int(np.count_nonzero(miss <= 1 - level)))
    return {
        "median": float(np.median(ratios)),
        "interval": (float(ranked[k - 1]), float(ranked[n - k])),
        "faster": int(np.count_nonzero(ratios < 1.0)),
        "rounds": int(ratios.size),
    }


def make_trees(base_src: Path, change_src: Path, workload: str, passes: int,
               workdir: Path) -> list[Tree]:
    """The base and the change tree, each workload writing under ``workdir``."""
    benchmarks = load_benchmark("tracing"), load_benchmark("workloads")
    return [
        Tree(load_package(name, src), *benchmarks, workload, passes, workdir / name)
        for name, src in (("boxmatch_ab_base", base_src), ("boxmatch_ab_change", change_src))
    ]


def replay(base: Tree, change: Tree, rounds: int = 20, functions=None,
           level: float = 0.95) -> dict:
    """Time both trees' recorded calls and passes round by round, row by row
    and the two trees in turn call by call; returns {row: summarize(...)},
    each with "faults": the (base, change) minor page faults per call."""
    if [name for name, _ in base.calls] != [name for name, _ in change.calls]:
        raise RuntimeError("the two trees made different layer calls")
    calls = [(name, (a, b)) for (name, a), (_, b) in zip(base.calls, change.calls)]
    calls += [("pass", pair) for pair in zip(base.passes, change.passes)]
    rows = list(dict.fromkeys(name for name, _ in calls))
    if unknown := sorted(set(functions or ()) - set(rows)):
        raise ValueError(f"no rows named {unknown}; the rows are {rows}")
    rows = [row for row in rows if not functions or row in functions]
    # row by row: a call then follows calls like it, not whatever the operation made before it
    calls = [(f, pair) for f, row in enumerate(rows) for name, pair in calls if name == row]
    seconds, faults = np.zeros((rounds, len(rows), 2)), np.zeros((len(rows), 2))
    gc.collect()
    gc.disable()  # no collection lands inside a timed call
    try:
        for r in range(rounds):  # recording ran every call once: no warm-up
            sides = (0, 1) if r % 2 == 0 else (1, 0)
            for row, pair in calls:
                for side in sides:
                    before = minor_faults()
                    start = time.perf_counter()
                    pair[side]()
                    seconds[r, row, side] += time.perf_counter() - start
                    faults[row, side] += minor_faults() - before
    finally:
        gc.enable()
    ratios = seconds[:, :, 1] / seconds[:, :, 0]
    faults /= rounds * np.bincount([row for row, _ in calls], minlength=len(rows))[:, None]
    return {name: {**summarize(ratios[:, f], level), "faults": tuple(faults[f].tolist())}
            for f, name in enumerate(rows)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="git revision of the base tree")
    parser.add_argument("--workload", default="train_crowded",
                        choices=list(load_benchmark("workloads").WORKLOADS))
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--passes", type=int, default=1, help="workload passes per round")
    parser.add_argument("--functions", nargs="*", help="time only these rows (default: all)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:  # the base's src and each tree's workload
        base_src = extract_revision(args.rev, Path(tmp))
        trees = make_trees(base_src, ROOT / "src", args.workload, args.passes, Path(tmp))
        results = replay(*trees, args.rounds, args.functions)
    print(f"change / {args.rev}, {args.workload}, {args.passes} passes per round")
    width = max(map(len, results), default=0)
    for name, s in results.items():
        low, high = s["interval"]
        print(f"{name:{width}s} x{s['median']:.3f}  95% [{low:.3f}, {high:.3f}]  "
              f"faster in {s['faster']} of {s['rounds']}  "
              f"faults per call {s['faults'][0]:.1f} -> {s['faults'][1]:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
