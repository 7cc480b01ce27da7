"""boxmatch benchmark: one workload, one process, one thread, closed loop.

Run from the repository root:

    python3 benchmarks/bench.py --workload train_sparse --seed 1 --seconds 20 --trace 0

The package is imported from `src/` of the checkout the script sits in, and the
brute-force oracles from `tests/oracles.py`, read-only. One client issues the
next operation only after the previous one finished. After an untimed warm-up
operation, whole passes over the workload's inputs run until the operations
have taken at least --seconds; every output is checked and the first pass is
digested. `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics from in-process spans (passes alternate between traced and untraced,
which gives the tracing overhead). The last line of stdout is one JSON object;
the full record, environment included, goes to `.bench_out/`. Timing is
`time.perf_counter` inside this process; no system-wide tracing is used.
"""

from __future__ import annotations

import os

# one thread: pin the numeric libraries before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import CLI_SPANS, FUNCTIONS, LAYERS, Layers, Tracer, self_times
from workloads import WORKLOADS, load_oracles, reanchor_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = ROOT / ".bench_out"
# set-ups before the loop, and how many more to spread over it: the machine's
# speed drifts over seconds, so samples taken at one moment share its state
SETUP_FIRST = 3
SETUP_SPREAD = 8
MAX_REPORTED_ERRORS = 5
# The machine's speed drifts by up to about 1.45x over seconds to minutes. A
# fixed reference kernel, timed every REF_EVERY_S of operation time, tracks
# it: `op_ms_ref` is the mean operation time over the mean reference time,
# scaled to a machine on which the kernel takes REF_MS. Sampling by operation
# time weights each machine state as the operations met it. The kernel mixes
# what the workloads do (a numpy sort of a cached array, the pure-Python JSON
# encoder, an interpreter loop) and runs no boxmatch code, so a change to the
# package moves `op_ms_ref` by the share it moves wall time.
REF_ARRAY = np.random.default_rng(0).random(30_000)
REF_LIST = list(range(500))
REF_REPEATS = 3  # a sample is the median of these, so one preemption does not skew it
REF_MS = 1.0
REF_EVERY_S = 0.1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    threads = {
        k: v
        for k, v in sorted(os.environ.items())
        if k.endswith("_NUM_THREADS") or k in ("OMP_DYNAMIC", "MKL_DYNAMIC")
    }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "thread_env": threads,
        "clients": 1,
        "loop": "closed",
        "timer": "time.perf_counter, in-process",
        "system_wide_tracing": "none",
    }


def _package_modules():
    return [m for m in sys.modules if m == "boxmatch" or m.startswith("boxmatch.")]


def set_up(width, spans=None):
    """Import the whole package, CLI included, from scratch and build the
    workload's anchor and point grids, as a new process would. Returns
    (seconds, package, (anchors, points)); appends the grid-build spans to
    `spans` if given."""
    start = time.perf_counter()
    for name in _package_modules():
        del sys.modules[name]
    importlib.import_module("boxmatch.cli")
    bm = sys.modules["boxmatch"]
    spec = bm.AnchorGridSpec(image_width=width, image_height=width)
    t0 = time.perf_counter()
    anchors = bm.generate_anchors(spec)
    t1 = time.perf_counter()
    points = bm.generate_points(spec)
    t2 = time.perf_counter()
    if spans is not None:
        spans += [("anchors.generate_anchors", t0, t1), ("anchors.generate_points", t1, t2)]
    return t2 - start, bm, (anchors, points)


def sample_set_up(width):
    """Time one more set-up while keeping the package the run is using."""
    saved = {name: sys.modules.pop(name) for name in _package_modules()}
    try:
        return set_up(width)[0]
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def reference_s():
    """One sample of the reference kernel's time, in seconds."""
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        np.sort(REF_ARRAY)
        json.dumps(REF_LIST, indent=2)
        total = 0
        for i in range(8000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Runs operations, times them and counts failures."""

    def __init__(self, workload, layers):
        self.wl = workload
        self.layers = layers
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.refs: list[float] = []  # reference-kernel times, untraced runs only

    def fail(self, what, exc):
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.errors.append(f"{what}: {detail}")
            traceback.print_exception(exc, file=sys.stderr)

    def run(self, k, tracer=None, digest=None):
        """One operation plus its checks; returns its time, or None if it failed."""
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                out = self.wl.op(k, self.layers)
                elapsed = time.perf_counter() - start
            else:
                tracer.op = k
                with tracer.span("op"):
                    start = time.perf_counter()
                    out = self.wl.op(k, self.layers)
                    elapsed = time.perf_counter() - start
                tracer.op = -1
            self.wl.check(k, out, digest)
        except Exception as exc:  # a failed operation is counted, the run goes on
            if tracer is not None:
                tracer.op = -1
            self.fail(f"op {k}", exc)
            return None
        return elapsed

    def timed_passes(self, seconds, tracer=None, sample_setup=None):
        """Whole passes until the operations have taken `seconds`; the first
        pass is digested. With a tracer, passes alternate traced / untraced,
        starting traced. `sample_setup` is called between passes every
        seconds / SETUP_SPREAD of operation time. Without a tracer, the
        reference kernel is timed before the first operation and then every
        REF_EVERY_S of operation time. Stops at the first pass boundary after
        3 * seconds of wall time, so failing operations cannot keep the run
        going. Returns {traced: [op times]}."""
        wl = self.wl
        deadline = time.perf_counter() + 3 * seconds
        times = {False: [], True: []}
        passes = 0
        busy = 0.0
        k = 0
        traced = False
        next_setup = 0.0
        next_ref = 0.0
        while True:
            if k % wl.pass_len == 0:
                if sample_setup is not None and busy >= next_setup:
                    sample_setup()
                    next_setup = busy + seconds / SETUP_SPREAD
                # a traced run needs at least one traced and one untraced pass
                if busy >= seconds and (tracer is None or passes >= 2):
                    break
                if time.perf_counter() > deadline:
                    break
                if tracer is not None:
                    traced = not traced
                    if traced:
                        tracer.install(self.layers)
                    else:
                        tracer.uninstall()
                passes += 1
            if tracer is None and busy >= next_ref:
                self.refs.append(reference_s())
                next_ref = busy + REF_EVERY_S
            digest = wl.digest if k < wl.pass_len else None
            elapsed = self.run(k, tracer if traced else None, digest)
            if elapsed is not None:
                times[traced].append(elapsed)
                busy += elapsed
            k += 1
        if tracer is not None and traced:
            tracer.uninstall()
        return times


def rate(op_times):
    """Operations per second of operation time."""
    return len(op_times) / sum(op_times)


def end_to_end(runner, times, setup_times, peak_rss_mb, figures):
    ops = sorted(times[False])
    ap_mutual, misalign_gap = figures

    def pct(p):
        if len(ops) < 2:
            return ops[0] * 1000.0
        return statistics.quantiles(ops, n=100, method="inclusive")[p - 1] * 1000.0

    def beyond(p):
        return f"n={len(ops)} ops, {len(ops) - int(p / 100 * len(ops))} beyond"

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms_ref": (statistics.fmean(ops) / statistics.fmean(runner.refs) * REF_MS, "ms"),
        "ref_ms": (statistics.median(runner.refs) * 1000.0, "ms"),
        "ops_per_s": (rate(ops), "1/s"),
        "op_ms_p50": (pct(50), "ms"),
        "op_ms_p90": (pct(90), "ms"),
        "op_ms_p95": (pct(95), "ms"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ap_mutual": (ap_mutual, "AP"),
        "misalign_gap": (misalign_gap, "fraction"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} imports + grid builds across the run",
        "op_ms_ref": f"n={len(ops)} ops, {len(runner.refs)} reference timings, "
        f"at ref_ms={REF_MS:g}",
        "ref_ms": f"reference kernel, median of {len(runner.refs)} timings",
        "op_ms_p50": beyond(50),
        "op_ms_p90": beyond(90),
        "op_ms_p95": beyond(95),
        "ok_frac": f"failed_frac={runner.failed / runner.attempted:.4g} "
        f"({runner.failed} of {runner.attempted} ops failed)",
    }
    return metrics, notes


def ratio(part, whole):
    """part / whole, or 0 where the layer did no such work."""
    return part / whole if whole else 0.0


def per_layer(runner, times, tracer, rows):
    spans = tracer.spans
    own = self_times(spans)
    n_ops = len(times[True])
    metrics = {}
    for layer in LAYERS:
        idx = [i for i, s in enumerate(spans) if s[4] >= 0 and s[0].split(".")[0] == layer]
        metrics[f"{layer}.calls"] = (len(idx) / n_ops, "calls/op")
        metrics[f"{layer}.busy_s"] = (sum(own[i] for i in idx) / n_ops, "s/op")
    durations: dict[str, list[float]] = {}
    for name, start, end, _, _ in spans:
        durations.setdefault(name, []).append(end - start)
    for name in (*FUNCTIONS, *CLI_SPANS):
        d = durations.get(name)
        metrics[f"{name}_ms"] = (statistics.median(d) * 1000.0 if d else 0.0, "ms")
    c = tracer.counts
    iou_s = sum(e - s for n, s, e, _, op in spans if n == "geometry.pairwise_iou" and op >= 0)
    metrics.update(
        {
            "geometry.iou_pairs": (c["geometry.iou_pairs"] / n_ops, "pairs/op"),
            "geometry.iou_mpairs_per_s": (ratio(c["geometry.iou_pairs"] / 1e6, iou_s), "Mpairs/s"),
            "simulator.detections_emitted": (c["simulator.detections_emitted"] / n_ops, "dets/op"),
            "assignment.positives": (c["assignment.positives"] / n_ops, "labels/op"),
            "assignment.merge_keep_ratio": (
                ratio(c["assignment.realised"], c["assignment.claims"]),
                "ratio",
            ),
            "assignment.task_disagreement": (
                c["assignment.task_disagreement"] / n_ops,
                "anchors/op",
            ),
            "fcos.positives": (c["fcos.positives"] / n_ops, "labels/op"),
            "evaluation.nms_keep_ratio": (
                ratio(c["evaluation.nms_kept"], c["evaluation.nms_in"]),
                "ratio",
            ),
            "cli.bytes_written": (float(runner.wl.bytes_written), "B/op"),
        }
    )
    traced_rate, untraced_rate = rate(times[True]), rate(times[False])
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = (traced_rate - untraced_rate, "1/s")
    metrics.update({name: (value, "ms") for name, value in rows.items()})
    notes = {
        "trace.ops_per_s": f"{n_ops} traced ops, {len(times[False])} untraced ops",
    }
    return metrics, notes


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def digest_note(workload, seed, digest):
    try:
        recorded = json.loads((HERE / "baseline.json").read_text())["digests"][workload]
    except (OSError, KeyError, ValueError):
        recorded = {}
    if str(seed) not in recorded:
        return "no seed-commit digest recorded for this seed"
    if recorded[str(seed)] == digest:
        return "matches the seed-commit digest"
    return "DIFFERS from the seed-commit digest: a behaviour change, not a speed-up"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "boxmatch" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"error: {ROOT} has no src/boxmatch package or tests/oracles.py", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    setup_times, grid_spans = [], []
    for _ in range(SETUP_FIRST):
        seconds, bm, grid = set_up(cls.width, grid_spans)
        setup_times.append(seconds)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    wl = cls(bm, args.seed, grid, OUT / f"work-{run_id}", load_oracles(ORACLES))
    try:
        return measure(args, run_id, wl, setup_times, grid_spans)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)


def measure(args, run_id, wl, setup_times, grid_spans) -> int:
    layers = Layers(wl.bm)
    runner = Runner(wl, layers)
    tracer = Tracer() if args.trace else None

    runner.run(0)  # warm-up: lazy initialisation and caches
    sample_setup = None
    if tracer is None:
        sample_setup = lambda: setup_times.append(sample_set_up(wl.width))  # noqa: E731
    times = runner.timed_passes(args.seconds, tracer, sample_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not times[False] or (tracer is not None and not times[True]):
        print("error: no operation succeeded", file=sys.stderr)
        for e in runner.errors:
            print(f"  {e}", file=sys.stderr)
        return 1

    if tracer is None:
        runner.attempted += 1  # the experiment and oracle cross-check count as one operation
        try:
            figures = wl.paper_experiment(layers)
        except Exception as exc:
            runner.fail("paper experiment", exc)
            figures = (0.0, 0.0)
        metrics, notes = end_to_end(runner, times, setup_times, peak_rss_mb, figures)
    else:
        for name, start, end in grid_spans:
            tracer.add(name, start, end)
        rows = reanchor_rows(wl.bm, args.seed)
        metrics, notes = per_layer(runner, times, tracer, rows)

    declared = declared_metrics(args.trace)
    missing = set(declared) - set(metrics)
    unbounded = [name for name in metrics if name not in declared]
    if missing or (args.trace and unbounded):
        print(f"error: metrics {sorted(missing | set(unbounded))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1

    digest = wl.digest.hexdigest()
    env = environment()
    print(f"boxmatch benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name in declared + unbounded:
        value, unit = metrics[name]
        note = notes.get(name, "")
        if name in unbounded:
            note = f"(unbounded, see README) {note}"
        print(f"  {name:<40} {value:>14.6g} {unit:<9} {note}")
    print(f"digest {args.workload} seed {args.seed}: {digest} "
          f"(first pass, {wl.digest_ops} ops; {digest_note(args.workload, args.seed, digest)})")
    for e in runner.errors:
        print(f"  failure: {e}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in declared},
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "unbounded": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in unbounded},
        "notes": notes,
        "digest": digest,
        "errors": runner.errors,
        "setup_s": setup_times,
        "ref_ms": [t * 1000.0 for t in runner.refs],
        "op_ms": {str(k).lower(): [t * 1000.0 for t in v] for k, v in times.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{run_id}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT / f"spans-{run_id}.json").write_text(json.dumps(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
