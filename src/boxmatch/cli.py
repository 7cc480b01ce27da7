"""Command-line surface: run assignment strategies over synthetic or ingested
scenes, run trajectory experiments, and evaluate detection files.

Commands write versioned JSON files into the output directory; diagnostics go
to stderr. Every command is deterministic given its config and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .anchors import AnchorGridSpec, LevelSpec, PointSet, generate_anchors, generate_points
from .annotations import AnnotationError, _read_json, load_annotations, load_detections
from .assignment import STRATEGIES, MatchingConfig
from .evaluation import average_precision
from .geometry import _bounded, _fields
from .render import STRATEGY_COLORS, render_assignment_svg
from .simulator import (
    Scene,
    SceneSpec,
    TrajectoryConfig,
    _labelled,
    _trajectories,
    ground_truth_from_scene,
    synth_scene,
)


class CliError(Exception):
    """Configuration or input problem reported to stderr with exit code 1."""


@dataclass
class RunConfig:
    """The library configs a run is built from, plus the two settings that
    only the CLI has; checks its number fields."""

    grid: AnchorGridSpec
    matching: MatchingConfig
    scene_spec: SceneSpec
    trajectory: TrajectoryConfig
    num_scenes: int = 1
    assign_progress: float = 0.5

    def __post_init__(self):
        _fields(self, num_scenes=_bounded(int, 1), assign_progress=_bounded(float, 0, 1))


@contextmanager
def _section(name: str):
    """Report an error in the block as an invalid config section ``name``."""
    try:
        yield
    except (AttributeError, TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {name}: {exc}") from exc


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Apply each ``--config`` section on top of its library type's defaults.

    The types check the values; an error names its section. A key the type
    does not have is rejected, and so is an unknown top-level key.
    """
    raw = {}
    if args.config is not None:
        raw = _read_json(args.config, dict, "a JSON object at the top level")
    levels = {}
    with _section("levels"):
        if "levels" in raw:
            levels["levels"] = [LevelSpec(**level) for level in raw.pop("levels")]
    with _section("image"):
        image = {f"image_{key}": value for key, value in raw.pop("image", {}).items()}
        grid = AnchorGridSpec(**image, **levels)
    with _section("matching"):
        sigma = {} if args.sigma is None else {"sigma": args.sigma}
        matching = MatchingConfig(**{**raw.pop("matching", {}), **sigma})
    with _section("scene"):
        size = grid.image_width, grid.image_height
        scene = SceneSpec(*size, seed=args.seed, **raw.pop("scene", {}))
    with _section("trajectory"):
        trajectory = TrajectoryConfig(**raw.pop("trajectory", {}))
    with _section("config"):
        cfg = RunConfig(grid, matching, scene, trajectory, **raw)

    if args.annotations and args.synthetic:
        raise CliError("choose exactly one input source: --annotations or --synthetic")
    if args.annotations and not Path(args.annotations).exists():
        raise CliError(f"annotation file does not exist: {args.annotations}")
    return cfg


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for string-keyed dicts, with a 1-D
    NumPy integer array for its list; ``indent`` is the line break and spaces before the
    closing bracket. An array's dtype vouches for its items, so they need no scan: labels
    (in [-2, m)) are gathered from one string per value of their range."""
    inner = indent + "  "
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "iu":
        lo, hi = (int(value.min()), int(value.max())) if value.size else (0, 0)
        if hi - lo < value.size:  # value - lo may wrap in the dtype; read unsigned, it is exact
            words = np.array([str(v) for v in range(lo, hi + 1)], dtype=object)
            items = words[(value - lo).view(f"u{value.itemsize}")].tolist()
        else:  # a range wider than the array gets no table
            items = [str(v) for v in value.tolist()]
    elif isinstance(value, dict):
        items = [f"{json.dumps(key)}: {_json_text(value[key], inner)}" for key in sorted(value)]
    elif isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
    else:
        return json.dumps(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return brackets[0] + (inner + ("," + inner).join(items) + indent if items else "") + brackets[1]


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, _json_text(payload) + "\n")


def _load_scenes(args: argparse.Namespace, cfg: RunConfig) -> list[tuple[object, Scene, int]]:
    """Return (image_id, scene, per-scene seed) triples from the chosen source."""
    if args.annotations:
        images, _ = load_annotations(args.annotations)
    elif args.synthetic:
        specs = (replace(cfg.scene_spec, seed=args.seed + k) for k in range(cfg.num_scenes))
        images = [(f"scene-{k:04d}", synth_scene(spec)) for k, spec in enumerate(specs)]
    else:
        raise CliError("choose an input source: --annotations <path> or --synthetic")
    return [(image_id, scene, args.seed + k) for k, (image_id, scene) in enumerate(images)]


def _diff_payload(image_id: object, strategy: str, name: str, baseline, dynamic, m: int) -> dict:
    """Compare the classification labels of the baseline called ``name`` and
    of the strategy, sample by sample and per object (``m`` objects)."""
    baseline, dynamic = baseline.classification_labels, dynamic.classification_labels
    base_pos, dyn_pos = baseline >= 0, dynamic >= 0
    base_counts = np.bincount(baseline[base_pos], minlength=m).tolist()
    dyn_counts = np.bincount(dynamic[dyn_pos], minlength=m).tolist()
    return {
        "format_version": 1,
        "image_id": image_id,
        "baseline": name,
        "strategy": strategy,
        "baseline_positive_count": int(np.count_nonzero(base_pos)),
        "strategy_positive_count": int(np.count_nonzero(dyn_pos)),
        "only_baseline": np.flatnonzero(base_pos & ~dyn_pos),
        "only_strategy": np.flatnonzero(dyn_pos & ~base_pos),
        "per_object": [
            {"object": j, "baseline_positives": b, "strategy_positives": d}
            for j, (b, d) in enumerate(zip(base_counts, dyn_counts))
        ],
    }


def _write_scene(args: argparse.Namespace, image_id, scene: Scene, grid, baseline, dynamic):
    """Write the labels of the grid's baseline (named first in its ``STRATEGIES`` row)
    and of the strategy, their diff and the SVG, whose positives are the rows of the
    grid's anchor boxes or point coordinates."""
    out, name = Path(args.out), next(iter(STRATEGIES[baseline.mode]))
    files = {
        f"{image_id}.{name}.json": baseline._json_payload(),
        f"{image_id}.{args.strategy}.json": dynamic._json_payload(),
        f"{image_id}.diff.json": _diff_payload(
            image_id, args.strategy, name, baseline, dynamic, len(scene.boxes)
        ),
    }
    for file_name, payload in files.items():
        _write_json(out / file_name, payload)
    if args.svg:
        rows = grid.xy if isinstance(grid, PointSet) else grid.array
        layers = [
            (STRATEGY_COLORS[color], rows[labels >= 0].tolist())
            for color, labels in (
                ("static", baseline.classification_labels),
                ("l2c", dynamic.classification_labels),
                ("c2l", dynamic.localization_labels),
            )
        ]
        svg = render_assignment_svg(scene.image_width, scene.image_height, scene.boxes, layers)
        _write_text(out / f"{image_id}.svg", svg)


def cmd_assign(args: argparse.Namespace, cfg: RunConfig) -> int:
    scenes = _load_scenes(args, cfg)
    stems = [str(image_id) for image_id, _, _ in scenes]  # each names its files
    unsafe = [s for s in stems if s in ("", ".", "..") or {os.sep, os.altsep} & set(s)]
    if unsafe:
        raise CliError(f"image ids cannot name files: {', '.join(map(repr, unsafe))}")
    if len(set(stems)) < len(stems):
        shared = [image_id for (image_id, _, _), s in zip(scenes, stems) if stems.count(s) > 1]
        raise CliError(f"image ids name the same files: {', '.join(map(repr, shared))}")
    Path(args.out).mkdir(parents=True, exist_ok=True)
    points = args.strategy in STRATEGIES["points"]
    grid = (generate_points if points else generate_anchors)(cfg.grid)
    for image_id, scene, seed in scenes:  # a trajectory's one step, at assign_progress
        baseline, [[dynamic]] = _labelled(scene, grid, cfg.trajectory, (args.strategy,),
                                          cfg.matching, seed, (cfg.assign_progress,))
        _write_scene(args, image_id, scene, grid, baseline, dynamic)
    return 0


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with_objects = [found for found in _load_scenes(args, cfg) if found[1].boxes]
    if not with_objects:
        raise CliError("simulate needs an image with at least one object")
    image_id, scene, seed = with_objects[0]
    anchors = generate_anchors(cfg.grid)
    dynamic, fixed = _trajectories(
        scene, anchors, cfg.trajectory, ("l2c", "l2c-fixed"), cfg.matching, seed
    )

    dynamic_constant = len(set(dynamic.counts)) == 1
    growth = fixed.counts[-1] / fixed.counts[0] if fixed.counts[0] else float("inf")
    payload = {
        "format_version": 1,
        "image_id": image_id,
        "dynamic": dynamic.to_json_dict(),
        "fixed": fixed.to_json_dict(),
        "verdict": {"dynamic_constant": dynamic_constant, "fixed_growth_factor": growth},
    }
    _write_json(out / "trajectory.json", payload)
    print(
        f"dynamic constant: {'yes' if dynamic_constant else 'no'}; "
        f"fixed growth factor: {growth:.2f}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    if not args.annotations:
        raise CliError("evaluate requires --annotations")
    if not args.detections:
        raise CliError("evaluate requires --detections")
    images, _ = load_annotations(args.annotations)
    dets = load_detections(args.detections, [image_id for image_id, _ in images])
    ground_truth = [gt for i, scene in images for gt in ground_truth_from_scene(scene, i)]
    if not ground_truth:
        raise CliError("annotation file contains no boxes to evaluate against")
    result = average_precision(dets, ground_truth, area_bands=args.area_bands)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "evaluation.json", result.to_json_dict())

    rows = [("AP", result.ap), ("AP50", result.ap50), ("AP75", result.ap75)]
    if args.area_bands:
        rows += [("AP_s", result.ap_small), ("AP_m", result.ap_medium), ("AP_l", result.ap_large)]
    print(f"{'metric':<8}{'value':>8}")
    for name, value in rows:
        text = "-" if value is None else f"{value:.3f}"
        print(f"{name:<8}{text:>8}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxmatch",
        description="Run and compare detector label-assignment strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the flags every command takes
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--annotations", help="annotation file (COCO-style subset)")
    common.add_argument("--synthetic", action="store_true", help="generate random scenes")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--sigma", type=float, default=None, help="amplification exponent")
    common.add_argument("--out", default="out", help="output directory")

    p_assign = sub.add_parser("assign", parents=[common],
                              help="run strategies and write label diffs")
    names = [name for grid in STRATEGIES.values() for name in grid]
    p_assign.add_argument("--strategy", choices=names, default="mutual",
                          help="dynamic strategy to compare against its static baseline")
    p_assign.add_argument("--svg", action="store_true", help="also render SVGs")

    sub.add_parser("simulate", parents=[common], help="trajectory positive-count experiment")

    p_eval = sub.add_parser("evaluate", parents=[common],
                            help="COCO-style AP over a detection file")
    p_eval.add_argument("--detections", help="detection results file")
    p_eval.add_argument("--area-bands", action="store_true", help="also report AP_s/m/l")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_run_config(args)
        if args.command == "assign":
            return cmd_assign(args, cfg)
        if args.command == "simulate":
            return cmd_simulate(args, cfg)
        return cmd_evaluate(args)
    except (CliError, AnnotationError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
