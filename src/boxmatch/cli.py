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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .anchors import (
    AnchorGridSpec,
    AnchorSet,
    LevelSpec,
    PointSet,
    generate_anchors,
    generate_points,
)
from .annotations import AnnotationError, load_annotations, load_detections
from .assignment import ANCHOR_STRATEGIES, MatchingConfig
from .evaluation import GroundTruth, average_precision
from .fcos import POINT_STRATEGIES
from .geometry import Box, boxes_to_array, pairwise_iou
from .render import STRATEGY_COLORS, render_assignment_svg
from .simulator import (
    Scene,
    SceneSpec,
    TrajectoryConfig,
    run_trajectory,
    synth_point_predictions,
    synth_predictions,
    synth_scene,
)


class CliError(Exception):
    """Configuration or input problem reported to stderr with exit code 1."""


@dataclass
class RunConfig:
    grid: AnchorGridSpec
    matching: MatchingConfig
    scene_spec: SceneSpec
    trajectory: TrajectoryConfig
    annotations: Optional[str]
    synthetic: bool
    num_scenes: int
    assign_progress: float
    strategy: str
    seed: int
    out: Path
    svg: bool
    detections: Optional[str]
    area_bands: bool


_DEFAULT_CONFIG = {
    "image": {"width": 320, "height": 320},
    "levels": [
        {"stride": 8, "scales": [32], "aspect_ratios": [1, 2, 0.5]},
        {"stride": 16, "scales": [64, 128], "aspect_ratios": [1, 2, 0.5]},
        {"stride": 32, "scales": [256], "aspect_ratios": [1, 2, 0.5]},
    ],
    "matching": {"t_pos": 0.5, "t_neg": 0.4, "sigma": 2.0},
    "scene": {
        "count_range": [1, 5],
        "size_range": [32, 128],
        "max_pairwise_iou": 0.2,
        "num_classes": 3,
    },
    "trajectory": {
        "steps": 10,
        "localization_gain": "linear",
        "score_gain": "linear",
        "noise": 0.05,
        "misalignment_fraction": 0.0,
    },
    "assign_progress": 0.5,
    "num_scenes": 1,
}


def _merged_config(path: Optional[str]) -> dict:
    merged = json.loads(json.dumps(_DEFAULT_CONFIG))  # deep copy
    if path is None:
        return merged
    try:
        loaded = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise CliError(f"config {path} must be a JSON object")
    for key, value in loaded.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = value
    return merged


def build_run_config(args: argparse.Namespace) -> RunConfig:
    raw = _merged_config(getattr(args, "config", None))
    if args.sigma is not None:
        raw["matching"]["sigma"] = args.sigma

    try:
        grid = AnchorGridSpec(
            image_width=int(raw["image"]["width"]),
            image_height=int(raw["image"]["height"]),
            levels=tuple(
                LevelSpec(
                    stride=int(level["stride"]),
                    scales=tuple(level["scales"]),
                    aspect_ratios=tuple(level.get("aspect_ratios", [1.0])),
                )
                for level in raw["levels"]
            ),
        )
        matching = MatchingConfig(**raw["matching"])
        scene_cfg = dict(raw["scene"])
        scene_spec = SceneSpec(
            image_width=grid.image_width,
            image_height=grid.image_height,
            count_range=tuple(scene_cfg["count_range"]),
            size_range=tuple(scene_cfg["size_range"]),
            max_pairwise_iou=scene_cfg["max_pairwise_iou"],
            num_classes=int(scene_cfg["num_classes"]),
            seed=args.seed,
        )
        trajectory = TrajectoryConfig(**raw["trajectory"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}") from exc

    annotations = getattr(args, "annotations", None)
    synthetic = bool(getattr(args, "synthetic", False))
    if annotations and synthetic:
        raise CliError("choose exactly one input source: --annotations or --synthetic")
    if annotations and not Path(annotations).exists():
        raise CliError(f"annotation file does not exist: {annotations}")

    return RunConfig(
        grid=grid,
        matching=matching,
        scene_spec=scene_spec,
        trajectory=trajectory,
        annotations=annotations,
        synthetic=synthetic,
        num_scenes=int(raw["num_scenes"]),
        assign_progress=float(raw["assign_progress"]),
        strategy=getattr(args, "strategy", "mutual"),
        seed=args.seed,
        out=Path(args.out),
        svg=bool(getattr(args, "svg", False)),
        detections=getattr(args, "detections", None),
        area_bands=bool(getattr(args, "area_bands", False)),
    )


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _load_scenes(cfg: RunConfig) -> list[tuple[object, Scene, int]]:
    """Return (image_id, scene, per-scene seed) triples from the configured source."""
    scenes: list[tuple[object, Scene, int]] = []
    if cfg.annotations:
        images, _ = load_annotations(cfg.annotations)
        for k, image in enumerate(images):
            if not image.boxes:
                print(
                    f"warning: image {image.image_id!r} has no annotations; skipped",
                    file=sys.stderr,
                )
                continue
            scene = Scene(
                image_width=image.width,
                image_height=image.height,
                boxes=tuple(image.boxes),
                class_ids=tuple(image.class_ids),
            )
            scenes.append((image.image_id, scene, cfg.seed + k))
    else:
        if not cfg.synthetic:
            raise CliError("choose an input source: --annotations <path> or --synthetic")
        for k in range(cfg.num_scenes):
            spec = replace(cfg.scene_spec, seed=cfg.seed + k)
            scenes.append((f"scene-{k:04d}", synth_scene(spec), cfg.seed + k))
    if not scenes:
        raise CliError("no usable scenes in the input source")
    return scenes


def _positive_indices(labels: np.ndarray) -> list[int]:
    return [int(i) for i in np.flatnonzero(labels >= 0)]


def _diff_payload(
    image_id: object,
    strategy: str,
    baseline: np.ndarray,
    dynamic: np.ndarray,
    n_objects: int,
) -> dict:
    base_pos = set(_positive_indices(baseline))
    dyn_pos = set(_positive_indices(dynamic))
    per_object = [
        {
            "object": j,
            "baseline_positives": int(np.sum(baseline == j)),
            "strategy_positives": int(np.sum(dynamic == j)),
        }
        for j in range(n_objects)
    ]
    return {
        "format_version": 1,
        "image_id": image_id,
        "baseline": "static",
        "strategy": strategy,
        "baseline_positive_count": len(base_pos),
        "strategy_positive_count": len(dyn_pos),
        "only_baseline": sorted(base_pos - dyn_pos),
        "only_strategy": sorted(dyn_pos - base_pos),
        "per_object": per_object,
    }


def _label_anchors(cfg: RunConfig, anchors: AnchorSet, scene: Scene, seed: int):
    """Return what _write_scene takes after the scene: the baseline's name,
    the baseline, the strategy's result, the SVG layer argument and the
    packed anchor boxes it draws."""
    iou_anchor = pairwise_iou(anchors.array, boxes_to_array(scene.boxes))
    snapshot = synth_predictions(
        scene, anchors, cfg.trajectory, cfg.assign_progress, seed=seed, _iou_anchor=iou_anchor
    )
    baseline, dynamic = ANCHOR_STRATEGIES[cfg.strategy](
        iou_anchor, snapshot.iou_regressed, snapshot.classif_scores, cfg.matching
    )
    return "static", baseline, dynamic, "box_layers", anchors.array


def _label_points(cfg: RunConfig, points: PointSet, scene: Scene, seed: int):
    """The point twin of _label_anchors; the SVG draws point coordinates."""
    iou_regressed, scores = synth_point_predictions(
        scene, points, cfg.trajectory, cfg.assign_progress, seed=seed
    )
    baseline, dynamic = POINT_STRATEGIES[cfg.strategy](
        points, scene.boxes, iou_regressed, scores, cfg.matching
    )
    return "fcos", baseline, dynamic, "point_layers", points.xy


def _write_scene(
    cfg: RunConfig, image_id, scene: Scene, baseline_name, baseline, dynamic, layer_kind, rows
) -> None:
    """Write a scene's baseline and strategy labels, their diff and the SVG.

    ``rows`` packs the anchor boxes or point coordinates the SVG draws for
    positive labels, under the renderer's ``layer_kind`` argument; only the
    positive anchor rows become ``Box`` objects.
    """
    files = {
        f"{image_id}.{baseline_name}.json": baseline.to_json_dict(),
        f"{image_id}.{cfg.strategy}.json": dynamic.to_json_dict(),
        f"{image_id}.diff.json": _diff_payload(
            image_id,
            cfg.strategy,
            baseline.classification_labels,
            dynamic.classification_labels,
            len(scene.boxes),
        ),
    }
    for name, payload in files.items():
        _write_json(cfg.out / name, payload)
    if cfg.svg:
        layers = []
        for color, labels in (
            ("static", baseline.classification_labels),
            ("l2c", dynamic.classification_labels),
            ("c2l", dynamic.localization_labels),
        ):
            items = rows[labels >= 0].tolist()
            if layer_kind == "box_layers":
                items = [Box(*row) for row in items]
            layers.append((STRATEGY_COLORS[color], items))
        svg = render_assignment_svg(
            scene.image_width, scene.image_height, scene.boxes, **{layer_kind: layers}
        )
        _write_text(cfg.out / f"{image_id}.svg", svg)


def cmd_assign(cfg: RunConfig) -> int:
    cfg.out.mkdir(parents=True, exist_ok=True)
    if cfg.strategy in POINT_STRATEGIES:
        label, grid = _label_points, generate_points(cfg.grid)
    else:
        label, grid = _label_anchors, generate_anchors(cfg.grid)
    for image_id, scene, seed in _load_scenes(cfg):
        _write_scene(cfg, image_id, scene, *label(cfg, grid, scene, seed))
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    cfg.out.mkdir(parents=True, exist_ok=True)
    image_id, scene, seed = _load_scenes(cfg)[0]
    anchors = generate_anchors(cfg.grid)
    dynamic = run_trajectory(scene, anchors, cfg.trajectory, "l2c", cfg.matching, seed=seed)
    fixed = run_trajectory(scene, anchors, cfg.trajectory, "l2c-fixed", cfg.matching, seed=seed)

    dynamic_constant = len(set(dynamic.counts)) == 1
    growth = fixed.counts[-1] / fixed.counts[0] if fixed.counts[0] else float("inf")
    verdict = {
        "dynamic_constant": dynamic_constant,
        "fixed_growth_factor": growth,
    }
    payload = {
        "format_version": 1,
        "image_id": image_id,
        "dynamic": dynamic.to_json_dict(),
        "fixed": fixed.to_json_dict(),
        "verdict": verdict,
    }
    _write_json(cfg.out / "trajectory.json", payload)
    print(
        f"dynamic constant: {'yes' if dynamic_constant else 'no'}; "
        f"fixed growth factor: {growth:.2f}"
    )
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    if not cfg.annotations:
        raise CliError("evaluate requires --annotations")
    if not cfg.detections:
        raise CliError("evaluate requires --detections")
    images, _ = load_annotations(cfg.annotations)
    dets = load_detections(cfg.detections, [img.image_id for img in images])
    ground_truth = [
        GroundTruth(box=b, class_id=c, image_id=img.image_id)
        for img in images
        for b, c in zip(img.boxes, img.class_ids)
    ]
    if not ground_truth:
        raise CliError("annotation file contains no boxes to evaluate against")
    result = average_precision(dets, ground_truth, area_bands=cfg.area_bands)

    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out / "evaluation.json", result.to_json_dict())

    rows = [("AP", result.ap), ("AP50", result.ap50), ("AP75", result.ap75)]
    if cfg.area_bands:
        rows += [("AP_s", result.ap_small), ("AP_m", result.ap_medium), ("AP_l", result.ap_large)]
    print(f"{'metric':<8}{'value':>8}")
    for name, value in rows:
        text = "-" if value is None else f"{value:.3f}"
        print(f"{name:<8}{text:>8}")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--annotations", help="annotation file (COCO-style subset)")
    parser.add_argument("--synthetic", action="store_true", help="generate random scenes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sigma", type=float, default=None, help="amplification exponent")
    parser.add_argument("--out", default="out", help="output directory")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxmatch",
        description="Run and compare detector label-assignment strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_assign = sub.add_parser("assign", help="run strategies and write label diffs")
    _add_common_flags(p_assign)
    p_assign.add_argument(
        "--strategy",
        choices=[*ANCHOR_STRATEGIES, *POINT_STRATEGIES],
        default="mutual",
        help="dynamic strategy to compare against its static baseline",
    )
    p_assign.add_argument("--svg", action="store_true", help="also render SVGs")

    p_sim = sub.add_parser("simulate", help="trajectory positive-count experiment")
    _add_common_flags(p_sim)

    p_eval = sub.add_parser("evaluate", help="COCO-style AP over a detection file")
    _add_common_flags(p_eval)
    p_eval.add_argument("--detections", help="detection results file")
    p_eval.add_argument("--area-bands", action="store_true", help="also report AP_s/m/l")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_run_config(args)
        if args.command == "assign":
            return cmd_assign(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_evaluate(cfg)
    except (CliError, AnnotationError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
