"""Synthetic scenes and training-trajectory predictions.

The simulator stands in for a training run: at progress t, every anchor's
regressed box sits on the straight line from the anchor box (t=0) to its
best-overlap ground-truth box (t=1), with bounded jitter on the interpolation
weight, so regressed overlap never falls below anchor overlap except for
deliberately injected misaligned anchors. Classification scores ramp from 0
toward values coupled to the regressed overlap. Everything is deterministic
given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .anchors import AnchorSet, PointSet
from .assignment import ANCHOR_STRATEGIES, MatchingConfig, static_assign
from .evaluation import Detection, GroundTruth
from .geometry import Box, boxes_to_array, iou, pairwise_iou

GAIN_CURVES: dict[str, Callable[[float], float]] = {
    "linear": lambda t: t,
    "sqrt": math.sqrt,
    "quadratic": lambda t: t * t,
}

# anchors eligible for misalignment injection: overlap high enough that the
# static strategy would train them as positives
_INJECTION_IOU_FLOOR = 0.5
# x-shift of the drifted regression target, as a fraction of object width;
# leaves the drifted box overlapping its object at IoU 0.25
_DRIFT_SHIFT = 0.6


@dataclass(frozen=True)
class SceneSpec:
    """Parameters for random scene synthesis; fully determined by the seed."""

    image_width: int = 320
    image_height: int = 320
    count_range: tuple[int, int] = (1, 5)
    size_range: tuple[float, float] = (32.0, 128.0)
    max_pairwise_iou: Optional[float] = 0.2
    num_classes: int = 3
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.count_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad count range {self.count_range}")
        smin, smax = self.size_range
        if not (0 < smin <= smax):
            raise ValueError(f"bad size range {self.size_range}")
        if smax > min(self.image_width, self.image_height):
            raise ValueError(
                f"object size {smax} does not fit a "
                f"{self.image_width}x{self.image_height} image"
            )
        if self.num_classes < 1:
            raise ValueError("need at least one class")


@dataclass
class Scene:
    """Ground truth for one synthetic or ingested image."""

    image_width: int
    image_height: int
    boxes: tuple[Box, ...]
    class_ids: tuple[int, ...]


@dataclass(frozen=True)
class TrajectoryConfig:
    """How localization quality, scores and noise evolve with progress t."""

    steps: int = 10
    localization_gain: str = "linear"
    score_gain: str = "linear"
    noise: float = 0.05
    misalignment_fraction: float = 0.0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        for name in (self.localization_gain, self.score_gain):
            if name not in GAIN_CURVES:
                raise ValueError(
                    f"unknown gain curve {name!r}; choose from {sorted(GAIN_CURVES)}"
                )
        if self.noise < 0:
            raise ValueError("noise amplitude must be >= 0")
        if not 0.0 <= self.misalignment_fraction <= 1.0:
            raise ValueError("misalignment fraction must lie in [0, 1]")


@dataclass
class TrajectorySnapshot:
    """Simulated predictions at one training-progress instant."""

    regressed_boxes: np.ndarray
    classif_scores: np.ndarray
    iou_regressed: np.ndarray
    progress: float


@dataclass
class TrajectoryStep:
    t: float
    positive_count: int
    labels: np.ndarray


@dataclass
class TrajectoryResult:
    strategy: str
    steps: list[TrajectoryStep]

    @property
    def counts(self) -> list[int]:
        return [s.positive_count for s in self.steps]

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "strategy": self.strategy,
            "steps": [
                {"t": s.t, "positive_count": s.positive_count} for s in self.steps
            ],
        }


def synth_scene(spec: SceneSpec) -> Scene:
    """Place random non-crowded boxes; deterministic for a given seed.

    Raises RuntimeError when the pairwise-overlap cap cannot be met within the
    retry budget.
    """
    rng = np.random.default_rng(spec.seed)
    count = int(rng.integers(spec.count_range[0], spec.count_range[1] + 1))
    boxes: list[Box] = []
    budget = 200 * count
    attempts = 0
    while len(boxes) < count:
        attempts += 1
        if attempts > budget:
            raise RuntimeError(
                f"could not place {count} objects with pairwise IoU cap "
                f"{spec.max_pairwise_iou} in {budget} attempts"
            )
        w = rng.uniform(*spec.size_range)
        h = rng.uniform(*spec.size_range)
        x = rng.uniform(0.0, spec.image_width - w)
        y = rng.uniform(0.0, spec.image_height - h)
        candidate = Box(x, y, x + w, y + h)
        if spec.max_pairwise_iou is not None and any(
            iou(candidate, other) > spec.max_pairwise_iou for other in boxes
        ):
            continue
        boxes.append(candidate)
    class_ids = tuple(int(c) for c in rng.integers(0, spec.num_classes, size=count))
    return Scene(spec.image_width, spec.image_height, tuple(boxes), class_ids)


def ground_truth_from_scene(scene: Scene, image_id: object = 0) -> list[GroundTruth]:
    return [
        GroundTruth(box=b, class_id=c, image_id=image_id)
        for b, c in zip(scene.boxes, scene.class_ids)
    ]


def _snapshot_rng(seed: int, t: float) -> np.random.Generator:
    return np.random.default_rng([seed, int(round(t * 1_000_000_000))])


def _rowwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    iw = np.clip(np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0]), 0.0, None)
    ih = np.clip(np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1]), 0.0, None)
    inter = iw * ih
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a + area_b - inter)


def synth_predictions(
    scene: Scene,
    anchor_set: AnchorSet,
    cfg: TrajectoryConfig,
    t: float,
    seed: int = 0,
) -> TrajectorySnapshot:
    """Simulate per-anchor predictions at progress t.

    At t=0 the regressed boxes equal the anchor boxes exactly and all scores
    are ~0. As t grows, boxes interpolate toward each anchor's best-overlap
    object and scores toward the regressed overlap. Except for injected
    misaligned anchors, regressed overlap with the target object never drops
    below the anchor's overlap; the injected fraction is small, so at least
    90% of anchors keep that property.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"progress t must lie in [0, 1], got {t}")
    rng = _snapshot_rng(seed, t)
    anchors = anchor_set.array
    gt = boxes_to_array(scene.boxes)
    n = anchors.shape[0]

    iou_anchor = pairwise_iou(anchors, gt)
    best = np.argmax(iou_anchor, axis=1)
    best_iou = iou_anchor[np.arange(n), best]

    w_base = GAIN_CURVES[cfg.localization_gain](t)
    jitter = cfg.noise * rng.uniform(-1.0, 1.0, size=n) * 4.0 * w_base * (1.0 - w_base)
    weights = np.clip(w_base + jitter, 0.0, 1.0)

    drifted = np.zeros(n, dtype=bool)
    dampened = np.zeros(n, dtype=bool)
    if cfg.misalignment_fraction > 0.0:
        pool = np.flatnonzero(best_iou >= _INJECTION_IOU_FLOOR)
        k = min(math.ceil(cfg.misalignment_fraction * pool.size), pool.size)
        if k:
            chosen = rng.choice(pool, size=k, replace=False)
            half = (k + 1) // 2
            drifted[chosen[:half]] = True
            dampened[chosen[half:]] = True

    targets = gt[best]
    width = (targets[:, 2] - targets[:, 0])[:, None]
    shifted = targets + width * np.asarray([[_DRIFT_SHIFT, 0.0, _DRIFT_SHIFT, 0.0]])
    effective = np.where(drifted[:, None], shifted, targets)
    regressed = (1.0 - weights[:, None]) * anchors + weights[:, None] * effective

    # jitter must not push an anchor below its starting overlap
    against_target = _rowwise_iou(regressed, targets)
    degraded = (against_target < best_iou) & ~drifted
    regressed[degraded] = anchors[degraded]

    iou_regressed = pairwise_iou(regressed, gt)
    score_gain = GAIN_CURVES[cfg.score_gain](t)
    scores = score_gain * iou_regressed
    scores[drifted, best[drifted]] = score_gain * 0.95
    scores[dampened, best[dampened]] = score_gain * 0.05
    return TrajectorySnapshot(
        regressed_boxes=regressed,
        classif_scores=np.clip(scores, 0.0, 1.0),
        iou_regressed=iou_regressed,
        progress=t,
    )


def synth_point_predictions(
    scene: Scene,
    point_set: PointSet,
    cfg: TrajectoryConfig,
    t: float,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point analogue of synth_predictions.

    Each point regresses a proxy box (a square with the smallest scale of its
    level) toward its best-overlap object. Returns (iou_regressed, scores),
    both of shape (points, objects).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"progress t must lie in [0, 1], got {t}")
    rng = _snapshot_rng(seed, t)
    half = (point_set.point_strides * 4.0)[:, None] / 2.0
    xy = point_set.xy
    proxies = np.concatenate([xy - half, xy + half], axis=1)
    gt = boxes_to_array(scene.boxes)
    n = proxies.shape[0]

    iou_proxy = pairwise_iou(proxies, gt)
    best = np.argmax(iou_proxy, axis=1)
    w_base = GAIN_CURVES[cfg.localization_gain](t)
    jitter = cfg.noise * rng.uniform(-1.0, 1.0, size=n) * 4.0 * w_base * (1.0 - w_base)
    weights = np.clip(w_base + jitter, 0.0, 1.0)
    regressed = (1.0 - weights[:, None]) * proxies + weights[:, None] * gt[best]
    iou_regressed = pairwise_iou(regressed, gt)
    scores = np.clip(GAIN_CURVES[cfg.score_gain](t) * iou_regressed, 0.0, 1.0)
    return iou_regressed, scores


def run_trajectory(
    scene: Scene,
    anchor_set: AnchorSet,
    cfg: TrajectoryConfig,
    strategy: str,
    matching: Optional[MatchingConfig] = None,
    seed: int = 0,
) -> TrajectoryResult:
    """Label the scene at every trajectory step and count positives.

    ``strategy`` is a name from ``ANCHOR_STRATEGIES`` ("static", "l2c",
    "c2l", "mutual") or "l2c-fixed", the static thresholds applied directly
    to regressed overlap. The count is over classification labels except for
    "c2l", which only guides localization labels.
    """
    if strategy != "l2c-fixed" and strategy not in ANCHOR_STRATEGIES:
        choices = sorted([*ANCHOR_STRATEGIES, "l2c-fixed"])
        raise ValueError(f"unknown strategy {strategy!r}; choose from {choices}")
    matching = matching or MatchingConfig()
    iou_anchor = pairwise_iou(anchor_set.array, boxes_to_array(scene.boxes))
    ts = np.linspace(0.0, 1.0, cfg.steps) if cfg.steps > 1 else np.asarray([0.0])

    steps: list[TrajectoryStep] = []
    for t in ts:
        snapshot = synth_predictions(scene, anchor_set, cfg, float(t), seed=seed)
        if strategy == "l2c-fixed":
            labels = static_assign(snapshot.iou_regressed, matching).classification_labels
        else:
            _, result = ANCHOR_STRATEGIES[strategy](
                iou_anchor, snapshot.iou_regressed, snapshot.classif_scores, matching
            )
            c2l = strategy == "c2l"
            labels = result.localization_labels if c2l else result.classification_labels
        steps.append(
            TrajectoryStep(t=float(t), positive_count=int(np.sum(labels >= 0)), labels=labels)
        )
    return TrajectoryResult(strategy=strategy, steps=steps)


def detections_from_snapshot(
    scene: Scene,
    anchor_set: AnchorSet,
    snapshot: TrajectorySnapshot,
    classification_labels: Optional[np.ndarray] = None,
    suppressed_score_factor: float = 0.05,
    score_threshold: float = 0.05,
    image_id: object = 0,
) -> list[Detection]:
    """Turn a snapshot into detections, one per sufficiently scored anchor.

    With ``classification_labels`` given, anchors the strategy labeled
    negative or ignored have their scores multiplied by
    ``suppressed_score_factor``, modeling a network trained to score them as
    background.
    """
    scores = snapshot.classif_scores
    if classification_labels is not None:
        scores = scores.copy()
        scores[classification_labels < 0] *= suppressed_score_factor
    best = np.argmax(scores, axis=1)
    values = scores[np.arange(scores.shape[0]), best]
    dets = []
    for i in np.flatnonzero(values >= score_threshold):
        dets.append(
            Detection(
                box=Box(*snapshot.regressed_boxes[i]),
                class_id=scene.class_ids[int(best[i])],
                score=float(values[i]),
                image_id=image_id,
            )
        )
    return dets
