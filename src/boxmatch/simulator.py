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
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import assignment, fcos
from .anchors import AnchorSet, PointSet
from .assignment import STRATEGIES, MatchingConfig, static_assign
from .evaluation import Detections, GroundTruth, _unchecked
from .geometry import Box, boxes_to_array, broadcast_iou, iou, pairwise_iou, _argument, _bounded
from .geometry import _fields, _hashable, _instance, _integral, _pairwise, _row_best, _span

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
# detections_from_snapshot: the score factor of a sample its strategy labels
# negative or ignored, and the lowest score that still makes a detection
_SUPPRESSED_SCORE_FACTOR = 0.05
_SCORE_THRESHOLD = 0.05


@dataclass(frozen=True)
class SceneSpec:
    """Parameters for random scene synthesis, fully determined by the seed;
    checks its number fields."""

    image_width: int = 320
    image_height: int = 320
    count_range: tuple[int, int] = (1, 5)
    size_range: tuple[float, float] = (32.0, 128.0)
    max_pairwise_iou: Optional[float] = 0.2
    num_classes: int = 3
    seed: int = 0

    def __post_init__(self):
        _fields(self, image_width=int, image_height=int, num_classes=_bounded(int, 1))
        _fields(self, count_range=_span(int), size_range=_span(float), seed=_bounded(int, 0))
        if self.size_range[1] > min(self.image_width, self.image_height):
            raise ValueError(
                f"bad field 'size_range': object size {self.size_range[1]} does not fit a "
                f"{self.image_width}x{self.image_height} image"
            )
        if self.max_pairwise_iou is not None:
            _fields(self, max_pairwise_iou=_bounded(float, 0, 1))


@dataclass
class Scene:
    """Ground truth for one synthetic or ingested image."""

    image_width: int
    image_height: int
    boxes: tuple[Box, ...]
    class_ids: tuple[int, ...]

    def __post_init__(self):
        _fields(self, image_width=_bounded(int, 1), image_height=_bounded(int, 1))
        # an id is a label, not a size: unlike a config count, 1.0 is no class id
        _fields(self, boxes=(_instance(Box),), class_ids=(_integral,))
        if len(self.class_ids) != len(self.boxes):
            raise ValueError(f"class_ids has length {len(self.class_ids)}, boxes {len(self.boxes)}")


@dataclass(frozen=True)
class TrajectoryConfig:
    """How localization quality, scores and noise evolve with progress t;
    checks its number fields."""

    steps: int = 10
    localization_gain: str = "linear"
    score_gain: str = "linear"
    noise: float = 0.05
    misalignment_fraction: float = 0.0

    def __post_init__(self):
        _fields(self, steps=_bounded(int, 1), noise=_bounded(float, 0))
        _fields(self, misalignment_fraction=_bounded(float, 0, 1))
        for name in ("localization_gain", "score_gain"):
            if getattr(self, name) not in GAIN_CURVES:
                raise ValueError(f"bad field {name!r}: must be one of {sorted(GAIN_CURVES)}, "
                                 f"got {getattr(self, name)!r}")


@dataclass
class TrajectorySnapshot:
    """Simulated predictions at one training-progress instant."""

    regressed_boxes: np.ndarray
    classif_scores: np.ndarray
    iou_regressed: np.ndarray


@dataclass
class TrajectoryStep:
    t: float
    positive_count: int


@dataclass
class TrajectoryResult:
    strategy: str
    steps: list[TrajectoryStep]

    @property
    def counts(self) -> list[int]:
        return [s.positive_count for s in self.steps]

    def to_json_dict(self) -> dict:
        return {"format_version": 1, **asdict(self)}


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
    image_id = _argument("image_id", _hashable, image_id)  # the scene checked the rest
    return [_unchecked(GroundTruth, *row, image_id) for row in zip(scene.boxes, scene.class_ids)]


def synth_predictions(
    scene: Scene,
    anchor_set: AnchorSet,
    cfg: TrajectoryConfig,
    t: float,
    seed: int = 0,
    _iou_anchor: Optional[np.ndarray] = None,
) -> TrajectorySnapshot:
    """Simulate per-anchor predictions at progress t.

    At t=0 the regressed boxes equal the anchor boxes exactly and all scores
    are ~0. As t grows, boxes interpolate toward each anchor's best-overlap
    object and scores toward the regressed overlap. The target overlap, read
    from the regressed IoU matrix, cannot fall along that line; where rounding
    lowers it, the anchor keeps its anchor box. Only injected misaligned
    anchors, a small share, fall below. ``_iou_anchor`` reuses a caller's
    ``pairwise_iou(anchors, objects)``, which does not depend on t. Without
    objects, the snapshot copies the anchors, with (anchors, 0) matrices.
    """
    t, seed = _argument("t", _bounded(float, 0, 1), t), _argument("seed", _bounded(int, 0), seed)
    rng = np.random.default_rng([seed, int(round(t * 1_000_000_000))])
    anchors = anchor_set.array
    gt = boxes_to_array(scene.boxes)
    n = anchors.shape[0]
    if not scene.boxes:  # no target to gather: take cannot index an empty axis
        return TrajectorySnapshot(anchors.copy(), np.zeros((n, 0)), np.zeros((n, 0)))

    best, best_iou = _row_best(_pairwise(anchors, gt) if _iou_anchor is None else _iou_anchor)

    w_base = GAIN_CURVES[cfg.localization_gain](t)
    jitter = cfg.noise * rng.uniform(-1.0, 1.0, size=n) * 4.0 * w_base * (1.0 - w_base)
    weights = np.clip(w_base + jitter, 0.0, 1.0)

    drifted = dampened = np.zeros(0, dtype=np.intp)  # injected anchors, by index
    if cfg.misalignment_fraction > 0.0:
        pool = np.flatnonzero(best_iou >= _INJECTION_IOU_FLOOR)
        k = math.ceil(cfg.misalignment_fraction * pool.size)  # the fraction is at most 1
        if k:
            chosen = rng.choice(pool, size=k, replace=False)
            drifted, dampened = np.split(chosen, [(k + 1) // 2])

    effective = gt.T.take(best, axis=1)  # (4, n): each anchor's target, shifted where drifted
    effective[::2, drifted] += _DRIFT_SHIFT * (effective[2, drifted] - effective[0, drifted])
    # built (4, n), long loops over anchors, and handed out coordinate-major, as the anchors
    regressed = ((1.0 - weights) * np.ascontiguousarray(anchors.T) + weights * effective).T

    iou_regressed = pairwise_iou(regressed, gt)
    # the target overlaps, by flat object-major index: only rounding puts one below its start
    degraded = iou_regressed.T.take(best * n + np.arange(n)) < best_iou
    degraded[drifted] = False
    if degraded.any():  # only the reset rows are computed again
        regressed[degraded] = anchors[degraded]
        iou_regressed[degraded] = broadcast_iou(regressed[degraded, None], gt)
    score_gain = GAIN_CURVES[cfg.score_gain](t)
    scores = score_gain * iou_regressed
    scores[drifted, best[drifted]] = score_gain * 0.95
    scores[dampened, best[dampened]] = score_gain * 0.05
    # gains map [0, 1] into [0, 1] and IoU <= 1: the scores need no clip
    return TrajectorySnapshot(regressed, scores, iou_regressed)


def synth_point_predictions(
    scene: Scene,
    point_set: PointSet,
    cfg: TrajectoryConfig,
    t: float,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point analogue of synth_predictions.

    Each point regresses a proxy box (a square four strides wide) toward its
    best-overlap object through the synth_predictions core, with the same
    draws in the same order; points take no misalignment injection. Returns
    (iou_regressed, scores), both of shape (points, objects).
    """
    half, proxies = point_set.point_strides * 4.0 / 2.0, np.empty((4, len(point_set)))
    np.subtract(point_set.xy.T, half, out=proxies[:2])  # (4, P): long loops over points
    np.add(point_set.xy.T, half, out=proxies[2:])
    cfg = replace(cfg, misalignment_fraction=0.0)
    snapshot = synth_predictions(scene, AnchorSet(point_set.level_offsets, proxies.T), cfg, t, seed)
    return snapshot.iou_regressed, snapshot.classif_scores


def run_trajectory(
    scene: Scene,
    grid: Union[AnchorSet, PointSet],
    cfg: TrajectoryConfig,
    strategy: str,
    matching: Optional[MatchingConfig] = None,
    seed: int = 0,
) -> TrajectoryResult:
    """Label the scene at every trajectory step and count positives.

    A grid takes its names in ``assignment.STRATEGIES``, each run by ``_guide``
    ("static", "l2c", "c2l", "mutual" on anchors; "fcos", "fcos-mutual" on
    points), and anchors "l2c-fixed" too (the static thresholds applied to
    regressed overlap). Any other pairing raises ValueError. "c2l" counts
    localization positives, the others classification positives.
    """
    return _trajectories(scene, grid, cfg, (strategy,), matching, seed)[0]


def _labelled(scene: Scene, grid: Union[AnchorSet, PointSet], cfg: TrajectoryConfig,
              strategies: Sequence[str], matching: Optional[MatchingConfig], seed: int,
              ts: Iterable[float]):
    """The grid's baseline result (named first in its ``STRATEGIES`` row), built once,
    and lazily, at each progress t of ``ts``, every strategy's ``Assignment``, in order.
    A step's predictions are simulated once, and only when a strategy reads them and the
    scene has an object: with none, no step is simulated and each labels as the baseline."""
    kind = "points" if isinstance(grid, PointSet) else "anchors"
    tasks = STRATEGIES[kind]
    choices = [*tasks, "l2c-fixed"] if kind == "anchors" else [*tasks]
    for strategy in strategies:
        if strategy not in choices:
            raise ValueError(f"strategy {strategy!r} does not label {kind}; choose from {choices}")
    matching, seed = matching or MatchingConfig(), _argument("seed", _bounded(int, 0), seed)
    if kind == "points":
        base = fcos._original(grid, scene.boxes, None)
        predict = partial(synth_point_predictions, scene, grid, cfg, seed=seed)
    else:
        iou_anchor = pairwise_iou(grid.array, boxes_to_array(scene.boxes))
        base = assignment._static(iou_anchor, matching)

        def predict(t):
            snapshot = synth_predictions(scene, grid, cfg, t, seed, iou_anchor)
            return snapshot.iou_regressed, snapshot.classif_scores

    reads = scene.boxes and any(s == "l2c-fixed" or any(tasks[s]) for s in strategies)

    def steps():  # a step's matrices stay referenced until the next step's are built
        for t in ts:
            iou_regressed, scores = predict(t)
            yield [static_assign(iou_regressed, matching) if s == "l2c-fixed" else
                   assignment._guide(base, iou_regressed, scores, matching.sigma, *tasks[s])[0]
                   for s in strategies]

    return base.result, steps() if reads else ([base.result] * len(strategies) for _ in ts)


def _trajectories(
    scene: Scene,
    grid: Union[AnchorSet, PointSet],
    cfg: TrajectoryConfig,
    strategies: Sequence[str],
    matching: Optional[MatchingConfig],
    seed: int,
) -> list[TrajectoryResult]:
    """One run_trajectory result per strategy, in order, counted from ``_labelled``."""
    ts = [float(t) for t in np.linspace(0.0, 1.0, cfg.steps)]
    results = [TrajectoryResult(strategy=strategy, steps=[]) for strategy in strategies]
    for t, step in zip(ts, _labelled(scene, grid, cfg, strategies, matching, seed, ts)[1]):
        for result, labeled in zip(results, step):
            c2l = result.strategy == "c2l"
            labels = labeled.localization_labels if c2l else labeled.classification_labels
            result.steps.append(TrajectoryStep(t=t, positive_count=int(np.sum(labels >= 0))))
    return results


def detections_from_snapshot(
    scene: Scene,
    anchor_set: AnchorSet,
    snapshot: TrajectorySnapshot,
    classification_labels: Optional[np.ndarray] = None,
    image_id: object = 0,
) -> Detections:
    """Turn a snapshot into detections, one per anchor scored at least 0.05.

    With ``classification_labels`` (integers, one per score row) given, anchors the strategy
    labeled negative or ignored have their scores multiplied by 0.05, modeling a network trained
    to score them as background; only the rows whose best score, so scaled, reaches 0.05 are
    scaled and reduced. A scene without objects takes the same path: no row has a best score,
    so the batch is empty. ``anchor_set`` is not read: the snapshot holds the boxes."""
    scores, image_id = snapshot.classif_scores, _argument("image_id", _hashable, image_id)
    if scores.shape != (shape := (len(snapshot.regressed_boxes), len(scene.boxes))):
        raise ValueError(f"bad argument 'snapshot': score shape {scores.shape} differs from "
                         f"its (boxes, scene objects) {shape}")
    labels = classification_labels
    labels = None if labels is None else _argument("classification_labels", np.asarray, labels)
    if labels is not None and labels.shape != scores.shape[:1]:
        raise ValueError(f"bad argument 'classification_labels': label shape {labels.shape} "
                         f"differs from the score rows' {scores.shape[:1]}")
    if labels is not None and labels.dtype.kind not in "iu":  # NaN would suppress nothing
        raise ValueError(f"bad argument 'classification_labels': got {labels.dtype}, not integers")
    rows = slice(None)  # without labels every row can pass
    if labels is not None:  # a row's best scaled score is its best score (fmax skips NaN), scaled
        factor = np.where(labels < 0, _SUPPRESSED_SCORE_FACTOR, 1.0)
        best_raw = np.fmax.reduce(scores, axis=1, initial=-np.inf)  # initial: no column, no best
        rows = np.flatnonzero(best_raw * factor >= _SCORE_THRESHOLD)
        scores = scores[rows] * factor[rows, None]
    best, values = _row_best(scores)
    keep = np.flatnonzero(values >= _SCORE_THRESHOLD)
    classes = np.asarray(scene.class_ids, dtype=np.int64)[best[keep]]
    return Detections(
        snapshot.regressed_boxes[rows][keep], values[keep], classes, (image_id,),
        np.zeros(keep.size, dtype=np.intp),
    )
