"""Anchor-free label assignment over per-pixel sample points.

A point belongs to a box under the half-open convention
(x_min <= x < x_max, y_min <= y < y_max), and to the detection level whose
object-size range contains max(box width, box height). The original strategy
marks every in-box, level-matched point positive (optionally restricted to a
central region). The dynamic variants keep the original per-object positive
counts but re-rank the same candidate pools: by regressed-box overlap for
classification labels, by amplified centerness for localization labels.
Points inside several matching boxes go to the smallest-area box.

As in the anchor module, each public function checks its inputs once and
computes the original strategy (and the point membership masks) once; the
private cores take those results. ``POINT_STRATEGIES`` maps each point
strategy name of the CLI to one checked call of those cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .anchors import PointSet
from .assignment import (
    NEGATIVE,
    DynamicLabels,
    MatchingConfig,
    MatrixLike,
    _amplify,
    _claim_one,
    _guided,
    matrix_values,
    ranked_selection,
)
from .geometry import Box, boxes_to_array


@dataclass
class PointAssignment:
    """Per-point labels plus the per-object positive counts (no ignored band)."""

    classification_labels: np.ndarray
    localization_labels: np.ndarray
    per_object_counts: list[int]
    warnings: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "mode": "points",
            "classification": [int(v) for v in self.classification_labels],
            "localization": [int(v) for v in self.localization_labels],
            "per_object_counts": [{"positive": int(p)} for p in self.per_object_counts],
            "warnings": list(self.warnings),
        }


def centerness(point: tuple[float, float], gt: Box) -> float:
    """FCOS centerness of a point strictly inside a box.

    With l, r, t, b the distances to the four sides, returns
    sqrt((min(l,r)/max(l,r)) * (min(t,b)/max(t,b))). Raises ValueError for a
    point on or outside the boundary, where the value would degenerate to 0.
    """
    x, y = point
    left = x - gt.x_min
    right = gt.x_max - x
    top = y - gt.y_min
    bottom = gt.y_max - y
    if min(left, right, top, bottom) <= 0.0:
        raise ValueError(f"point {point} is not strictly inside {gt.as_tuple()}")
    return math.sqrt(
        (min(left, right) / max(left, right)) * (min(top, bottom) / max(top, bottom))
    )


def _centerness_matrix(xy: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """(P, M) centerness values; 0 for points not strictly inside a box."""
    left = xy[:, 0:1] - gt[None, :, 0]
    right = gt[None, :, 2] - xy[:, 0:1]
    top = xy[:, 1:2] - gt[None, :, 1]
    bottom = gt[None, :, 3] - xy[:, 1:2]
    inside = (left > 0) & (right > 0) & (top > 0) & (bottom > 0)
    lr = np.minimum(left, right) / np.maximum(left, right)
    tb = np.minimum(top, bottom) / np.maximum(top, bottom)
    values = np.sqrt(np.clip(lr * tb, 0.0, None))
    return np.where(inside, values, 0.0)


def _membership(points: PointSet, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return the (in_box, pool) masks of shape (P, M); the pool holds the
    in-box, level-matched points that every point strategy ranks over."""
    xy = points.xy
    in_box = (
        (xy[:, 0:1] >= gt[None, :, 0])
        & (xy[:, 0:1] < gt[None, :, 2])
        & (xy[:, 1:2] >= gt[None, :, 1])
        & (xy[:, 1:2] < gt[None, :, 3])
    )
    max_side = np.maximum(gt[:, 2] - gt[:, 0], gt[:, 3] - gt[:, 1])
    lowers = np.asarray([r[0] for r in points.scale_ranges])[points.point_levels]
    uppers = np.asarray([r[1] for r in points.scale_ranges])[points.point_levels]
    level_ok = (max_side[None, :] >= lowers[:, None]) & (max_side[None, :] < uppers[:, None])
    return in_box, in_box & level_ok


def _central(points: PointSet, gt: np.ndarray, radius: float) -> np.ndarray:
    """(P, M) mask of points within radius * stride of each box center."""
    xy = points.xy
    cx = 0.5 * (gt[:, 0] + gt[:, 2])
    cy = 0.5 * (gt[:, 1] + gt[:, 3])
    reach = radius * points.point_strides[:, None]
    return (np.abs(xy[:, 0:1] - cx[None, :]) <= reach) & (
        np.abs(xy[:, 1:2] - cy[None, :]) <= reach
    )


def _force_nearest(
    labels: np.ndarray,
    j: int,
    tiers: Sequence[np.ndarray],
    xy: np.ndarray,
    center: tuple[float, float],
    warnings: list[str],
) -> None:
    dist = (xy[:, 0] - center[0]) ** 2 + (xy[:, 1] - center[1]) ** 2
    for tier in tiers:
        available = tier & (labels < 0)
        if available.any():
            pick = int(np.argmin(np.where(available, dist, np.inf)))
            labels[pick] = j
            return
    warnings.append(f"object {j}: no point available for the positive fallback")


def fcos_assign_original(
    points: PointSet,
    objects: Sequence[Box],
    center_sampling_radius: Optional[float] = None,
) -> PointAssignment:
    """Original per-pixel assignment: in-box, level-matched points are positive.

    With ``center_sampling_radius`` set, positives are further restricted to
    points within radius*stride of the box center. Ambiguous points go to the
    smallest-area box. An object that captures no point gets its nearest
    in-box point forced positive (nearest point overall if none is in-box),
    so every object keeps at least one positive.
    """
    return _original(points, objects, center_sampling_radius)[1]


def _original(
    points: PointSet, objects: Sequence[Box], center_sampling_radius: Optional[float]
) -> tuple[np.ndarray, PointAssignment, np.ndarray]:
    """Return (gt array, original assignment, ranking pool)."""
    if len(objects) == 0:
        raise ValueError("objects must be non-empty")
    gt = boxes_to_array(objects)
    in_box, pool = _membership(points, gt)
    candidate = pool
    if center_sampling_radius is not None:
        candidate = pool & _central(points, gt, center_sampling_radius)
    n, m = candidate.shape

    areas = (gt[:, 2] - gt[:, 0]) * (gt[:, 3] - gt[:, 1])
    winner = np.argmin(np.where(candidate, areas[None, :], np.inf), axis=1)
    labels = np.full(n, NEGATIVE, dtype=np.int64)
    has = candidate.any(axis=1)
    labels[has] = winner[has]

    warnings: list[str] = []
    for j in range(m):
        if np.any(labels == j):
            continue
        center = (0.5 * (gt[j, 0] + gt[j, 2]), 0.5 * (gt[j, 1] + gt[j, 3]))
        tiers = (pool[:, j], in_box[:, j], np.ones(n, dtype=bool))
        _force_nearest(labels, j, tiers, points.xy, center, warnings)

    counts = [int(np.sum(labels == j)) for j in range(m)]
    base = PointAssignment(
        classification_labels=labels,
        localization_labels=labels.copy(),
        per_object_counts=counts,
        warnings=warnings,
    )
    return gt, base, pool


def _point_matrix(matrix: MatrixLike, name: str, points: PointSet, gt: np.ndarray) -> np.ndarray:
    values = matrix_values(matrix)
    if values.shape != (len(points), gt.shape[0]):
        raise ValueError(
            f"{name} must have shape {(len(points), gt.shape[0])}, got {values.shape}"
        )
    return values


def _ranked(values: np.ndarray, base: PointAssignment, pool: np.ndarray) -> DynamicLabels:
    """Each object's n_pos best points of its pool by ``values``."""
    m = len(base.per_object_counts)
    result = ranked_selection(values, base.per_object_counts, [0] * m, candidate_mask=pool)
    # objects whose ranking pool was empty fall back to their original points
    for j in range(m):
        if not np.any(result.labels == j):
            _claim_one(result.labels, j, np.flatnonzero(base.classification_labels == j), m)
    return result


def _amplified_centerness(points, gt, scores, sigma) -> np.ndarray:
    raw = _centerness_matrix(points.xy, gt)
    return np.where(raw > 0, _amplify(raw, scores, sigma), 0.0)


def fcos_localize_to_classify(
    points: PointSet,
    objects: Sequence[Box],
    iou_regressed: MatrixLike,
    center_sampling_radius: Optional[float] = None,
) -> DynamicLabels:
    """Classification labels: per object, its n_pos highest-overlap points.

    n_pos comes from the original strategy on the same inputs; ranking runs
    over each object's in-box, level-matched points. There is no ignored band
    for points.
    """
    gt, base, pool = _original(points, objects, center_sampling_radius)
    return _ranked(_point_matrix(iou_regressed, "iou_regressed", points, gt), base, pool)


def fcos_classify_to_localize(
    points: PointSet,
    objects: Sequence[Box],
    classif_scores: MatrixLike,
    sigma: float = 2.0,
    center_sampling_radius: Optional[float] = None,
) -> DynamicLabels:
    """Localization labels: per object, its n_pos highest amplified-centerness
    points, where centerness is raised to (sigma - score) / sigma and is 0 for
    points outside the box."""
    if not sigma > 1.0:
        raise ValueError(f"sigma must be > 1, got {sigma}")
    gt, base, pool = _original(points, objects, center_sampling_radius)
    scores = _point_matrix(classif_scores, "classif_scores", points, gt)
    return _ranked(_amplified_centerness(points, gt, scores, sigma), base, pool)


def _run_points(points, objects, iou_regressed, classif_scores, cfg=None, *, mutual):
    sigma = (cfg or MatchingConfig()).sigma
    gt, base, pool = _original(points, objects, None)
    regressed = _point_matrix(iou_regressed, "iou_regressed", points, gt)
    scores = _point_matrix(classif_scores, "classif_scores", points, gt)
    if not mutual:
        return base, base
    # the point twin of mutual_guidance_assign
    cls = _ranked(regressed, base, pool)
    loc = _ranked(_amplified_centerness(points, gt, scores, sigma), base, pool)
    return base, _guided(base, cls, loc)


# Strategy name -> f(points, objects, iou_regressed, classif_scores, cfg=None),
# returning (original baseline, the strategy's PointAssignment).
POINT_STRATEGIES = {
    "fcos": partial(_run_points, mutual=False),
    "fcos-mutual": partial(_run_points, mutual=True),
}
