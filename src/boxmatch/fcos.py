"""Anchor-free label assignment over per-pixel sample points.

A point belongs to a box under the half-open convention
(x_min <= x < x_max, y_min <= y < y_max), and to the detection level whose
object-size range contains max(box width, box height). The original strategy
marks every in-box, level-matched point positive (optionally restricted to a
central region); points inside several matching boxes go to the smallest-area
box. It is the point baseline of the guidance engine in ``assignment``: its
positive counts are the budgets, the in-box, level-matched points the pool,
and centerness on the pool the quality that classify-to-localize amplifies.

Every point fallback goes through ``assignment._rescue``; an object no
fallback can serve gets the warning "object j: no point available for the
positive fallback". An image without objects is all NEGATIVE.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional

import numpy as np

from .anchors import PointSet
from .assignment import (
    GUIDED_TASKS,
    NEGATIVE,
    Assignment,
    DynamicLabels,
    MatchingConfig,
    MatrixLike,
    _Baseline,
    _check_sigma,
    _checked,
    _guide,
    _positives,
    _rescue,
)
from .geometry import Box, BoxesLike, _argument, _as_box_array, _bounded


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


def _centerness_matrix(xy: np.ndarray, gt: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """(P, M) centerness on the ``pool`` entries and 0 elsewhere; half-open
    membership puts a pool point on a box's left or top edge at exactly 0."""
    p, j = np.nonzero(pool)
    left, right = xy[p, 0] - gt[j, 0], gt[j, 2] - xy[p, 0]
    top, bottom = xy[p, 1] - gt[j, 1], gt[j, 3] - xy[p, 1]
    lr = np.minimum(left, right) / np.maximum(left, right)
    tb = np.minimum(top, bottom) / np.maximum(top, bottom)
    values = np.zeros(pool.shape)
    values[p, j] = np.sqrt(lr * tb)
    return values


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


def fcos_assign_original(
    points: PointSet,
    objects: BoxesLike,
    center_sampling_radius: Optional[float] = None,
) -> Assignment:
    """Original per-pixel assignment: in-box, level-matched points are positive.

    With ``center_sampling_radius`` set, positives are further restricted to
    points within radius*stride of the box center. Ambiguous points go to the
    smallest-area box. An object that captures no point takes the first free
    point (else the first whose owner keeps another positive) of its pool,
    then its in-box points, then all points, each nearest its center first,
    ties to the lower index; if none, a "no point available" warning names
    it. An image without objects gets all-NEGATIVE labels and no counts.
    """
    return _original(points, objects, center_sampling_radius).result


def _original(
    points: PointSet, objects: BoxesLike, center_sampling_radius: Optional[float]
) -> _Baseline:
    """The point baseline and the point functions' one input check; its pool ignores
    the center sampling, which only restricts the original positives."""
    gt = _argument("objects", _as_box_array, objects)
    in_box, pool = _membership(points, gt)
    candidate = pool
    if center_sampling_radius is not None:
        radius = _argument("center_sampling_radius", _bounded(float, 0), center_sampling_radius)
        candidate = pool & _central(points, gt, radius)
    m = gt.shape[0]

    areas = (gt[:, 2] - gt[:, 0]) * (gt[:, 3] - gt[:, 1])
    # argmin rejects the empty rows of an image without objects
    winner = np.argmin(np.where(candidate, areas[None, :], np.inf), axis=1) if m else NEGATIVE
    labels = np.where(candidate.any(axis=1), winner, NEGATIVE)

    warnings: list[str] = []
    for j in np.flatnonzero(_positives(labels, m) == 0):
        dist = ((points.xy - 0.5 * (gt[j, :2] + gt[j, 2:])) ** 2).sum(axis=1)
        tier = 2 - in_box[:, j] - pool[:, j]  # 0 pool, 1 in-box only, 2 outside
        _rescue(labels, j, np.lexsort((dist, tier)), m, warnings, "point")

    counts = _positives(labels, m).tolist()
    result = Assignment(labels, labels.copy(), counts, warnings, mode="points")
    quality = partial(_centerness_matrix, points.xy, gt, pool)
    return _Baseline(result, counts, [0] * m, pool, quality, "point")


def fcos_localize_to_classify(
    points: PointSet,
    objects: BoxesLike,
    iou_regressed: MatrixLike,
    center_sampling_radius: Optional[float] = None,
) -> DynamicLabels:
    """Classification labels: per object, its n_pos highest-overlap points.

    n_pos comes from the original strategy on the same inputs; ranking runs
    over each object's in-box, level-matched points. There is no ignored band
    for points.
    """
    base = _original(points, objects, center_sampling_radius)
    (regressed,) = _checked((len(points), len(objects)), iou_regressed=iou_regressed)
    return _guide(base, regressed, None, None, True, False)[1]


def fcos_classify_to_localize(
    points: PointSet,
    objects: BoxesLike,
    classif_scores: MatrixLike,
    sigma: float = 2.0,
    center_sampling_radius: Optional[float] = None,
) -> DynamicLabels:
    """Localization labels: per object, its n_pos highest amplified-centerness
    points, where centerness is raised to (sigma - score) / sigma; it is
    computed only over the in-box, level-matched points the ranking reads."""
    _check_sigma(sigma)
    sigma = _argument("sigma", float, sigma)  # a scalar: an array of them would broadcast
    base = _original(points, objects, center_sampling_radius)
    (scores,) = _checked((len(points), len(objects)), classif_scores=classif_scores)
    return _guide(base, None, scores, sigma, False, True)[1]


def _point_row(l2c, c2l, points, objects, iou_regressed, classif_scores, cfg=None):
    base = _original(points, objects, None)
    shape = (len(points), len(objects))
    regressed, scores = _checked(shape, iou_regressed=iou_regressed, classif_scores=classif_scores)
    sigma = (cfg or MatchingConfig()).sigma
    return base.result, _guide(base, regressed, scores, sigma, l2c, c2l)[0]


# Point strategy name -> f(points, objects, iou_regressed, classif_scores, cfg=None),
# returning (original result, the strategy's Assignment).
POINT_STRATEGIES = {
    name: partial(_point_row, *GUIDED_TASKS[name]) for name in ("fcos", "fcos-mutual")
}
