"""Anchor-free label assignment over per-pixel sample points.

A point belongs to a box under the half-open convention
(x_min <= x < x_max, y_min <= y < y_max), and to the detection level whose
object-size range contains max(box width, box height). As a level's points are
the row-major grid of its cell centers, an object's pool, its in-box,
level-matched points, is one rectangle of cells per object and level. The
original strategy marks the pools positive (optionally only their central
region); a point in several pools goes to the smallest-area box. It is the point
baseline of the guidance engine in ``assignment``: its positive counts are the
budgets, and centerness on the pools the quality that classify-to-localize amplifies.

Every point fallback goes through ``assignment._serve``; an object no
fallback can serve gets the warning "object j: no point available for the
positive fallback". An image without objects is all NEGATIVE.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Optional

import numpy as np

from .anchors import PointSet
from .assignment import (
    NEGATIVE,
    Assignment,
    DynamicLabels,
    MatrixLike,
    _Baseline,
    _check_sigma,
    _checked,
    _guide,
    _positives,
    _serve,
)
from .geometry import Box, BoxesLike, _argument, _as_box_array, _bounded, _instance


def centerness(point: tuple[float, float], gt: Box) -> float:
    """FCOS centerness of a point strictly inside a box.

    With l, r, t, b the distances to the four sides, returns
    sqrt((min(l,r)/max(l,r)) * (min(t,b)/max(t,b))). Raises ValueError for a
    point on or outside the boundary, where the value would degenerate to 0.
    """
    gt, xy = _argument("gt", _instance(Box), gt), _argument("point", (float,), point)
    if len(xy) != 2:
        raise ValueError(f"bad argument 'point': must be a pair (x, y), got {point!r}")
    if not (gt.x_min < xy[0] < gt.x_max and gt.y_min < xy[1] < gt.y_max):
        raise ValueError(f"point {point} is not strictly inside {gt.as_tuple()}")
    return float(_centerness(np.array([xy], dtype=np.float64), np.array([gt.as_tuple()]))[0])


def _centerness(xy: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Centerness of each (k, 2) float point ``xy`` in its row of the (k, 4) boxes ``gt``."""
    near, far = xy - gt[:, :2], gt[:, 2:] - xy  # (left, top), (right, bottom)
    ratio = np.minimum(near, far) / np.maximum(near, far)
    return np.sqrt(ratio[:, 0] * ratio[:, 1])


def _centerness_matrix(xy: np.ndarray, gt: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """(P, M) centerness on the entries j * P + p of a pool table's ``runs`` and 0 elsewhere,
    object-major; half-open membership puts a point on a box's left or top edge at exactly 0."""
    j, p = np.divmod(runs, len(xy))
    values = np.zeros((len(gt), len(xy)))
    np.put(values, runs, _centerness(xy[p], gt[j]))
    return values.T


def _pool(points: PointSet, gt: np.ndarray, radius: Optional[float] = None):
    """The labels that paint each pool in turn (with ``radius``, only its cells within
    radius * stride of the box center on both axes), the largest box first, then the higher
    index: the smallest wins; and the pools, which the rankings read, as one table in the
    format of ``assignment._runs`` whose run j holds every cell of object j's pool."""
    sides = gt[:, 2:] - gt[:, :2]
    order = np.lexsort((-np.arange(len(gt)), -sides.prod(axis=1)))
    longer = sides.max(axis=1)[order]
    labels, parts = np.full(len(points), NEGATIVE), [[] for _ in gt]  # flat cells j * P + p
    for (begin, end), (lower, upper) in zip(points.level_offsets, points.scale_ranges):
        xy = points.xy[begin:end]  # row-major: the first row ends where y first changes
        cx = xy[: np.searchsorted(xy[:, 1], xy[0, 1], "right"), 0]
        cy = xy[:: cx.size, 1]
        cells = np.arange(begin, end).reshape(cy.size, cx.size)
        painted = labels[begin:end].reshape(cy.size, cx.size)
        js = order[(longer >= lower) & (longer < upper)]
        xs = np.searchsorted(cx, gt[js][:, [0, 2]]).tolist()  # x_min <= x < x_max: x0:x1
        ys = np.searchsorted(cy, gt[js][:, [1, 3]]).tolist()
        for j, (x0, x1), (y0, y1) in zip(js.tolist(), xs, ys):
            rows, cols, near = slice(y0, y1), slice(x0, x1), ...
            if radius is not None:  # |x - c| <= r * stride, as one mask per axis
                reach = radius * points.point_strides[begin]
                near = np.ix_(np.abs(cy[rows] - 0.5 * (gt[j, 1] + gt[j, 3])) <= reach,
                              np.abs(cx[cols] - 0.5 * (gt[j, 0] + gt[j, 2])) <= reach)
            parts[j].append(cells[rows, cols].ravel() + j * len(points))
            painted[rows, cols][near] = j
    runs = np.concatenate([np.zeros(0, dtype=np.intp), *sum(parts, [])])  # typed if no part
    return labels, (runs, np.searchsorted(runs, np.arange(len(gt) + 1) * len(points)))


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


def _original(points: PointSet, objects: BoxesLike, radius: Optional[float]) -> _Baseline:
    """The point baseline and the point functions' one input check; its pool ignores
    the center sampling, which only restricts the original positives."""
    points = _argument("points", _instance(PointSet), points)
    gt = _argument("objects", _as_box_array, objects)
    if radius is not None:
        radius = _argument("center_sampling_radius", _bounded(float, 0), radius)
    (labels, (runs, bounds)), m = _pool(points, gt, radius), gt.shape[0]

    def nearest(j):  # its pool, its in-box points, then all points, each nearest its center first
        dist = ((points.xy - 0.5 * (gt[j, :2] + gt[j, 2:])) ** 2).sum(axis=1)
        in_box = np.all((points.xy >= gt[j, :2]) & (points.xy < gt[j, 2:]), axis=1)
        tier = 2 - in_box  # 0 pool, 1 in-box only, 2 outside
        tier[runs[bounds[j] : bounds[j + 1]] - j * len(points)] = 0
        return np.lexsort((dist, tier))

    warnings = _serve(labels, m, nearest, "point")
    counts = _positives(labels, m).tolist()
    result = Assignment(labels, labels.copy(), counts, warnings, mode="points")
    quality = cache(partial(_centerness_matrix, points.xy, gt, runs))  # built once, if read
    return _Baseline(result, counts, [0] * m, (runs, bounds), quality, "point")


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
