"""Inference-side tooling: greedy NMS, COCO-style average precision, and a
misalignment metric for well-scored but poorly localized detections."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import Box, boxes_to_array, broadcast_iou

COCO_IOU_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
_RECALL_POINTS = np.linspace(0.0, 1.0, 101)

# COCO area bands: small < 32**2 <= medium < 96**2 <= large
AREA_BANDS = {
    "small": (0.0, 32.0**2),
    "medium": (32.0**2, 96.0**2),
    "large": (96.0**2, float("inf")),
}


@dataclass(frozen=True)
class Detection:
    box: Box
    class_id: int
    score: float
    image_id: object = 0

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


@dataclass(frozen=True)
class GroundTruth:
    box: Box
    class_id: int
    image_id: object = 0


@dataclass
class EvalResult:
    """AP averaged over the IoU thresholds, plus the per-threshold curve."""

    ap: float
    ap50: Optional[float]
    ap75: Optional[float]
    iou_thresholds: tuple[float, ...]
    per_threshold_ap: tuple[float, ...]
    ap_small: Optional[float] = None
    ap_medium: Optional[float] = None
    ap_large: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "ap": self.ap,
            "ap50": self.ap50,
            "ap75": self.ap75,
            "iou_thresholds": list(self.iou_thresholds),
            "per_threshold_ap": list(self.per_threshold_ap),
            "ap_small": self.ap_small,
            "ap_medium": self.ap_medium,
            "ap_large": self.ap_large,
        }


@dataclass
class MisalignmentResult:
    """Fraction of confident detections that localize poorly, plus per-
    detection flags aligned with the input order."""

    rate: float
    flags: list[bool]


def _groups(keys) -> dict[object, list[int]]:
    """Input indices per key, in input order."""
    groups: dict[object, list[int]] = defaultdict(list)
    for i, key in enumerate(keys):
        groups[key].append(i)
    return groups


def _score_order(indices, scores: np.ndarray) -> np.ndarray:
    """``indices`` by descending score, ties to the lower index."""
    idx = np.asarray(indices, dtype=np.intp)
    return idx[np.lexsort((idx, -scores[idx]))]


def _packed(items) -> tuple[np.ndarray, list[tuple]]:
    """(N, 4) boxes and the (class, image) group key of each detection or
    ground-truth object."""
    return boxes_to_array(x.box for x in items), [(x.class_id, x.image_id) for x in items]


def nms(dets: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy per-class non-maximum suppression.

    Within each (image, class) group, repeatedly keep the highest-scored
    detection and drop the others whose IoU with it exceeds the threshold.
    Ties break on input index. The kept list is ordered by descending score,
    then input index.
    """
    if not dets:
        return []
    boxes, keys = _packed(dets)
    scores = np.asarray([d.score for d in dets], dtype=np.float64)
    kept: list[int] = []
    for members in _groups(keys).values():
        order = _score_order(members, scores)
        group = boxes[order]
        alive = np.arange(order.size)  # positions in ``order`` not yet suppressed
        while alive.size:
            cur, rest = alive[0], alive[1:]
            kept.append(order[cur])
            alive = rest[broadcast_iou(group[cur], group[rest]) <= iou_threshold]
    return [dets[i] for i in _score_order(kept, scores)]


def _match(overlaps: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """True-positive flags, (thresholds, detections), of one (class, image)
    group whose (detections, objects) IoU rows are in score order.

    At each threshold a detection takes its best still-unmatched object
    (highest IoU, ties to the lower object index, IoU > 0) when that IoU
    reaches the threshold. Candidates below every threshold are dropped once.
    """
    flags = np.zeros((len(thresholds), overlaps.shape[0]), dtype=bool)
    floor = min(thresholds, default=1.0)
    rows, cols = np.nonzero((overlaps >= floor) & (overlaps > 0))
    values = overlaps[rows, cols]
    pick = np.lexsort((cols, -values, rows))
    candidates: dict[int, list[tuple[float, int]]] = defaultdict(list)
    for row, value, col in zip(*(a[pick].tolist() for a in (rows, values, cols))):
        candidates[row].append((value, col))
    for t, threshold in enumerate(thresholds):
        matched: set[int] = set()
        for row, ranked in candidates.items():
            for value, col in ranked:
                if value < threshold:
                    break
                if col not in matched:
                    matched.add(col)
                    flags[t, row] = True
                    break
    return flags


def _ap_from_flags(flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated average precision from ordered match flags."""
    if n_gt == 0:
        return 0.0
    if flags.size == 0:
        return 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, _RECALL_POINTS, side="left")
    valid = idx < envelope.size
    return float(np.where(valid, envelope[np.minimum(idx, envelope.size - 1)], 0.0).mean())


def _mean_ap_per_threshold(
    det_boxes: np.ndarray,
    det_keys: list[tuple],
    scores: np.ndarray,
    gt_boxes: np.ndarray,
    gt_keys: list[tuple],
    iou_thresholds: Sequence[float],
) -> list[float]:
    """Per threshold, the mean over ground-truth classes of the class AP, from
    packed detections and ground truth (see ``_packed``).

    IoU is computed once per (class, image) group and matched at every
    threshold, the layout of COCO's ``COCOeval``.
    """
    det_groups = _groups(det_keys)
    flags = np.zeros((len(iou_thresholds), len(det_keys)), dtype=bool)
    for key, gts in _groups(gt_keys).items():
        rows = _score_order(det_groups.get(key, []), scores)
        if rows.size:
            overlaps = broadcast_iou(det_boxes[rows, None], gt_boxes[gts])
            flags[:, rows] = _match(overlaps, iou_thresholds)

    class_dets = _groups(c for c, _ in det_keys)
    class_gts = _groups(c for c, _ in gt_keys)
    classes = sorted(class_gts)
    orders = [_score_order(class_dets.get(c, []), scores) for c in classes]
    return [
        float(np.mean([_ap_from_flags(row[o], len(class_gts[c])) for c, o in zip(classes, orders)]))
        for row in flags
    ]


def _areas(boxes: np.ndarray) -> np.ndarray:
    return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])


def average_precision(
    dets: Sequence[Detection],
    ground_truth: Sequence[GroundTruth],
    iou_thresholds: Sequence[float] = COCO_IOU_THRESHOLDS,
    area_bands: bool = False,
) -> EvalResult:
    """COCO-style average precision.

    Detections are processed in descending score order (ties to input index);
    each ground-truth object is matched at most once, to the detection
    overlapping it most. Per-class AP uses 101-point interpolated precision,
    classes are averaged, then thresholds. With ``area_bands``, AP is also
    reported with ground truth and detections restricted to the small /
    medium / large COCO area ranges.
    """
    if not ground_truth:
        raise ValueError("ground truth must be non-empty")
    det_boxes, det_keys = _packed(dets)
    gt_boxes, gt_keys = _packed(ground_truth)
    scores = np.asarray([d.score for d in dets], dtype=np.float64)

    def curve(det_rows: np.ndarray, gt_rows: np.ndarray) -> list[float]:
        # ascending rows keep score ties going to the lower input index
        return _mean_ap_per_threshold(
            det_boxes[det_rows], [det_keys[i] for i in det_rows], scores[det_rows],
            gt_boxes[gt_rows], [gt_keys[i] for i in gt_rows], iou_thresholds,
        )

    per_threshold = curve(np.arange(len(dets)), np.arange(len(ground_truth)))
    thresholds = tuple(float(t) for t in iou_thresholds)
    by_value = dict(zip(thresholds, per_threshold))

    banded = {}
    if area_bands:
        det_area, gt_area = _areas(det_boxes), _areas(gt_boxes)
        for name, (low, high) in AREA_BANDS.items():
            gt_rows = np.flatnonzero((low <= gt_area) & (gt_area < high))
            det_rows = np.flatnonzero((low <= det_area) & (det_area < high))
            banded[name] = float(np.mean(curve(det_rows, gt_rows))) if gt_rows.size else None

    return EvalResult(
        ap=float(np.mean(per_threshold)),
        ap50=by_value.get(0.5),
        ap75=by_value.get(0.75),
        iou_thresholds=thresholds,
        per_threshold_ap=tuple(per_threshold),
        ap_small=banded.get("small"),
        ap_medium=banded.get("medium"),
        ap_large=banded.get("large"),
    )


def misalignment_rate(
    dets: Sequence[Detection],
    ground_truth: Sequence[GroundTruth],
    loc_threshold: float = 0.75,
    score_threshold: float = 0.5,
) -> MisalignmentResult:
    """Fraction of confident detections that fail to localize their class.

    A detection with score >= ``score_threshold`` counts as misaligned when
    its best IoU against same-class, same-image ground truth falls below
    ``loc_threshold``. The rate is over confident detections only; it is 0.0
    when there are none.
    """
    boxes, keys = _packed(dets)
    gt_boxes, gt_keys = _packed(ground_truth)
    gt_groups = _groups(gt_keys)
    scores = np.asarray([d.score for d in dets], dtype=np.float64)
    confident = np.flatnonzero(scores >= score_threshold)
    flags = np.zeros(len(dets), dtype=bool)
    for key, members in _groups(keys[i] for i in confident).items():
        rows = confident[members]
        gts = gt_groups.get(key)
        best = broadcast_iou(boxes[rows, None], gt_boxes[gts]).max(axis=1) if gts else 0.0
        flags[rows] = best < loc_threshold
    rate = int(flags.sum()) / confident.size if confident.size else 0.0
    return MisalignmentResult(rate=rate, flags=flags.tolist())
