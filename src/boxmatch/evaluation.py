"""Inference-side tooling: greedy NMS, COCO-style average precision, and a
misalignment metric for well-scored but poorly localized detections.

Detections travel as one columnar ``Detections`` batch; a plain list of
``Detection`` objects is converted once, on entry to each function."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .geometry import (Box, _argument, _as_box_array, _bounded, _fields, _hashable,
                       _instance, _integral, _unit_interval, boxes_to_array, broadcast_iou)

COCO_IOU_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
_RECALL_POINTS = np.linspace(0.0, 1.0, 101)
# greedy NMS decides this many alive rows of a group per step
_NMS_BLOCK = 32

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
        _fields(self, box=_instance(Box), class_id=_integral, score=_bounded(float, 0, 1),
                image_id=_hashable)


def _image_index(image_ids: Iterable, images: tuple = ()) -> tuple[tuple, np.ndarray]:
    """The distinct image ids, ``images`` first and then in first-seen order,
    and the position of each of ``image_ids`` among them."""
    index = {image: k for k, image in enumerate(images)}
    codes = np.fromiter((index.setdefault(i, len(index)) for i in image_ids), np.intp)
    return tuple(index), codes


class Detections(Sequence):
    """A frozen batch of detections as read-only arrays: ``boxes`` (N, 4),
    ``scores`` (N,) in [0, 1] and integer ``class_ids`` (N,); row i belongs
    to the image ``images[image_index[i]]``, and ``images`` holds distinct
    ids. The batch is validated once, at construction.

    It is also a ``Sequence[Detection]``: row i is built on first access and
    cached, so ``batch[i] is batch[i]``. A batch made by ``take`` shares each
    row's object with its parent, whichever side builds it first, and holds
    no other row of the parent.
    """

    # a plain class: a frozen dataclass adds about 0.7 ms to every import
    def __init__(self, boxes, scores, class_ids, images: tuple, image_index):
        classes, images = np.asarray(class_ids), _argument("images", (_hashable,), images)
        if classes.size and classes.dtype.kind not in "iu":
            raise ValueError(f"class_ids must be integers, got dtype {classes.dtype}")
        arrays = {
            "boxes": _argument("boxes", _as_box_array, np.asarray(boxes, dtype=np.float64)),
            "scores": _unit_interval(np.asarray(scores, dtype=np.float64), "scores"),
            "class_ids": classes.astype(np.int64),
            "image_index": np.asarray(image_index, dtype=np.intp),
        }
        shapes = [arr.shape for arr in arrays.values()]
        n, index = shapes[0][0], arrays["image_index"]
        if shapes[1:] != [(n,)] * 3:
            raise ValueError(f"detection arrays must share one length, got shapes {shapes}")
        in_range = ((0 <= index) & (index < len(images))).all()
        if not in_range or len(set(images)) < len(images):
            raise ValueError(f"image_index must point into distinct images {images}")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr.view())
            getattr(self, name).flags.writeable = False
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_cells", [None] * n)  # per row: None, or [row or None]

    def _frozen(self, name, *_):
        raise AttributeError(f"Detections is frozen: cannot change {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __repr__(self) -> str:
        return f"Detections({len(self)} rows, images={self.images!r})"

    def __len__(self) -> int:
        return len(self._cells)

    def _cell(self, i: int) -> list:
        """Row i's cell, shared with every batch taken from this one."""
        cell = self._cells[i]
        if cell is None:
            cell = self._cells[i] = [None]
        return cell

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        cell = self._cell(i)
        if cell[0] is None:  # the batch checked every value at construction
            row = (int(self.class_ids[i]), float(self.scores[i]), self.images[self.image_index[i]])
            cell[0] = _unchecked(Detection, _unchecked(Box, *self.boxes[i].tolist()), *row)
        return cell[0]

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def take(self, rows) -> Detections:
        """The batch of ``rows``, in that order, sharing their row objects."""
        rows = np.asarray(rows, dtype=np.intp)
        part = Detections(self.boxes[rows], self.scores[rows], self.class_ids[rows],
                          self.images, self.image_index[rows])
        object.__setattr__(part, "_cells", [self._cell(i) for i in rows.tolist()])
        return part


def _unchecked(cls, *values):
    """The frozen dataclass ``cls`` with ``values`` as its fields, unchecked."""
    row = object.__new__(cls)
    row.__dict__.update(zip(cls.__dataclass_fields__, values))
    return row


def _batch(dets: Sequence[Detection]) -> Detections:
    """``dets`` if it is a batch, else a batch whose rows are its objects."""
    if isinstance(dets, Detections):
        return dets
    if not {Detection}.issuperset(map(type, dets)):  # the rule takes a subclass too
        _argument("dets", (_instance(Detection),), dets)
    images, index = _image_index(d.image_id for d in dets)
    scores, classes = [d.score for d in dets], [d.class_id for d in dets]
    batch = Detections(boxes_to_array(d.box for d in dets), scores, classes, images, index)
    object.__setattr__(batch, "_cells", [[d] for d in dets])
    return batch


@dataclass(frozen=True)
class GroundTruth:
    box: Box
    class_id: int
    image_id: object = 0

    def __post_init__(self):
        _fields(self, box=_instance(Box), class_id=_integral, image_id=_hashable)


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
        return {"format_version": 1, **asdict(self)}


@dataclass
class MisalignmentResult:
    """Fraction of confident detections that localize poorly, plus per-
    detection flags aligned with the input order."""

    rate: float
    flags: list[bool]


def _greedy(boxes: np.ndarray, threshold: float) -> np.ndarray:
    """Positions greedy NMS keeps among ``boxes``, which are in score order.
    Each step decides the next ``_NMS_BLOCK`` alive rows from their IoU with
    each other, then drops the later rows that overlap a winner. Every IoU is
    the one a row-at-a-time loop computes, kept row first."""
    kept = []
    alive = np.arange(len(boxes))
    while alive.size:
        block, alive = alive[:_NMS_BLOCK], alive[_NMS_BLOCK:]
        over = broadcast_iou(boxes[block, None], boxes[block]) > threshold
        dead = np.zeros(block.size, dtype=bool)
        wins = []
        for j in range(block.size):
            if not dead[j]:
                wins.append(j)
                dead |= over[j]
        kept.append(block[wins])
        if alive.size:
            over = broadcast_iou(boxes[kept[-1], None], boxes[alive]) > threshold
            alive = alive[~over.any(axis=0)]
    return np.concatenate([alive, *kept])  # alive is empty by now


def nms(dets: Sequence[Detection], iou_threshold: float) -> Detections:
    """Greedy per-class non-maximum suppression.

    Within each (image, class) group, repeatedly keep the highest-scored
    detection and drop the others whose IoU with it exceeds the threshold.
    Ties break on input index. The kept batch is ordered by descending score,
    then input index, and its rows are the input's row objects.
    """
    _argument("iou_threshold", _bounded(float, 0, 1), iou_threshold)
    dets = _batch(dets)
    keys = dets.class_ids * len(dets.images) + dets.image_index
    order = np.lexsort((-dets.scores, keys))
    groups = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
    kept = np.sort(np.concatenate([g[_greedy(dets.boxes[g], iou_threshold)] for g in groups]))
    return dets.take(kept[np.argsort(-dets.scores[kept], kind="stable")])


def _match(ranks, cols, overlaps, n_dets: int, thresholds: tuple[float, ...]) -> np.ndarray:
    """True-positive flags, (thresholds, detections by rank), from candidate
    pairs: detection ``ranks[k]`` overlaps object ``cols[k]`` of its own
    (class, image) group by ``overlaps[k]``.

    At each threshold, detections in rank order each take their best
    still-unmatched object (highest IoU, ties to the lower object index,
    IoU > 0) when that IoU reaches the threshold. Candidates below every
    threshold are dropped once.
    """
    flags = np.zeros((len(thresholds), n_dets), dtype=bool)
    keep = (overlaps >= min(thresholds)) & (overlaps > 0)
    pick = np.lexsort((cols[keep], -overlaps[keep], ranks[keep]))
    ranks, cols, values = (a[keep][pick] for a in (ranks, cols, overlaps))
    for t, threshold in enumerate(thresholds):
        # a detection's candidates at or above the threshold, best first
        above = values >= threshold
        matched: set[int] = set()
        hits = [-1]  # the detections matched so far, after a sentinel
        for rank, col in zip(ranks[above].tolist(), cols[above].tolist()):
            if rank != hits[-1] and col not in matched:
                matched.add(col)
                hits.append(rank)
        flags[t, hits[1:]] = True
    return flags


def _ap_from_flags(flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP of ordered match flags; past the last recall, precision 0."""
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, _RECALL_POINTS, side="left")
    return float(np.append(envelope, 0.0)[idx].mean())


def _keyed(dets: Detections, ground_truth: Sequence[GroundTruth]):
    """Detection keys, then ground-truth boxes (N, 4), class ids and keys.
    A key numbers a (class, image) group: class id * image count + image
    position, with images in ``dets.images`` order, then first seen."""
    if not {GroundTruth}.issuperset(map(type, ground_truth)):
        _argument("ground_truth", (_instance(GroundTruth),), ground_truth)
    images, index = _image_index((g.image_id for g in ground_truth), dets.images)
    classes = np.fromiter((g.class_id for g in ground_truth), np.int64, len(ground_truth))
    return (
        dets.class_ids * len(images) + dets.image_index,
        boxes_to_array(g.box for g in ground_truth),
        classes,
        classes * len(images) + index,
    )


def _pairs(det_keys: np.ndarray, gt_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(detection rows, ground-truth rows) of every pair that shares a key,
    by detection row, then ground-truth row."""
    gt_order = np.argsort(gt_keys, kind="stable")
    lo, hi = (np.searchsorted(gt_keys[gt_order], det_keys, side) for side in ("left", "right"))
    counts = hi - lo
    det = np.repeat(np.arange(det_keys.size), counts)
    # pair k of detection i sits at cumsum(counts)[i - 1] + j and takes sorted object lo[i] + j
    offsets = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return det, gt_order[offsets + np.arange(det.size)]


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
        raise ValueError("bad argument 'ground_truth': must be non-empty")
    rule = (_bounded(float, 0, 1),)
    thresholds = tuple(map(float, _argument("iou_thresholds", rule, iou_thresholds)))
    if not thresholds:
        raise ValueError("bad argument 'iou_thresholds': must not be empty")
    dets = _batch(dets)
    det_keys, gt_boxes, gt_classes, gt_keys = _keyed(dets, ground_truth)

    def curve(det_rows: np.ndarray, gt_rows: np.ndarray) -> list[float]:
        """Per threshold, the mean over ground-truth classes of the class AP.
        IoU is computed once per same-group pair and matched at every
        threshold, as COCO's ``COCOeval`` does. Detections rank by class,
        then score, then row (ascending rows keep ties to the lower input
        index), so each class's flags are one slice."""
        classes = dets.class_ids[det_rows]
        order = np.lexsort((-dets.scores[det_rows], classes))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        det, gt = _pairs(det_keys[det_rows], gt_keys[gt_rows])
        # np.take gathers rows about three times faster than fancy indexing
        pairs = (np.take(dets.boxes, det_rows[det], axis=0), np.take(gt_boxes, gt_rows[gt], axis=0))
        overlaps = broadcast_iou(*pairs)
        flags = _match(rank[det], gt, overlaps, order.size, thresholds)
        gt_class, counts = np.unique(gt_classes[gt_rows], return_counts=True)
        lo, hi = (np.searchsorted(classes[order], gt_class, side) for side in ("left", "right"))
        spans = list(zip(lo.tolist(), hi.tolist(), counts.tolist()))
        return [float(np.mean([_ap_from_flags(row[a:b], n) for a, b, n in spans])) for row in flags]

    per_threshold = curve(np.arange(len(dets)), np.arange(len(ground_truth)))
    by_value = dict(zip(thresholds, per_threshold))

    banded = {}
    if area_bands:
        det_area, gt_area = _areas(dets.boxes), _areas(gt_boxes)
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
    _argument("loc_threshold", _bounded(float, 0, 1), loc_threshold)
    _argument("score_threshold", _bounded(float, 0, 1), score_threshold)
    dets = _batch(dets)
    det_keys, gt_boxes, _, gt_keys = _keyed(dets, ground_truth)
    confident = np.flatnonzero(dets.scores >= score_threshold)
    det, gt = _pairs(det_keys[confident], gt_keys)
    best = np.zeros(confident.size)  # 0.0 without a same-class object in the image
    pairs = (np.take(dets.boxes, confident[det], axis=0), np.take(gt_boxes, gt, axis=0))
    np.maximum.at(best, det, broadcast_iou(*pairs))
    flags = np.zeros(len(dets), dtype=bool)
    flags[confident] = best < loc_threshold
    rate = int(flags.sum()) / confident.size if confident.size else 0.0
    return MisalignmentResult(rate=rate, flags=flags.tolist())
