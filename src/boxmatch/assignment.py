"""Anchor label assignment: static overlap thresholds and the two
prediction-guided strategies that replace them during training.

Labels are int arrays, one entry per anchor: a value >= 0 marks the anchor
positive for that object index, NEGATIVE (-1) marks background, IGNORED (-2)
marks anchors excluded from the classification loss.

The static strategy thresholds anchor/object overlap directly. The dynamic
strategies keep the static per-object budgets (n_pos, n_ignored) but re-rank
anchors by a prediction-derived score: regressed-box overlap when choosing
classification labels, amplified overlap (raw overlap raised to
(sigma - score) / sigma) when choosing localization labels. Ranking is
per object with deterministic tie-breaks (lower anchor index first); anchors
claimed by several objects go to the object with the higher score, ties to
the lower object index.

Each public function checks its inputs once with ``matrix_values`` and runs
the static strategy once for the budgets; the private cores behind it take
checked arrays and never re-validate. ``ANCHOR_STRATEGIES`` maps each strategy
name the CLI and the simulator accept to one checked call of those cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import IoUMatrix

NEGATIVE = -1
IGNORED = -2

MatrixLike = Union[IoUMatrix, np.ndarray, Sequence[Sequence[float]]]


@dataclass(frozen=True)
class MatchingConfig:
    """Thresholds for the static strategy and the amplification exponent.

    ``t_pos == t_neg`` is allowed and collapses the ignored band to nothing.
    """

    t_pos: float = 0.5
    t_neg: float = 0.4
    sigma: float = 2.0

    def __post_init__(self):
        if not (0.0 <= self.t_neg <= self.t_pos <= 1.0):
            raise ValueError(
                f"need 0 <= t_neg <= t_pos <= 1, got t_pos={self.t_pos}, t_neg={self.t_neg}"
            )
        if not self.sigma > 1.0:
            raise ValueError(f"sigma must be > 1, got {self.sigma}")


@dataclass
class Assignment:
    """Per-anchor labels for both tasks plus per-object bookkeeping.

    ``per_object_counts[j]`` is (n_pos, n_ignored) for object j under the
    static strategy; localization labels never contain IGNORED.
    """

    classification_labels: np.ndarray
    localization_labels: np.ndarray
    per_object_counts: list[tuple[int, int]]
    warnings: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "mode": "anchors",
            "classification": [int(v) for v in self.classification_labels],
            "localization": [int(v) for v in self.localization_labels],
            "per_object_counts": [
                {"positive": int(p), "ignored": int(i)} for p, i in self.per_object_counts
            ],
            "warnings": list(self.warnings),
        }


@dataclass
class DynamicLabels:
    """Result of a prediction-guided labeling pass.

    ``premerge_positive_counts[j]`` is the number of anchors selected for
    object j before cross-object conflict resolution; it equals the static
    n_pos budget unless the candidate pool was too small (recorded in
    ``warnings``).
    """

    labels: np.ndarray
    premerge_positive_counts: list[int]
    warnings: list[str] = field(default_factory=list)


def _unit_interval(arr: np.ndarray, what: str) -> np.ndarray:
    # min and max propagate NaN, which then fails both comparisons
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError(f"{what} must be finite and lie in [0, 1]")
    return arr


def matrix_values(matrix: MatrixLike) -> np.ndarray:
    """The one checked entry for overlap and score matrices.

    Unwraps an IoUMatrix or coerces an array-like to a 2-D float64 array, and
    rejects non-finite values and values outside [0, 1] with ValueError.
    """
    if isinstance(matrix, IoUMatrix):
        arr = matrix.values
    else:
        arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return _unit_interval(arr, "matrix values")


def _checked(*matrices: MatrixLike) -> list[np.ndarray]:
    """matrix_values of each input; all inputs must share one shape."""
    values = [matrix_values(m) for m in matrices]
    for other in values[1:]:
        if other.shape != values[0].shape:
            raise ValueError(f"matrix shapes differ: {values[0].shape} vs {other.shape}")
    return values


def _amplify(values, scores, sigma):
    return np.power(values, (sigma - scores) / sigma)


def amplified_iou(iou_value, score, sigma):
    """Raise overlap to the exponent (sigma - score) / sigma.

    The result is always >= the raw value and equals it when score is 0.
    Accepts scalars or broadcastable arrays; sigma must exceed 1 so the
    exponent stays positive for every score in [0, 1].
    """
    sigma_arr = np.asarray(sigma, dtype=np.float64)
    if sigma_arr.size == 0 or np.any(sigma_arr <= 1.0):
        raise ValueError(f"sigma must be > 1, got {sigma}")
    iou_arr = _unit_interval(np.asarray(iou_value, dtype=np.float64), "iou values")
    score_arr = _unit_interval(np.asarray(score, dtype=np.float64), "classification scores")
    out = _amplify(iou_arr, score_arr, sigma_arr)
    if np.ndim(iou_value) == 0 and np.ndim(score) == 0 and np.ndim(sigma) == 0:
        return float(out)
    return out


def static_assign(iou_anchor: MatrixLike, cfg: Optional[MatchingConfig] = None) -> Assignment:
    """Assign labels by thresholding anchor/object overlap.

    Anchors whose best overlap is >= t_pos are positive for their best-overlap
    object (ties to the lower object index); non-positive anchors with best
    overlap in [t_neg, t_pos) are ignored; the rest are negative. Every object
    is guaranteed at least one positive anchor: an object left without one
    takes its highest-overlap anchor among those not positive elsewhere.
    """
    return _static(matrix_values(iou_anchor), cfg or MatchingConfig())


def _static(values: np.ndarray, cfg: MatchingConfig) -> Assignment:
    if values.size == 0:
        raise ValueError("empty IoU matrix")
    n, m = values.shape
    best_obj = np.argmax(values, axis=1)
    best_iou = values[np.arange(n), best_obj]

    labels = np.full(n, NEGATIVE, dtype=np.int64)
    pos_mask = best_iou >= cfg.t_pos
    labels[pos_mask] = best_obj[pos_mask]
    labels[~pos_mask & (best_iou >= cfg.t_neg)] = IGNORED

    warnings: list[str] = []
    for j in range(m):
        if np.any(labels == j):
            continue
        for i in np.argsort(-values[:, j], kind="stable"):
            if labels[i] < 0:  # never steal another object's positive
                labels[i] = j
                break
        else:
            warnings.append(f"object {j}: no anchor available for the positive fallback")

    counts = []
    for j in range(m):
        n_pos = int(np.sum(labels == j))
        n_ign = int(np.sum((labels == IGNORED) & (best_obj == j)))
        counts.append((n_pos, n_ign))

    localization = labels.copy()
    localization[localization == IGNORED] = NEGATIVE
    return Assignment(
        classification_labels=labels,
        localization_labels=localization,
        per_object_counts=counts,
        warnings=warnings,
    )


def ranked_selection(
    score_matrix: np.ndarray,
    n_pos: Sequence[int],
    n_ignored: Sequence[int],
    candidate_mask: Optional[np.ndarray] = None,
) -> DynamicLabels:
    """Per-object top-k labeling with deterministic merge across objects.

    For each object, anchors are ranked by its score column (descending,
    ties to the lower anchor index) over the candidate pool; the first
    ``n_pos`` become positive claims and the next ``n_ignored`` ignored
    claims. Positive beats ignored beats negative. An anchor claimed positive
    by several objects goes to the highest-scoring claim (ties to the lower
    object index); displaced claims are not refilled, except that an object
    left with no positive at all takes its best-ranked anchor among those not
    positive elsewhere.
    """
    values = score_matrix
    n, m = values.shape
    labels = np.full(n, NEGATIVE, dtype=np.int64)
    pos_claims = np.zeros((n, m), dtype=bool)
    ignored_any = np.zeros(n, dtype=bool)
    premerge: list[int] = []
    warnings: list[str] = []
    orders: list[np.ndarray] = []

    for j in range(m):
        if candidate_mask is None:
            cand = np.arange(n)
        else:
            cand = np.flatnonzero(candidate_mask[:, j])
        order = cand[np.argsort(-values[cand, j], kind="stable")]
        orders.append(order)
        k_pos = min(int(n_pos[j]), order.size)
        k_ign = min(int(n_ignored[j]), order.size - k_pos)
        if k_pos < n_pos[j] or k_ign < n_ignored[j]:
            warnings.append(
                f"object {j}: only {order.size} candidates for "
                f"{n_pos[j]} positive + {n_ignored[j]} ignored; clamped"
            )
        pos_claims[order[:k_pos], j] = True
        ignored_any[order[k_pos : k_pos + k_ign]] = True
        premerge.append(k_pos)

    claimed = pos_claims.any(axis=1)
    winner = np.argmax(np.where(pos_claims, values, -np.inf), axis=1)
    labels[claimed] = winner[claimed]
    labels[~claimed & ignored_any] = IGNORED

    # an object displaced from every one of its picks keeps one positive
    for j in range(m):
        if premerge[j] > 0 and not np.any(labels == j):
            _claim_one(labels, j, orders[j], m)

    return DynamicLabels(labels=labels, premerge_positive_counts=premerge, warnings=warnings)


def _claim_one(labels: np.ndarray, j: int, ranked: np.ndarray, n_objects: int) -> bool:
    """Give object j its best-ranked anchor: a free one if any, otherwise one
    whose current owner keeps at least one other positive."""
    for i in ranked:
        if labels[i] < 0:
            labels[i] = j
            return True
    counts = np.bincount(labels[labels >= 0], minlength=n_objects)
    for i in ranked:
        owner = labels[i]
        if owner >= 0 and counts[owner] >= 2:
            labels[i] = j
            return True
    return False


def _guided(base, cls: Optional[DynamicLabels] = None, loc: Optional[DynamicLabels] = None):
    """``base`` (an Assignment or PointAssignment) with the labels of either
    task replaced by a guided result; the warnings are the guided results'
    own, classification's first. Without a guided result, ``base`` itself."""
    if cls is None and loc is None:
        return base
    return replace(
        base,
        classification_labels=base.classification_labels if cls is None else cls.labels,
        localization_labels=base.localization_labels if loc is None else loc.labels,
        warnings=[w for r in (cls, loc) if r is not None for w in r.warnings],
    )


def _l2c(regressed: np.ndarray, base: Assignment) -> DynamicLabels:
    n_pos = [p for p, _ in base.per_object_counts]
    n_ign = [i for _, i in base.per_object_counts]
    return ranked_selection(regressed, n_pos, n_ign)


def _c2l(anchor: np.ndarray, scores: np.ndarray, base: Assignment, sigma: float) -> DynamicLabels:
    n_pos = [p for p, _ in base.per_object_counts]
    return ranked_selection(_amplify(anchor, scores, sigma), n_pos, [0] * len(n_pos))


def localize_to_classify(
    iou_anchor: MatrixLike,
    iou_regressed: MatrixLike,
    cfg: Optional[MatchingConfig] = None,
) -> DynamicLabels:
    """Classification labels ranked by regressed-box overlap.

    The static strategy on ``iou_anchor`` supplies per-object budgets
    (n_pos, n_ignored); each object then takes its n_pos highest
    ``iou_regressed`` anchors as positive and the next n_ignored as ignored.
    """
    anchor, regressed = _checked(iou_anchor, iou_regressed)
    return _l2c(regressed, _static(anchor, cfg or MatchingConfig()))


def classify_to_localize(
    iou_anchor: MatrixLike,
    classif_scores: MatrixLike,
    cfg: Optional[MatchingConfig] = None,
) -> DynamicLabels:
    """Localization labels ranked by amplified overlap.

    Each object takes its n_pos (from the static strategy) highest
    ``amplified_iou(iou_anchor, score, sigma)`` anchors as positive; all other
    anchors are negative, meaning simply "not optimized" — there is no ignored
    band for the localization task.
    """
    cfg = cfg or MatchingConfig()
    anchor, scores = _checked(iou_anchor, classif_scores)
    return _c2l(anchor, scores, _static(anchor, cfg), cfg.sigma)


def mutual_guidance_assign(
    iou_anchor: MatrixLike,
    iou_regressed: MatrixLike,
    classif_scores: MatrixLike,
    cfg: Optional[MatchingConfig] = None,
) -> Assignment:
    """Couple the two tasks: each one's labels follow the other's predictions.

    Classification labels come from localize_to_classify, localization labels
    from classify_to_localize, per-object counts from the static strategy.
    The two label sets may disagree on individual anchors by design.
    """
    return ANCHOR_STRATEGIES["mutual"](iou_anchor, iou_regressed, classif_scores, cfg)[1]


def _run_anchors(iou_anchor, iou_regressed, classif_scores, cfg=None, *, l2c, c2l):
    cfg = cfg or MatchingConfig()
    anchor, regressed, scores = _checked(iou_anchor, iou_regressed, classif_scores)
    base = _static(anchor, cfg)
    cls = _l2c(regressed, base) if l2c else None
    loc = _c2l(anchor, scores, base, cfg.sigma) if c2l else None
    return base, _guided(base, cls, loc)


# Strategy name -> f(iou_anchor, iou_regressed, classif_scores, cfg=None),
# returning (static baseline, the strategy's Assignment). A task that its
# strategy does not guide keeps the static labels.
ANCHOR_STRATEGIES = {
    "static": partial(_run_anchors, l2c=False, c2l=False),
    "l2c": partial(_run_anchors, l2c=True, c2l=False),
    "c2l": partial(_run_anchors, l2c=False, c2l=True),
    "mutual": partial(_run_anchors, l2c=True, c2l=True),
}
