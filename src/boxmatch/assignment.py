"""Label assignment: static overlap thresholds, and the one guidance engine
that re-ranks a baseline's labels by the predictions, on anchors and points.

Labels are int arrays, one entry per sample (anchor or point): a value >= 0
marks the sample positive for that object index, NEGATIVE (-1) marks
background, IGNORED (-2) marks samples excluded from the classification loss.

The static strategy thresholds anchor/object overlap directly. Guidance keeps
a baseline's per-object budgets (n_pos, n_ignored) but re-ranks each object's
candidates by the other task's prediction: regressed-box overlap for the
classification labels (l2c), the baseline's quality raised to
(sigma - score) / sigma for the localization labels (c2l). The grids differ
only in that quality, the candidate pool and the baseline: anchor overlap,
every anchor and ``_static`` here; centerness, the in-box level-matched points
and ``fcos._original`` on points. Each public function checks its inputs once
and builds one ``_Baseline``, which a guided one hands to ``_guide``; every
named strategy of ``STRATEGIES`` is one such call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .geometry import _argument, _bounded, _fields, _row_best, _unit_interval

NEGATIVE = -1
IGNORED = -2

MatrixLike = Union[np.ndarray, Sequence[Sequence[float]]]


@dataclass(frozen=True)
class MatchingConfig:
    """Thresholds for the static strategy and the amplification exponent.

    ``t_pos == t_neg`` is allowed and collapses the ignored band to nothing.
    Checks its number fields.
    """

    t_pos: float = 0.5
    t_neg: float = 0.4
    sigma: float = 2.0

    def __post_init__(self):
        _check_sigma(self.sigma)
        _fields(self, sigma=float, t_neg=_bounded(float, 0, 1))
        _fields(self, t_pos=_bounded(float, self.t_neg, 1))


@dataclass
class Assignment:
    """Per-sample labels for both tasks plus per-object bookkeeping.

    ``mode`` is "anchors" or "points". ``per_object_counts[j]`` is object j's
    baseline budget: (n_pos, n_ignored) under the static strategy on anchors,
    n_pos under the original strategy on points, which have no ignored band.
    Localization labels never contain IGNORED.
    """

    classification_labels: np.ndarray
    localization_labels: np.ndarray
    per_object_counts: list
    warnings: list[str] = field(default_factory=list)
    mode: str = "anchors"

    def to_json_dict(self) -> dict:
        payload = self._json_payload()
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()}

    def _json_payload(self) -> dict:
        """``to_json_dict`` with the label arrays themselves, for the CLI's writer."""
        if self.mode == "points":
            counts = [{"positive": int(p)} for p in self.per_object_counts]
        else:
            counts = [{"positive": int(p), "ignored": int(i)} for p, i in self.per_object_counts]
        return {
            "format_version": 1,
            "mode": self.mode,
            "classification": self.classification_labels,
            "localization": self.localization_labels,
            "per_object_counts": counts,
            "warnings": list(self.warnings),
        }


@dataclass
class DynamicLabels:
    """Result of a prediction-guided labeling pass.

    ``premerge_positive_counts[j]`` is the number of samples selected for
    object j before cross-object conflict resolution; it equals the baseline's
    n_pos budget unless the candidate pool was too small (recorded in
    ``warnings``).
    """

    labels: np.ndarray
    premerge_positive_counts: list[int]
    warnings: list[str] = field(default_factory=list)


def matrix_values(matrix: MatrixLike) -> np.ndarray:
    """The one checked entry for overlap and score matrices: a 2-D array-like,
    such as a ``pairwise_iou`` result, as a float64 array once every value is
    finite and in [0, 1]; ValueError otherwise."""
    try:
        arr = np.asarray(matrix, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged rows, or items that are no numbers
        raise ValueError(f"expected a 2-D matrix of numbers: {exc}") from exc
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return _unit_interval(arr, "matrix values")


def _checked(shape: Optional[tuple] = None, **matrices: MatrixLike) -> list[np.ndarray]:
    """matrix_values of each named argument; all must share one shape, ``shape`` if given."""
    values = [_argument(name, matrix_values, m) for name, m in matrices.items()]
    shape = shape or values[0].shape
    for name, arr in zip(matrices, values):
        if arr.shape != shape:
            raise ValueError(f"bad argument {name!r}: matrix shapes differ: {shape} vs {arr.shape}")
    return values


def _check_sigma(sigma) -> None:
    """Reject an exponent ``sigma`` (a scalar or an array) that is not a finite
    number > 1 everywhere: an infinite one would make every amplified overlap NaN."""
    values = np.asarray(sigma)
    number = values.dtype.kind in "iuf" and values.size  # a string or boolean is no number
    if not (number and ((1.0 < values) & (values < np.inf)).all()):  # NaN fails both
        raise ValueError(f"sigma must be > 1, got {sigma}")


def amplified_iou(iou_value, score, sigma):
    """Raise overlap to the exponent (sigma - score) / sigma.

    The result is always >= the raw value and equals it when score is 0.
    Accepts scalars or broadcastable arrays; sigma must exceed 1 so the
    exponent stays positive for every score in [0, 1].
    """
    _check_sigma(sigma)
    iou_arr = _unit_interval(np.asarray(iou_value, dtype=np.float64), "iou_value")
    score_arr = _unit_interval(np.asarray(score, dtype=np.float64), "score")
    out = np.power(iou_arr, (sigma - score_arr) / sigma) + 0.0  # (-0.0) ** 1.0 is -0.0
    if np.ndim(iou_value) == 0 and np.ndim(score) == 0 and np.ndim(sigma) == 0:
        return float(out)
    return out


class _Baseline(NamedTuple):
    """An unguided result and its grid's inputs to ``_guide``: budgets, the candidate
    pool table (None: every sample), the c2l quality on demand, the noun."""

    result: Assignment
    n_pos: list[int]
    n_ignored: list[int]
    pool: Optional[tuple[np.ndarray, np.ndarray]]
    quality: Callable[[], np.ndarray]
    noun: str


def static_assign(iou_anchor: MatrixLike, cfg: Optional[MatchingConfig] = None) -> Assignment:
    """Assign labels by thresholding anchor/object overlap.

    Anchors whose best overlap is >= t_pos are positive for their best-overlap
    object (ties to the lower object index); non-positive anchors with best
    overlap in [t_neg, t_pos) are ignored; the rest are negative. Every object
    is guaranteed at least one positive anchor: an object left without one
    takes its highest-overlap anchor among those not positive elsewhere. An
    image without objects (an (n, 0) matrix) gets all-NEGATIVE labels.
    """
    return _static(_checked(iou_anchor=iou_anchor)[0], cfg or MatchingConfig()).result


def _static(values: np.ndarray, cfg: MatchingConfig) -> _Baseline:
    """The static strategy on checked overlaps, as the anchor baseline."""
    n, m = values.shape
    if n == 0:
        raise ValueError("empty IoU matrix: no anchors")
    best_obj, best_iou = _row_best(values)

    below = np.where(best_iou >= cfg.t_neg, IGNORED, NEGATIVE)
    labels = np.where(best_iou >= cfg.t_pos, best_obj, below)

    def best_free(j):  # the fallback is offered free anchors only, so static never steals
        hit = np.flatnonzero((labels < 0) & (values[:, j] > 0))  # the free anchors it overlaps
        return _ranking(hit, values[hit, j], 1, values[:, j], labels < 0)[0]

    warnings = _serve(labels, m, best_free, "anchor")
    n_pos = _positives(labels, m).tolist()
    n_ign = np.bincount(best_obj[labels == IGNORED], minlength=m).tolist()
    localization = np.where(labels == IGNORED, NEGATIVE, labels)
    result = Assignment(labels, localization, list(zip(n_pos, n_ign)), warnings)
    return _Baseline(result, n_pos, n_ign, None, lambda: values, "anchor")


def ranked_selection(
    score_matrix: np.ndarray,
    n_pos: Sequence[int],
    n_ignored: Sequence[int],
    pool: Optional[tuple[np.ndarray, np.ndarray]] = None,
    scores: Optional[np.ndarray] = None,
    sigma: Optional[float] = None,
) -> DynamicLabels:
    """Per-object top-k labeling with deterministic merge across objects.

    For each object, anchors are ranked by its score column (descending, ties to the
    lower anchor index, so zeros rank last in index order) over every anchor, or over
    its run of ``pool``, a table in ``_runs``'s format whose runs hold each object's
    candidates, zeros included. The first ``n_pos`` become positive claims and the next
    ``n_ignored`` ignored claims. Positive beats ignored beats negative. An anchor
    claimed positive by several objects goes to the highest-scoring claim (ties to the
    lower object index). Displaced claims are not refilled, except that an object
    displaced from every claim takes, by ``_serve``, its best-ranked free anchor, or
    else its best-ranked anchor whose owner keeps another positive.
    With ``scores`` and ``sigma`` (given together), an entry v ranks as
    ``amplified_iou(v, score, sigma)``. Budgets other than m integers >= 0 are
    refused with a ValueError.
    """
    n, m = score_matrix.shape
    n_pos = _argument("n_pos", partial(_counts, m), n_pos)
    n_ignored = _argument("n_ignored", partial(_counts, m), n_ignored)
    runs, bounds = _runs(score_matrix) if pool is None else pool  # a pool run holds its zeros
    entries = score_matrix.T.take(runs)  # every run entry, by its object-major flat index
    if scores is not None:  # amplify the run entries only, in place: zeros stay zeros
        exponent = scores.T.take(runs)
        np.subtract(sigma, exponent, out=exponent)
        np.power(entries, np.divide(exponent, sigma, out=exponent), out=entries)
        del exponent  # no temporary outlives the gather
    columns = score_matrix.T if pool is None else [None] * m  # the zero tail reads a column

    def rank(j: int, k: Optional[int] = None):
        run = slice(bounds[j], bounds[j + 1])
        return _ranking(runs[run] - j * n, entries[run], k, columns[j])

    picks = [(np.zeros(0, dtype=np.intp), np.zeros(0))]  # claims, scores; typed if m == 0
    ignored_any = np.zeros(n, dtype=bool)
    premerge: list[int] = []
    warnings: list[str] = []

    for j in range(m):
        size = n if pool is None else bounds[j + 1] - bounds[j]
        k_pos = min(int(n_pos[j]), size)
        k_ign = min(int(n_ignored[j]), size - k_pos)
        if k_pos < n_pos[j] or k_ign < n_ignored[j]:
            warnings.append(
                f"object {j}: only {size} candidates for "
                f"{n_pos[j]} positive + {n_ignored[j]} ignored; clamped"
            )
        top, top_scores = rank(j, k_pos + k_ign)
        picks.append((top[:k_pos], top_scores[:k_pos]))
        ignored_any[top[k_pos:]] = True
        premerge.append(k_pos)

    # the merge: claims sorted by sample, score (descending), object; the first wins
    rows, claim_scores = (np.concatenate(part) for part in zip(*picks))
    owners = np.repeat(np.arange(m), premerge)
    order = np.lexsort((owners, -claim_scores, rows))
    first = order[np.diff(rows[order], prepend=-1) != 0]
    labels = np.where(ignored_any, IGNORED, NEGATIVE)
    labels[rows[first]] = owners[first]

    # an object displaced from every one of its picks keeps one positive; one that
    # picked nothing gets an empty ranking, and a caller's rescue names it
    _serve(labels, m, lambda j: rank(j, None if premerge[j] else 0)[0], "anchor")

    return DynamicLabels(labels=labels, premerge_positive_counts=premerge, warnings=warnings)


def _counts(m: int, value) -> list[int]:
    """``value`` as a list once it holds m integers >= 0, none a boolean (numpy reads one as 1)."""
    counts = np.asarray(value)
    if counts.shape != (m,) or m and (counts.dtype.kind not in "iu" or counts.min() < 0
                                      or not {bool, np.bool_}.isdisjoint(map(type, value))):
        raise ValueError(f"must have shape ({m},), integers >= 0, no boolean; got {value!r}")
    return counts.tolist()


def _runs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices j * n + i of the positive entries (i, j) of an (n, m) ``matrix``
    in object-major order, each column's rows one run in index order, and the m + 1
    bounds of the runs."""
    n, m = matrix.shape
    runs = np.flatnonzero((matrix > 0).T)  # a view of an object-major mask, a copy of another
    return runs, np.searchsorted(runs, np.arange(m + 1) * n)


def _positives(labels: np.ndarray, n_objects: int) -> np.ndarray:
    return np.bincount(labels[labels >= 0], minlength=n_objects)


def _ranking(samples: np.ndarray, scores: np.ndarray, k: Optional[int], column, pool=True):
    """The first k (all if k is None) of ``samples``, given in index order, ranked by
    ``scores``, descending, ties to the lower index, then of the ``pool`` members whose
    ``column`` entry is 0, in index order (None: none); returns them and their scores."""
    if k and k < samples.size:  # the scores at or above the k-th best, in index order
        keep = np.flatnonzero(scores >= np.partition(scores, samples.size - k)[samples.size - k])
        samples, scores = samples[keep], scores[keep]
    order = np.argsort(-scores, kind="stable")[:k]  # stable: ties to the lower index
    samples, scores = samples[order], scores[order]
    if column is None or k is not None and k <= samples.size:
        return samples, scores
    tail = np.flatnonzero((column <= 0) & pool)[: k and k - samples.size]
    return np.concatenate([samples, tail]), np.concatenate([scores, np.zeros(tail.size)])


def _serve(labels: np.ndarray, m: int, ranked: Callable[[int], np.ndarray], noun: str):
    """The one fallback, in place: each object without a positive, in index order, takes
    the first free sample of ``ranked(j)``, else the first whose owner keeps another
    positive. Returns one warning per object it cannot serve; ``noun`` names a sample."""
    counts, warnings = _positives(labels, m), []
    for j in np.flatnonzero(counts == 0):
        order = ranked(j)
        owners = labels[order]
        take = order[owners < 0][:1]
        if not take.size:  # a steal: the owner's count follows, so it keeps one positive
            take = order[counts[owners] >= 2][:1]
            counts[labels[take]] -= 1
        labels[take] = j
        if not take.size:
            warnings.append(f"object {j}: no {noun} available for the positive fallback")
    return warnings


def _guide(base: _Baseline, regressed, scores, sigma, l2c: bool, c2l: bool):
    """Rank, merge and rescue the tasks that ``l2c`` and ``c2l`` name.

    Each object the merge leaves without a positive takes one of its
    baseline positives; as a pool before the merge, they would displace other
    objects' claims. Returns (the baseline result with the guided labels and
    their warnings, classification's first; then each guided DynamicLabels).
    """
    result, m = base.result, len(base.n_pos)
    guided = []
    if l2c:
        guided.append(ranked_selection(regressed, base.n_pos, base.n_ignored, base.pool))
    if c2l:
        quality = base.quality()
        guided.append(ranked_selection(quality, base.n_pos, [0] * m, base.pool, scores, sigma))

    def original(j):  # object j's baseline positives
        return np.flatnonzero(base.result.classification_labels == j)

    for selection in guided:
        selection.warnings += _serve(selection.labels, m, original, base.noun)
    if guided:  # a task not guided keeps the baseline labels
        cls = guided[0].labels if l2c else result.classification_labels
        loc = guided[-1].labels if c2l else result.localization_labels
        warnings = [w for selection in guided for w in selection.warnings]
        result = Assignment(cls, loc, result.per_object_counts, warnings, result.mode)
    return (result, *guided)


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
    anchor, regressed = _checked(iou_anchor=iou_anchor, iou_regressed=iou_regressed)
    return _guide(_static(anchor, cfg or MatchingConfig()), regressed, None, None, True, False)[1]


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
    anchor, scores = _checked(iou_anchor=iou_anchor, classif_scores=classif_scores)
    return _guide(_static(anchor, cfg), None, scores, cfg.sigma, False, True)[1]


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
    cfg = cfg or MatchingConfig()
    anchor, regressed, scores = _checked(
        iou_anchor=iou_anchor, iou_regressed=iou_regressed, classif_scores=classif_scores)
    return _guide(_static(anchor, cfg), regressed, scores, cfg.sigma, True, True)[0]


# Grid (an ``Assignment.mode``) -> strategy name -> (l2c, c2l), the tasks that ``_guide``
# re-ranks over the grid's baseline, which each grid's first name labels unguided.
STRATEGIES = {
    "anchors": {"static": (False, False), "l2c": (True, False), "c2l": (False, True),
                "mutual": (True, True)},
    "points": {"fcos": (False, False), "fcos-mutual": (True, True)},
}
