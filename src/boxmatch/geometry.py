"""Axis-aligned box arithmetic: areas, IoU and the pairwise IoU matrix; and the rules that
config fields and function arguments are checked by. Each (samples, objects) matrix the library
returns is object-major, the transpose of a C-contiguous array: it is read one object at a time.

Boxes are (x_min, y_min, x_max, y_max) in continuous pixel coordinates with
area (x_max - x_min) * (y_max - y_min). Degenerate boxes are rejected at
construction rather than clamped.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable, Optional, Sequence, Union

import numpy as np

_BLOCK_ROWS, _BLOCK_ENTRIES, _CULL_OVER, _CULL_BUFSIZE = 4096, 2**16, 16, 1024  # _pairwise


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in pixel coordinates (sub-pixel allowed)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        box = x0, y0, x1, y1 = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not (type(x0) is type(y0) is type(x1) is type(y1) is float and math.isfinite(sum(box))):
            _fields(self, x_min=float, y_min=float, x_max=float, y_max=float)  # by the rule set
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"box must have x_min < x_max and y_min < y_max, got {box}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


BoxesLike = Union[np.ndarray, Sequence[Box]]


def area(box: Box) -> float:
    """Area of a box in square pixels."""
    box = _argument("box", _instance(Box), box)
    return box.width * box.height


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    try:  # costs nothing unless an argument is no Box, which the rule then names
        iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
        ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
        if iw <= 0.0 or ih <= 0.0:
            return 0.0
        inter = iw * ih
        # box invariants guarantee union > 0, no epsilon needed
        return inter / (a.width * a.height + b.width * b.height - inter)
    except AttributeError:
        _argument("a", _instance(Box), a), _argument("b", _instance(Box), b)
        raise


def boxes_to_array(boxes: Iterable[Box]) -> np.ndarray:
    """Pack boxes into an (N, 4) float64 array of (x_min, y_min, x_max, y_max)."""
    try:  # as in iou: the rule runs only once an item has failed
        return np.asarray([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)
    except AttributeError as exc:  # the rule passes on a spent iterator: name the argument anyway
        _argument("boxes", (_instance(Box),), boxes)
        raise ValueError(f"bad argument 'boxes': an item is no Box ({exc})") from exc


def _as_box_array(boxes: BoxesLike) -> np.ndarray:
    """The rule for boxes: a checked (N, 4) array, or a sequence of ``Box``, as (N, 4) float64."""
    if not isinstance(boxes, np.ndarray):
        return boxes_to_array(map(_instance(Box), boxes))
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"box array must have shape (N, 4), got {arr.shape}")
    if arr.size and not (
        np.isfinite(arr).all() and np.all(arr[:, 2] > arr[:, 0]) and np.all(arr[:, 3] > arr[:, 1])
    ):
        raise ValueError("box array contains non-finite or zero-extent boxes")
    return arr


def broadcast_iou(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Unchecked IoU of (..., 4) box arrays whose leading shapes broadcast to at least one
    axis (pass a single box as (1, 4)), written into ``out`` if given: ``a[:, None]`` against
    ``b`` is the pairwise matrix, equal shapes give the row-wise IoU. Each float equals the
    scalar ``iou`` of its pair, bit for bit, but where both areas underflow to 0 (sides near
    1e-200): such a pair reads NaN here, where ``iou`` answers 0.0 if the boxes are disjoint."""
    low = np.maximum(a[..., 0], b[..., 0])  # one temporary serves both lower sides
    iw = np.minimum(a[..., 2], b[..., 2], out=out)
    iw -= low
    ih = np.minimum(a[..., 3], b[..., 3])
    ih -= np.maximum(a[..., 1], b[..., 1], out=low)
    inter = np.clip(iw, 0.0, None, out=iw)
    inter *= np.clip(ih, 0.0, None, out=ih)
    union = np.add((a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1]),
                   (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]), out=ih)
    union -= inter
    return np.divide(inter, union, out=inter)


def pairwise_iou(a: BoxesLike, b: BoxesLike) -> np.ndarray:
    """IoU of every box in `a` with every box in `b`, shape (len(a), len(b)), object-major."""
    return _pairwise(_argument("a", _as_box_array, a), _argument("b", _as_box_array, b))


def _pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unchecked ``pairwise_iou``, built in blocks of min(4096, 2**16 // len(b)) rows of `a`. Over
    16 objects a block skips each object above or below all its rows, which reads +0.0: the bits
    of a disjoint pair. Those blocks are narrow, and numpy buffers a broadcast narrower than a
    third of its ufunc buffer at 4-6x the cost: they run under 1024 elements."""
    out = np.empty((len(b), len(a)))  # a's rows innermost: long loops
    if len(b) <= _CULL_OVER:  # every object, in place
        for start in range(0, len(a), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            broadcast_iou(b[:, None], a[rows], out=out[:, rows])
        return out.T
    starts = np.arange(0, len(a), step := max(1, _BLOCK_ENTRIES // len(b)))
    low, high = np.minimum.reduceat(a[:, 1], starts), np.maximum.reduceat(a[:, 3], starts)
    meets = (b[:, 3] >= low[:, None]) & (b[:, 1] <= high[:, None])  # not strictly above or below
    old = np.setbufsize(_CULL_BUFSIZE)
    try:  # the caller's buffer is restored on every exit
        for start, hit in zip(starts.tolist(), meets):
            rows = slice(start, start + step)
            if hit.all():
                broadcast_iou(b[:, None], a[rows], out=out[:, rows])
            else:
                out[~hit, rows], out[hit, rows] = 0.0, broadcast_iou(b[hit, None], a[rows])
    finally:
        np.setbufsize(old)
    return out.T


def _row_best(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's (argmax, max), by a running max over the columns whose strict > keeps the
    first maximum's bits and skips NaN past column 0, unlike argmax; no column: (0, -inf)."""
    n, m = values.shape
    best, top = np.zeros(n, dtype=np.intp), values[:, 0].copy() if m else np.full(n, -np.inf)
    for j, column in enumerate(values.T[1:], 1):
        above = column > top
        np.copyto(best, j, where=above)
        np.copyto(top, column, where=above)
    return best, top


def _unit_interval(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` itself once every value is finite and in [0, 1]; ValueError otherwise."""
    # as integers, the float64 bits of +0.0 ... 1.0 are exactly those up to 1.0's
    # (0x3FF0...): one pass accepts them; min and max propagate NaN, which fails both.
    # An empty array is passed by its size: max(initial=0) took 8% longer at 19,200 x 50
    if arr.dtype == np.float64 and arr.size and arr.view(np.uint64).max() <= 0x3FF0000000000000:
        return arr
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError(f"{what} must be finite and lie in [0, 1]")
    return arr


def _integral(value) -> int:
    """A 64-bit integer as an int; numpy integers count, booleans do not."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not -2**63 <= value < 2**63:
        raise ValueError(f"must be a 64-bit integer, got {value!r}")
    return int(value)


def _integer(value) -> int:
    """``_integral``, which also takes an integral float such as ``320.0``."""
    return _integral(int(value) if isinstance(value, float) and value.is_integer() else value)


def _number(value):
    """``value`` once it is a finite real number; numpy scalars count, booleans do not."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {value!r}")
    return value


def _instance(kind: type):
    """The rule for an instance of ``kind``; a tuple of its fields is none."""
    def rule(value):
        if not isinstance(value, kind):
            raise ValueError(f"must be a {kind.__name__}, got {reprlib.repr(value)}")
        return value
    return rule


def _hashable(value):
    """``value`` once ``hash`` takes it, as an image id must: it keys a dict."""
    hash(value)
    return value


_RULES = {int: _integer, float: _number}


def _bounded(kind, low, high=math.inf):
    """The rule of ``kind`` (``int`` or ``float``) for a value in [low, high]."""
    def rule(value):
        value = _RULES[kind](value)
        if not low <= value <= high:
            raise ValueError(f"must lie in [{low}, {high}], got {value!r}")
        return value
    return rule


def _span(kind):
    """The rule of ``kind`` for a (low, high) pair with 0 < low <= high."""
    def rule(value):
        low, high = map(_RULES[kind], value)
        if not 0 < low <= high:
            raise ValueError(f"must be a pair with 0 < low <= high, got {value!r}")
        return low, high
    return rule


def _argument(name: str, kind, value, what: str = "argument"):
    """``value`` checked by its ``kind``: ``int``, ``float`` or another rule,
    whose result is returned, or ``(kind,)`` for a tuple of such items. A refused
    value is a ValueError: "bad argument 'name': ...", with ``what`` for "argument"."""
    each = isinstance(kind, tuple)
    rule = _RULES.get(kind[0], kind[0]) if each else _RULES.get(kind, kind)
    try:
        return tuple(map(rule, value)) if each else rule(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad {what} {name!r}: {exc}") from exc


def _fields(obj, **kinds) -> None:
    """Store each named field of the dataclass ``obj`` checked as ``_argument`` checks it."""
    for name, kind in kinds.items():
        object.__setattr__(obj, name, _argument(name, kind, getattr(obj, name), "field"))
