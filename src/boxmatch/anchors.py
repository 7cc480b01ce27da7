"""Deterministic multi-level anchor grids and per-pixel point grids.

Anchor ordering is fixed: levels in spec order, then grid rows top-to-bottom,
columns left-to-right, then scale, then aspect ratio. Anchors are not clipped
to the image; their centers always lie inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, pairwise

import numpy as np

from .geometry import _bounded, _fields


@dataclass(frozen=True)
class LevelSpec:
    """One detection level: grid stride plus the anchor shapes placed per cell.

    An anchor with scale ``s`` and aspect ratio ``r`` has width ``s * sqrt(r)``
    and height ``s / sqrt(r)``, so its area is ``s**2`` for every ratio.
    Checks its number fields.
    """

    stride: int
    scales: tuple[float, ...]
    aspect_ratios: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        _fields(self, stride=_bounded(int, 1), scales=(float,), aspect_ratios=(float,))
        for name, values in (("scales", self.scales), ("aspect_ratios", self.aspect_ratios)):
            if not values or min(values) <= 0:
                raise ValueError(f"{name} must be non-empty and positive, got {values}")


def _levels(value) -> tuple:
    """``value`` as a tuple once it holds at least one LevelSpec and nothing else."""
    levels = tuple(value)
    if not levels or not all(isinstance(level, LevelSpec) for level in levels):
        raise ValueError(f"must be a non-empty sequence of LevelSpec, got {value!r}")
    return levels


# Compact stand-in for an SSD/RFBNet-style layout on a 320x320 input; any
# other layout can be supplied through AnchorGridSpec.
DEFAULT_LEVELS = (
    LevelSpec(stride=8, scales=(32.0,), aspect_ratios=(1.0, 2.0, 0.5)),
    LevelSpec(stride=16, scales=(64.0, 128.0), aspect_ratios=(1.0, 2.0, 0.5)),
    LevelSpec(stride=32, scales=(256.0,), aspect_ratios=(1.0, 2.0, 0.5)),
)


@dataclass(frozen=True)
class AnchorGridSpec:
    """Image resolution plus the ordered list of detection levels; checks its number fields."""

    image_width: int = 320
    image_height: int = 320
    levels: tuple[LevelSpec, ...] = DEFAULT_LEVELS

    def __post_init__(self):
        _fields(self, image_width=_bounded(int, 1), image_height=_bounded(int, 1), levels=_levels)
        for level in self.levels:
            if self.image_width % level.stride or self.image_height % level.stride:
                raise ValueError(
                    f"image {self.image_width}x{self.image_height} is not divisible "
                    f"by stride {level.stride}"
                )


@dataclass
class AnchorSet:
    """Packed (N, 4) anchor array plus per-level index ranges."""

    level_offsets: tuple[tuple[int, int], ...]
    array: np.ndarray

    def __len__(self) -> int:
        return self.array.shape[0]


@dataclass
class PointSet:
    """Packed point arrays in AnchorSet ordering: (P, 2) centers, each point's
    level index and stride, and each level's object-size range. A level's
    points are the row-major grid of its cell centers, as ``fcos`` reads them."""

    level_offsets: tuple[tuple[int, int], ...]
    xy: np.ndarray
    point_levels: np.ndarray
    point_strides: np.ndarray
    scale_ranges: tuple[tuple[float, float], ...]

    def __len__(self) -> int:
        return self.xy.shape[0]


def _level_centers(spec: AnchorGridSpec, level: LevelSpec) -> tuple[np.ndarray, np.ndarray]:
    return ((np.arange(spec.image_width // level.stride, dtype=np.float64) + 0.5) * level.stride,
            (np.arange(spec.image_height // level.stride, dtype=np.float64) + 0.5) * level.stride)


def generate_anchors(spec: AnchorGridSpec) -> AnchorSet:
    """Generate the full anchor list for a grid spec.

    The total count is sum over levels of
    (W/stride) * (H/stride) * len(scales) * len(aspect_ratios). The (N, 4)
    array is coordinate-major, the transpose of a C-contiguous (4, N) array.
    """
    sizes = [len(level.scales) * len(level.aspect_ratios) * (spec.image_width // level.stride)
             * (spec.image_height // level.stride) for level in spec.levels]
    offsets = tuple(pairwise(accumulate(sizes, initial=0)))
    boxes = np.empty((4, offsets[-1][1]))  # each level writes its slice of it in place
    for level, (begin, end) in zip(spec.levels, offsets):
        cx, cy = _level_centers(spec, level)
        # float64 shapes from any scale a level keeps (a numpy float32 one too)
        shapes = [(float(s), math.sqrt(r)) for s in level.scales for r in level.aspect_ratios]
        w = np.asarray([s * root for s, root in shapes])
        h = np.asarray([s / root for s, root in shapes])
        # broadcast into (4, rows, cols, shapes); the C order of the view keeps the
        # row -> column -> (scale, ratio) ordering
        gx, gy = cx[None, :, None], cy[:, None, None]
        view = boxes[:, begin:end].reshape(4, cy.size, cx.size, w.size)
        view[0], view[1], view[2], view[3] = gx - w / 2, gy - h / 2, gx + w / 2, gy + h / 2
    return AnchorSet(level_offsets=offsets, array=boxes.T)


def level_scale_ranges(spec: AnchorGridSpec) -> tuple[tuple[float, float], ...]:
    """Half-open [lower, upper) object-size ranges, one per level.

    Level boundaries come from consecutive level scales: level l's upper bound
    is the smallest scale of level l+1; the first lower bound is 0 and the last
    upper bound is infinite. An object belongs to the level whose range
    contains max(width, height); the levels' smallest scales must not decrease.
    """
    smallest = [min(level.scales) for level in spec.levels]
    if smallest != sorted(smallest):
        raise ValueError(f"the levels' smallest scales must not decrease, got {smallest}")
    return tuple(zip([0.0] + smallest[1:], smallest[1:] + [math.inf]))


def generate_points(spec: AnchorGridSpec) -> PointSet:
    """Generate one point per grid cell per level, at cell centers."""
    xy = []
    for level in spec.levels:
        gx, gy = np.meshgrid(*_level_centers(spec, level))  # (rows, cols): rows, then columns
        xy.append(np.stack([gx.ravel(), gy.ravel()], axis=1))
    sizes = [len(part) for part in xy]
    return PointSet(
        level_offsets=tuple(pairwise(accumulate(sizes, initial=0))),
        xy=np.concatenate(xy, axis=0),
        point_levels=np.repeat(np.arange(len(sizes), dtype=np.int64), sizes),
        point_strides=np.repeat([float(level.stride) for level in spec.levels], sizes),
        scale_ranges=level_scale_ranges(spec),
    )
