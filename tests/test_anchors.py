import math
import re

import numpy as np
import pytest

from boxmatch.anchors import (
    AnchorGridSpec,
    LevelSpec,
    generate_anchors,
    generate_points,
    level_scale_ranges,
)
from oracles import brute_force_grid

SINGLE_LEVEL = AnchorGridSpec(320, 320, (LevelSpec(160, (64.0,), (1.0,)),))
# a non-square image with two levels, several scales and ratios
MULTI_LEVEL = AnchorGridSpec(96, 64, (
    LevelSpec(8, (16.0, 24.0), (1.0, 2.0, 0.5)),
    LevelSpec(32, (48.0,), (1.0, 3.0)),
))


class TestSpecs:
    def test_invalid_level(self):
        with pytest.raises(ValueError):
            LevelSpec(stride=0, scales=(32,))
        with pytest.raises(ValueError):
            LevelSpec(stride=8, scales=())
        with pytest.raises(ValueError):
            LevelSpec(stride=8, scales=(32,), aspect_ratios=(-1.0,))

    def test_stride_must_divide_image(self):
        with pytest.raises(ValueError, match="not divisible"):
            AnchorGridSpec(300, 300, (LevelSpec(32, (64.0,)),))

    def test_at_least_one_level(self):
        with pytest.raises(ValueError):
            AnchorGridSpec(320, 320, ())


class TestGenerateAnchors:
    def test_single_coarse_level(self):
        aset = generate_anchors(SINGLE_LEVEL)
        assert len(aset) == 4
        x0, y0, x1, y1 = aset.array.T
        centers = list(zip((0.5 * (x0 + x1)).tolist(), (0.5 * (y0 + y1)).tolist()))
        assert centers == [(80, 80), (240, 80), (80, 240), (240, 240)]
        assert np.all(x1 - x0 == 64)
        assert np.all(y1 - y0 == 64)

    def test_count_formula(self):
        spec = AnchorGridSpec(320, 320, (LevelSpec(32, (64.0, 128.0), (1.0, 2.0, 0.5)),))
        assert len(generate_anchors(spec)) == 10 * 10 * 2 * 3 == 600

    def test_ratio_preserves_area(self):
        spec = AnchorGridSpec(320, 320, (LevelSpec(160, (64.0,), (2.0,)),))
        x0, y0, x1, y1 = generate_anchors(spec).array[0]
        width, height = x1 - x0, y1 - y0
        assert width == pytest.approx(64 * math.sqrt(2))
        assert height == pytest.approx(64 / math.sqrt(2))
        assert width * height == pytest.approx(64**2, rel=1e-12)

    def test_deterministic(self):
        spec = AnchorGridSpec()
        a, b = generate_anchors(spec), generate_anchors(spec)
        assert np.array_equal(a.array, b.array)
        assert a.level_offsets == b.level_offsets

    def test_numpy_scalar_shapes_give_the_float_anchors(self):
        # a level keeps its numbers as given; the anchors are float64 all the same
        level = LevelSpec(np.int64(8), (np.float32(16.0), 24), (np.float32(2.0), 1))
        expected = LevelSpec(8, (16.0, 24.0), (2.0, 1.0))
        anchors = generate_anchors(AnchorGridSpec(32, 32, (level,))).array
        assert np.array_equal(anchors, generate_anchors(AnchorGridSpec(32, 32, (expected,))).array)

    def test_level_offsets_partition(self):
        aset = generate_anchors(AnchorGridSpec())
        assert aset.level_offsets[0][0] == 0
        for (_, end), (start, _) in zip(aset.level_offsets, aset.level_offsets[1:]):
            assert end == start
        assert aset.level_offsets[-1][1] == len(aset)
        # default layout: 40*40*3 + 20*20*6 + 10*10*3
        assert len(aset) == 4800 + 2400 + 300

    def test_centers_inside_image_even_when_boxes_spill(self):
        x0, y0, x1, y1 = generate_anchors(AnchorGridSpec()).array.T
        for center in (0.5 * (x0 + x1), 0.5 * (y0 + y1)):
            assert np.all((0 < center) & (center < 320))
        spills = (x0 < 0) | (y0 < 0) | (x1 > 320) | (y1 > 320)
        assert spills.any()  # anchors are not clipped


class TestGeneratePoints:
    def test_single_coarse_level(self):
        pset = generate_points(SINGLE_LEVEL)
        assert pset.xy.tolist() == [[80, 80], [240, 80], [80, 240], [240, 240]]

    def test_count_and_position(self):
        spec = AnchorGridSpec()
        pset = generate_points(spec)
        assert len(pset) == 40 * 40 + 20 * 20 + 10 * 10
        assert np.all(pset.xy > 0)
        assert np.all(pset.xy[:, 0] < spec.image_width)
        assert np.all(pset.xy[:, 1] < spec.image_height)

    def test_scale_ranges_partition_sizes(self):
        ranges = level_scale_ranges(AnchorGridSpec())
        assert ranges == ((0.0, 64.0), (64.0, 256.0), (256.0, math.inf))
        # every positive size falls in exactly one range
        for size in (1, 63.9, 64, 200, 256, 1e6):
            hits = [lo <= size < hi for lo, hi in ranges]
            assert sum(hits) == 1

    def test_smallest_scales_that_decrease_are_refused(self):
        # ranges ((0, 128), (128, 32), (32, inf)): a 40-px object would sit on levels 0 and 2
        spec = AnchorGridSpec(64, 64, (
            LevelSpec(8, (64.0,)), LevelSpec(16, (128.0, 256.0)), LevelSpec(32, (32.0,))
        ))
        message = "the levels' smallest scales must not decrease, got [64.0, 128.0, 32.0]"
        for call in (level_scale_ranges, generate_points):
            with pytest.raises(ValueError, match=re.escape(message)):
                call(spec)
        assert len(generate_anchors(spec)) == 64 + 16 * 2 + 4

    def test_equal_smallest_scales_leave_a_level_empty(self):
        spec = AnchorGridSpec(64, 64, (
            LevelSpec(8, (32.0,)), LevelSpec(16, (64.0,)), LevelSpec(32, (64.0, 128.0))
        ))
        assert level_scale_ranges(spec) == ((0.0, 64.0), (64.0, 64.0), (64.0, math.inf))

    def test_points_carry_level_metadata(self):
        pset = generate_points(AnchorGridSpec())
        first_l1 = pset.level_offsets[1][0]
        assert pset.point_levels[first_l1] == 1
        assert pset.point_strides[first_l1] == 16
        assert pset.scale_ranges[pset.point_levels[first_l1]] == (64.0, 256.0)


@pytest.mark.parametrize("spec", [AnchorGridSpec(), MULTI_LEVEL, SINGLE_LEVEL])
def test_grids_equal_the_nested_loop_oracle(spec):
    anchors, xy, levels, strides = brute_force_grid(spec)
    assert generate_anchors(spec).array.tolist() == anchors
    pset = generate_points(spec)
    assert pset.xy.tolist() == xy
    assert pset.point_levels.tolist() == levels
    assert pset.point_strides.tolist() == strides
