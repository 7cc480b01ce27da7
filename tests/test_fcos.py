import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from boxmatch import assignment, fcos
from boxmatch.anchors import AnchorGridSpec, LevelSpec, generate_points
from boxmatch.assignment import NEGATIVE, STRATEGIES, amplified_iou
from boxmatch.fcos import (
    centerness,
    fcos_assign_original,
    fcos_classify_to_localize,
    fcos_localize_to_classify,
)
from boxmatch.geometry import Box, boxes_to_array
from boxmatch.simulator import SceneSpec, synth_scene
from oracles import brute_force_fcos_original, brute_force_point_guided, brute_force_point_pool
from strategy_rows import point_row, served_objects

SINGLE_COARSE = AnchorGridSpec(320, 320, (LevelSpec(160, (64.0,), (1.0,)),))
SINGLE_32 = AnchorGridSpec(320, 320, (LevelSpec(32, (64.0,), (1.0,)),))
DEFAULT = AnchorGridSpec()
# four points, (16, 16), (48, 16), (16, 48) and (48, 48), all on one level
FOUR_POINTS = generate_points(AnchorGridSpec(64, 64, (LevelSpec(32, (16.0,)),)))
# 256 + 64 + 16 points; level ranges [0, 64), [64, 128) and [128, inf)
THREE_LEVELS = AnchorGridSpec(
    128, 128, (LevelSpec(8, (32.0,)), LevelSpec(16, (64.0,)), LevelSpec(32, (128.0,)))
)

# (40, 40, 120, 90) on the stride-32 grid contains six points; its center
# region at radius 0.55 contains two, at radius 0.5 only the (80, 80) point
SIX_POINT_BOX = Box(40, 40, 120, 90)


class TestCenterness:
    def test_box_center_is_one(self):
        assert centerness((5, 5), Box(0, 0, 10, 10)) == 1.0

    def test_off_center(self):
        # l=r=5, t=2.5, b=7.5 -> sqrt(2.5 / 7.5)
        assert centerness((5, 2.5), Box(0, 0, 10, 10)) == pytest.approx(0.57735, abs=1e-5)

    def test_approaches_zero_near_edge(self):
        values = [centerness((5, eps), Box(0, 0, 10, 10)) for eps in (1.0, 0.1, 0.01)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.05

    # the scalar goes through the row-wise formula of the pool centerness: it keeps the
    # bits of the scalar formula, on float and integer points alike
    @given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)) | st.tuples(
        st.floats(0, 10), st.floats(0.5, 10.25)))
    @example((5, 5))
    @example((1, 9))
    @example((0.1, 9.9))
    def test_equals_the_scalar_formula(self, point):
        box = Box(0, 0.5, 10, 10.25) if isinstance(point[0], float) else Box(-51, -51, 52, 51)
        x, y = point
        assume(box.x_min < x < box.x_max and box.y_min < y < box.y_max)
        lr = min(x - box.x_min, box.x_max - x) / max(x - box.x_min, box.x_max - x)
        tb = min(y - box.y_min, box.y_max - y) / max(y - box.y_min, box.y_max - y)
        assert centerness(point, box) == math.sqrt(lr * tb)

    @pytest.mark.parametrize("point", [(0, 5), (10, 5), (5, 0), (11, 5), (-1, 5)])
    def test_boundary_and_outside_rejected(self, point):
        with pytest.raises(ValueError):
            centerness(point, Box(0, 0, 10, 10))


class TestOriginalAssignment:
    def test_centered_object_single_point(self):
        # the box corners coincide with the 4 grid points; half-open
        # membership keeps exactly the top-left one
        points = generate_points(SINGLE_COARSE)
        result = fcos_assign_original(points, [Box(80, 80, 240, 240)])
        assert result.classification_labels.tolist() == [0, NEGATIVE, NEGATIVE, NEGATIVE]
        assert result.per_object_counts == [1]

    def test_classification_equals_localization(self):
        points = generate_points(SINGLE_32)
        result = fcos_assign_original(points, [SIX_POINT_BOX])
        assert np.array_equal(result.classification_labels, result.localization_labels)

    def test_nested_boxes_go_to_smaller(self):
        points = generate_points(SINGLE_32)
        objects = [Box(40, 40, 280, 280), Box(100, 100, 180, 180)]
        result = fcos_assign_original(points, objects)
        for i, (x, y) in enumerate(points.xy.tolist()):
            if 100 <= x < 180 and 100 <= y < 180:
                assert result.classification_labels[i] == 1
        assert all(c >= 1 for c in result.per_object_counts)

    def test_object_without_grid_point_gets_fallback(self):
        points = generate_points(SINGLE_32)
        result = fcos_assign_original(points, [Box(33.2, 33.2, 38.8, 38.8)])
        assert result.per_object_counts == [1]

    def test_center_sampling_shrinks_positives(self):
        points = generate_points(SINGLE_32)
        full = fcos_assign_original(points, [SIX_POINT_BOX])
        sampled = fcos_assign_original(points, [SIX_POINT_BOX], center_sampling_radius=0.55)
        assert full.per_object_counts == [6]
        assert sampled.per_object_counts == [2]

    def test_scale_range_filters_levels(self):
        points = generate_points(DEFAULT)
        # max side 200 falls in the middle level's [64, 256) range
        result = fcos_assign_original(points, [Box(60, 60, 260, 210)])
        positive = np.flatnonzero(result.classification_labels == 0)
        assert positive.size > 0
        assert set(points.point_levels[positive].tolist()) == {1}

    def test_single_object_positives_are_the_candidate_set(self):
        # without center sampling, positives = in-box, scale-matched points
        points = generate_points(DEFAULT)
        box = Box(60.3, 71.8, 180.9, 170.2)  # max side 120.6 -> level 1
        result = fcos_assign_original(points, [box])
        expected = {
            i
            for i, ((x, y), level) in enumerate(zip(points.xy.tolist(), points.point_levels))
            if level == 1
            and box.x_min <= x < box.x_max
            and box.y_min <= y < box.y_max
        }
        assert set(np.flatnonzero(result.classification_labels == 0).tolist()) == expected

    def test_image_without_objects_is_background(self):
        points = generate_points(SINGLE_32)
        n = len(points)
        empty = np.zeros((n, 0))
        results = [
            fcos_assign_original(points, []),
            *point_row("fcos", points, [], empty, empty),
            *point_row("fcos-mutual", points, [], empty, empty),
        ]
        for result in results:
            assert result.classification_labels.tolist() == [NEGATIVE] * n
            assert result.localization_labels.tolist() == [NEGATIVE] * n
            assert result.per_object_counts == []
            assert result.warnings == []
        for guided in (
            fcos_localize_to_classify(points, [], empty),
            fcos_classify_to_localize(points, [], empty),
        ):
            assert guided.labels.tolist() == [NEGATIVE] * n
            assert guided.premerge_positive_counts == []
            assert guided.warnings == []


class TestPointLocalizeToClassify:
    def test_rank_and_cut(self):
        points = generate_points(SINGLE_32)
        in_box = [
            i
            for i, (x, y) in enumerate(points.xy.tolist())
            if SIX_POINT_BOX.x_min <= x < SIX_POINT_BOX.x_max
            and SIX_POINT_BOX.y_min <= y < SIX_POINT_BOX.y_max
        ]
        iou_regressed = np.zeros((len(points), 1))
        for value, i in zip([0.1, 0.9, 0.5, 0.8], in_box):
            iou_regressed[i, 0] = value
        result = fcos_localize_to_classify(
            points, [SIX_POINT_BOX], iou_regressed, center_sampling_radius=0.55
        )
        picked = np.flatnonzero(result.labels == 0).tolist()
        assert picked == [in_box[1], in_box[3]]
        assert result.premerge_positive_counts == [2]

    def test_identical_ranking_matches_original(self):
        points = generate_points(SINGLE_32)
        original = fcos_assign_original(points, [SIX_POINT_BOX])
        # score in-box points so their order mirrors the original positives
        iou_regressed = np.zeros((len(points), 1))
        iou_regressed[original.classification_labels == 0] = 0.9
        result = fcos_localize_to_classify(points, [SIX_POINT_BOX], iou_regressed)
        assert np.array_equal(result.labels, original.classification_labels)

    def test_count_matches_original_over_random_scenes(self):
        points = generate_points(DEFAULT)
        for seed in range(100):
            scene = synth_scene(SceneSpec(count_range=(1, 4), seed=seed))
            rng = np.random.default_rng(seed)
            iou_regressed = rng.uniform(0, 1, (len(points), len(scene.boxes)))
            original = fcos_assign_original(points, scene.boxes)
            result = fcos_localize_to_classify(points, scene.boxes, iou_regressed)
            assert result.premerge_positive_counts == original.per_object_counts

    def test_outside_points_never_positive(self):
        points = generate_points(DEFAULT)
        for seed in range(30):
            scene = synth_scene(SceneSpec(count_range=(1, 3), seed=seed))
            rng = np.random.default_rng(seed + 999)
            iou_regressed = rng.uniform(0, 1, (len(points), len(scene.boxes)))
            result = fcos_localize_to_classify(points, scene.boxes, iou_regressed)
            for x, y in points.xy[result.labels >= 0].tolist():
                assert any(
                    b.x_min <= x < b.x_max and b.y_min <= y < b.y_max
                    for b in scene.boxes
                )


class TestPointClassifyToLocalize:
    def test_zero_scores_pick_highest_centerness(self):
        points = generate_points(SINGLE_32)
        scores = np.zeros((len(points), 1))
        result = fcos_classify_to_localize(
            points, [SIX_POINT_BOX], scores, center_sampling_radius=0.5
        )
        # n_pos = 1; the (80, 80) point has the highest raw centerness
        picked = np.flatnonzero(result.labels == 0)
        assert points.xy[picked[0]].tolist() == [80.0, 80.0]

    def test_score_amplification_flips_selection(self):
        points = generate_points(SINGLE_32)
        # centerness 0.4364 at (80, 48) vs 0.5 at (80, 80); a 0.9 score
        # amplifies the former to 0.4364**0.55 = 0.634 and flips the pick
        scores = np.zeros((len(points), 1))
        flip_idx = points.xy.tolist().index([80.0, 48.0])
        scores[flip_idx, 0] = 0.9
        result = fcos_classify_to_localize(
            points, [SIX_POINT_BOX], scores, center_sampling_radius=0.5
        )
        picked = np.flatnonzero(result.labels == 0)
        assert picked.tolist() == [flip_idx]

    def test_budget_beyond_the_positive_centerness_takes_the_edge_points(self):
        # (16, 16, 80, 80) holds four points; the three on its left or top
        # edge have centerness 0, so the budget of 4 reaches past the one
        # positive entry, (48, 48), and a second object's pool shares none
        points = generate_points(SINGLE_32)
        boxes = [Box(16, 16, 80, 80), Box(150, 150, 260, 250)]
        scores = np.full((len(points), 2), 0.5)
        original = fcos_assign_original(points, boxes)
        result = fcos_classify_to_localize(points, boxes, scores)
        corners = [[16.0, 16.0], [48.0, 16.0], [16.0, 48.0], [48.0, 48.0]]
        assert points.xy[result.labels == 0].tolist() == corners
        assert result.premerge_positive_counts == original.per_object_counts
        assert result.labels.tolist() == original.localization_labels.tolist()

    def test_amplified_never_below_raw(self):
        rng = np.random.default_rng(8)
        raw = rng.uniform(0.01, 1, 1000)
        scores = rng.uniform(0, 1, 1000)
        amplified = np.power(raw, (2.0 - scores) / 2.0)
        assert np.all(amplified >= raw)

    def test_count_matches_original_over_random_scenes(self):
        points = generate_points(DEFAULT)
        for seed in range(50):
            scene = synth_scene(SceneSpec(count_range=(1, 4), seed=seed))
            rng = np.random.default_rng(seed)
            scores = rng.uniform(0, 1, (len(points), len(scene.boxes)))
            original = fcos_assign_original(points, scene.boxes)
            result = fcos_classify_to_localize(points, scene.boxes, scores)
            assert result.premerge_positive_counts == original.per_object_counts

    def test_sigma_validated(self):
        points = generate_points(SINGLE_32)
        with pytest.raises(ValueError):
            fcos_classify_to_localize(
                points, [SIX_POINT_BOX], np.zeros((len(points), 1)), sigma=1.0
            )


NO_POINT = "object {}: no point available for the positive fallback"


class TestPointFallbacks:
    # both objects hold only the (16, 48) point; the smaller object 0 wins
    # it, and object 1 falls back to the nearest free point, (48, 48)
    SHARED = [Box(12, 36, 22, 49), Box(12, 40, 22, 64)]

    def test_lost_only_positive_is_warned(self):
        original = fcos_assign_original(FOUR_POINTS, self.SHARED)
        assert original.classification_labels.tolist() == [NEGATIVE, NEGATIVE, 0, 1]
        # object 1 wins the shared point on regressed overlap; object 0 can
        # take neither its pool's point nor its original point back
        matrix = np.zeros((4, 2))
        matrix[2] = [0.1, 0.9]
        guided = fcos_localize_to_classify(FOUR_POINTS, self.SHARED, matrix)
        assert guided.labels.tolist() == [NEGATIVE, NEGATIVE, 1, NEGATIVE]
        assert guided.warnings == [NO_POINT.format(0)]
        _, mutual = point_row("fcos-mutual", FOUR_POINTS, self.SHARED, matrix, matrix)
        for labels in (mutual.classification_labels, mutual.localization_labels):
            assert labels.tolist() == [NEGATIVE, NEGATIVE, 1, NEGATIVE]
        assert mutual.warnings == [NO_POINT.format(0)] * 2

    def test_without_a_free_point_the_fallback_takes_a_shared_one(self):
        # object 0 holds all four points; object 1 holds none and every point
        # is equally near its center, so it takes the lowest index
        result = fcos_assign_original(FOUR_POINTS, [Box(0, 0, 64, 64), Box(30, 30, 34, 34)])
        assert result.classification_labels.tolist() == [1, 0, 0, 0]
        assert result.per_object_counts == [3, 1]
        assert result.warnings == []


def lattice_boxes(rng):
    """1-4 boxes on a 4-pixel lattice, so edges fall on point centers and
    sides on level bounds, half the time the first one transposed, and one
    thin box (the only one 6 wide) whose level has no point in it."""
    boxes = []
    for _ in range(int(rng.integers(1, 5))):
        w, h = 4 * rng.integers(1, 33, size=2)
        x = 4 * rng.integers(0, (128 - w) // 4 + 1)
        y = 4 * rng.integers(0, (128 - h) // 4 + 1)
        boxes.append(Box(x, y, x + w, y + h))
    if rng.random() < 0.5:  # the first box transposed: an equal area on shared points
        x, y = boxes[0].x_min, boxes[0].y_min
        boxes.append(Box(x, y, x + boxes[0].height, y + boxes[0].width))
    # 6 wide between two stride-8 centers and under 64 tall: level 0, no pool
    x, y = 8 * int(rng.integers(0, 15)) + 4.5, float(rng.uniform(0, 64))
    boxes.insert(int(rng.integers(0, len(boxes) + 1)), Box(x, y, x + 6.0, y + rng.uniform(8, 60)))
    return boxes


class TestOriginalOracle:
    @pytest.mark.parametrize("radius", [None, 0.5, 1.0])
    def test_matches_brute_force(self, radius):
        points = generate_points(THREE_LEVELS)
        for seed in range(20):
            boxes = lattice_boxes(np.random.default_rng(seed))
            result = fcos_assign_original(points, boxes, center_sampling_radius=radius)
            labels, warnings = brute_force_fcos_original(points, boxes, radius)
            assert result.classification_labels.tolist() == labels
            assert result.warnings == warnings
            # the thin box's pool is empty: its one positive is a fallback's
            thin = next(j for j, box in enumerate(boxes) if box.width == 6.0)
            assert labels.count(thin) == 1

    def test_matches_brute_force_when_points_run_out(self):
        # 1-6 boxes over four points: fallbacks often find no free point,
        # and from five boxes on, sometimes none to take at all
        for seed in range(60):
            rng = np.random.default_rng(seed)
            boxes = []
            for _ in range(int(rng.integers(1, 7))):
                (x0, x1), (y0, y1) = np.sort(rng.uniform(0, 64, (2, 2)), axis=1)
                boxes.append(Box(x0, y0, x1, y1))
            result = fcos_assign_original(FOUR_POINTS, boxes)
            labels, warnings = brute_force_fcos_original(FOUR_POINTS, boxes)
            assert result.classification_labels.tolist() == labels
            assert result.warnings == warnings


@st.composite
def grid_layouts(draw):
    """(points, boxes, radius): 1-3 levels with drawn strides and smallest scales
    (equal scales leave a level's size range empty) on an image of 1-4 cells of the
    coarsest stride per side; 0-7 boxes whose edges mostly lie on the lattice of
    cell centers, some past the image, often two of equal area; and a radius that
    often puts a cell center at exactly radius * stride from a box center."""
    strides = draw(st.lists(st.sampled_from([4, 8, 16, 32]), min_size=1, max_size=3, unique=True))
    strides.sort()
    scales = sorted(draw(st.lists(
        st.sampled_from([6.0, 8.0, 16.0, 24.0, 40.0, 64.0]),
        min_size=len(strides), max_size=len(strides))))
    width, height = (strides[-1] * draw(st.integers(1, 4)) for _ in range(2))
    levels = tuple(LevelSpec(stride, (scale,)) for stride, scale in zip(strides, scales))
    points = generate_points(AnchorGridSpec(width, height, levels))
    step = strides[0] / 2  # every level's centers are odd multiples of its stride / 2

    def coordinates(limit):
        lattice = st.integers(-4, int(limit / step) + 4).map(lambda k: k * step)
        edge = st.one_of(lattice, st.floats(-step, limit + step))
        return sorted(draw(st.lists(edge, min_size=2, max_size=2, unique=True)))

    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        (x0, x1), (y0, y1) = coordinates(width), coordinates(height)
        boxes.append(Box(x0, y0, x1, y1))
    if boxes and draw(st.booleans()):  # an equal area on shared cells, before or after
        x0, y0, x1, y1 = boxes[0].as_tuple()
        x0, y0, x1, y1 = draw(st.sampled_from(  # shifted by a step, or transposed
            [(x0 + step, y0, x1 + step, y1), (x0, y0, x0 + y1 - y0, y0 + x1 - x0)]))
        if x0 < x1 and y0 < y1:  # a sliver's rounding may leave no box
            boxes.insert(draw(st.integers(0, len(boxes))), Box(x0, y0, x1, y1))
    radius = draw(st.sampled_from([None, 0.0, 0.3, 0.5, 1.0, 1.5, 2.5]))
    return points, boxes, radius


def pool_table(pool):
    """The run table of a dense (P, M) pool mask: the flat indices j * P + p of its
    entries in object-major order and the M + 1 bounds of each object's run."""
    return np.flatnonzero(pool.T), np.concatenate([[0], np.cumsum(pool.sum(axis=0))])


class TestPointPoolOracle:
    """The baseline's grid rectangles against the dense (points x objects) tests."""

    @settings(max_examples=300, deadline=None)
    @given(grid_layouts())
    def test_baseline_matches_the_dense_pool(self, layout):
        points, boxes, radius = layout
        base = fcos._original(points, boxes, radius)
        labels, warnings, pool, centerness = brute_force_point_pool(
            points, boxes_to_array(boxes), radius)
        assert base.result.classification_labels.dtype == labels.dtype
        assert base.result.classification_labels.tolist() == labels.tolist()
        assert base.result.per_object_counts == positives(labels, len(boxes))
        assert base.result.warnings == warnings
        runs, bounds = pool_table(pool)
        assert base.pool[0].tolist() == runs.tolist() and base.pool[1].tolist() == bounds.tolist()
        assert base.quality().tobytes() == centerness.tobytes()

    def test_center_sampling_compares_the_distance_to_the_reach(self):
        # |4 - 6.4| is 2.4000000000000004 and 0.3 * 8 is 2.4, so the (4, 4) point is
        # not central to the small box, although 6.4 - 0.3 * 8 rounds to 4.0; it goes
        # to the large box, centered on it, and the small one falls back to the next
        # point of its pool
        points = generate_points(AnchorGridSpec(32, 32, (LevelSpec(8, (16.0,)),)))
        boxes = [Box(-20, -20, 28, 28), Box(0, 0, 12.8, 8)]
        result = fcos_assign_original(points, boxes, center_sampling_radius=0.3)
        assert result.classification_labels[:2].tolist() == [0, 1]
        assert result.per_object_counts == [1, 1]
        labels, warnings, _, _ = brute_force_point_pool(points, boxes_to_array(boxes), 0.3)
        assert result.classification_labels.tolist() == labels.tolist()


TWO_LEVELS = generate_points(
    AnchorGridSpec(64, 64, (LevelSpec(8, (16.0,)), LevelSpec(16, (32.0,))))
)
LATTICE = np.asarray([0.0, 0.0, 0.2, 0.5, 0.9, 1.0])


@st.composite
def lattice_box(draw):
    x0, x1 = sorted(draw(st.lists(st.integers(0, 32), min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(st.integers(0, 32), min_size=2, max_size=2, unique=True)))
    return Box(2 * x0, 2 * y0, 2 * x1, 2 * y1)


@st.composite
def point_inputs(draw):
    """(points, boxes, iou_regressed, classif_scores) on the 4- or 80-point
    grid, with half the matrix cells from a small lattice: shared points,
    objects without a point, ties and images without objects are common."""
    points = draw(st.sampled_from([FOUR_POINTS, TWO_LEVELS]))
    boxes = draw(st.lists(lattice_box(), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = (len(points), len(boxes))
    matrices = [
        np.where(rng.random(shape) < 0.5, rng.choice(LATTICE, shape), rng.random(shape))
        for _ in range(2)
    ]
    return points, boxes, *matrices


@st.composite
def tie_free_point_inputs(draw):
    """point_inputs on the 80-point grid with distinct box areas and
    distinct matrix values, plus an object permutation."""
    area = lambda box: box.width * box.height  # noqa: E731
    boxes = draw(st.lists(lattice_box(), min_size=1, max_size=4, unique_by=area))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    regressed, scores = rng.random((2, len(TWO_LEVELS), len(boxes)))
    return TWO_LEVELS, boxes, regressed, scores, draw(st.permutations(range(len(boxes))))


def run_point_row(strategy, *inputs):
    """The point row's (baseline, result) and the pre-merge counts of every
    ranked selection it made."""
    premerge, real = [], assignment.ranked_selection

    def spy(*args, **kwargs):
        selection = real(*args, **kwargs)
        premerge.append(selection.premerge_positive_counts)
        return selection

    with mock.patch.object(assignment, "ranked_selection", spy):
        return (*point_row(strategy, *inputs), premerge)


def positives(labels, m):
    return np.bincount(labels[labels >= 0], minlength=m).tolist()


# each example runs both rows of the point strategy table
class TestPointStrategyProperties:
    @settings(max_examples=50)
    @given(point_inputs())
    def test_budgets_are_conserved(self, inputs):
        points, boxes = inputs[:2]
        budgets = fcos_assign_original(points, boxes).per_object_counts
        pool_sizes = np.diff(fcos._pool(points, boxes_to_array(boxes))[1][1])
        m = len(boxes)
        for strategy, guided_tasks in (("fcos", 0), ("fcos-mutual", 2)):
            base, result, premerge = run_point_row(strategy, *inputs)
            assert base.per_object_counts == result.per_object_counts == budgets
            assert positives(base.classification_labels, m) == budgets
            assert len(premerge) == guided_tasks
            if np.all(pool_sizes >= budgets):  # every pool holds its budget
                assert premerge == [budgets] * guided_tasks
            for labels in (result.classification_labels, result.localization_labels):
                assert np.all(np.asarray(positives(labels, m)) <= budgets)

    @settings(max_examples=50)
    @given(point_inputs())
    def test_deterministic_and_inputs_untouched(self, inputs):
        pristine = [matrix.copy() for matrix in inputs[2:]]
        for name in STRATEGIES["points"]:
            first = [result.to_json_dict() for result in point_row(name, *inputs)]
            assert [result.to_json_dict() for result in point_row(name, *inputs)] == first
            assert all(np.array_equal(a, b) for a, b in zip(inputs[2:], pristine))

    @settings(max_examples=50)
    @given(point_inputs())
    def test_every_object_has_a_positive_or_a_warning(self, inputs):
        for name in STRATEGIES["points"]:
            for result in point_row(name, *inputs):
                for labels in (result.classification_labels, result.localization_labels):
                    for j in range(len(inputs[1])):
                        assert j in labels or NO_POINT.format(j) in result.warnings

    @settings(max_examples=50)
    @given(tie_free_point_inputs())
    def test_object_permutation_equivariance(self, case):
        points, boxes, regressed, scores, perm = case
        gt = boxes_to_array(boxes)
        # no two objects tie on a shared pool point's amplified centerness
        runs = fcos._pool(points, gt)[1][0]
        amplified = amplified_iou(fcos._centerness_matrix(points.xy, gt, runs), scores, 2.0)
        pool = np.zeros(amplified.T.shape, dtype=bool)
        pool.flat[runs] = True  # the (P, M) mask is pool.T
        pool = pool.T
        pooled = np.sort(np.where(pool, amplified, -1.0 - np.arange(len(boxes))), axis=1)
        assume(np.all(np.diff(pooled, axis=1) != 0))
        permuted = ([boxes[j] for j in perm], regressed[:, perm], scores[:, perm])
        # the fallbacks serve objects in index order: keep them out of play
        with served_objects() as served:
            runs = [
                (point_row(name, points, boxes, regressed, scores)[1],
                 point_row(name, points, *permuted)[1])
                for name in STRATEGIES["points"]
            ]
        assume(not served)
        back = np.asarray(perm)
        for result, permuted_result in runs:
            for task in ("classification_labels", "localization_labels"):
                labels = getattr(permuted_result, task)
                mapped = np.where(labels >= 0, back[np.maximum(labels, 0)], labels)
                assert mapped.tolist() == getattr(result, task).tolist()
            assert permuted_result.per_object_counts == [result.per_object_counts[j] for j in perm]


def check_point_guided(points, boxes, regressed, scores, radius=None):
    """The two guided point functions, and the fcos-mutual row without a radius,
    against ``brute_force_point_guided``."""
    gt, sigma = boxes_to_array(boxes), 2.0
    l2c = fcos_localize_to_classify(points, boxes, regressed, radius)
    expected = brute_force_point_guided(points, gt, regressed, scores, sigma, True, False, radius)
    assert (l2c.labels.tolist(), l2c.warnings) == (expected["classification"], expected["warnings"])
    c2l = fcos_classify_to_localize(points, boxes, scores, sigma, radius)
    expected = brute_force_point_guided(points, gt, regressed, scores, sigma, False, True, radius)
    assert (c2l.labels.tolist(), c2l.warnings) == (expected["localization"], expected["warnings"])
    if radius is None:
        mutual = point_row("fcos-mutual", points, boxes, regressed, scores)[1]
        expected = brute_force_point_guided(points, gt, regressed, scores, sigma, True, True)
        assert {
            "classification": mutual.classification_labels.tolist(),
            "localization": mutual.localization_labels.tolist(),
            "counts": mutual.per_object_counts,
            "warnings": mutual.warnings,
        } == expected


class TestPointGuidedOracle:
    """The guided point paths against ``brute_force_point_guided``: pool baseline,
    per-object ranking over the pool, merge and rescues, by plain loops."""

    @settings(max_examples=100)
    @given(point_inputs(), st.sampled_from([None, None, 0.0, 1.5]))
    def test_matches_the_oracle(self, inputs, radius):
        check_point_guided(*inputs, radius)

    @pytest.mark.parametrize("boxes", [
        TestPointFallbacks.SHARED,
        # object 1's pool is empty: each task clamps its budget, then rescues it
        [Box(0, 0, 64, 64), Box(30, 30, 34, 34)],
        # equal pools: every tied claim goes to object 0
        [Box(0, 0, 64, 64), Box(0, 0, 64, 64)],
    ], ids=["shared", "empty-pool", "equal-pools"])
    def test_four_point_scenes_match_the_oracle(self, boxes):
        shape = (len(FOUR_POINTS), len(boxes))
        shared = np.zeros(shape)
        shared[2] = [0.1, 0.9]  # object 1 wins the shared point
        matrices = [np.zeros(shape), np.full(shape, 0.5), shared,
                    np.random.default_rng(0).random(shape)]
        for regressed in matrices:
            for scores in matrices:
                check_point_guided(FOUR_POINTS, boxes, regressed, scores)


def dense_centerness(xy, gt, runs):
    """Centerness of every point against every box, pool or not; 0 for points
    not strictly inside."""
    left, right = xy[:, 0:1] - gt[:, 0], gt[:, 2] - xy[:, 0:1]
    top, bottom = xy[:, 1:2] - gt[:, 1], gt[:, 3] - xy[:, 1:2]
    inside = (left > 0) & (right > 0) & (top > 0) & (bottom > 0)
    lr = np.minimum(left, right) / np.maximum(left, right)
    tb = np.minimum(top, bottom) / np.maximum(top, bottom)
    return np.where(inside, np.sqrt(np.clip(lr * tb, 0.0, None)), 0.0)


class TestPoolCenterness:
    """Centerness is computed on the pool only: ranking, merge and rescue
    never read it elsewhere, so the labels equal those of dense centerness."""

    @given(point_inputs())
    def test_pool_entries_equal_dense_and_the_rest_is_zero(self, inputs):
        points, boxes = inputs[:2]
        gt = boxes_to_array(boxes)
        runs = fcos._pool(points, gt)[1][0]
        pooled = fcos._centerness_matrix(points.xy, gt, runs).T.ravel()  # flat: j * P + p
        dense = dense_centerness(points.xy, gt, runs).T.ravel()
        assert pooled[runs].tobytes() == dense[runs].tobytes()
        assert not np.any(np.delete(pooled, runs))

    @settings(max_examples=50)
    @given(point_inputs())
    def test_guided_labels_equal_those_of_dense_centerness(self, inputs):
        points, boxes, _, scores = inputs

        def results():
            c2l = fcos_classify_to_localize(points, boxes, scores)
            mutual = point_row("fcos-mutual", *inputs)[1]
            return (c2l.labels.tolist(), c2l.premerge_positive_counts, c2l.warnings,
                    mutual.to_json_dict())

        pooled = results()
        with mock.patch.object(fcos, "_centerness_matrix", dense_centerness):
            assert results() == pooled


def one_matrix_row(name):
    return lambda points, boxes, matrix: point_row(name, points, boxes, matrix, matrix)


# each point function with the inputs (points, boxes, matrix), and how many
# times it may compute centerness: only the classify-to-localize paths need it
POINT_CALLS = {
    "original": (lambda points, boxes, matrix: fcos_assign_original(points, boxes), 0),
    "l2c": (lambda points, boxes, matrix: fcos_localize_to_classify(points, boxes, matrix), 0),
    "c2l": (lambda points, boxes, matrix: fcos_classify_to_localize(points, boxes, matrix), 1),
    "fcos": (one_matrix_row("fcos"), 0),
    "fcos-mutual": (one_matrix_row("fcos-mutual"), 1),
}


# a pool run holds its zeros: no point call builds runs of the positive entries, and
# every ranking it makes is told of no zero tail
@pytest.mark.parametrize("name", POINT_CALLS)
def test_point_functions_do_no_dead_work(name):
    call, centerness_runs = POINT_CALLS[name]
    points, boxes = generate_points(SINGLE_32), [SIX_POINT_BOX, Box(150, 150, 260, 250)]
    matrix = np.full((len(points), len(boxes)), 0.5)
    with (mock.patch.object(fcos, "_pool", wraps=fcos._pool) as pools,
          mock.patch.object(fcos, "_centerness_matrix", wraps=fcos._centerness_matrix) as quality,
          mock.patch.object(assignment, "_runs", wraps=assignment._runs) as runs,
          mock.patch.object(assignment, "_ranking", wraps=assignment._ranking) as rankings):
        call(points, boxes, matrix)
    assert (pools.call_count, quality.call_count, runs.call_count) == (1, centerness_runs, 0)
    assert all(ranking.args[3] is None for ranking in rankings.call_args_list)


# the three public point functions, each called as (points, objects, matrix, radius)
POINT_FUNCTIONS = {
    "original": lambda points, objects, matrix, radius: fcos_assign_original(
        points, objects, radius),
    "l2c": lambda points, objects, matrix, radius: fcos_localize_to_classify(
        points, objects, matrix, radius),
    "c2l": lambda points, objects, matrix, radius: fcos_classify_to_localize(
        points, objects, matrix, center_sampling_radius=radius),
}


def outcome(result):
    """Labels, counts and warnings of an Assignment or a DynamicLabels."""
    if hasattr(result, "to_json_dict"):
        return result.to_json_dict()
    return result.labels.tolist(), result.premerge_positive_counts, result.warnings


class TestPointInputs:
    """The point functions check their objects and radius at one boundary."""

    @pytest.mark.parametrize("radius", [np.nan, -1.0, np.inf, "a", True])
    @pytest.mark.parametrize("name", POINT_FUNCTIONS)
    def test_a_bad_radius_is_refused(self, name, radius):
        points = generate_points(SINGLE_32)
        matrix = np.full((len(points), 1), 0.5)
        with pytest.raises(ValueError, match="bad argument 'center_sampling_radius'"):
            POINT_FUNCTIONS[name](points, [SIX_POINT_BOX], matrix, radius)

    @settings(max_examples=50)
    @given(point_inputs(), st.sampled_from([None, 0.0, 1.5]))
    def test_array_objects_label_as_boxes_do(self, inputs, radius):
        points, boxes, regressed, scores = inputs
        array = boxes_to_array(boxes)
        for call in POINT_FUNCTIONS.values():
            assert outcome(call(points, array, scores, radius)) == outcome(
                call(points, boxes, scores, radius))
        for name in STRATEGIES["points"]:
            assert [outcome(r) for r in point_row(name, points, array, regressed, scores)] == [
                outcome(r) for r in point_row(name, points, boxes, regressed, scores)]
