import numpy as np
import pytest

from boxmatch.anchors import AnchorGridSpec, LevelSpec, generate_points
from boxmatch.assignment import NEGATIVE
from boxmatch.fcos import (
    centerness,
    fcos_assign_original,
    fcos_classify_to_localize,
    fcos_localize_to_classify,
)
from boxmatch.geometry import Box
from boxmatch.simulator import SceneSpec, synth_scene

SINGLE_COARSE = AnchorGridSpec(320, 320, (LevelSpec(160, (64.0,), (1.0,)),))
SINGLE_32 = AnchorGridSpec(320, 320, (LevelSpec(32, (64.0,), (1.0,)),))
DEFAULT = AnchorGridSpec()

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

    def test_objects_required(self):
        points = generate_points(SINGLE_32)
        with pytest.raises(ValueError):
            fcos_assign_original(points, [])


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
