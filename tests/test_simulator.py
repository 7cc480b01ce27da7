import hashlib
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxmatch import fcos, simulator
from boxmatch.anchors import AnchorGridSpec, LevelSpec, generate_anchors, generate_points
from boxmatch.assignment import STRATEGIES, MatchingConfig, mutual_guidance_assign, static_assign
from boxmatch.evaluation import Detections
from boxmatch.fcos import fcos_assign_original, fcos_localize_to_classify
from boxmatch.geometry import Box, boxes_to_array, iou, pairwise_iou
from boxmatch.simulator import (
    GAIN_CURVES,
    Scene,
    SceneSpec,
    TrajectoryConfig,
    detections_from_snapshot,
    run_trajectory,
    synth_point_predictions,
    synth_predictions,
    synth_scene,
)
from oracles import brute_force_detections
from strategy_rows import anchor_row, point_row

# a lighter grid keeps the per-test trajectories snappy
GRID = AnchorGridSpec(320, 320, (
    LevelSpec(16, (48.0,), (1.0, 2.0, 0.5)),
    LevelSpec(32, (96.0, 160.0), (1.0, 2.0, 0.5)),
))
ANCHORS = generate_anchors(GRID)
POINTS = generate_points(GRID)
# every strategy run_trajectory accepts, with the grid it labels
GRID_STRATEGIES = [(ANCHORS, name) for name in [*STRATEGIES["anchors"], "l2c-fixed"]] + [
    (POINTS, name) for name in STRATEGIES["points"]
]
GRID_IDS = [name for _, name in GRID_STRATEGIES]
MISALIGNED = TrajectoryConfig(
    misalignment_fraction=0.3, localization_gain="sqrt", score_gain="quadratic", noise=0.1
)
MISALIGNED_SCENE = synth_scene(SceneSpec(count_range=(3, 5), seed=11))


class TestSynthScene:
    def test_deterministic(self):
        spec = SceneSpec(seed=13)
        a, b = synth_scene(spec), synth_scene(spec)
        assert a.boxes == b.boxes
        assert a.class_ids == b.class_ids

    def test_single_object_repeats(self):
        spec = SceneSpec(count_range=(1, 1), seed=5)
        assert synth_scene(spec).boxes == synth_scene(spec).boxes

    def test_pairwise_overlap_cap(self):
        spec = SceneSpec(count_range=(3, 3), max_pairwise_iou=0.2, seed=2)
        scene = synth_scene(spec)
        for i, a in enumerate(scene.boxes):
            for b in scene.boxes[i + 1 :]:
                assert iou(a, b) <= 0.2

    def test_exact_size_range(self):
        spec = SceneSpec(size_range=(32.0, 32.0), seed=9)
        scene = synth_scene(spec)
        for box in scene.boxes:
            assert box.width == pytest.approx(32.0)
            assert box.height == pytest.approx(32.0)

    def test_boxes_inside_image(self):
        for seed in range(20):
            scene = synth_scene(SceneSpec(seed=seed))
            for box in scene.boxes:
                assert 0 <= box.x_min and box.x_max <= scene.image_width
                assert 0 <= box.y_min and box.y_max <= scene.image_height

    def test_impossible_placement_errors(self):
        # five near-image-sized objects cannot avoid overlapping
        spec = SceneSpec(count_range=(5, 5), size_range=(300.0, 300.0),
                         max_pairwise_iou=0.01, seed=0)
        with pytest.raises(RuntimeError, match="could not place"):
            synth_scene(spec)

    def test_size_range_must_fit(self):
        with pytest.raises(ValueError):
            SceneSpec(size_range=(32.0, 400.0))

    @pytest.mark.parametrize("cap", ["0.2", 1.5, -0.1, float("nan"), True, [0.2]])
    def test_overlap_cap_must_be_none_or_in_the_unit_interval(self, cap):
        with pytest.raises(ValueError, match="max_pairwise_iou"):
            SceneSpec(max_pairwise_iou=cap)

    @pytest.mark.parametrize("cap", [None, 0, 1, 0.2, np.float32(0.5)])
    def test_overlap_cap_accepts_none_and_unit_numbers(self, cap):
        assert SceneSpec(max_pairwise_iou=cap).max_pairwise_iou is cap


class TestScene:
    BOXES = (Box(0, 0, 10, 10), Box(20, 20, 40, 40))

    def test_class_ids_must_match_the_boxes(self):
        # one id for two boxes: the second box would have no class downstream
        with pytest.raises(ValueError, match="class_ids"):
            Scene(320, 320, self.BOXES, (1,))
        with pytest.raises(ValueError, match="class_ids"):
            Scene(320, 320, self.BOXES[:1], (1, 2))

    @pytest.mark.parametrize("bad", [1.0, "1", True, np.bool_(True), None])
    def test_class_ids_must_be_integers(self, bad):
        with pytest.raises(ValueError, match="class_ids"):
            Scene(320, 320, self.BOXES, (0, bad))

    def test_numpy_integers_and_empty_scenes_are_accepted(self):
        assert Scene(320, 320, self.BOXES, (np.int64(2), np.int32(0))).class_ids == (2, 0)
        assert Scene(320, 320, (), ()).boxes == ()


class TestSynthPredictions:
    def test_start_matches_anchors_exactly(self):
        scene = synth_scene(SceneSpec(seed=1))
        snap = synth_predictions(scene, ANCHORS, TrajectoryConfig(), 0.0, seed=1)
        assert np.array_equal(snap.regressed_boxes, ANCHORS.array)
        assert snap.classif_scores.max() < 0.01
        iou_anchor = pairwise_iou(ANCHORS.array, boxes_to_array(scene.boxes))
        assert np.array_equal(snap.iou_regressed, iou_anchor)

    def test_end_reaches_targets_without_noise(self):
        scene = synth_scene(SceneSpec(seed=4))
        snap = synth_predictions(scene, ANCHORS, TrajectoryConfig(noise=0.0), 1.0, seed=4)
        assert snap.iou_regressed.max(axis=1).min() >= 0.99

    def test_mean_overlap_monotone_without_noise(self):
        scene = synth_scene(SceneSpec(seed=6))
        cfg = TrajectoryConfig(noise=0.0)
        means = [
            synth_predictions(scene, ANCHORS, cfg, t, seed=6).iou_regressed.max(axis=1).mean()
            for t in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_improvement_fraction_contract(self):
        scene = synth_scene(SceneSpec(seed=8))
        cfg = TrajectoryConfig(noise=0.05, misalignment_fraction=0.3)
        iou_anchor = pairwise_iou(ANCHORS.array, boxes_to_array(scene.boxes))
        best = np.argmax(iou_anchor, axis=1)
        rows = np.arange(len(ANCHORS))
        for t in (0.2, 0.5, 0.8, 1.0):
            snap = synth_predictions(scene, ANCHORS, cfg, t, seed=8)
            improved = snap.iou_regressed[rows, best] >= iou_anchor[rows, best] - 1e-12
            assert improved.mean() >= 0.9

    def test_deterministic_per_seed_and_t(self):
        scene = synth_scene(SceneSpec(seed=2))
        cfg = TrajectoryConfig()
        a = synth_predictions(scene, ANCHORS, cfg, 0.5, seed=11)
        b = synth_predictions(scene, ANCHORS, cfg, 0.5, seed=11)
        c = synth_predictions(scene, ANCHORS, cfg, 0.5, seed=12)
        assert np.array_equal(a.regressed_boxes, b.regressed_boxes)
        assert np.array_equal(a.classif_scores, b.classif_scores)
        assert not np.array_equal(a.regressed_boxes, c.regressed_boxes)

    def test_injection_creates_confident_poor_localizers(self):
        scene = synth_scene(SceneSpec(seed=3))
        cfg = TrajectoryConfig(misalignment_fraction=0.3)
        snap = synth_predictions(scene, ANCHORS, cfg, 0.8, seed=3)
        best_scores = snap.classif_scores.max(axis=1)
        best_iou = snap.iou_regressed.max(axis=1)
        assert np.any((best_scores >= 0.5) & (best_iou < 0.5))

    # SHA-256 of (regressed_boxes, iou_regressed, classif_scores) bytes for a
    # fixed scene on GRID's anchors at 30% misalignment: any change to the
    # draws, the drifted and dampened rows or the arithmetic moves them
    PINNED = {
        0.0: (
            "a02deb9bf36cd6beb882f4ae41564808d2dd9f537ed80d7c118846433563ae5b",
            "8ad906e74cbcfdd6b4a319c8d47ce4085b06d627e3bed185091cd16c7bac79bc",
            "e19d750c09c65857034cb57d3021349141c001da44d8e310a5281090f9b1f78a",
        ),
        0.37: (
            "5399621ea8471a6b179f1b02a81433b76d8aa070e391359d566352ed4245e5db",
            "4cb578f8f47fec6e056ae3eadee19256e2d8bce18a64793980aede6e7cb6fe20",
            "ab9582394a69a5d8c050cced533dedecfb7ef9c07de62f33b3dc053e4004f46e",
        ),
        0.8: (
            "66aed6a47f5f1a66c631674b616788d9789777478173c9561bc390eeb39c386e",
            "4fe07adf724c2ace45328d8e24f94ccf256c3f9a7e41de4a69d0a56431bc513f",
            "245dbf176e8b616e9d9f823cf536e6069f4494fbaa85f3e9cdc3f513eba91314",
        ),
        1.0: (
            "0bf8269e31bbddda1379be7f140791bd527378252354a96456f6b0c742b8b2cc",
            "7c47f7a92d08c0efd8f8ebab7d0a551ce5f2e5e272fcc898822fa978c1cdd40e",
            "27adbf71dd72571a6e7bd32a88173285f2c10e057a0e45ae20a1e070767ae26c",
        ),
    }

    @pytest.mark.parametrize("t", sorted(PINNED))
    def test_pinned_bytes_misaligned(self, t):
        snapshot = synth_predictions(MISALIGNED_SCENE, ANCHORS, MISALIGNED, t, seed=11)
        arrays = (snapshot.regressed_boxes, snapshot.iou_regressed, snapshot.classif_scores)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
        assert digests == self.PINNED[t]

    # the gains map [0, 1] into [0, 1], IoU <= 1 and the injected scores are
    # gain * 0.95 and gain * 0.05: no clip is needed
    @settings(max_examples=40)
    @given(st.sampled_from(sorted(GAIN_CURVES)), st.sampled_from(sorted(GAIN_CURVES)),
           st.floats(0, 1), st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 3))
    def test_scores_lie_in_the_unit_interval(self, loc_gain, score_gain, t, fraction, seed):
        cfg = TrajectoryConfig(localization_gain=loc_gain, score_gain=score_gain,
                               noise=0.1, misalignment_fraction=fraction)
        snapshot = synth_predictions(MISALIGNED_SCENE, ANCHORS, cfg, t, seed=seed)
        assert 0.0 <= snapshot.classif_scores.min() <= snapshot.classif_scores.max() <= 1.0

    def test_progress_validated(self):
        scene = synth_scene(SceneSpec(seed=0))
        with pytest.raises(ValueError):
            synth_predictions(scene, ANCHORS, TrajectoryConfig(), 1.5, seed=0)


# a scene whose objects are the grid's own boxes: each sample starts at IoU 1
# with its target, so a box that interpolation merely rounds has lost overlap
ON_GRID = AnchorGridSpec(64, 64, (LevelSpec(8, (16.0,), (1.0, 2.0, 0.5)),))


def on_grid_scene(boxes):
    return Scene(64, 64, tuple(Box(*map(float, box)) for box in boxes), (0,) * len(boxes))


def traced_prediction(monkeypatch, predict, grid, scene, cfg):
    """``predict`` at t = 0.3, with the anchor boxes and the snapshot of its one
    ``synth_predictions`` call, and the boxes of each call to ``broadcast_iou``:
    the rows whose overlaps are computed again."""
    built, recomputed = [], []
    real_predict, real_iou = simulator.synth_predictions, simulator.broadcast_iou

    def spy(scene, anchor_set, *args, **kwargs):
        built.append((anchor_set.array, real_predict(scene, anchor_set, *args, **kwargs)))
        return built[-1][1]

    monkeypatch.setattr(simulator, "synth_predictions", spy)
    monkeypatch.setattr(simulator, "broadcast_iou",
                        lambda a, b: recomputed.append(a[:, 0]) or real_iou(a, b))
    getattr(simulator, predict)(scene, grid, cfg, 0.3, seed=11)
    (anchors, snapshot), = built
    return anchors, snapshot, recomputed


@pytest.mark.parametrize("fraction", [0.0, 0.3])
@pytest.mark.parametrize("predict", ["synth_predictions", "synth_point_predictions"])
def test_noisy_predictions_reset_the_anchors_that_lose_overlap(monkeypatch, predict, fraction):
    """At noise 0.5, an anchor whose regressed box would overlap its target less
    keeps its anchor box, and only its row of the matrix is computed again."""
    if predict == "synth_predictions":
        grid = generate_anchors(ON_GRID)
        scene = on_grid_scene(grid.array)
    else:  # a point regresses a square four strides wide
        grid = generate_points(ON_GRID)
        half = 2.0 * grid.point_strides[:, None]
        scene = on_grid_scene(np.hstack([grid.xy - half, grid.xy + half]))
    cfg = TrajectoryConfig(noise=0.5, misalignment_fraction=fraction)
    anchors, snapshot, recomputed = traced_prediction(monkeypatch, predict, grid, scene, cfg)
    regressed, gt, n = snapshot.regressed_boxes, boxes_to_array(scene.boxes), len(anchors)
    assert regressed.shape == (n, 4) and regressed.T.flags.c_contiguous
    assert snapshot.iou_regressed.tobytes() == pairwise_iou(regressed, gt).tobytes()
    iou_anchor = pairwise_iou(anchors, gt)
    rows, best = np.arange(n), np.argmax(iou_anchor, axis=1)
    below = snapshot.iou_regressed[rows, best] < iou_anchor[rows, best]
    # only a drifted anchor, scored gain * 0.95 on its object, falls below its anchor overlap
    gain = GAIN_CURVES[cfg.score_gain](0.3)
    assert np.all(snapshot.classif_scores[below, best[below]] == gain * 0.95)
    assert not below.any() or (fraction and predict == "synth_predictions")
    # each reset row is its own anchor box again; the anchor boxes are distinct
    (reset,) = recomputed
    kept = {box.tobytes() for box in anchors[np.all(regressed == anchors, axis=1)]}
    assert len({box.tobytes() for box in anchors}) == n
    assert len(reset) >= 1 and all(box.tobytes() in kept for box in reset)


class TestTrajectoryConfig:
    def test_curve_names_validated(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(localization_gain="cubic")

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(steps=0)


class TestRunTrajectory:
    def test_dynamic_count_constant(self):
        scene = synth_scene(SceneSpec(seed=21))
        result = run_trajectory(scene, ANCHORS, TrajectoryConfig(), "l2c", seed=21)
        assert len(result.counts) == 10
        assert len(set(result.counts)) == 1

    def test_fixed_thresholds_inflate_counts(self):
        scene = synth_scene(SceneSpec(seed=21))
        result = run_trajectory(scene, ANCHORS, TrajectoryConfig(), "l2c-fixed", seed=21)
        assert result.counts[-1] >= 1.5 * result.counts[0]

    def test_static_independent_of_progress(self):
        scene = synth_scene(SceneSpec(seed=21))
        result = run_trajectory(scene, ANCHORS, TrajectoryConfig(), "static", seed=21)
        assert len(set(result.counts)) == 1

    def test_single_step(self):
        scene = synth_scene(SceneSpec(seed=21))
        result = run_trajectory(scene, ANCHORS, TrajectoryConfig(steps=1), "l2c", seed=21)
        assert len(result.counts) == 1

    def test_unknown_strategy_rejected(self):
        """Unknown names and every name of the other grid are refused by name
        of the grid, with its valid strategies; a point grid once raised
        AttributeError."""
        scene = synth_scene(SceneSpec(seed=21))
        assert [name for g, name in GRID_STRATEGIES if g is ANCHORS] == [
            "static", "l2c", "c2l", "mutual", "l2c-fixed"]
        assert [name for g, name in GRID_STRATEGIES if g is POINTS] == ["fcos", "fcos-mutual"]
        others = [(POINTS if g is ANCHORS else ANCHORS, name) for g, name in GRID_STRATEGIES]
        for grid, strategy in [(ANCHORS, "simota"), (POINTS, "simota"), *others]:
            with pytest.raises(ValueError, match="strategy") as raised:
                run_trajectory(scene, grid, TrajectoryConfig(), strategy, seed=21)
            kind, other = ("points", "anchors") if grid is POINTS else ("anchors", "points")
            message = str(raised.value)
            assert kind in message and other not in message
            assert all(repr(name) in message for g, name in GRID_STRATEGIES if g is grid)

    @pytest.mark.parametrize("grid, strategy", GRID_STRATEGIES, ids=GRID_IDS)
    def test_counts_equal_the_strategy_rows(self, grid, strategy):
        """At every step, the count is the positives of the strategy's row on
        that step's predictions (localization labels for c2l), or of
        static_assign on regressed overlap for l2c-fixed."""
        cfg = replace(MISALIGNED, steps=4)
        matching = MatchingConfig(t_pos=0.6, t_neg=0.3, sigma=3.0)
        for seed, scene in enumerate([MISALIGNED_SCENE, synth_scene(SceneSpec(seed=4))]):
            result = run_trajectory(scene, grid, cfg, strategy, matching, seed=seed)
            assert [step.t for step in result.steps] == np.linspace(0, 1, cfg.steps).tolist()
            rows = [row_positives(scene, grid, cfg, s.t, seed, strategy, matching)
                    for s in result.steps]
            assert result.counts == rows

    @pytest.mark.parametrize("seed", range(20))
    def test_point_budgets(self, seed):
        """fcos realises the original budgets at every step. fcos-mutual
        selects each object's budget before the merge, but the merge may drop
        claims where point pools overlap: its count lies between one positive
        per object and the budget."""
        scene = synth_scene(SceneSpec(seed=seed))
        per_object = fcos_assign_original(POINTS, scene.boxes).per_object_counts
        budget, cfg = sum(per_object), TrajectoryConfig(steps=5)
        assert run_trajectory(scene, POINTS, cfg, "fcos", seed=seed).counts == [budget] * 5
        mutual = run_trajectory(scene, POINTS, cfg, "fcos-mutual", seed=seed)
        for step in mutual.steps:
            assert len(scene.boxes) <= step.positive_count <= budget
            regressed = synth_point_predictions(scene, POINTS, cfg, step.t, seed)[0]
            selected = fcos_localize_to_classify(POINTS, scene.boxes, regressed)
            assert selected.premerge_positive_counts == per_object

    @pytest.mark.parametrize("grid, strategy", GRID_STRATEGIES, ids=GRID_IDS)
    def test_predicts_only_what_a_strategy_reads(self, grid, strategy):
        """static and fcos label every step from the baseline alone, so no
        step is simulated; every other strategy simulates each step once."""
        scene = synth_scene(SceneSpec(seed=21))
        name = "synth_point_predictions" if grid is POINTS else "synth_predictions"
        with mock.patch.object(simulator, name, wraps=getattr(simulator, name)) as predictor:
            result = run_trajectory(scene, grid, TrajectoryConfig(steps=10), strategy, seed=21)
        assert predictor.call_count == (0 if strategy in ("static", "fcos") else 10)
        assert len(result.counts) == 10

    def test_point_trajectory_builds_the_centerness_once(self):
        scene = synth_scene(SceneSpec(seed=21))
        cfg = TrajectoryConfig(steps=10)
        with mock.patch.object(fcos, "_centerness_matrix", wraps=fcos._centerness_matrix) as built:
            run_trajectory(scene, POINTS, cfg, "fcos-mutual", seed=21)
        assert built.call_count == 1

    def test_json_shape(self):
        scene = synth_scene(SceneSpec(seed=21))
        result = run_trajectory(scene, ANCHORS, TrajectoryConfig(steps=3), "mutual", seed=21)
        payload = result.to_json_dict()
        assert payload["format_version"] == 1
        assert payload["strategy"] == "mutual"
        assert len(payload["steps"]) == 3
        assert {"t", "positive_count"} <= set(payload["steps"][0])


def row_positives(scene, grid, cfg, t, seed, strategy, matching):
    """Positives of ``strategy``'s row (``strategy_rows``) on the predictions at step t."""
    if grid is POINTS:
        predicted = synth_point_predictions(scene, grid, cfg, t, seed)
        labeled = point_row(strategy, grid, scene.boxes, *predicted, matching)[1]
    else:
        snapshot = synth_predictions(scene, grid, cfg, t, seed)
        if strategy == "l2c-fixed":
            labeled = static_assign(snapshot.iou_regressed, matching)
        else:
            iou_anchor = pairwise_iou(grid.array, boxes_to_array(scene.boxes))
            predicted = snapshot.iou_regressed, snapshot.classif_scores
            labeled = anchor_row(strategy, iou_anchor, *predicted, matching)[1]
    labels = labeled.localization_labels if strategy == "c2l" else labeled.classification_labels
    return int(np.count_nonzero(labels >= 0))


class TestPointPredictions:
    def test_shapes_and_ranges(self):
        scene = synth_scene(SceneSpec(seed=5))
        points = generate_points(GRID)
        iou_regressed, scores = synth_point_predictions(
            scene, points, TrajectoryConfig(), 0.5, seed=5
        )
        assert iou_regressed.shape == (len(points), len(scene.boxes))
        assert scores.shape == iou_regressed.shape
        assert 0 <= iou_regressed.min() and iou_regressed.max() <= 1
        assert 0 <= scores.min() and scores.max() <= 1

    def test_deterministic(self):
        scene = synth_scene(SceneSpec(seed=5))
        points = generate_points(GRID)
        a = synth_point_predictions(scene, points, TrajectoryConfig(), 0.5, seed=5)
        b = synth_point_predictions(scene, points, TrajectoryConfig(), 0.5, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    # SHA-256 of (iou_regressed, scores) bytes for a fixed 3-object scene on
    # GRID's points: any change to the draws, their order or the arithmetic
    # moves them. The pins were made by code that ignores the second
    # config's misalignment fraction on points, so they also catch its use.
    PINNED = {
        ("default", 0.0): (
            "768b81eb64d477aa4d7657470dd798eec13674fca6a60af630fa32fdc8113a54",
            "ff6698a6e831ffcf47af2fed388ffc262f319e72b26cd140929d1e19b1246ad4",
        ),
        ("default", 0.37): (
            "cb627d39527e43541bb372e20f3b38444996e64b953b0ef4e5c69a93d3a7582c",
            "71fa564b842cd2ba48e054b8dad3b4be78857cd7949131bdd78ef5d48d7bf660",
        ),
        ("default", 1.0): (
            "b2e2d037788fb410450b83d73bd8d4fccc92b85e308f1333b3679404adf0fe86",
            "b2e2d037788fb410450b83d73bd8d4fccc92b85e308f1333b3679404adf0fe86",
        ),
        ("misaligned", 0.0): (
            "768b81eb64d477aa4d7657470dd798eec13674fca6a60af630fa32fdc8113a54",
            "ff6698a6e831ffcf47af2fed388ffc262f319e72b26cd140929d1e19b1246ad4",
        ),
        ("misaligned", 0.37): (
            "b02fc9a412fb5950afb877972ca68f4876a92e45897af8cdb92c905327a572cb",
            "d3db79ad460cef2adc26e5f7beab5c4fa9817f0eec4f58ed82c6663a53f728a1",
        ),
        ("misaligned", 1.0): (
            "b2e2d037788fb410450b83d73bd8d4fccc92b85e308f1333b3679404adf0fe86",
            "b2e2d037788fb410450b83d73bd8d4fccc92b85e308f1333b3679404adf0fe86",
        ),
    }
    CONFIGS = {
        "default": TrajectoryConfig(),
        "misaligned": TrajectoryConfig(
            misalignment_fraction=0.3,
            localization_gain="sqrt",
            score_gain="quadratic",
            noise=0.1,
        ),
    }

    @pytest.mark.parametrize("config, t", sorted(PINNED))
    def test_pinned_bytes(self, config, t):
        scene = synth_scene(SceneSpec(count_range=(3, 5), seed=11))
        arrays = synth_point_predictions(
            scene, generate_points(GRID), self.CONFIGS[config], t, seed=11
        )
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
        assert digests == self.PINNED[config, t]


@pytest.mark.parametrize("seed", [1.5, -1, True, "1"])
@pytest.mark.parametrize("predict, grid", [(synth_predictions, ANCHORS),
                                           (synth_point_predictions, POINTS)],
                         ids=["anchors", "points"])
def test_a_bad_seed_is_refused(predict, grid, seed):
    with pytest.raises(ValueError, match="bad argument 'seed'"):
        predict(synth_scene(SceneSpec(seed=1)), grid, TrajectoryConfig(), 0.5, seed=seed)


class TestDetectionsFromSnapshot:
    # SHA-256 of the detections' (boxes, class ids, scores) at t=0.8 on the
    # misaligned snapshot, unsuppressed and suppressed by mutual labels
    PINNED = {
        "all": (1799, (
            "41089c7e1791e596a6c7c53bd108cbf16d782b1841eb2f437c45044832a8585d",
            "1b59a3fbd0aeccd90d6424f6d8b690bab3442ab054c77eb8f98926edb34d25ee",
            "793c250c0d8137891d078d8ae454c0fae7e40a19036ccafa4cbfebf345190983",
        )),
        "mutual": (6, (
            "1ac0ddb54814d261fb4d44a51da61d66ee7291ef672f4f6f288ec0cef31d2511",
            "65a8fbd38a0a1cdc501cebef21c462aaf52563a95a3815de299264d2aa185616",
            "1bc637e4dd361e993fc2501cd34cf536d2ab63266f92ddd6a304dd34e8eb0367",
        )),
    }

    @pytest.mark.parametrize("labels", sorted(PINNED))
    def test_pinned_detections(self, labels):
        scene = MISALIGNED_SCENE
        snapshot = synth_predictions(scene, ANCHORS, MISALIGNED, 0.8, seed=11)
        classification = None
        if labels == "mutual":
            iou_anchor = pairwise_iou(ANCHORS.array, boxes_to_array(scene.boxes))
            classification = mutual_guidance_assign(
                iou_anchor, snapshot.iou_regressed, snapshot.classif_scores
            ).classification_labels
        dets = detections_from_snapshot(scene, ANCHORS, snapshot, classification, image_id=4)
        assert {d.image_id for d in dets} == {4}
        arrays = (
            np.asarray([d.box.as_tuple() for d in dets]),
            np.asarray([d.class_id for d in dets]),
            np.asarray([d.score for d in dets]),
        )
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
        assert (len(dets), digests) == self.PINNED[labels]

    def test_batch_rows_match_its_arrays(self):
        snapshot = synth_predictions(MISALIGNED_SCENE, ANCHORS, MISALIGNED, 0.8, seed=11)
        dets = detections_from_snapshot(MISALIGNED_SCENE, ANCHORS, snapshot, image_id="a")
        assert isinstance(dets, Detections) and dets.images == ("a",)
        for i in (0, len(dets) // 2, len(dets) - 1):
            row = dets[i]
            assert row is dets[i]
            assert row.box.as_tuple() == tuple(dets.boxes[i].tolist())
            assert (row.class_id, row.score, row.image_id) == (
                dets.class_ids[i], dets.scores[i], "a"
            )
        assert set(dets.class_ids.tolist()) <= set(MISALIGNED_SCENE.class_ids)

    # the scores as the simulator returns them, and with some rows suppressed
    @pytest.mark.parametrize("suppressed", [False, True])
    def test_a_row_major_copy_of_the_scores_gives_the_same_batch(self, suppressed):
        snapshot = synth_predictions(MISALIGNED_SCENE, ANCHORS, MISALIGNED, 0.8, seed=11)
        row_major = replace(snapshot, classif_scores=snapshot.classif_scores.copy(order="C"))
        assert snapshot.classif_scores.T.flags.c_contiguous
        assert row_major.classif_scores.flags.c_contiguous
        iou_anchor = pairwise_iou(ANCHORS.array, boxes_to_array(MISALIGNED_SCENE.boxes))
        labels = static_assign(iou_anchor).classification_labels if suppressed else None
        batches = [detections_from_snapshot(MISALIGNED_SCENE, ANCHORS, s, labels)
                   for s in (snapshot, row_major)]
        arrays = [[b.boxes, b.scores, b.class_ids, b.image_index] for b in batches]
        assert len(batches[0]) > 0
        assert [a.tobytes() for a in arrays[0]] == [a.tobytes() for a in arrays[1]]

    def test_a_nan_score_past_the_first_column_is_skipped(self):
        # the scores of an unchecked snapshot: argmax would pick each NaN, the running max
        # skips one past column 0 and keeps one in column 0, which then fails the threshold
        snapshot = synth_predictions(MISALIGNED_SCENE, ANCHORS, MISALIGNED, 0.8, seed=11)
        scores = np.zeros_like(snapshot.classif_scores)
        scores[:3, :3] = [[0.5, np.nan, 0.0], [0.5, np.nan, 0.7], [np.nan, 0.9, 0.0]]
        dets = detections_from_snapshot(MISALIGNED_SCENE, ANCHORS,
                                        replace(snapshot, classif_scores=scores))
        assert dets.scores.tolist() == [0.5, 0.7]
        assert dets.class_ids.tolist() == [MISALIGNED_SCENE.class_ids[j] for j in (0, 2)]
        assert dets.boxes.tobytes() == snapshot.regressed_boxes[:2].tobytes()

    def test_every_row_suppressed_gives_an_empty_batch(self):
        snapshot = synth_predictions(MISALIGNED_SCENE, ANCHORS, MISALIGNED, 0.0, seed=11)
        labels = np.full(len(ANCHORS.array), -1)
        dets = detections_from_snapshot(MISALIGNED_SCENE, ANCHORS, snapshot, labels)
        assert len(dets) == 0 and dets.boxes.shape == (0, 4)

    def test_labels_as_a_list_give_the_batch_of_their_array(self):
        snapshot = synth_predictions(MISALIGNED_SCENE, ANCHORS, MISALIGNED, 0.8, seed=11)
        iou_anchor = pairwise_iou(ANCHORS.array, boxes_to_array(MISALIGNED_SCENE.boxes))
        labels = static_assign(iou_anchor).classification_labels
        batches = [detections_from_snapshot(MISALIGNED_SCENE, ANCHORS, snapshot, given)
                   for given in (labels, labels.tolist(), None)]
        arrays = [[b.boxes, b.scores, b.class_ids, b.image_index] for b in batches]
        assert [a.tobytes() for a in arrays[0]] == [a.tobytes() for a in arrays[1]]
        assert 0 < len(batches[0]) < len(batches[2])  # the labels suppress some rows

    # NaN, the threshold, 1.0 and their float64 neighbours; 1.0's upper one is no score
    EDGES = [np.nan, 0.0, 0.05, *np.nextafter(0.05, [0, 1]), 1.0, *np.nextafter(1.0, [0, 2])]

    @given(st.integers(1, 4), st.integers(1, 12), st.data())
    def test_matches_the_plain_loop_oracle(self, m, n, data):
        value = st.sampled_from(self.EDGES) | st.floats(0, 1)
        rows = data.draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n))
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))
        order = data.draw(st.sampled_from("CF"))
        labels = data.draw(st.none() | st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        labels = None if labels is None else np.asarray(labels)
        scene = Scene(64, 64, tuple(Box(j, j, j + 8, j + 8) for j in range(m)), (2, 0, 1, 2)[:m])
        snapshot = simulator.TrajectorySnapshot(
            np.array([[i, 0, i + 4, 3] for i in range(n)], dtype=float),
            np.array(rows, dtype=dtype, order=order), np.zeros((n, m)),
        )
        boxes, scores, class_ids = brute_force_detections(scene, snapshot, labels)
        if any(score > 1 for score in scores):  # a kept score above 1 is refused
            with pytest.raises(ValueError, match="scores must be finite and lie in"):
                detections_from_snapshot(scene, ANCHORS, snapshot, labels)
            return
        dets = detections_from_snapshot(scene, ANCHORS, snapshot, labels)
        assert dets.boxes.tobytes() == np.array(boxes, dtype=float).reshape(-1, 4).tobytes()
        assert dets.scores.tobytes() == np.array(scores, dtype=float).tobytes()
        assert dets.class_ids.tolist() == class_ids

    def test_a_suppressed_row_scoring_one_is_kept_at_the_threshold(self):
        snapshot = synth_predictions(MISALIGNED_SCENE, ANCHORS, MISALIGNED, 0.8, seed=11)
        scores = np.zeros_like(snapshot.classif_scores)
        scores[5, 1] = 1.0
        labels = np.full(len(ANCHORS), -1)
        dets = detections_from_snapshot(MISALIGNED_SCENE, ANCHORS,
                                        replace(snapshot, classif_scores=scores), labels)
        assert dets.scores.tolist() == [0.05]
        assert dets.class_ids.tolist() == [MISALIGNED_SCENE.class_ids[1]]
        assert dets.boxes.tobytes() == snapshot.regressed_boxes[5:6].tobytes()

    def test_a_nan_score_past_the_first_column_is_skipped_under_labels(self):
        # the labelled twin of the case above: a row with NaN in column 0 is not kept,
        # whatever a later column scores, when its label leaves the scores unscaled
        snapshot = synth_predictions(MISALIGNED_SCENE, ANCHORS, MISALIGNED, 0.8, seed=11)
        scores = np.zeros_like(snapshot.classif_scores)
        scores[:3, :3] = [[0.5, np.nan, 0.0], [0.5, np.nan, 0.7], [np.nan, 0.9, 0.0]]
        dets = detections_from_snapshot(MISALIGNED_SCENE, ANCHORS,
                                        replace(snapshot, classif_scores=scores),
                                        np.zeros(len(ANCHORS), dtype=int))
        assert dets.scores.tolist() == [0.5, 0.7]
        assert dets.class_ids.tolist() == [MISALIGNED_SCENE.class_ids[j] for j in (0, 2)]
        assert dets.boxes.tobytes() == snapshot.regressed_boxes[:2].tobytes()

    @pytest.mark.parametrize("suppressed", [False, True])
    def test_float32_scores_give_the_batch_of_their_float64_copy(self, suppressed):
        snapshot = synth_predictions(MISALIGNED_SCENE, ANCHORS, MISALIGNED, 0.8, seed=11)
        narrow = snapshot.classif_scores.astype(np.float32)
        narrow[:5, 0] = 1.0  # negative rows under static labels: kept at 0.05 if suppressed
        iou_anchor = pairwise_iou(ANCHORS.array, boxes_to_array(MISALIGNED_SCENE.boxes))
        labels = static_assign(iou_anchor).classification_labels if suppressed else None
        batches = [detections_from_snapshot(MISALIGNED_SCENE, ANCHORS,
                                            replace(snapshot, classif_scores=scores), labels)
                   for scores in (narrow, narrow.astype(np.float64))]
        arrays = [[b.boxes, b.scores, b.class_ids, b.image_index] for b in batches]
        assert batches[0].scores[:5].tolist() == [0.05 if suppressed else 1.0] * 5
        assert [a.tobytes() for a in arrays[0]] == [a.tobytes() for a in arrays[1]]

    # one label broadcast over every row, one column per row, too few rows
    @pytest.mark.parametrize("shape", [(1,), (len(ANCHORS), 1), (2,)], ids=str)
    def test_labels_of_another_shape_are_refused(self, shape):
        snapshot = synth_predictions(MISALIGNED_SCENE, ANCHORS, MISALIGNED, 0.8, seed=11)
        message = f"label shape {shape} differs from the score rows' ({len(ANCHORS)},)"
        with pytest.raises(ValueError, match=re.escape(message)):
            detections_from_snapshot(MISALIGNED_SCENE, ANCHORS, snapshot, np.full(shape, -1))


class TestSceneWithoutObjects:
    """An image without objects is answered, not raised: the predictions have
    no object columns, nothing is labelled positive and nothing detected."""

    EMPTY = Scene(320, 320, (), ())

    def test_snapshot_is_the_anchors_with_empty_matrices(self):
        snapshot = synth_predictions(self.EMPTY, ANCHORS, MISALIGNED, 0.5, seed=1)
        assert np.array_equal(snapshot.regressed_boxes, ANCHORS.array)
        assert snapshot.regressed_boxes is not ANCHORS.array
        assert snapshot.classif_scores.shape == snapshot.iou_regressed.shape == (len(ANCHORS), 0)

    def test_point_predictions_have_no_columns(self):
        points = generate_points(GRID)
        iou_regressed, scores = synth_point_predictions(
            self.EMPTY, points, TrajectoryConfig(), 0.5, seed=1
        )
        assert iou_regressed.shape == scores.shape == (len(points), 0)

    @pytest.mark.parametrize("grid, strategy", GRID_STRATEGIES, ids=GRID_IDS)
    def test_trajectory_counts_no_positive(self, grid, strategy):
        result = run_trajectory(self.EMPTY, grid, TrajectoryConfig(steps=3), strategy)
        assert result.counts == [0, 0, 0]

    @pytest.mark.parametrize("grid, strategy", [(ANCHORS, "mutual"), (POINTS, "fcos-mutual")],
                             ids=["mutual", "fcos-mutual"])
    def test_trajectory_simulates_no_step(self, grid, strategy):
        """Without an object no strategy has predictions to read: every step labels
        as the baseline, as assign does."""
        with (mock.patch.object(simulator, "synth_predictions") as anchors,
              mock.patch.object(simulator, "synth_point_predictions") as points):
            result = run_trajectory(self.EMPTY, grid, TrajectoryConfig(steps=3), strategy)
        assert anchors.call_count == points.call_count == 0
        assert result.counts == [0, 0, 0]

    @pytest.mark.parametrize("suppressed", [False, True])
    def test_detections_are_an_empty_batch(self, suppressed):
        snapshot = synth_predictions(self.EMPTY, ANCHORS, TrajectoryConfig(), 1.0, seed=1)
        # unsuppressed: no labels, or every anchor labelled positive (for object 0)
        fills = [-1] if suppressed else [None, 0]
        for fill in fills:
            labels = None if fill is None else np.full(len(ANCHORS), fill)
            dets = detections_from_snapshot(self.EMPTY, ANCHORS, snapshot, labels, image_id=7)
            assert isinstance(dets, Detections) and len(dets) == 0
            assert dets.boxes.shape == (0, 4) and dets.images == (7,)
            assert dets.scores.shape == (0,) and dets.class_ids.dtype == np.int64
