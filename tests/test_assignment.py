import numpy as np
import pytest

from boxmatch.anchors import AnchorGridSpec, LevelSpec, generate_anchors
from boxmatch.assignment import (
    IGNORED,
    NEGATIVE,
    MatchingConfig,
    amplified_iou,
    classify_to_localize,
    localize_to_classify,
    mutual_guidance_assign,
    static_assign,
)
from boxmatch.geometry import IoUMatrix, boxes_to_array, pairwise_iou
from boxmatch.simulator import SceneSpec, synth_scene

# 13 anchors A-M around one object: 6 above the positive threshold, 3 in the
# ignored band, 4 below - the worked single-object example.
BOAT_IOUS = [0.55, 0.62, 0.51, 0.70, 0.58, 0.53, 0.44, 0.47, 0.41, 0.30, 0.22, 0.10, 0.05]


def column(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


class TestMatchingConfig:
    def test_defaults(self):
        cfg = MatchingConfig()
        assert (cfg.t_pos, cfg.t_neg, cfg.sigma) == (0.5, 0.4, 2.0)

    def test_equal_thresholds_allowed(self):
        MatchingConfig(t_pos=0.5, t_neg=0.5)

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            MatchingConfig(t_pos=0.3, t_neg=0.4)

    def test_sigma_must_exceed_one(self):
        with pytest.raises(ValueError):
            MatchingConfig(sigma=1.0)
        with pytest.raises(ValueError):
            MatchingConfig(sigma=0.5)


class TestAmplifiedIou:
    def test_zero_score_is_identity(self):
        assert amplified_iou(0.5, 0.0, 2.0) == 0.5

    def test_full_score(self):
        # 0.70710678... = sqrt(1/2)
        assert amplified_iou(0.5, 1.0, 2.0) == pytest.approx(2**-0.5, abs=1e-9)

    def test_partial_score(self):
        # 0.49 ** 0.6, cross-checked against an explicit log/exp evaluation
        expected = float(np.exp(0.6 * np.log(0.49)))
        value = amplified_iou(0.49, 0.8, 2.0)
        assert value == pytest.approx(0.65180, abs=1e-4)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_never_below_raw(self):
        rng = np.random.default_rng(3)
        ious = rng.uniform(0, 1, 100_000)
        scores = rng.uniform(0, 1, 100_000)
        sigmas = rng.uniform(1.0 + 1e-9, 10, 100_000)
        amplified = np.power(ious, (sigmas - scores) / sigmas)
        assert np.all(amplified >= ious)

    def test_monotone_in_score(self):
        values = [amplified_iou(0.3, p, 2.0) for p in np.linspace(0, 1, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_large_sigma_limit(self):
        assert abs(amplified_iou(0.5, 1.0, 1e6) - 0.5) < 1e-5

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            amplified_iou(0.5, 0.5, 1.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            amplified_iou(1.5, 0.5, 2.0)
        with pytest.raises(ValueError):
            amplified_iou(0.5, -0.1, 2.0)

    def test_array_input(self):
        out = amplified_iou(np.array([0.5, 0.5]), np.array([0.0, 1.0]), 2.0)
        assert out[0] == 0.5
        assert out[1] == pytest.approx(2**-0.5)


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        # a NaN score used to move the positive silently to the 0.45 anchor
        lambda: classify_to_localize(column([0.60, 0.45, 0.1]), column([NAN, 0.0, 0.0])),
        lambda: localize_to_classify(column([0.6, 0.3]), column([7.0, 0.2])),
        lambda: static_assign(column([0.6, -0.5])),
        lambda: static_assign(column([0.6, NAN])),
        # IoUMatrix's own range check lets NaN through
        lambda: static_assign(IoUMatrix(column([0.6, NAN]))),
        lambda: mutual_guidance_assign(column([0.6]), column([float("inf")]), column([0.0])),
    ],
    ids=["c2l-nan-score", "l2c-regressed-7", "static-negative", "static-nan",
         "static-nan-ioumatrix", "mutual-inf-regressed"],
)
def test_invalid_matrix_values_rejected(call):
    with pytest.raises(ValueError, match="finite"):
        call()


class TestStaticAssign:
    def test_threshold_bands(self):
        a = static_assign(column([0.6, 0.45, 0.3]))
        assert a.classification_labels.tolist() == [0, IGNORED, NEGATIVE]
        assert a.per_object_counts == [(1, 1)]

    def test_highest_iou_fallback(self):
        a = static_assign(column([0.3, 0.2, 0.1]))
        assert a.classification_labels.tolist() == [0, NEGATIVE, NEGATIVE]
        assert a.per_object_counts == [(1, 0)]

    def test_boat_fixture_counts(self):
        a = static_assign(column(BOAT_IOUS))
        assert a.per_object_counts == [(6, 3)]

    def test_boundary_value_is_positive(self):
        a = static_assign(column([0.5]))
        assert a.classification_labels.tolist() == [0]

    def test_localization_never_ignored(self):
        a = static_assign(column([0.6, 0.45, 0.3]))
        assert a.localization_labels.tolist() == [0, NEGATIVE, NEGATIVE]
        assert IGNORED not in a.localization_labels

    def test_conflict_goes_to_higher_iou(self):
        matrix = np.array([[0.9, 0.6], [0.1, 0.8], [0.7, 0.05]])
        a = static_assign(matrix)
        assert a.classification_labels.tolist() == [0, 1, 0]

    def test_conflict_tie_goes_to_lower_object(self):
        matrix = np.array([[0.6, 0.6], [0.05, 0.55]])
        a = static_assign(matrix)
        assert a.classification_labels[0] == 0

    def test_every_object_keeps_a_positive(self):
        # object 1's only above-threshold anchor belongs to object 0
        matrix = np.array([[0.9, 0.55], [0.2, 0.3], [0.1, 0.05]])
        a = static_assign(matrix)
        assert a.classification_labels.tolist() == [0, 1, NEGATIVE]
        assert all(n_pos >= 1 for n_pos, _ in a.per_object_counts)

    def test_equal_thresholds_drop_ignored_band(self):
        a = static_assign(column([0.6, 0.45, 0.3]), MatchingConfig(t_pos=0.45, t_neg=0.45))
        assert a.classification_labels.tolist() == [0, 0, NEGATIVE]
        assert IGNORED not in a.classification_labels

    def test_ignored_attributed_to_best_object(self):
        matrix = np.array([[0.9, 0.1], [0.45, 0.42], [0.1, 0.6]])
        a = static_assign(matrix)
        # anchor 1 is ignored and overlaps object 0 most
        assert a.classification_labels[1] == IGNORED
        assert a.per_object_counts == [(1, 1), (1, 0)]


class TestLocalizeToClassify:
    def test_rank_and_cut(self):
        iou_anchor = column([0.6, 0.55, 0.45, 0.1, 0.1])  # budgets (2, 1)
        iou_regressed = column([0.9, 0.3, 0.8, 0.7, 0.1])
        res = localize_to_classify(iou_anchor, iou_regressed)
        assert res.labels.tolist() == [0, NEGATIVE, 0, IGNORED, NEGATIVE]
        assert res.premerge_positive_counts == [2]

    def test_identical_ranking_matches_static(self):
        iou_anchor = column([0.8, 0.6, 0.45, 0.3, 0.1])
        static = static_assign(iou_anchor)
        res = localize_to_classify(iou_anchor, iou_anchor)
        assert res.labels.tolist() == static.classification_labels.tolist()

    def test_tie_prefers_lower_anchor_index(self):
        iou_anchor = column([0.6, 0.45, 0.1])  # budgets (1, 1)
        iou_regressed = column([0.8, 0.8, 0.1])
        res = localize_to_classify(iou_anchor, iou_regressed)
        assert res.labels.tolist() == [0, IGNORED, NEGATIVE]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            localize_to_classify(column([0.5, 0.5]), column([0.5]))

    def test_conflict_resolved_by_regressed_value(self):
        iou_anchor = np.array([[0.6, 0.1], [0.1, 0.6], [0.45, 0.05], [0.05, 0.45]])
        iou_regressed = np.array([[0.9, 0.85], [0.2, 0.3], [0.5, 0.1], [0.1, 0.4]])
        res = localize_to_classify(iou_anchor, iou_regressed)
        # anchor 0 is top for both objects; object 0's claim (0.9) wins
        assert res.labels[0] == 0
        assert res.premerge_positive_counts == [1, 1]
        # object 1 keeps a positive anyway
        assert np.sum(res.labels == 1) >= 1


class TestClassifyToLocalize:
    def test_zero_scores_follow_anchor_iou(self):
        iou_anchor = column([0.7, 0.6, 0.45, 0.2])
        res = classify_to_localize(iou_anchor, np.zeros_like(iou_anchor))
        static = static_assign(iou_anchor)
        assert (res.labels >= 0).tolist() == (static.classification_labels >= 0).tolist()

    def test_score_reorders_selection(self):
        cfg = MatchingConfig(t_pos=0.45, t_neg=0.3)  # budgets (2, .)
        iou_anchor = column([0.5, 0.45, 0.4])
        scores = column([0.0, 0.9, 0.0])
        res = classify_to_localize(iou_anchor, scores, cfg)
        # amplified: [0.5, 0.45**0.55 = 0.6446, 0.4] -> anchors {1, 0}
        assert res.labels.tolist() == [0, 0, NEGATIVE]

    def test_no_ignored_band(self):
        iou_anchor = column([0.7, 0.6, 0.45, 0.2])
        res = classify_to_localize(iou_anchor, np.zeros_like(iou_anchor))
        assert IGNORED not in res.labels

    def test_equal_scores_keep_iou_order(self):
        iou_anchor = column([0.3, 0.6, 0.45])  # budget n_pos=1
        scores = np.full_like(iou_anchor, 0.7)
        res = classify_to_localize(iou_anchor, scores)
        assert res.labels.tolist() == [NEGATIVE, 0, NEGATIVE]

    def test_score_range_validated(self):
        with pytest.raises(ValueError):
            classify_to_localize(column([0.5]), column([1.5]))


class TestMutualGuidance:
    def test_degenerates_to_static(self):
        iou_anchor = column([0.7, 0.45, 0.2])
        static = static_assign(iou_anchor)
        mutual = mutual_guidance_assign(iou_anchor, iou_anchor, np.zeros_like(iou_anchor))
        assert mutual.classification_labels.tolist() == static.classification_labels.tolist()
        assert mutual.localization_labels.tolist() == static.localization_labels.tolist()
        assert mutual.per_object_counts == static.per_object_counts

    def test_contradictory_labels_allowed(self):
        iou_anchor = column([0.6, 0.45])  # budgets (1, 1)
        iou_regressed = column([0.3, 0.9])
        scores = column([0.9, 0.0])
        mutual = mutual_guidance_assign(iou_anchor, iou_regressed, scores)
        # anchor 1: positive for classification, negative for localization
        assert mutual.classification_labels.tolist() == [IGNORED, 0]
        assert mutual.localization_labels.tolist() == [0, NEGATIVE]

    def test_counts_come_from_static(self):
        iou_anchor = column(BOAT_IOUS)
        rng = np.random.default_rng(0)
        iou_regressed = np.clip(iou_anchor + rng.uniform(0, 0.2, iou_anchor.shape), 0, 1)
        scores = rng.uniform(0, 1, iou_anchor.shape)
        mutual = mutual_guidance_assign(iou_anchor, iou_regressed, scores)
        assert mutual.per_object_counts == [(6, 3)]
        assert int(np.sum(mutual.classification_labels >= 0)) == 6
        assert int(np.sum(mutual.localization_labels >= 0)) == 6


GRID = generate_anchors(
    AnchorGridSpec(320, 320, (
        LevelSpec(16, (48.0,), (1.0, 2.0, 0.5)),
        LevelSpec(32, (96.0, 160.0), (1.0, 2.0, 0.5)),
    ))
)


def random_scene_matrices(seed):
    scene = synth_scene(SceneSpec(count_range=(1, 5), seed=seed))
    iou_anchor = pairwise_iou(GRID.array, boxes_to_array(scene.boxes))
    rng = np.random.default_rng(seed + 100_000)
    iou_regressed = np.clip(iou_anchor + rng.uniform(0, 0.3, iou_anchor.shape), 0, 1)
    scores = rng.uniform(0, 1, iou_anchor.shape)
    return iou_anchor, iou_regressed, scores


class TestSceneProperties:
    def test_count_conservation(self):
        for seed in range(200):
            iou_anchor, iou_regressed, scores = random_scene_matrices(seed)
            budgets = [c[0] for c in static_assign(iou_anchor).per_object_counts]
            l2c = localize_to_classify(iou_anchor, iou_regressed)
            c2l = classify_to_localize(iou_anchor, scores)
            assert l2c.premerge_positive_counts == budgets
            assert c2l.premerge_positive_counts == budgets
            assert not l2c.warnings and not c2l.warnings

    def test_every_object_gets_a_positive(self):
        for seed in range(200):
            iou_anchor, iou_regressed, scores = random_scene_matrices(seed)
            n_objects = iou_anchor.shape[1]
            static = static_assign(iou_anchor)
            l2c = localize_to_classify(iou_anchor, iou_regressed)
            c2l = classify_to_localize(iou_anchor, scores)
            mutual = mutual_guidance_assign(iou_anchor, iou_regressed, scores)
            for j in range(n_objects):
                assert np.any(static.classification_labels == j)
                assert np.any(l2c.labels == j)
                assert np.any(c2l.labels == j)
                assert np.any(mutual.classification_labels == j)
                assert np.any(mutual.localization_labels == j)

    def test_rank_only_dependence(self):
        # single object: scaling its regressed column cannot reorder it
        scene = synth_scene(SceneSpec(count_range=(1, 1), seed=42))
        iou_anchor = pairwise_iou(GRID.array, boxes_to_array(scene.boxes))
        rng = np.random.default_rng(42)
        iou_regressed = np.clip(iou_anchor + rng.uniform(0, 0.3, iou_anchor.shape), 0, 1)
        baseline = localize_to_classify(iou_anchor, iou_regressed)
        scale = 0.5 / max(iou_regressed.max(), 1e-9)
        rescaled = localize_to_classify(iou_anchor, iou_regressed * scale)
        assert np.array_equal(baseline.labels, rescaled.labels)

    def test_determinism(self):
        iou_anchor, iou_regressed, scores = random_scene_matrices(7)
        a = mutual_guidance_assign(iou_anchor, iou_regressed, scores)
        b = mutual_guidance_assign(iou_anchor, iou_regressed, scores)
        assert np.array_equal(a.classification_labels, b.classification_labels)
        assert np.array_equal(a.localization_labels, b.localization_labels)
        assert a.per_object_counts == b.per_object_counts
