import re
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from boxmatch import assignment
from boxmatch.anchors import AnchorGridSpec, LevelSpec, generate_anchors, generate_points
from boxmatch.assignment import (
    IGNORED,
    NEGATIVE,
    STRATEGIES,
    Assignment,
    MatchingConfig,
    amplified_iou,
    classify_to_localize,
    localize_to_classify,
    mutual_guidance_assign,
    static_assign,
)
from boxmatch.fcos import fcos_classify_to_localize, fcos_localize_to_classify
from boxmatch.geometry import Box, boxes_to_array, pairwise_iou
from boxmatch.simulator import SceneSpec, synth_scene
from oracles import brute_force_guided
from strategy_rows import anchor_row, served_objects

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
        lambda: mutual_guidance_assign(column([0.6]), column([float("inf")]), column([0.0])),
    ],
    ids=["c2l-nan-score", "l2c-regressed-7", "static-negative", "static-nan",
         "mutual-inf-regressed"],
)
def test_invalid_matrix_values_rejected(call):
    with pytest.raises(ValueError, match="finite"):
        call()


POINTS = generate_points(AnchorGridSpec(32, 32, (LevelSpec(8, (16.0,)),)))


@pytest.mark.parametrize("sigma", [1.0, 0.5, NAN, [2.0, 1.0], float("inf")])
@pytest.mark.parametrize(
    "call",
    [
        lambda sigma: MatchingConfig(sigma=sigma),
        lambda sigma: amplified_iou(0.5, 0.5, sigma),
        lambda sigma: fcos_classify_to_localize(
            POINTS, [Box(4, 4, 20, 20)], np.zeros((len(POINTS), 1)), sigma=sigma
        ),
    ],
    ids=["config", "amplified_iou", "fcos_c2l"],
)
def test_sigma_rejected_alike_everywhere(call, sigma):
    with pytest.raises(ValueError, match=re.escape(f"sigma must be > 1, got {sigma}")):
        call(sigma)


POINT_OBJECTS = [Box(4, 4, 20, 20)]
# each public function that takes matrices: (f(*matrices), matrix count, their shape)
MATRIX_FUNCTIONS = {
    "static_assign": (static_assign, 1, (3, 2)),
    "localize_to_classify": (localize_to_classify, 2, (3, 2)),
    "classify_to_localize": (classify_to_localize, 2, (3, 2)),
    "mutual_guidance_assign": (mutual_guidance_assign, 3, (3, 2)),
    "fcos_localize_to_classify": (
        partial(fcos_localize_to_classify, POINTS, POINT_OBJECTS), 1, (len(POINTS), 1)
    ),
    "fcos_classify_to_localize": (
        partial(fcos_classify_to_localize, POINTS, POINT_OBJECTS), 1, (len(POINTS), 1)
    ),
}
# a malformed matrix, built from the well-formed shape, and the error it gets
MALFORMED = {
    "1d": (lambda shape: np.full(shape[0], 0.5), "expected a 2-D matrix"),
    "3d": (lambda shape: np.full((*shape, 1), 0.5), "expected a 2-D matrix"),
    "ragged": (lambda shape: [[0.5] * shape[1]] * (shape[0] - 1) + [[0.5] * (shape[1] + 1)],
               "expected a 2-D matrix"),
    "extra-row": (lambda shape: np.full((shape[0] + 1, shape[1]), 0.5), "matrix shapes differ"),
    "extra-column": (lambda shape: np.full((shape[0], shape[1] + 1), 0.5), "matrix shapes differ"),
}
MALFORMED_CASES = [
    pytest.param(name, kind, at, id=f"{name}-{kind}-{at}")
    for name, (_, count, _) in MATRIX_FUNCTIONS.items()
    for kind in MALFORMED
    for at in range(count)
    # a shape mismatch needs a second matrix, or the (points, objects) shape
    if name != "static_assign" or MALFORMED[kind][1] != "matrix shapes differ"
]


@pytest.mark.parametrize("name, kind, at", MALFORMED_CASES)
def test_malformed_matrices_rejected(name, kind, at):
    # every matrix reaches the one checked entry, which takes a 2-D array-like of one shape
    call, count, shape = MATRIX_FUNCTIONS[name]
    make, message = MALFORMED[kind]
    matrices = [np.full(shape, 0.5)] * count
    matrices[at] = make(shape)
    with pytest.raises(ValueError, match=message):
        call(*matrices)


def test_static_assign_rejects_a_matrix_without_anchors():
    with pytest.raises(ValueError, match="empty IoU matrix: no anchors"):
        static_assign(np.zeros((0, 2)))


EMPTY = np.zeros((6, 0))  # an image without objects


@pytest.mark.parametrize(
    "call",
    [
        lambda cfg: static_assign(EMPTY, cfg),
        lambda cfg: localize_to_classify(EMPTY, EMPTY, cfg),
        lambda cfg: classify_to_localize(EMPTY, EMPTY, cfg),
        lambda cfg: mutual_guidance_assign(EMPTY, EMPTY, EMPTY, cfg),
    ],
    ids=["static", "l2c", "c2l", "mutual"],
)
def test_image_without_objects_is_background(call):
    # zero thresholds pass every overlap there is, so a row without an object must
    # answer no overlap at all: an answer of 0.0 would label its anchor
    for cfg in (None, MatchingConfig(t_pos=0.0, t_neg=0.0)):
        result = call(cfg)
        if isinstance(result, Assignment):
            label_sets = [result.classification_labels, result.localization_labels]
            counts = result.per_object_counts
        else:
            label_sets, counts = [result.labels], result.premerge_positive_counts
        assert all(labels.tolist() == [NEGATIVE] * 6 for labels in label_sets)
        assert counts == []
        assert result.warnings == []


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


class TestObjectLeftWithoutPositive:
    """Two anchors, three objects: static gives object 1 no positive, since
    both anchors are positive elsewhere, and no guided result can give it one."""

    IOU = [[0.6, 0.55, 0.0], [0.0, 0.1, 0.7]]
    WARNING = "object 1: no anchor available for the positive fallback"

    def test_static_warns(self):
        assert static_assign(self.IOU).warnings == [self.WARNING]

    def test_each_guided_result_names_the_object(self):
        scores = np.full((2, 3), 0.3)
        for result in (localize_to_classify(self.IOU, self.IOU),
                       classify_to_localize(self.IOU, scores)):
            assert (result.labels.tolist(), result.warnings) == ([0, 2], [self.WARNING])
        for result in (mutual_guidance_assign(self.IOU, self.IOU, scores),
                       anchor_row("mutual", self.IOU, self.IOU, scores)[1]):
            assert result.classification_labels.tolist() == [0, 2]
            assert result.localization_labels.tolist() == [0, 2]
            assert result.warnings == [self.WARNING, self.WARNING]


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


# few distinct values around the default thresholds: ties, zeros, objects
# without an anchor at or above t_pos and images without objects are common
LATTICE = st.sampled_from([0.0, 0.0, 0.2, 0.4, 0.45, 0.5, 0.7, 1.0]) | st.floats(0, 1)


@st.composite
def strategy_inputs(draw):
    """(iou_anchor, iou_regressed, classif_scores), each of shape (n, m)."""
    n, m = draw(st.integers(1, 10)), draw(st.integers(0, 4))
    cells = st.lists(LATTICE, min_size=n * m, max_size=n * m)
    return tuple(np.asarray(draw(cells), float).reshape(n, m) for _ in range(3))


@st.composite
def tie_free_inputs(draw):
    """strategy_inputs whose values are all distinct, plus an object permutation."""
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    ranks = [np.asarray(draw(st.permutations(range(n * m))), float) for _ in range(3)]
    anchor, regressed, scores = ((r.reshape(n, m) + 1) / (n * m) for r in ranks)
    return anchor, regressed, scores, draw(st.permutations(range(m)))


def run_row(strategy, *matrices):
    """The strategy row's (baseline, result) and the pre-merge counts of every
    ranked selection it made."""
    premerge, real = [], assignment.ranked_selection

    def spy(*args, **kwargs):
        selection = real(*args, **kwargs)
        premerge.append(selection.premerge_positive_counts)
        return selection

    with mock.patch.object(assignment, "ranked_selection", spy):
        return (*anchor_row(strategy, *matrices), premerge)


# each example runs every row of the strategy table
class TestStrategyTableProperties:
    @given(strategy_inputs())
    def test_budgets_are_conserved(self, inputs):
        static = static_assign(inputs[0])
        budgets = [p for p, _ in static.per_object_counts]
        m = len(budgets)
        for strategy, guided_tasks in (("static", 0), ("l2c", 1), ("c2l", 1), ("mutual", 2)):
            base, result, premerge = run_row(strategy, *inputs)
            assert base.per_object_counts == result.per_object_counts == static.per_object_counts
            # each guided task ranks once, and every object claims its whole budget
            assert premerge == [budgets] * guided_tasks
            labels = base.classification_labels
            assert np.bincount(labels[labels >= 0], minlength=m).tolist() == budgets
            for labels in (result.classification_labels, result.localization_labels):
                assert np.all(np.bincount(labels[labels >= 0], minlength=m) <= budgets)

    @given(strategy_inputs())
    def test_deterministic_and_inputs_untouched(self, inputs):
        pristine = [matrix.copy() for matrix in inputs]
        for name in STRATEGIES["anchors"]:
            first = [result.to_json_dict() for result in anchor_row(name, *inputs)]
            assert [result.to_json_dict() for result in anchor_row(name, *inputs)] == first
            assert all(np.array_equal(a, b) for a, b in zip(inputs, pristine))

    @given(strategy_inputs())
    def test_localization_never_ignored(self, inputs):
        for name in STRATEGIES["anchors"]:
            for result in anchor_row(name, *inputs):
                assert IGNORED not in result.localization_labels

    @given(tie_free_inputs())
    def test_object_permutation_equivariance(self, case):
        *inputs, perm = case
        anchor, _, scores = inputs
        # no two objects tie on any anchor's amplified overlap either
        amplified = amplified_iou(anchor, scores, MatchingConfig().sigma)
        assume(all(np.unique(row).size == row.size for row in amplified))
        # the fallbacks serve objects in index order: keep them out of play. This
        # drops early what `not served` below rejects anyway, a static fallback
        # included; the hand case after this test runs one in both orders
        best = anchor.argmax(axis=1)[anchor.max(axis=1) >= MatchingConfig().t_pos]
        assume(anchor.shape[1] - np.unique(best).size <= 1)
        permuted_inputs = [matrix[:, perm] for matrix in inputs]
        with served_objects() as served:
            runs = [(anchor_row(name, *inputs)[1], anchor_row(name, *permuted_inputs)[1])
                    for name in STRATEGIES["anchors"]]
        assume(not served)
        back = np.asarray(perm)
        for result, permuted in runs:
            for task in ("classification_labels", "localization_labels"):
                labels = getattr(permuted, task)
                mapped = np.where(labels >= 0, back[np.maximum(labels, 0)], labels)
                assert mapped.tolist() == getattr(result, task).tolist()
            assert permuted.per_object_counts == [result.per_object_counts[j] for j in perm]

    def test_object_permutation_equivariance_with_a_static_fallback(self):
        """Object 1 has no anchor at t_pos, so the static fallback serves it its best free
        anchor; swapping the two objects serves object 0 instead, and maps every label."""
        inputs = [np.asarray(rows) for rows in (
            [[0.7, 0.0], [0.6, 0.1], [0.0, 0.3], [0.0, 0.2]],  # anchor overlap
            [[0.8, 0.0], [0.5, 0.1], [0.0, 0.45], [0.1, 0.35]],  # regressed overlap
            [[0.6, 0.0], [0.3, 0.1], [0.0, 0.4], [0.0, 0.1]],  # scores
        )]
        perm = [1, 0]
        for name in STRATEGIES["anchors"]:
            runs = []
            for fallback, order in ((1, inputs), (0, [matrix[:, perm] for matrix in inputs])):
                with served_objects() as served:
                    runs.append(anchor_row(name, *order)[1])
                assert fallback in served
            result, permuted = runs
            assert result.classification_labels.tolist() == [0, 0, 1, -1]
            back = np.asarray(perm)
            for task in ("classification_labels", "localization_labels"):
                labels = getattr(permuted, task)
                mapped = np.where(labels >= 0, back[np.maximum(labels, 0)], labels)
                assert mapped.tolist() == getattr(result, task).tolist()
            assert permuted.per_object_counts == [result.per_object_counts[j] for j in perm]


def guided_oracle(strategy, anchor, regressed, scores):
    l2c, c2l = STRATEGIES["anchors"][strategy]
    matrices = (m.tolist() for m in (anchor, regressed, scores))
    return brute_force_guided(*matrices, MatchingConfig().sigma, l2c, c2l)


def row_outputs(result):
    return {
        "classification": result.classification_labels.tolist(),
        "localization": result.localization_labels.tolist(),
        "counts": result.per_object_counts,
        "warnings": result.warnings,
    }


@st.composite
def start_of_training(draw):
    """(iou_anchor, iou_regressed, classif_scores) at the start of training:
    regressed overlap equals anchor overlap and every score is 0. Each anchor
    overlaps at most one object at or above t_neg, and each object has an
    anchor at or above t_pos, so no fallback runs."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m, 10))
    low = st.sampled_from([0.0, 0.0, 0.2, 0.39]) | st.floats(0, 0.39)
    anchor = np.asarray(draw(st.lists(low, min_size=n * m, max_size=n * m))).reshape(n, m)
    for i in range(n):
        j = i if i < m else draw(st.integers(0, m - 1))
        anchor[i, j] = draw(st.sampled_from([0.5, 0.7, 1.0]) if i < m else LATTICE)
    anchor = anchor[draw(st.permutations(range(n)))]
    return anchor, anchor.copy(), np.zeros((n, m))


class TestGuidedOracle:
    """Every anchor strategy row against ``brute_force_guided``: static
    baseline, per-object ranking, merge and rescues, by plain loops."""

    @given(strategy_inputs())
    def test_every_row_matches_the_oracle(self, inputs):
        for strategy in STRATEGIES["anchors"]:
            assert row_outputs(anchor_row(strategy, *inputs)[1]) == guided_oracle(strategy, *inputs)

    @pytest.mark.parametrize("strategy", ["c2l", "mutual"])
    def test_object_without_overlap_takes_a_zero_score_anchor(self, strategy):
        # object 1 overlaps no anchor: the static fallback gives it anchor 1,
        # the first free one, so its budget is 1 with no positive entry; its
        # ranking is then the zero-score anchors in index order, and the merge
        # leaves it the first of them that object 0 does not hold
        anchor = np.asarray([[0.6, 0.0], [0.3, 0.0], [0.0, 0.0]])
        scores = np.asarray([[0.9, 0.8], [0.1, 0.7], [0.0, 0.6]])
        base, result = anchor_row(strategy, anchor, anchor, scores)
        assert base.per_object_counts == [(1, 0), (1, 0)]
        assert result.localization_labels.tolist() == [0, 1, NEGATIVE]
        assert row_outputs(result) == guided_oracle(strategy, anchor, anchor, scores)

    def test_budget_beyond_the_positive_entries_takes_zeros_in_index_order(self):
        quality = column([0.0, 0.3, 0.0, 0.0])
        scores = column([0.9, 0.5, 0.0, 0.9])
        # one positive entry, then the zero-quality anchors from the lowest index up
        result = assignment.ranked_selection(quality, [3], [0], None, scores, 2.0)
        assert result.labels.tolist() == [0, 0, 0, NEGATIVE]
        dense = assignment.ranked_selection(amplified_iou(quality, scores, 2.0), [3], [0])
        assert dense.labels.tolist() == result.labels.tolist()

    @given(start_of_training())
    def test_mutual_is_static_at_the_start_of_training(self, inputs):
        base, mutual = anchor_row("mutual", *inputs)
        assert mutual.classification_labels.tolist() == base.classification_labels.tolist()
        assert mutual.localization_labels.tolist() == base.localization_labels.tolist()
        assert mutual.per_object_counts == base.per_object_counts

    def test_fallback_into_an_ignored_band_breaks_the_start_of_training_reduction(self):
        # the one known scene where the reduction fails, pinned as it stands:
        # objects 1 and 2 overlap nothing, so the static fallback gives them
        # the free anchors 0 and 1, and anchor 1 lies in object 0's ignored
        # band. Object 0's ignored budget is counted after the fallback (1:
        # anchor 4), so l2c ranks anchor 1 (tied with 4, lower index) into
        # that budget, loses it to object 2's positive, and leaves anchor 4
        # NEGATIVE where static says IGNORED. Whether the fallback should skip
        # ignored anchors, or the budget count them, is a behaviour decision;
        # making either one changes these labels.
        anchor = np.zeros((6, 3))
        anchor[:, 0] = [0.0, 0.4, 0.0, 0.0, 0.4, 0.45]
        base, mutual = anchor_row("mutual", anchor, anchor.copy(), np.zeros((6, 3)))
        assert base.classification_labels.tolist() == [1, 2, NEGATIVE, NEGATIVE, IGNORED, 0]
        assert mutual.classification_labels.tolist() == [1, 2, NEGATIVE, NEGATIVE, NEGATIVE, 0]
        assert mutual.localization_labels.tolist() == base.localization_labels.tolist()
        assert mutual.per_object_counts == base.per_object_counts == [(1, 1), (1, 0), (1, 0)]
