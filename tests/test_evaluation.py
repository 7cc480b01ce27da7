import gc
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxmatch.evaluation import (
    AREA_BANDS,
    COCO_IOU_THRESHOLDS,
    Detection,
    Detections,
    GroundTruth,
    average_precision,
    misalignment_rate,
    nms,
)
from boxmatch.geometry import Box, area
from oracles import brute_force_ap_at_threshold, brute_force_misalignment, brute_force_nms


def det(x, y, w, h, class_id=0, score=0.9, image_id=0):
    return Detection(Box(x, y, x + w, y + h), class_id, score, image_id)


def gt(x, y, w, h, class_id=0, image_id=0):
    return GroundTruth(Box(x, y, x + w, y + h), class_id, image_id)


def random_detections(rng, count, classes=3, images=1):
    dets = []
    for _ in range(count):
        x, y = rng.uniform(0, 40, 2)
        dets.append(
            Detection(
                Box(x, y, x + rng.uniform(2, 30), y + rng.uniform(2, 30)),
                int(rng.integers(0, classes)),
                float(np.round(rng.uniform(0, 1), 3)),
                int(rng.integers(0, images)),
            )
        )
    return dets


class TestNms:
    def test_empty(self):
        assert nms([], 0.5) == []

    def test_single_kept(self):
        d = det(0, 0, 10, 10)
        assert nms([d], 0.5) == [d]

    def test_duplicate_suppressed(self):
        a = det(0, 0, 10, 10, score=0.9)
        b = det(0, 0, 10, 10, score=0.8)
        assert nms([a, b], 0.5) == [a]

    def test_different_classes_not_suppressed(self):
        a = det(0, 0, 10, 10, class_id=0, score=0.9)
        b = det(0, 0, 10, 10, class_id=1, score=0.8)
        assert nms([a, b], 0.5) == [a, b]

    def test_different_images_not_suppressed(self):
        a = det(0, 0, 10, 10, image_id=0, score=0.9)
        b = det(0, 0, 10, 10, image_id=1, score=0.8)
        assert nms([a, b], 0.5) == [a, b]

    def test_threshold_is_strict(self):
        # IoU exactly at the threshold is kept
        a = det(0, 0, 10, 10, score=0.9)
        b = det(0, 5, 10, 10, score=0.8)  # IoU = 50/150 = 1/3
        assert nms([a, b], 1 / 3) == [a, b]
        assert nms([a, b], 0.33) == [a]

    def test_kept_order_is_score_then_index(self):
        a = det(0, 0, 10, 10, score=0.7)
        b = det(100, 100, 10, 10, score=0.9)
        c = det(200, 200, 10, 10, score=0.7)
        assert nms([a, b, c], 0.5) == [b, a, c]

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(400):
            dets = random_detections(rng, int(rng.integers(1, 21)), images=2)
            assert nms(dets, 0.5) == brute_force_nms(dets, 0.5)

    def test_groups_longer_than_one_block(self):
        # hundreds of rows in one (class, image) group: suppression must carry
        # from each decided block of rows to all the later ones
        rng = np.random.default_rng(43)
        for n, threshold in ((120, 0.5), (200, 0.3), (90, 0.0), (150, 1.0)):
            dets = random_detections(rng, n, classes=1)
            kept = nms(dets, threshold)
            assert [id(d) for d in kept] == [id(d) for d in brute_force_nms(dets, threshold)]

    def test_kept_pairs_below_threshold(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            dets = random_detections(rng, 15, classes=2)
            kept = nms(dets, 0.4)
            assert set(kept) <= set(dets)
            for i, a in enumerate(kept):
                for b in kept[i + 1 :]:
                    if a.class_id == b.class_id and a.image_id == b.image_id:
                        from boxmatch.geometry import iou

                        assert iou(a.box, b.box) <= 0.4


class TestAveragePrecision:
    def test_perfect_detections(self):
        gts = [gt(0, 0, 10, 10, class_id=0), gt(30, 30, 12, 12, class_id=1)]
        dets = [
            Detection(g.box, g.class_id, 1.0, g.image_id) for g in gts
        ]
        result = average_precision(dets, gts)
        assert result.ap == 1.0
        assert result.ap50 == 1.0
        assert result.ap75 == 1.0
        assert all(v == 1.0 for v in result.per_threshold_ap)

    def test_no_detections(self):
        result = average_precision([], [gt(0, 0, 10, 10)])
        assert result.ap == 0.0
        assert result.ap50 == 0.0
        assert result.ap75 == 0.0

    def test_hand_computed_two_detection_case(self):
        # one object; a 0.6-IoU detection at score 0.9 and a disjoint one at
        # 0.8. At threshold 0.5 the PR curve hits precision 1 at recall 1
        # before the false positive, so AP50 = 1; at 0.75 nothing matches.
        gts = [gt(0, 0, 10, 10)]
        dets = [
            Detection(Box(0, 0, 10, 6), 0, 0.9, 0),  # IoU 0.6
            Detection(Box(50, 50, 60, 60), 0, 0.8, 0),
        ]
        result = average_precision(dets, gts)
        assert result.ap50 == 1.0
        assert result.ap75 == 0.0

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            gts = []
            for _ in range(int(rng.integers(1, 5))):
                x, y = rng.uniform(0, 30, 2)
                w, h = rng.uniform(4, 25), rng.uniform(4, 25)
                gts.append(GroundTruth(Box(x, y, x + w, y + h), 0, 0))
            dets = [d for d in random_detections(rng, 12, classes=1)]
            for threshold in (0.5, 0.75):
                mine = average_precision(dets, gts, iou_thresholds=[threshold])
                reference = brute_force_ap_at_threshold(dets, gts, threshold)
                assert mine.per_threshold_ap[0] == pytest.approx(reference, abs=1e-9)

    def test_monotone_score_rescaling_invariance(self):
        rng = np.random.default_rng(37)
        gts = [gt(5, 5, 20, 20), gt(40, 8, 18, 25, class_id=1)]
        dets = random_detections(rng, 15)
        rescaled = [
            Detection(d.box, d.class_id, 0.1 + 0.8 * d.score**2, d.image_id) for d in dets
        ]
        a = average_precision(dets, gts)
        b = average_precision(rescaled, gts)
        assert a.per_threshold_ap == b.per_threshold_ap

    def test_results_in_unit_interval(self):
        rng = np.random.default_rng(41)
        gts = [gt(5, 5, 20, 20), gt(40, 8, 18, 25, class_id=1)]
        dets = random_detections(rng, 20)
        result = average_precision(dets, gts)
        for value in (result.ap, result.ap50, result.ap75, *result.per_threshold_ap):
            assert 0.0 <= value <= 1.0

    def test_tied_iou_goes_to_the_lower_ground_truth(self):
        # the first detection overlaps both objects at IoU 1/3 and takes
        # object 0, so the second, which overlaps only object 0, is a false
        # positive; recall stops at 1/2
        gts = [gt(0, 0, 10, 10), gt(10, 0, 10, 10)]
        dets = [det(5, 0, 10, 10, score=0.9), det(0, 0, 10, 10, score=0.8)]
        result = average_precision(dets, gts, iou_thresholds=[0.3])
        assert result.per_threshold_ap[0] == pytest.approx(51 / 101)
        assert result.per_threshold_ap[0] == pytest.approx(
            brute_force_ap_at_threshold(dets, gts, 0.3)
        )

    def test_each_gt_matched_once(self):
        # two detections on the same object: the second is a false positive
        gts = [gt(0, 0, 10, 10)]
        dets = [
            Detection(Box(0, 0, 10, 10), 0, 0.9, 0),
            Detection(Box(0, 0, 10, 10), 0, 0.8, 0),
        ]
        result = average_precision(dets, gts, iou_thresholds=[0.5])
        assert result.per_threshold_ap[0] == 1.0  # precision already 1 at full recall

    def test_area_bands(self):
        gts = [gt(0, 0, 20, 20), gt(50, 50, 120, 120)]  # small-ish and large
        dets = [Detection(g.box, g.class_id, 1.0, g.image_id) for g in gts]
        result = average_precision(dets, gts, area_bands=True)
        assert result.ap_small == 1.0
        assert result.ap_medium is None  # no medium ground truth
        assert result.ap_large == 1.0

    def test_area_bands_are_half_open(self):
        # 32**2 is the first medium area and 96**2 the first large one; a
        # large detection leaking into the medium band would rank first there
        gts = [gt(0, 0, 32, 32), gt(100, 100, 96, 96)]
        dets = [Detection(gts[0].box, 0, 0.8), Detection(gts[1].box, 0, 0.9)]
        result = average_precision(dets, gts, area_bands=True)
        assert result.ap_small is None
        assert result.ap_medium == 1.0
        assert result.ap_large == 1.0

    def test_default_thresholds(self):
        assert COCO_IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)

    def test_ground_truth_required(self):
        with pytest.raises(ValueError):
            average_precision([], [])


class TestMisalignmentRate:
    def test_all_well_localized(self):
        gts = [gt(0, 0, 10, 10)]
        dets = [det(0, 0, 10, 10, score=0.9)]
        result = misalignment_rate(dets, gts)
        assert result.rate == 0.0
        assert result.flags == [False]

    def test_all_poorly_localized(self):
        gts = [gt(0, 0, 10, 10)]
        dets = [det(30, 30, 10, 10, score=0.9), det(60, 60, 10, 10, score=0.8)]
        result = misalignment_rate(dets, gts)
        assert result.rate == 1.0
        assert result.flags == [True, True]

    def test_boundary_iou_is_aligned(self):
        # IoU 3/4 exactly: not below the 0.75 localization threshold
        result = misalignment_rate([det(0, 0, 3, 1)], [gt(0, 0, 4, 1)])
        assert result.flags == [False]

    def test_low_scores_not_counted(self):
        gts = [gt(0, 0, 10, 10)]
        dets = [det(30, 30, 10, 10, score=0.4)]
        result = misalignment_rate(dets, gts)
        assert result.rate == 0.0
        assert result.flags == [False]

    def test_class_must_match(self):
        # a confident detection of the wrong class has no class-correct match
        gts = [gt(0, 0, 10, 10, class_id=1)]
        dets = [det(0, 0, 10, 10, class_id=0, score=0.9)]
        assert misalignment_rate(dets, gts).rate == 1.0

    def test_mixed(self):
        gts = [gt(0, 0, 10, 10)]
        dets = [
            det(0, 0, 10, 10, score=0.9),      # aligned
            det(4, 0, 10, 10, score=0.8),      # IoU 6/14 < 0.75 -> misaligned
            det(50, 50, 5, 5, score=0.2),      # below the score threshold
        ]
        result = misalignment_rate(dets, gts)
        assert result.rate == pytest.approx(0.5)
        assert result.flags == [False, True, False]

    def test_paired_simulation_static_vs_mutual(self):
        # with misaligned anchors injected, a strategy that never suppresses
        # them keeps a strictly higher misalignment rate
        import boxmatch as bm

        scene = bm.synth_scene(bm.SceneSpec(seed=12))
        anchors = bm.generate_anchors(bm.AnchorGridSpec())
        cfg = bm.TrajectoryConfig(misalignment_fraction=0.3)
        snapshot = bm.synth_predictions(scene, anchors, cfg, 0.8, seed=12)
        iou_anchor = bm.pairwise_iou(anchors.array, bm.boxes_to_array(scene.boxes))
        mutual = bm.mutual_guidance_assign(
            iou_anchor, snapshot.iou_regressed, snapshot.classif_scores
        )
        gts = bm.ground_truth_from_scene(scene)
        static_dets = nms(bm.detections_from_snapshot(scene, anchors, snapshot), 0.5)
        mutual_dets = nms(
            bm.detections_from_snapshot(
                scene, anchors, snapshot,
                classification_labels=mutual.classification_labels,
            ),
            0.5,
        )
        assert misalignment_rate(static_dets, gts).rate > misalignment_rate(mutual_dets, gts).rate


# corners and sides on a coarse 20 px lattice: duplicate boxes, tied IoU and
# IoU exactly at a threshold are common, and the areas reach all COCO bands
SIDE = st.sampled_from([1, 2, 3, 5])
BOX = st.tuples(st.integers(0, 3), st.integers(0, 3), SIDE, SIDE).map(
    lambda c: Box(20 * c[0], 20 * c[1], 20 * (c[0] + c[2]), 20 * (c[1] + c[3]))
)
TIED_SCORE = st.sampled_from([0.2, 0.5, 0.5, 0.9, 1.0])


@st.composite
def eval_cases(draw):
    """Ground truth in images 0-1 and classes 0-2; detections also in image 2
    and class 3, which have no ground truth."""
    gts = draw(st.lists(st.builds(GroundTruth, BOX, st.integers(0, 2), st.integers(0, 1)),
                        min_size=1, max_size=8))
    dets = draw(st.lists(st.builds(Detection, BOX, st.integers(0, 3), TIED_SCORE,
                                   st.integers(0, 2)), max_size=14))
    return dets, gts


def oracle_mean_ap(dets, gts, threshold):
    """Mean over ground-truth classes of the oracle's per-class AP."""
    return np.mean([
        brute_force_ap_at_threshold(
            [d for d in dets if d.class_id == c], [g for g in gts if g.class_id == c], threshold
        )
        for c in sorted({g.class_id for g in gts})
    ])


class TestAgainstOracles:
    @given(eval_cases(), st.sampled_from([0.0, 1 / 3, 0.5]))
    def test_nms_keeps_the_oracles_objects(self, case, threshold):
        dets, _ = case
        kept = nms(dets, threshold)
        assert [id(d) for d in kept] == [id(d) for d in brute_force_nms(dets, threshold)]

    @given(eval_cases())
    def test_per_class_ap(self, case):
        dets, gts = case
        for c in {g.class_id for g in gts}:
            class_dets = [d for d in dets if d.class_id == c]
            class_gts = [g for g in gts if g.class_id == c]
            # at 0.0, an IoU-0 object is still no match
            thresholds = (0.0, 0.5, 0.75)
            result = average_precision(class_dets, class_gts, iou_thresholds=thresholds)
            for value, threshold in zip(result.per_threshold_ap, thresholds):
                reference = brute_force_ap_at_threshold(class_dets, class_gts, threshold)
                assert value == pytest.approx(reference, abs=1e-12)

    @given(eval_cases())
    def test_area_bands(self, case):
        dets, gts = case
        result = average_precision(dets, gts, iou_thresholds=(0.5, 0.75), area_bands=True)
        assert result.ap == pytest.approx(
            np.mean([oracle_mean_ap(dets, gts, t) for t in (0.5, 0.75)]), abs=1e-12
        )
        banded = {"small": result.ap_small, "medium": result.ap_medium, "large": result.ap_large}
        for name, (low, high) in AREA_BANDS.items():
            band_gts = [g for g in gts if low <= area(g.box) < high]
            band_dets = [d for d in dets if low <= area(d.box) < high]
            if not band_gts:
                assert banded[name] is None
                continue
            expected = np.mean([oracle_mean_ap(band_dets, band_gts, t) for t in (0.5, 0.75)])
            assert banded[name] == pytest.approx(expected, abs=1e-12)

    @given(eval_cases(), st.sampled_from([0.5, 0.75, 1.0]), st.sampled_from([0.0, 0.5, 0.9]))
    def test_misalignment(self, case, loc_threshold, score_threshold):
        dets, gts = case
        result = misalignment_rate(dets, gts, loc_threshold, score_threshold)
        rate, flags = brute_force_misalignment(dets, gts, loc_threshold, score_threshold)
        assert result.flags == flags
        assert result.rate == rate


@st.composite
def batches(draw):
    """A batch built from arrays, with ground truth: rows from the
    ``eval_cases`` lattice, image ids mixing integers and strings."""
    dets, gts = draw(eval_cases())
    images = (0, "b", 2)
    batch = Detections(
        np.asarray([d.box.as_tuple() for d in dets], dtype=np.float64).reshape(-1, 4),
        [d.score for d in dets],
        [d.class_id for d in dets],
        images,
        [d.image_id for d in dets],
    )
    gts = [GroundTruth(g.box, g.class_id, images[g.image_id]) for g in gts]
    return batch, gts


def batch_of(*rows, images=(0,)):
    """A batch of (x, y, w, h, class_id, score, image position) rows."""
    return Detections(
        np.asarray([(x, y, x + w, y + h) for x, y, w, h, *_ in rows], dtype=np.float64),
        [r[5] for r in rows],
        [r[4] for r in rows],
        images,
        [r[6] for r in rows],
    )


# three rows that NMS at 0.5 cuts to two: the third overlaps the first by 0.81
OVERLAPPING = ((0, 0, 10, 10, 0, 0.9, 0), (50, 50, 10, 10, 0, 0.8, 0), (1, 1, 9, 9, 0, 0.7, 0))


class TestDetectionsBatch:
    def test_rows_are_built_once(self):
        batch = batch_of(*OVERLAPPING, images=("img",))
        first = batch[0]
        assert first is batch[0] is batch[-3]
        assert first == Detection(Box(0, 0, 10, 10), 0, 0.9, "img")
        assert type(first.class_id) is int and type(first.score) is float
        assert list(batch) == [batch[0], batch[1], batch[2]]

    def test_rows_skip_the_checks_and_equal_checked_rows(self):
        batch = batch_of(*OVERLAPPING, images=("img",))
        with mock.patch.object(Box, "__post_init__", side_effect=AssertionError), \
                mock.patch.object(Detection, "__post_init__", side_effect=AssertionError):
            rows = list(batch)
        for i, row in enumerate(rows):
            checked = Detection(Box(*batch.boxes[i].tolist()), int(batch.class_ids[i]),
                                float(batch.scores[i]), "img")
            assert row == checked and hash(row) == hash(checked) and repr(row) == repr(checked)
            assert row is batch[i] and row.box.width == checked.box.width
        assert batch.take([2, 0])[1] is rows[0]
        with pytest.raises(AttributeError):
            rows[0].score = 0.5

    def test_batch_is_frozen(self):
        batch = batch_of(*OVERLAPPING)
        with pytest.raises(ValueError):
            batch.scores[0] = 0.1
        with pytest.raises(AttributeError):
            batch.scores = np.zeros(3)
        with pytest.raises(AttributeError):
            del batch.images

    @pytest.mark.parametrize("parent_first", [True, False])
    def test_nms_rows_are_the_parents_objects(self, parent_first):
        batch = batch_of(*OVERLAPPING)
        if parent_first:
            rows = list(batch)
            kept = nms(batch, 0.5)
        else:
            kept = nms(batch, 0.5)
            kept_rows = list(kept)
            rows = list(batch)
            assert list(kept) == kept_rows
        assert [id(d) for d in kept] == [id(rows[0]), id(rows[1])]
        assert [id(d) for d in kept] == [id(d) for d in brute_force_nms(rows, 0.5)]

    def test_nms_of_a_list_keeps_its_objects(self):
        dets = [det(x, y, w, h, c, s) for x, y, w, h, c, s, _ in OVERLAPPING]
        kept = nms(dets, 0.5)
        assert isinstance(kept, Detections)
        assert [id(d) for d in kept] == [id(dets[0]), id(dets[1])]

    def test_take_and_slices_share_rows(self):
        batch = batch_of(*OVERLAPPING)
        part = batch.take([2, 0])
        assert part[0] is batch[2] and part[1] is batch[0]
        assert batch[1:][0] is batch[1]
        assert len(batch[5:]) == 0

    def test_dropped_parent_frees_the_rows_nms_did_not_keep(self):
        batch = batch_of(*OVERLAPPING)
        rows = list(batch)
        kept = nms(batch, 0.5)
        kept_row, dropped_row = weakref.ref(rows[0]), weakref.ref(rows[2])
        del batch, rows
        gc.collect()
        assert dropped_row() is None
        assert kept_row() is kept[0]

    def test_empty_batch(self):
        empty = Detections(np.zeros((0, 4)), [], [], (), [])
        assert len(empty) == 0 and list(empty) == []
        assert len(nms(empty, 0.5)) == 0
        assert average_precision(empty, [gt(0, 0, 10, 10)]).ap == 0.0
        assert misalignment_rate(empty, [gt(0, 0, 10, 10)]).flags == []

    @pytest.mark.parametrize("boxes, scores, classes, images, index", [
        ([[0, 0, np.nan, 1]], [0.5], [0], (0,), [0]),  # NaN coordinate
        ([[0, 0, np.inf, 1]], [0.5], [0], (0,), [0]),  # infinite coordinate
        ([[0, 0, 0, 1]], [0.5], [0], (0,), [0]),  # zero width
        ([[0, 0, 1, -1]], [0.5], [0], (0,), [0]),  # negative height
        ([[0, 0, 1, 1]], [1.5], [0], (0,), [0]),  # score above 1
        ([[0, 0, 1, 1]], [-0.1], [0], (0,), [0]),  # negative score
        ([[0, 0, 1, 1]], [np.nan], [0], (0,), [0]),  # NaN score
        ([[0, 0, 1, 1]], [0.5, 0.5], [0], (0,), [0]),  # more scores than boxes
        ([[0, 0, 1, 1]] * 2, [0.5, 0.5], [0], (0,), [0, 0]),  # too few class ids
        ([[0, 0, 1, 1]], [0.5], [0], (0,), [0, 0]),  # too many image positions
        ([[0, 0, 1, 1]], [0.5], [0.5], (0,), [0]),  # fractional class id
        ([[0, 0, 1, 1]], [0.5], [0], (0,), [1]),  # image position out of range
        ([[0, 0, 1, 1]], [0.5], [0], (0, 0), [0]),  # repeated image id
        ([0, 0, 1, 1], [0.5], [0], (0,), [0]),  # boxes not (N, 4)
    ])
    def test_construction_rejects(self, boxes, scores, classes, images, index):
        with pytest.raises(ValueError):
            Detections(np.asarray(boxes, dtype=np.float64), scores, classes, images, index)

    @pytest.mark.parametrize("score", [1.5, -0.1, np.nan, True, "0.5", None])
    def test_a_row_rejects_a_score_outside_the_unit_interval(self, score):
        with pytest.raises(ValueError, match="bad field 'score'"):
            Detection(Box(0, 0, 1, 1), 0, score)

    @given(batches(), st.sampled_from([0.0, 1 / 3, 0.5, 1.0]))
    def test_nms_of_a_batch_is_the_oracles(self, case, threshold):
        batch, _ = case
        kept = nms(batch, threshold)
        assert [id(d) for d in kept] == [id(d) for d in brute_force_nms(list(batch), threshold)]

    @given(batches())
    def test_batch_and_its_rows_score_alike(self, case):
        batch, gts = case
        rows = [Detection(d.box, d.class_id, d.score, d.image_id) for d in batch]
        thresholds = (0.0, 0.5, 0.75, 1.0)
        a = average_precision(batch, gts, iou_thresholds=thresholds, area_bands=True)
        b = average_precision(rows, gts, iou_thresholds=thresholds, area_bands=True)
        assert a.to_json_dict() == b.to_json_dict()
        for loc, score in ((0.75, 0.5), (1.0, 0.0)):
            mine = misalignment_rate(batch, gts, loc, score)
            assert mine == misalignment_rate(rows, gts, loc, score)


class TestThresholdsAreChecked:
    DETS = [
        det(0, 0, 10, 10, score=0.9), det(50, 50, 10, 10, score=0.8), det(1, 1, 9, 9, score=0.7)
    ]

    @pytest.mark.parametrize("threshold", [np.nan, -0.1, 1.5, np.inf])
    def test_nms(self, threshold):
        with pytest.raises(ValueError, match="bad argument 'iou_threshold'"):
            nms(self.DETS, threshold)

    @pytest.mark.parametrize("thresholds", [(np.nan,), (0.5, 1.2), (-0.5,), ()])
    def test_average_precision(self, thresholds):
        with pytest.raises(ValueError, match="bad argument 'iou_thresholds'"):
            average_precision(self.DETS, [gt(0, 0, 10, 10)], iou_thresholds=thresholds)

    @pytest.mark.parametrize("loc, score", [(np.nan, 0.5), (0.75, np.nan), (1.5, 0.5), (0.75, -1)])
    def test_misalignment_rate(self, loc, score):
        with pytest.raises(ValueError, match="bad argument '(loc|score)_threshold'"):
            misalignment_rate(self.DETS, [gt(0, 0, 10, 10)], loc, score)

    def test_unit_interval_ends_are_valid(self):
        assert len(nms(self.DETS, 0.0)) == 2
        assert len(nms(self.DETS, 1.0)) == 3
        result = average_precision(self.DETS, [gt(0, 0, 10, 10)], (0.0, 1.0))
        assert len(result.per_threshold_ap) == 2
        assert misalignment_rate(self.DETS, [gt(0, 0, 10, 10)], 1.0, 0.0).rate == 2 / 3


class TestClassIdsAreChecked:
    """A class id is a 64-bit integer, as a `Scene`'s are: numpy's int64 cast
    no longer truncates 1.9 to class 1, and no bool passes as class 1."""

    @pytest.mark.parametrize("record, class_id", [
        (GroundTruth, 1.9),  # scored as class 1: AP 1.0, misalignment 0.0
        (GroundTruth, True),
        (GroundTruth, "1"),
        (GroundTruth, 2**70),  # numpy's OverflowError
        (Detection, True),  # beside an int id, a class-1 detection
    ])
    def test_a_record_refuses_a_class_id_that_is_no_integer(self, record, class_id):
        score = (0.8,) if record is Detection else ()
        message = f"bad field 'class_id': must be a 64-bit integer, got {class_id!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            record(Box(0, 0, 10, 10), class_id, *score)

    def test_numpy_integers_are_class_ids(self):
        truth = GroundTruth(Box(0, 0, 10, 10), np.int32(1))
        dets = [Detection(Box(0, 0, 10, 10), np.uint8(1), 0.9)]
        assert type(truth.class_id) is int and type(dets[0].class_id) is int
        assert average_precision(dets, [truth]).ap == 1.0
