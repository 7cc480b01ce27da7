"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import json

import numpy as np
import pytest

import boxmatch as bm
from boxmatch.cli import main
from boxmatch.fcos import (
    fcos_assign_original,
    fcos_classify_to_localize,
    fcos_localize_to_classify,
)
from oracles import brute_force_nms, rasterized_iou

GRID_SPEC = bm.AnchorGridSpec()
ANCHORS = bm.generate_anchors(GRID_SPEC)
POINTS = bm.generate_points(GRID_SPEC)

# the 13-anchor single-object worked example: 6 overlaps at or above 0.5,
# 3 in [0.4, 0.5), 4 below
BOAT_IOUS = [0.55, 0.62, 0.51, 0.70, 0.58, 0.53, 0.44, 0.47, 0.41, 0.30, 0.22, 0.10, 0.05]

N_SCENES = 1000


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


@pytest.fixture(scope="module")
def scene_corpus():
    """Seeded scenes with anchor- and point-strategy results, shared by the
    count-conservation and positive-guarantee criteria."""
    corpus = []
    for seed in range(N_SCENES):
        scene = bm.synth_scene(bm.SceneSpec(count_range=(1, 5), seed=seed))
        iou_anchor = bm.pairwise_iou(ANCHORS.array, bm.boxes_to_array(scene.boxes))
        rng = np.random.default_rng(seed + 1_000_000)
        iou_regressed = np.clip(iou_anchor + rng.uniform(0, 0.3, iou_anchor.shape), 0, 1)
        scores = rng.uniform(0, 1, iou_anchor.shape)
        static = bm.static_assign(iou_anchor)
        l2c = bm.localize_to_classify(iou_anchor, iou_regressed)
        c2l = bm.classify_to_localize(iou_anchor, scores)

        shape = (len(POINTS), len(scene.boxes))
        point_iou = rng.uniform(0, 1, shape)
        point_scores = rng.uniform(0, 1, shape)
        original = fcos_assign_original(POINTS, scene.boxes)
        point_l2c = fcos_localize_to_classify(POINTS, scene.boxes, point_iou)
        point_c2l = fcos_classify_to_localize(POINTS, scene.boxes, point_scores)
        corpus.append(
            {
                "n_objects": len(scene.boxes),
                "static": static,
                "l2c": l2c,
                "c2l": c2l,
                "original": original,
                "point_l2c": point_l2c,
                "point_c2l": point_c2l,
            }
        )
    return corpus


def test_criterion_1_amplification_closed_form():
    assert bm.amplified_iou(0.5, 0.0, 2.0) == 0.5
    # 0.70710678... = sqrt(1/2); 0.65180... = 0.49 ** 0.6
    assert abs(bm.amplified_iou(0.5, 1.0, 2.0) - 2**-0.5) <= 1e-9
    assert abs(bm.amplified_iou(0.49, 0.8, 2.0) - 0.65180) <= 1e-4
    assert abs(bm.amplified_iou(0.49, 0.8, 2.0) - np.exp(0.6 * np.log(0.49))) <= 1e-12

    rng = np.random.default_rng(123)
    ious = rng.uniform(0, 1, 100_000)
    scores = rng.uniform(0, 1, 100_000)
    sigmas = rng.uniform(1.0 + 1e-9, 20.0, 100_000)
    amplified = bm.amplified_iou(ious, scores, sigmas)
    violations = int(np.sum(amplified < ious))
    assert violations == 0
    report(1, "amplification closed forms match; 0/100000 below raw overlap")


def test_criterion_2_boat_fixture():
    assignment = bm.static_assign(np.asarray(BOAT_IOUS).reshape(-1, 1))
    assert assignment.per_object_counts == [(6, 3)]
    report(2, "13-anchor fixture yields n_pos=6, n_ignored=3")


def test_criterion_3_count_conservation(scene_corpus):
    violations = 0
    for entry in scene_corpus:
        budgets = [c[0] for c in entry["static"].per_object_counts]
        if entry["l2c"].premerge_positive_counts != budgets:
            violations += 1
        if entry["c2l"].premerge_positive_counts != budgets:
            violations += 1
        point_budgets = entry["original"].per_object_counts
        if entry["point_l2c"].premerge_positive_counts != point_budgets:
            violations += 1
        if entry["point_c2l"].premerge_positive_counts != point_budgets:
            violations += 1
    assert violations == 0
    report(3, f"pre-merge positive counts equal static budgets on {N_SCENES} scenes")


def test_criterion_4_positive_guarantee(scene_corpus):
    violations = 0
    for entry in scene_corpus:
        for j in range(entry["n_objects"]):
            for labels in (
                entry["static"].classification_labels,
                entry["l2c"].labels,
                entry["c2l"].labels,
                entry["original"].classification_labels,
                entry["point_l2c"].labels,
                entry["point_c2l"].labels,
            ):
                if not np.any(labels == j):
                    violations += 1
    assert violations == 0
    report(4, f"every object kept >=1 positive under all six strategies on {N_SCENES} scenes")


def test_criterion_5_threshold_dynamics():
    cfg = bm.TrajectoryConfig()
    assert cfg.steps == 10
    for seed in range(5):
        scene = bm.synth_scene(bm.SceneSpec(seed=seed))
        dynamic = bm.run_trajectory(scene, ANCHORS, cfg, "l2c", seed=seed)
        fixed = bm.run_trajectory(scene, ANCHORS, cfg, "l2c-fixed", seed=seed)
        assert len(dynamic.counts) == 10
        assert len(set(dynamic.counts)) == 1, f"seed {seed}: {dynamic.counts}"
        assert fixed.counts[-1] >= 1.5 * fixed.counts[0], f"seed {seed}: {fixed.counts}"
    report(5, "dynamic counts constant over 10 steps; fixed-threshold counts grew >=1.5x")


def test_criterion_6_cold_start_degeneracy():
    checked = 0
    for seed in range(20):
        scene = bm.synth_scene(bm.SceneSpec(seed=seed))
        iou_anchor = bm.pairwise_iou(ANCHORS.array, bm.boxes_to_array(scene.boxes))
        snapshot = bm.synth_predictions(scene, ANCHORS, bm.TrajectoryConfig(), 0.0, seed=seed)
        assert np.array_equal(snapshot.iou_regressed, iou_anchor)
        assert snapshot.classif_scores.max() == 0.0
        # no tie at any object's selection boundary
        tie_free = True
        for j, (n_pos, _) in enumerate(bm.static_assign(iou_anchor).per_object_counts):
            column = np.sort(iou_anchor[:, j])[::-1]
            if n_pos < column.size and column[n_pos - 1] == column[n_pos]:
                tie_free = False
        if not tie_free:
            continue
        checked += 1
        mutual = bm.mutual_guidance_assign(
            iou_anchor, snapshot.iou_regressed, snapshot.classif_scores
        )
        static = bm.static_assign(iou_anchor)
        static_pos = static.classification_labels >= 0
        mutual_pos = mutual.classification_labels >= 0
        assert np.array_equal(static_pos, mutual_pos)
        assert np.array_equal(
            mutual.classification_labels[mutual_pos],
            static.classification_labels[static_pos],
        )
    assert checked >= 15  # ties are measure-zero; nearly all seeds must count
    report(6, f"t=0 classification positives equal static positives on {checked} tie-free scenes")


def test_criterion_7_oracles():
    # greedy NMS against the quadratic reference
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        dets = []
        for _ in range(int(rng.integers(1, 21))):
            x, y = rng.uniform(0, 40, 2)
            dets.append(
                bm.Detection(
                    bm.Box(x, y, x + rng.uniform(2, 30), y + rng.uniform(2, 30)),
                    int(rng.integers(0, 3)),
                    float(np.round(rng.uniform(0, 1), 3)),
                    int(rng.integers(0, 2)),
                )
            )
        assert bm.nms(dets, 0.5) == brute_force_nms(dets, 0.5)

    # continuous IoU against pixel counting
    for _ in range(500):
        x1, y1 = rng.integers(0, 40, 2)
        a = bm.Box(x1, y1, x1 + rng.integers(1, 24), y1 + rng.integers(1, 24))
        x2, y2 = rng.integers(0, 40, 2)
        b = bm.Box(x2, y2, x2 + rng.integers(1, 24), y2 + rng.integers(1, 24))
        assert abs(bm.iou(a, b) - rasterized_iou(a, b)) <= 1e-9

    # hand-computed two-detection precision/recall curve
    gts = [bm.GroundTruth(bm.Box(0, 0, 10, 10), 0)]
    dets = [
        bm.Detection(bm.Box(0, 0, 10, 6), 0, 0.9),
        bm.Detection(bm.Box(50, 50, 60, 60), 0, 0.8),
    ]
    result = bm.average_precision(dets, gts)
    assert result.ap50 == 1.0
    assert result.ap75 == 0.0
    report(7, "nms matches reference on 1000 cases; iou matches rasterization on 500; "
              "AP50=1, AP75=0")


def test_criterion_8_misalignment_direction():
    cfg = bm.TrajectoryConfig(misalignment_fraction=0.3)
    matching = bm.MatchingConfig()
    strict_wins = 0
    for seed in range(100):
        scene = bm.synth_scene(bm.SceneSpec(seed=seed))
        iou_anchor = bm.pairwise_iou(ANCHORS.array, bm.boxes_to_array(scene.boxes))
        snapshot = bm.synth_predictions(scene, ANCHORS, cfg, 0.8, seed=seed)
        mutual = bm.mutual_guidance_assign(
            iou_anchor, snapshot.iou_regressed, snapshot.classif_scores, matching
        )
        ground_truth = bm.ground_truth_from_scene(scene)
        static = bm.static_assign(iou_anchor, matching).classification_labels
        static_dets = bm.nms(bm.detections_from_snapshot(scene, ANCHORS, snapshot, static), 0.5)
        mutual_dets = bm.nms(
            bm.detections_from_snapshot(
                scene, ANCHORS, snapshot,
                classification_labels=mutual.classification_labels,
            ),
            0.5,
        )
        static_rate = bm.misalignment_rate(static_dets, ground_truth).rate
        mutual_rate = bm.misalignment_rate(mutual_dets, ground_truth).rate
        if static_rate > mutual_rate:
            strict_wins += 1
    assert strict_wins >= 95
    report(8, f"static-label misalignment rate strictly higher in {strict_wins}/100 paired trials")


def test_criterion_9_cli_determinism(tmp_path):
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(
        json.dumps(
            {
                "images": [{"id": 1, "width": 320, "height": 320}],
                "annotations": [
                    {"image_id": 1, "bbox": [61, 90, 40, 72], "category_id": 1},
                    {"image_id": 1, "bbox": [200, 40, 80, 60], "category_id": 2},
                ],
                "categories": [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}],
            }
        )
    )
    det_path = tmp_path / "dets.json"
    det_path.write_text(
        json.dumps(
            [{"image_id": 1, "bbox": [61, 90, 40, 72], "category_id": 1, "score": 0.9}]
        )
    )
    commands = [
        ["assign", "--synthetic", "--seed", "11", "--svg"],
        ["assign", "--annotations", str(gt_path), "--strategy", "l2c", "--svg"],
        ["assign", "--synthetic", "--seed", "4", "--strategy", "fcos-mutual"],
        ["simulate", "--synthetic", "--seed", "11"],
        ["evaluate", "--annotations", str(gt_path), "--detections", str(det_path)],
    ]
    for k, argv in enumerate(commands):
        out_a = tmp_path / f"a{k}"
        out_b = tmp_path / f"b{k}"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    report(9, "all CLI commands reproduce byte-identical outputs on rerun")
