"""Traced peak memory of the crowded training path: 50 objects on the 512
grid. The kernels build no (samples, objects) matrix they only reduce or
mask, so each peak stays within a few of the matrices the call returns; the
guided anchor strategies rank each object's positive entries, not a dense
matrix, and read the object-major hit mask without a transposed copy: they
stay below 0.35 of one matrix. A point pool is a run table of its own cells,
not a (points, objects) mask, so point localize-to-classify stays below 0.2.
Detections under labels scale and reduce only the score rows whose best can
pass, not a scaled copy of the whole matrix, so they stay below 0.1.
numpy reports its array buffers to tracemalloc, so the peaks are
deterministic for fixed inputs."""

import tracemalloc

import pytest

from boxmatch.anchors import AnchorGridSpec, generate_anchors, generate_points
from boxmatch.assignment import (
    classify_to_localize,
    localize_to_classify,
    mutual_guidance_assign,
)
from boxmatch.fcos import fcos_classify_to_localize, fcos_localize_to_classify
from boxmatch.geometry import boxes_to_array, pairwise_iou
from boxmatch.simulator import (
    SceneSpec,
    TrajectoryConfig,
    detections_from_snapshot,
    synth_point_predictions,
    synth_predictions,
    synth_scene,
)

SPEC = AnchorGridSpec(512, 512)
SCENE = synth_scene(SceneSpec(512, 512, count_range=(50, 50), size_range=(24.0, 160.0), seed=3))
CONFIG = TrajectoryConfig(misalignment_fraction=0.3)
MATRIX_BYTES = 8 * len(SCENE.boxes)  # one float64 row of a (samples, objects) matrix


@pytest.fixture(scope="module")
def grids():
    return generate_anchors(SPEC), generate_points(SPEC)


def traced_peak(call) -> int:
    """Bytes allocated at the peak of ``call()`` beyond what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_pairwise_iou_peak(grids):
    anchors = grids[0].array
    gt = boxes_to_array(SCENE.boxes)
    peak = traced_peak(lambda: pairwise_iou(anchors, gt))
    assert peak <= 1.5 * len(anchors) * MATRIX_BYTES


def test_synth_predictions_peak(grids):
    anchors = grids[0]
    peak = traced_peak(lambda: synth_predictions(SCENE, anchors, CONFIG, 0.8, seed=3))
    assert peak <= 2.5 * len(anchors) * MATRIX_BYTES


def test_point_classify_to_localize_peak(grids):
    points = grids[1]
    scores = synth_point_predictions(SCENE, points, CONFIG, 0.8, seed=3)[1]
    peak = traced_peak(lambda: fcos_classify_to_localize(points, SCENE.boxes, scores))
    assert peak <= 2 * len(points) * MATRIX_BYTES


def test_point_localize_to_classify_peak(grids):
    points = grids[1]
    regressed = synth_point_predictions(SCENE, points, CONFIG, 0.8, seed=3)[0]
    peak = traced_peak(lambda: fcos_localize_to_classify(points, SCENE.boxes, regressed))
    assert peak <= 0.2 * len(points) * MATRIX_BYTES


ANCHOR_GUIDED = {
    "l2c": lambda iou, snap: localize_to_classify(iou, snap.iou_regressed),
    "c2l": lambda iou, snap: classify_to_localize(iou, snap.classif_scores),
    "mutual": lambda iou, snap: mutual_guidance_assign(
        iou, snap.iou_regressed, snap.classif_scores
    ),
}


@pytest.mark.parametrize("name", ANCHOR_GUIDED)
def test_anchor_guided_peak(grids, name):
    anchors = grids[0]
    iou = pairwise_iou(anchors.array, boxes_to_array(SCENE.boxes))
    snap = synth_predictions(SCENE, anchors, CONFIG, 0.8, seed=3)
    peak = traced_peak(lambda: ANCHOR_GUIDED[name](iou, snap))
    assert peak <= 0.35 * len(anchors) * MATRIX_BYTES


def test_detections_from_snapshot_peak(grids):
    anchors = grids[0]
    iou = pairwise_iou(anchors.array, boxes_to_array(SCENE.boxes))
    snap = synth_predictions(SCENE, anchors, CONFIG, 0.8, seed=3)
    labels = mutual_guidance_assign(iou, snap.iou_regressed, snap.classif_scores)
    peak = traced_peak(
        lambda: detections_from_snapshot(SCENE, anchors, snap, labels.classification_labels)
    )
    assert peak <= 0.1 * len(anchors) * MATRIX_BYTES
