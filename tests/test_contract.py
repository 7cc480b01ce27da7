"""The error contract of the public API, held by one table.

``CONTRACT`` names every callable of ``boxmatch.__all__``, plus
``assignment.ranked_selection``. For each checked one it gives one valid call
and the invalid inputs it refuses: each raises the library's ``ValueError``,
whose message names the argument or field. The result records are outputs
that the library builds from checked values; they are listed as unchecked.
The loaders' entries raise ``AnnotationError`` and sit below the table."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import boxmatch as bm
from boxmatch.annotations import AnnotationError, load_annotations, load_detections
from boxmatch.assignment import ranked_selection

NAN = math.nan
GRID = bm.AnchorGridSpec(32, 32, (bm.LevelSpec(8, (16.0,)),))
ANCHORS, POINTS = bm.generate_anchors(GRID), bm.generate_points(GRID)
# the levels' smallest scales decrease: the point ranges would overlap
DECREASING = bm.AnchorGridSpec(64, 64, (
    bm.LevelSpec(8, (64.0,)), bm.LevelSpec(16, (128.0,)), bm.LevelSpec(32, (32.0,))
))
BOX = bm.Box(4, 4, 20, 20)
TUPLE_BOXES = [(0, 0, 10, 10)]  # coordinates, not a Box
SCENE = bm.Scene(32, 32, (BOX,), (0,))
CFG = bm.TrajectoryConfig(steps=2)
SNAPSHOT = bm.synth_predictions(SCENE, ANCHORS, CFG, 0.5)
ONES = np.ones((len(ANCHORS), 1))  # a score column that outscores the scene's object
DETS, GTS = [bm.Detection(BOX, 0, 0.9)], [bm.GroundTruth(BOX, 0)]


def matrix(rows, value=0.5, columns=1):
    return np.full((rows, columns), value)


ANCHOR_MATRIX, POINT_MATRIX = matrix(len(ANCHORS)), matrix(len(POINTS))
BAD_MATRICES = [matrix(len(ANCHORS), NAN), matrix(len(ANCHORS), 1.5), np.full(3, 0.5)]
BAD_POINT_MATRICES = [matrix(len(POINTS), NAN), matrix(len(POINTS) + 1)]
RADII = [("center_sampling_radius", bad) for bad in (NAN, -1.0, math.inf, "a", True)]

UNCHECKED = None  # a result record: built by the library from checked values
RESULT_RECORDS = {
    "AnchorSet", "PointSet", "Assignment", "DynamicLabels", "EvalResult", "MisalignmentResult",
    "TrajectoryResult", "TrajectorySnapshot",
}

# name -> (callable, its valid keyword arguments, invalid inputs). An invalid input is
# (argument, value), or (argument, value, the field its message names) where the value
# is an object whose own field is at fault. "repro" marks an input that once got through.
CONTRACT = {
    # anchors
    "AnchorGridSpec": (bm.AnchorGridSpec, {}, [
        ("image_width", 0), ("image_height", "320"), ("image_width", True), ("levels", ()),
        ("levels", (5,)), ("image_width", 100, "stride"),
    ]),
    "AnchorSet": UNCHECKED,
    "LevelSpec": (bm.LevelSpec, {"stride": 8, "scales": (16.0,)}, [
        ("stride", 0), ("stride", 1.5), ("scales", ()), ("scales", (-1.0,)), ("scales", ("a",)),
        ("aspect_ratios", (0.0,)), ("aspect_ratios", (NAN,)),
    ]),
    "PointSet": UNCHECKED,
    "generate_anchors": (bm.generate_anchors, {"spec": GRID}, []),  # the spec checked itself
    "generate_points": (bm.generate_points, {"spec": GRID}, [("spec", DECREASING, "scales")]),
    "level_scale_ranges": (bm.level_scale_ranges, {"spec": GRID}, [
        ("spec", DECREASING, "scales"),
    ]),
    # assignment
    "Assignment": UNCHECKED,
    "DynamicLabels": UNCHECKED,
    "MatchingConfig": (bm.MatchingConfig, {}, [
        ("t_pos", 1.5), ("t_pos", 0.3), ("t_pos", True), ("t_neg", -0.1), ("t_neg", NAN),
        ("sigma", 1.0), ("sigma", "a"), ("sigma", math.inf),
    ]),
    "amplified_iou": (bm.amplified_iou, {"iou_value": 0.5, "score": 0.5, "sigma": 2.0}, [
        ("iou_value", 1.5), ("iou_value", NAN), ("score", -0.1), ("sigma", 1.0),
    ]),
    "static_assign": (bm.static_assign, {"iou_anchor": ANCHOR_MATRIX}, [
        ("iou_anchor", bad) for bad in BAD_MATRICES
    ]),
    "localize_to_classify": (
        bm.localize_to_classify, {"iou_anchor": ANCHOR_MATRIX, "iou_regressed": ANCHOR_MATRIX},
        [("iou_regressed", bad) for bad in BAD_MATRICES] + [("iou_anchor", BAD_MATRICES[0])]
        + [("iou_regressed", matrix(len(ANCHORS), columns=2))],
    ),
    "classify_to_localize": (
        bm.classify_to_localize, {"iou_anchor": ANCHOR_MATRIX, "classif_scores": ANCHOR_MATRIX},
        [("classif_scores", bad) for bad in BAD_MATRICES]
        + [("classif_scores", matrix(len(ANCHORS) + 1))],
    ),
    "mutual_guidance_assign": (
        bm.mutual_guidance_assign,
        {name: ANCHOR_MATRIX for name in ("iou_anchor", "iou_regressed", "classif_scores")},
        [(name, bad) for name in ("iou_anchor", "iou_regressed", "classif_scores")
         for bad in BAD_MATRICES],
    ),
    "ranked_selection": (
        ranked_selection,
        {"score_matrix": matrix(3, columns=2), "n_pos": [1, 1], "n_ignored": [0, 0]},
        [("n_pos", [True, 1]),  # repro: numpy read it as [1, 1]
         ("n_pos", [np.True_, 1]), ("n_pos", [-1, 1]), ("n_pos", [1.5, 1]), ("n_pos", [1]),
         ("n_ignored", [0, False]), ("n_ignored", [[0, 0]])],
    ),
    # evaluation
    "Detection": (bm.Detection, {"box": BOX, "class_id": 0, "score": 0.5}, [
        ("box", TUPLE_BOXES[0]),  # repro
        ("image_id", [1]),  # repro: average_precision raised "unhashable type"
        ("class_id", 1.9), ("score", 1.5), ("score", True),
    ]),
    "Detections": (
        bm.Detections,
        {"boxes": np.array([[0.0, 0.0, 1.0, 1.0]]), "scores": [0.5], "class_ids": [0],
         "images": (0,), "image_index": [0]},
        [("images", ([1],)), ("images", (0, 0)), ("boxes", np.zeros((1, 3))),
         ("boxes", np.array([[0.0, 0.0, NAN, 1.0]])), ("scores", [1.5]), ("class_ids", [0.5]),
         ("image_index", [1])],
    ),
    "EvalResult": UNCHECKED,
    "GroundTruth": (bm.GroundTruth, {"box": BOX, "class_id": 0}, [
        ("box", TUPLE_BOXES[0]),  # repro
        ("image_id", [1]),  # repro
        ("class_id", "1"),
    ]),
    "MisalignmentResult": UNCHECKED,
    "average_precision": (bm.average_precision, {"dets": DETS, "ground_truth": GTS}, [
        ("iou_thresholds", ("0.5",)), ("iou_thresholds", (True,)),  # repro: both were scored
        ("iou_thresholds", 0.5),  # repro: "'float' object is not iterable"
        ("iou_thresholds", ()), ("iou_thresholds", (NAN,)), ("iou_thresholds", (0.5, 1.2)),
        ("ground_truth", []),
        ("ground_truth", [BOX]), ("dets", TUPLE_BOXES),  # repro: both were AttributeErrors
    ]),
    "misalignment_rate": (bm.misalignment_rate, {"dets": DETS, "ground_truth": GTS}, [
        ("loc_threshold", True), ("loc_threshold", NAN), ("score_threshold", -1),
        ("score_threshold", "a"),
        ("ground_truth", [BOX]), ("dets", TUPLE_BOXES),  # repro: both were AttributeErrors
    ]),
    "nms": (bm.nms, {"dets": DETS, "iou_threshold": 0.5}, [
        ("iou_threshold", [0.5, 0.6]),  # repro: kept 1 of 2 detections
        ("iou_threshold", True), ("iou_threshold", NAN), ("iou_threshold", 1.5),
        ("dets", TUPLE_BOXES),  # repro: "'tuple' object has no attribute 'image_id'"
    ]),
    # fcos
    "centerness": (bm.centerness, {"point": (12.0, 12.0), "gt": BOX}, [
        ("point", (4.0, 4.0)),
        ("gt", TUPLE_BOXES[0]),  # repro: "'tuple' object has no attribute 'x_min'"
        ("point", (NAN, 12.0)),  # repro: returned nan
        ("point", (1.0, 2.0, 3.0)),  # repro: "too many values to unpack (expected 2)"
        ("point", (1.0,)),  # repro: "not enough values to unpack (expected 2, got 1)"
    ]),
    "fcos_assign_original": (bm.fcos_assign_original, {"points": POINTS, "objects": [BOX]}, [
        ("objects", TUPLE_BOXES),  # repro: "'tuple' object has no attribute 'as_tuple'"
        ("objects", np.zeros((1, 3))), ("objects", np.array([[0.0, 0.0, 0.0, 1.0]])), *RADII,
        ("points", ANCHORS),  # repro: "'AnchorSet' object has no attribute 'scale_ranges'"
    ]),
    "fcos_localize_to_classify": (
        bm.fcos_localize_to_classify,
        {"points": POINTS, "objects": [BOX], "iou_regressed": POINT_MATRIX},
        [("objects", TUPLE_BOXES), *RADII]
        + [("iou_regressed", bad) for bad in BAD_POINT_MATRICES]
        + [("points", ANCHORS)],  # repro: an AttributeError
    ),
    "fcos_classify_to_localize": (
        bm.fcos_classify_to_localize,
        {"points": POINTS, "objects": [BOX], "classif_scores": POINT_MATRIX},
        [("sigma", np.array([2.0, 3.0])),  # repro: a numpy broadcast error
         ("sigma", 1.0), ("objects", TUPLE_BOXES), *RADII]
        + [("classif_scores", bad) for bad in BAD_POINT_MATRICES]
        + [("points", ANCHORS)],  # repro: an AttributeError
    ),
    # geometry
    "Box": (bm.Box, {"x_min": 0, "y_min": 0, "x_max": 1, "y_max": 1}, [
        ("x_min", NAN), ("y_max", math.inf), ("x_max", 0), ("y_max", -1),
        ("x_min", "a"),  # repro: "must be real number, not str"
        ("x_max", True),  # repro: constructed, as x_max = 1
    ]),
    "area": (bm.area, {"box": BOX}, [
        ("box", TUPLE_BOXES[0]),  # repro: "'tuple' object has no attribute 'width'"
    ]),
    "boxes_to_array": (bm.boxes_to_array, {"boxes": [BOX]}, [
        ("boxes", TUPLE_BOXES),  # repro: "... no attribute 'as_tuple'"
        ("boxes", [BOX, None]),
    ]),
    "iou": (bm.iou, {"a": BOX, "b": BOX}, [
        ("a", TUPLE_BOXES[0]),  # repro: "'tuple' object has no attribute 'x_max'"
        ("b", TUPLE_BOXES[0]), ("b", "box"),
    ]),
    "pairwise_iou": (bm.pairwise_iou, {"a": [BOX], "b": [BOX]}, [
        ("a", TUPLE_BOXES), ("b", TUPLE_BOXES),  # repro: both were AttributeErrors
        ("a", np.zeros((2, 3))), ("b", np.array([[0.0, 0.0, 1.0, NAN]])),
    ]),
    # simulator
    "Scene": (bm.Scene, {"image_width": 32, "image_height": 32, "boxes": (BOX,), "class_ids": (0,)},
              [
        ("boxes", tuple(TUPLE_BOXES)),  # repro
        ("class_ids", (1.9,)), ("class_ids", (0, 1)), ("image_width", 0),
        ("image_height", "32")]),
    "SceneSpec": (bm.SceneSpec, {}, [
        ("image_width", "320"), ("num_classes", 0), ("count_range", (1,)),
        ("size_range", (64.0, 32.0)), ("size_range", (32.0, 400.0)), ("max_pairwise_iou", 1.5),
        ("seed", -1),
    ]),
    "TrajectoryConfig": (bm.TrajectoryConfig, {}, [
        ("steps", 0), ("noise", -1.0), ("misalignment_fraction", 1.5),
        ("localization_gain", "cubic"), ("score_gain", None),
    ]),
    "TrajectoryResult": UNCHECKED,
    "TrajectorySnapshot": UNCHECKED,
    "detections_from_snapshot": (
        bm.detections_from_snapshot,
        {"scene": SCENE, "anchor_set": ANCHORS, "snapshot": SNAPSHOT},
        [("image_id", [1]),  # repro: "unhashable type: 'list'"
         ("classification_labels", np.zeros((len(ANCHORS), 1), dtype=int)),
         ("classification_labels", np.zeros(len(ANCHORS))),  # repro: float labels were read
         ("classification_labels", np.full(len(ANCHORS), NAN)),  # repro: suppressed nothing
         ("classification_labels", [0] * (len(ANCHORS) - 1) + [[0, 1]]),  # repro: numpy's error
         # repro, each: an IndexError, or a batch scored without an object
         ("snapshot", replace(SNAPSHOT, classif_scores=np.c_[SNAPSHOT.classif_scores, ONES])),
         ("scene", bm.Scene(32, 32, (BOX, BOX), (0, 1)), "snapshot"),  # a score column short
         ("snapshot", replace(SNAPSHOT, classif_scores=SNAPSHOT.classif_scores[:, :0])),
         ("snapshot", replace(SNAPSHOT, regressed_boxes=SNAPSHOT.regressed_boxes[:1]))],
    ),
    "ground_truth_from_scene": (bm.ground_truth_from_scene, {"scene": SCENE}, [
        ("image_id", [1]),  # repro: built records that average_precision could not key
    ]),
    "run_trajectory": (
        bm.run_trajectory, {"scene": SCENE, "grid": ANCHORS, "cfg": CFG, "strategy": "static"},
        [("seed", "x"),  # repro: a strategy that simulates nothing never read the seed
         ("seed", -1), ("strategy", "fcos")],
    ),
    "synth_point_predictions": (
        bm.synth_point_predictions, {"scene": SCENE, "point_set": POINTS, "cfg": CFG, "t": 0.5},
        [("t", True), ("t", 1.5), ("seed", 1.5)],
    ),
    "synth_predictions": (
        bm.synth_predictions, {"scene": SCENE, "anchor_set": ANCHORS, "cfg": CFG, "t": 0.5},
        [("t", True),  # repro: ran as t = 1
         ("t", "a"),  # repro: "'<=' not supported"
         ("t", NAN), ("t", -0.1), ("seed", -1)],
    ),
    "synth_scene": (bm.synth_scene, {"spec": bm.SceneSpec(seed=1)}, []),  # the spec checked itself
}

CHECKED = {name: entry for name, entry in CONTRACT.items() if entry is not UNCHECKED}
INVALID = [  # (name, argument, value, the name its message must hold)
    pytest.param(name, *case[:2], case[-1] if len(case) == 3 else case[0],
                 id=f"{name}-{case[0]}-{k}")
    for name, (_, _, cases) in CHECKED.items()
    for k, case in enumerate(cases)
]


def test_the_table_names_every_public_callable_and_ranked_selection():
    public = {name for name in bm.__all__ if callable(getattr(bm, name))}
    assert set(CONTRACT) == public | {"ranked_selection"}


def test_the_result_records_are_the_unchecked_entries():
    assert {name for name, entry in CONTRACT.items() if entry is UNCHECKED} == RESULT_RECORDS


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_the_valid_call_runs(name):
    call, valid, _ = CHECKED[name]
    call(**valid)


@pytest.mark.parametrize("name, argument, value, named", INVALID)
def test_an_invalid_input_is_refused_by_name(name, argument, value, named):
    call, valid, _ = CHECKED[name]
    with pytest.raises(ValueError) as raised:
        call(**{**valid, argument: value})
    assert type(raised.value) is ValueError
    assert named in str(raised.value)


def test_a_refused_value_is_shown_in_brief():
    """A message shows a short value whole and a long one, such as an anchor set, cut short."""
    with pytest.raises(ValueError) as raised:
        bm.fcos_assign_original(ANCHORS, [BOX])
    assert str(raised.value).startswith("bad argument 'points': must be a PointSet, got AnchorSet(")
    assert len(str(raised.value)) < 200
    with pytest.raises(ValueError, match=r"^bad argument 'a': must be a Box, got \(0, 0, 1, 1\)$"):
        bm.iou((0, 0, 1, 1), BOX)


# The loaders: each bad field is refused with an AnnotationError naming its record and field.
IMAGE = {"id": 1, "width": 32, "height": 32}
DETECTION = {"image_id": 1, "bbox": [0, 0, 5, 5], "category_id": 0, "score": 0.5}


@pytest.mark.parametrize("field, value", [
    ("width", 0), ("height", -1), ("width", "32"), ("height", True), ("id", [1]),
])
def test_load_annotations_refuses_a_bad_image_field(tmp_path, field, value):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps({"images": [{**IMAGE, field: value}]}))
    with pytest.raises(AnnotationError, match=rf"images\[0\]: bad field '{field}': "):
        load_annotations(path)


@pytest.mark.parametrize("field, value", [
    ("score", 1.5), ("score", -0.1), ("score", True), ("score", "0.5"), ("category_id", 1.5),
    ("bbox", [0, 0, -5, 5]),
])
def test_load_detections_refuses_a_bad_field(tmp_path, field, value):
    path = tmp_path / "dets.json"
    path.write_text(json.dumps([{**DETECTION, field: value}]))
    with pytest.raises(AnnotationError, match=rf"detections\[0\]: bad field '{field}': "):
        load_detections(path, [1])


def test_ground_truth_from_scene_builds_the_checked_records():
    scene = bm.Scene(32, 32, (BOX, bm.Box(0, 0, 8, 8)), (np.int64(2), 0))
    records = bm.ground_truth_from_scene(scene, "a")
    assert records == [bm.GroundTruth(BOX, 2, "a"), bm.GroundTruth(bm.Box(0, 0, 8, 8), 0, "a")]
    assert [type(record.class_id) for record in records] == [int, int]
