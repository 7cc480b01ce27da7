import hashlib
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from boxmatch import cli, simulator
from boxmatch.anchors import AnchorGridSpec, LevelSpec, generate_anchors, generate_points
from boxmatch.annotations import AnnotationError, load_annotations, load_detections
from boxmatch.assignment import STRATEGIES, MatchingConfig
from boxmatch.cli import (
    RunConfig,
    _diff_payload,
    _json_text,
    _write_json,
    build_run_config,
    main,
    make_parser,
)
from boxmatch.evaluation import EvalResult
from boxmatch.geometry import Box
from boxmatch.simulator import (
    Scene,
    SceneSpec,
    TrajectoryConfig,
    TrajectoryResult,
    TrajectoryStep,
    _labelled,
    run_trajectory,
    synth_scene,
)

# this box produces per-object counts (6, 3) under the default grid and
# thresholds - the 13-anchor worked example realized in annotation form
BOAT_BBOX = [61, 90, 40, 72]


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def annotation_file(tmp_path):
    return write_json(
        tmp_path / "gt.json",
        {
            "images": [
                {"id": 1, "width": 320, "height": 320},
                {"id": 2, "width": 320, "height": 320},
            ],
            "annotations": [
                {"image_id": 1, "bbox": BOAT_BBOX, "category_id": 1},
                {"image_id": 1, "bbox": [200, 40, 80, 60], "category_id": 2},
            ],
            "categories": [{"id": 1, "name": "boat"}, {"id": 2, "name": "car"}],
        },
    )


class TestAnnotations:
    def test_load_and_convert(self, annotation_file):
        images, categories = load_annotations(annotation_file)
        assert [image_id for image_id, _ in images] == [1, 2]
        box = images[0][1].boxes[0]
        assert (box.x_min, box.y_min, box.x_max, box.y_max) == (61, 90, 101, 162)
        assert images[0][1].class_ids == (1, 2)
        assert images[1][1].boxes == ()
        assert categories == {1: "boat", 2: "car"}

    def test_images_load_as_scenes(self, annotation_file):
        images, _ = load_annotations(annotation_file)
        assert images == [
            (1, Scene(320, 320, (Box(61, 90, 101, 162), Box(200, 40, 280, 100)), (1, 2))),
            (2, Scene(320, 320, (), ())),
        ]

    def test_bad_bbox_names_record(self, tmp_path):
        path = write_json(
            tmp_path / "bad.json",
            {
                "images": [{"id": 1, "width": 320, "height": 320}],
                "annotations": [{"image_id": 1, "bbox": [10, 10, -5, 20], "category_id": 1}],
            },
        )
        with pytest.raises(AnnotationError, match=r"annotations\[0\]"):
            load_annotations(path)

    def test_unknown_image_in_annotation(self, tmp_path):
        path = write_json(
            tmp_path / "bad.json",
            {
                "images": [{"id": 1, "width": 320, "height": 320}],
                "annotations": [{"image_id": 9, "bbox": [1, 1, 5, 5], "category_id": 1}],
            },
        )
        with pytest.raises(AnnotationError, match="unknown image id"):
            load_annotations(path)

    def test_missing_field_named(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"images": [{"id": 1, "width": 320}]})
        with pytest.raises(AnnotationError, match="height"):
            load_annotations(path)

    def test_detections_unknown_ids_listed(self, tmp_path):
        path = write_json(
            tmp_path / "dets.json",
            [
                {"image_id": 7, "bbox": [0, 0, 5, 5], "category_id": 1, "score": 0.5},
                {"image_id": 8, "bbox": [0, 0, 5, 5], "category_id": 1, "score": 0.5},
            ],
        )
        with pytest.raises(AnnotationError, match=r"\[7, 8\]"):
            load_detections(path, [1, 2])

    def test_detections_roundtrip(self, tmp_path):
        path = write_json(
            tmp_path / "dets.json",
            [{"image_id": 1, "bbox": [10, 20, 30, 40], "category_id": 2, "score": 0.75}],
        )
        (det,) = load_detections(path, [1])
        assert det.class_id == 2
        assert det.score == 0.75
        assert det.box.as_tuple() == (10, 20, 40, 60)

    def test_detections_load_as_one_batch(self, tmp_path):
        path = write_json(
            tmp_path / "dets.json",
            [
                {"image_id": "b", "bbox": [1, 2, 3, 4], "category_id": 0, "score": 1},
                {"image_id": 1, "bbox": [0.5, 0, 2, 2], "category_id": 3, "score": 0.25},
                {"image_id": "b", "bbox": [5, 5, 1, 1], "category_id": 3, "score": 0.0},
            ],
        )
        dets = load_detections(path, [1, "b"])
        assert dets.images == ("b", 1)
        assert dets.image_index.tolist() == [0, 1, 0]
        assert dets.boxes.tolist() == [[1, 2, 4, 6], [0.5, 0, 2.5, 2], [5, 5, 6, 6]]
        assert dets.scores.tolist() == [1.0, 0.25, 0.0]
        assert dets.class_ids.tolist() == [0, 3, 3]
        assert [d.image_id for d in dets] == ["b", 1, "b"]
        assert len(load_detections(write_json(tmp_path / "none.json", []), [1])) == 0


IMAGE = {"id": 1, "width": 320, "height": 320}
ONE_IMAGE = {"images": [IMAGE]}
DETECTION = {"image_id": 1, "bbox": [1, 1, 5, 5], "category_id": 1, "score": 0.5}


def one_annotation(**fields):
    record = {"image_id": 1, "bbox": [1, 1, 5, 5], "category_id": 1, **fields}
    return {"images": [IMAGE], "annotations": [record]}


# name -> (annotation file, detection file or None for `assign`, the record named)
MALFORMED = {
    "list-image-id": ({"images": [{**IMAGE, "id": [1]}]}, None, "images[0]"),
    "float-image-id": ({"images": [{**IMAGE, "id": 1.0}]}, None, "images[0]"),
    "bool-image-id": ({"images": [{**IMAGE, "id": True}]}, None, "images[0]"),
    "image-not-object": ({"images": [1]}, None, "images[0]"),
    "string-width": ({"images": [IMAGE, {**IMAGE, "id": 2, "width": "w"}]}, None, "images[1]"),
    "null-category": (one_annotation(category_id=None), None, "annotations[0]"),
    "string-coordinate": (one_annotation(bbox=["a", 1, 5, 5]), None, "annotations[0]"),
    "dict-image-id": (one_annotation(image_id={"a": 1}), None, "annotations[0]"),
    "annotation-not-object": ({**ONE_IMAGE, "annotations": [None]}, None, "annotations[0]"),
    "string-category-id": ({**ONE_IMAGE, "categories": [{"id": "x"}]}, None, "categories[0]"),
    "det-dict-image-id": (ONE_IMAGE, [{**DETECTION, "image_id": {"a": 1}}], "detections[0]"),
    "det-null-category": (ONE_IMAGE, [DETECTION, {**DETECTION, "category_id": None}],
                          "detections[1]"),
    "det-string-coordinate": (ONE_IMAGE, [{**DETECTION, "bbox": [1, 1, "a", 5]}],
                              "detections[0]"),
    "det-null-score": (ONE_IMAGE, [{**DETECTION, "score": None}], "detections[0]"),
    "det-not-object": (ONE_IMAGE, [7], "detections[0]"),
    "fractional-width": ({"images": [{**IMAGE, "width": 320.9}]}, None, "images[0]"),
    "zero-width": ({"images": [{**IMAGE, "width": 0}]}, None, "images[0]"),
    "negative-height": ({"images": [{**IMAGE, "height": -5}]}, None, "images[0]"),
    "duplicate-image-id": ({"images": [IMAGE, IMAGE]}, None, "images[1]"),
    "three-value-bbox": (one_annotation(bbox=[1, 1, 5]), None, "annotations[0]"),
    "det-score-above-one": (ONE_IMAGE, [{**DETECTION, "score": 1.5}], "detections[0]"),
    "string-number-height": ({"images": [{**IMAGE, "height": "320"}]}, None, "images[0]"),
    "fractional-category": (one_annotation(category_id=1.7), None, "annotations[0]"),
    "bool-category": (one_annotation(category_id=True), None, "annotations[0]"),
    "infinite-category-id": ({**ONE_IMAGE, "categories": [{"id": float("inf")}]}, None,
                             "categories[0]"),
    "det-fractional-category": (ONE_IMAGE, [{**DETECTION, "category_id": 1.5}], "detections[0]"),
    # coordinates and scores are JSON numbers: no strings, no booleans
    "string-number-coordinate": (one_annotation(bbox=["1", 1, 5, 5]), None, "annotations[0]"),
    "bool-coordinate": (one_annotation(bbox=[1, 1, True, 5]), None, "annotations[0]"),
    "det-string-number-score": (ONE_IMAGE, [{**DETECTION, "score": "0.5"}], "detections[0]"),
    "det-bool-score": (ONE_IMAGE, [DETECTION, {**DETECTION, "score": True}], "detections[1]"),
    "det-string-and-bool-coordinates": (
        ONE_IMAGE, [{**DETECTION, "bbox": ["1", False, "5", 5]}], "detections[0]"
    ),
    "det-huge-coordinate": (ONE_IMAGE, [{**DETECTION, "bbox": [10**400, 1, 5, 5]}],
                            "detections[0]"),
    # class ids are int64 arrays
    "huge-category": (one_annotation(category_id=2**63), None, "annotations[0]"),
    "det-huge-category": (ONE_IMAGE, [{**DETECTION, "category_id": -2**63 - 1}], "detections[0]"),
    # a malformed record is named before the unknown image ids are listed
    "det-malformed-before-unknown": (
        ONE_IMAGE, [{**DETECTION, "image_id": 9}, {**DETECTION, "image_id": [9]}], "detections[1]"
    ),
}


@pytest.mark.parametrize("annotations, detections, where", MALFORMED.values(), ids=MALFORMED)
def test_malformed_records_are_named(annotations, detections, where, tmp_path, capsys):
    argv = ["--annotations", write_json(tmp_path / "gt.json", annotations),
            "--out", str(tmp_path / "out")]
    if detections is None:
        argv = ["assign", *argv]
    else:
        argv = ["evaluate", *argv, "--detections", write_json(tmp_path / "d.json", detections)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{where}: " in err


@pytest.mark.parametrize(
    "annotations, section",
    [({"images": 5}, "images"), ({**ONE_IMAGE, "annotations": None}, "annotations"),
     ({**ONE_IMAGE, "categories": {}}, "categories")],
)
@pytest.mark.parametrize("command", ["assign", "evaluate"])
def test_sections_that_are_not_arrays_are_named(annotations, section, command, tmp_path, capsys):
    argv = [command, "--annotations", write_json(tmp_path / "gt.json", annotations),
            "--out", str(tmp_path / "out")]
    if command == "evaluate":
        argv += ["--detections", write_json(tmp_path / "d.json", [])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f'gt.json: "{section}" must be an array' in err


@pytest.mark.parametrize("annotations", [{"images": []}, {}], ids=["empty", "absent"])
def test_annotations_without_images_are_rejected(annotations, tmp_path, capsys):
    path = write_json(tmp_path / "gt.json", annotations)
    assert main(["assign", "--annotations", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {path}: no images\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["assign", "--annotations", "missing.json"], "annotation file does not exist: "),
        (["evaluate", "--detections", "dets.json"], "evaluate requires --annotations"),
        (["evaluate", "--annotations", "gt.json", "--detections", "dets.json"],
         "annotation file contains no boxes to evaluate against"),
    ],
    ids=["missing-annotations", "evaluate-without-annotations", "evaluate-without-boxes"],
)
def test_unusable_inputs_are_refused_before_any_output(argv, error, tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "gt.json", ONE_IMAGE)  # an image, but no box
    write_json(tmp_path / "dets.json", [])
    assert main(argv + ["--out", "out"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert not (tmp_path / "out").exists()


def test_integral_floats_load_as_integers(tmp_path):
    path = write_json(tmp_path / "gt.json", {
        "images": [{**IMAGE, "width": 320.0}],
        "annotations": [{"image_id": 1, "bbox": [1, 1, 5, 5], "category_id": 2.0}],
        "categories": [{"id": 2.0, "name": "car"}],
    })
    ((_, image),), categories = load_annotations(path)
    assert (image.image_width, image.class_ids, categories) == (320, (2,), {2: "car"})
    width, class_id, category = image.image_width, image.class_ids[0], next(iter(categories))
    assert type(width) is type(class_id) is type(category) is int


def count_simulations(monkeypatch):
    """Record the scene of every call the CLI makes, through ``simulator``, to
    each simulator. synth_point_predictions runs its proxy boxes through
    synth_predictions; that inner call is not counted as a second simulation."""
    calls = {"synth_predictions": [], "synth_point_predictions": []}
    real_anchor, real_point = simulator.synth_predictions, simulator.synth_point_predictions
    in_point = []

    def anchor(scene, *a, **k):
        if not in_point:
            calls["synth_predictions"].append(scene)
        return real_anchor(scene, *a, **k)

    def point(scene, *a, **k):
        calls["synth_point_predictions"].append(scene)
        in_point.append(scene)
        try:
            return real_point(scene, *a, **k)
        finally:
            in_point.pop()

    monkeypatch.setattr(simulator, "synth_predictions", anchor)
    monkeypatch.setattr(simulator, "synth_point_predictions", point)
    return calls


class TestAssignCommand:
    def test_synthetic_run_writes_files(self, tmp_path):
        out = tmp_path / "out"
        assert main(["assign", "--synthetic", "--seed", "7", "--out", str(out), "--svg"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "scene-0000.diff.json",
            "scene-0000.mutual.json",
            "scene-0000.static.json",
            "scene-0000.svg",
        ]
        diff = json.loads((out / "scene-0000.diff.json").read_text())
        assert diff["format_version"] == 1
        # dynamic budgets equal the static ones object by object
        for row in diff["per_object"]:
            assert row["baseline_positives"] >= 1
        static = json.loads((out / "scene-0000.static.json").read_text())
        assert static["mode"] == "anchors"
        assert len(static["classification"]) == 7500

    def test_boat_fixture_counts_via_cli(self, annotation_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["assign", "--annotations", annotation_file, "--out", str(out)]) == 0
        payload = json.loads((out / "1.static.json").read_text())
        assert payload["per_object_counts"][0] == {"positive": 6, "ignored": 3}
        # the empty image is labelled, not skipped
        assert "no annotations" not in capsys.readouterr().err
        assert (out / "2.static.json").exists()

    @pytest.mark.parametrize("strategy, baseline", [("mutual", "static"), ("fcos-mutual", "fcos")])
    def test_image_without_objects_is_background(self, strategy, baseline, annotation_file,
                                                 tmp_path):
        out = tmp_path / "out"
        argv = ["assign", "--annotations", annotation_file, "--strategy", strategy, "--svg",
                "--out", str(out)]
        assert main(argv) == 0
        assert sorted(p.name for p in out.glob("2.*")) == sorted(
            f"2.{name}" for name in (f"{baseline}.json", f"{strategy}.json", "diff.json", "svg")
        )
        for name in (baseline, strategy):
            payload = json.loads((out / f"2.{name}.json").read_text())
            assert set(payload["classification"]) == set(payload["localization"]) == {-1}
            assert payload["per_object_counts"] == [] and payload["warnings"] == []
        diff = json.loads((out / "2.diff.json").read_text())
        assert diff["per_object"] == [] and diff["baseline_positive_count"] == 0

    @pytest.mark.parametrize(
        "strategy, simulated",
        [("static", None), ("fcos", None), ("l2c", "synth_predictions"),
         ("mutual", "synth_predictions"), ("fcos-mutual", "synth_point_predictions")],
    )
    def test_simulates_only_what_the_strategy_reads(self, strategy, simulated, tmp_path,
                                                     monkeypatch):
        calls = count_simulations(monkeypatch)
        config = write_json(tmp_path / "config.json", {"num_scenes": 3})
        argv = ["assign", "--synthetic", "--config", config, "--strategy", strategy,
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert {name: len(scenes) for name, scenes in calls.items()} == {
            name: 3 if name == simulated else 0 for name in calls
        }

    def test_image_without_objects_is_not_simulated(self, annotation_file, tmp_path,
                                                    monkeypatch):
        calls = count_simulations(monkeypatch)
        argv = ["assign", "--annotations", annotation_file, "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert [len(scene.boxes) for scene in calls["synth_predictions"]] == [2]

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["assign", "--synthetic", "--seed", "3", "--svg"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        for path in sorted(out_a.iterdir()):
            assert path.read_bytes() == (out_b / path.name).read_bytes()

    def test_point_strategy(self, tmp_path):
        out = tmp_path / "out"
        argv = ["assign", "--synthetic", "--seed", "3", "--strategy", "fcos-mutual",
                "--out", str(out), "--svg"]
        assert main(argv) == 0
        payload = json.loads((out / "scene-0000.fcos.json").read_text())
        assert payload["mode"] == "points"
        assert all(row["positive"] >= 1 for row in payload["per_object_counts"])

    def test_static_strategy_diff_is_empty(self, tmp_path):
        out = tmp_path / "out"
        argv = ["assign", "--synthetic", "--seed", "2", "--strategy", "static",
                "--out", str(out)]
        assert main(argv) == 0
        diff = json.loads((out / "scene-0000.diff.json").read_text())
        assert diff["only_baseline"] == [] and diff["only_strategy"] == []

    def test_requires_one_source(self, tmp_path, capsys):
        assert main(["assign", "--out", str(tmp_path / "x")]) == 1
        assert "input source" in capsys.readouterr().err

    def test_both_sources_rejected(self, annotation_file, tmp_path, capsys):
        argv = ["assign", "--annotations", annotation_file, "--synthetic",
                "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_bad_annotation_file_fails(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "bad.json",
            {
                "images": [{"id": 1, "width": 320, "height": 320}],
                "annotations": [{"image_id": 1, "bbox": [10, 10, -5, 20], "category_id": 1}],
            },
        )
        assert main(["assign", "--annotations", path, "--out", str(tmp_path / "x")]) == 1
        assert "annotations[0]" in capsys.readouterr().err

    # image ids name the output files: one that is not a plain file name, or
    # two with the same text, are refused before anything is written
    @pytest.mark.parametrize("ids, message", [
        (["../escaped", "sub/dir"], "image ids cannot name files: '../escaped', 'sub/dir'"),
        ([1, "1"], "image ids name the same files: 1, '1'"),
    ], ids=["path", "same-text"])
    def test_image_ids_that_cannot_name_files_are_refused(self, ids, message, tmp_path, capsys):
        images = [{"id": image_id, "width": 320, "height": 320} for image_id in ids]
        path = write_json(tmp_path / "gt.json", {"images": images, "annotations": []})
        argv = ["assign", "--annotations", path, "--strategy", "static",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["gt.json"]

    def test_config_file_overrides(self, tmp_path):
        config = write_json(
            tmp_path / "config.json",
            {
                "levels": [{"stride": 32, "scales": [64], "aspect_ratios": [1.0]}],
                "scene": {"count_range": [2, 2]},
            },
        )
        out = tmp_path / "out"
        argv = ["assign", "--synthetic", "--config", config, "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads((out / "scene-0000.static.json").read_text())
        assert len(payload["classification"]) == 100  # 10x10 grid, one shape
        assert len(payload["per_object_counts"]) == 2

    @pytest.mark.parametrize(
        "config",
        [
            {"scene": {"count_rang": [2, 2]}},
            {"levels": [{"stride": 32, "scales": [64], "aspect_ratio": [2.0]}]},
            {"image": {"widht": 320}},
            {"matching": {"t_po": 0.6}},
            {"trajectory": {"step": 3}},
            {"num_scene": 2},
            {"scene": {"seed": 4}},  # the scene seed comes from --seed
        ],
    )
    def test_unknown_config_keys_rejected(self, config, tmp_path, capsys):
        path = write_json(tmp_path / "config.json", config)
        argv = ["assign", "--synthetic", "--config", path, "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_strategy_choices_are_the_table_names(self, capsys):
        """``--strategy`` offers every name of ``assignment.STRATEGIES``, the
        anchor grid's first, in the table's order."""
        with pytest.raises(SystemExit):
            make_parser().parse_args(["assign", "-h"])
        names = [name for grid in STRATEGIES.values() for name in grid]
        assert names == ["static", "l2c", "c2l", "mutual", "fcos", "fcos-mutual"]
        assert "--strategy {" + ",".join(names) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize("strategy", ["mutual", "fcos-mutual"])
    def test_labels_as_the_trajectory_step_at_assign_progress(self, strategy, tmp_path):
        """With 3 steps, the default assign_progress 0.5 is the middle step: each scene's
        positives equal run_trajectory's count there, at the scene's own seed."""
        config = write_json(tmp_path / "config.json", {"trajectory": {"steps": 3},
                                                       "num_scenes": 2})
        argv = ["assign", "--synthetic", "--seed", "4", "--config", config,
                "--strategy", strategy, "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        cfg = build_run_config(make_parser().parse_args(argv))
        assert cfg.assign_progress == 0.5
        grid = (generate_points if strategy == "fcos-mutual" else generate_anchors)(cfg.grid)
        for k in range(2):
            scene = synth_scene(replace(cfg.scene_spec, seed=4 + k))
            labels = json.loads((tmp_path / "out" / f"scene-{k:04d}.{strategy}.json").read_text())
            positives = sum(label >= 0 for label in labels["classification"])
            trajectory = run_trajectory(scene, grid, cfg.trajectory, strategy, cfg.matching, 4 + k)
            assert positives == trajectory.counts[1]


def reference_diff(image_id, strategy, name, baseline, dynamic, n_objects):
    """The diff as plain sets and per-object sums, the CLI's original logic."""
    baseline, dynamic = baseline.classification_labels, dynamic.classification_labels
    base_pos = set(np.flatnonzero(baseline >= 0).tolist())
    dyn_pos = set(np.flatnonzero(dynamic >= 0).tolist())
    return {
        "format_version": 1,
        "image_id": image_id,
        "baseline": name,
        "strategy": strategy,
        "baseline_positive_count": len(base_pos),
        "strategy_positive_count": len(dyn_pos),
        "only_baseline": sorted(base_pos - dyn_pos),
        "only_strategy": sorted(dyn_pos - base_pos),
        "per_object": [
            {
                "object": j,
                "baseline_positives": int(np.sum(baseline == j)),
                "strategy_positives": int(np.sum(dynamic == j)),
            }
            for j in range(n_objects)
        ],
    }


class TestDiffPayload:
    @pytest.mark.parametrize("name", ["static", "fcos"])
    def test_matches_the_set_reference(self, name):
        rng = np.random.default_rng(0)
        cases = [(np.full(9, -1), np.full(9, -1), 0), (np.full(9, -1), np.full(9, -2), 3)]
        for _ in range(300):
            n, m = int(rng.integers(1, 60)), int(rng.integers(0, 6))
            labels = [rng.integers(-2, m, size=n) for _ in range(2)]
            cases.append((*labels, m))
        for base, dyn, m in cases:
            results = [SimpleNamespace(classification_labels=v) for v in (base, dyn)]
            args = ("img", "mutual", name, *results, m)
            assert json.dumps(as_lists(_diff_payload(*args))) == json.dumps(reference_diff(*args))

    @pytest.mark.parametrize(
        "strategy, baseline",
        [("static", "static"), ("mutual", "static"), ("fcos", "fcos"), ("fcos-mutual", "fcos")],
    )
    def test_names_the_grid_baseline(self, strategy, baseline, tmp_path):
        out = tmp_path / "out"
        argv = ["assign", "--synthetic", "--strategy", strategy, "--out", str(out)]
        assert main(argv) == 0
        diff = json.loads((out / "scene-0000.diff.json").read_text())
        assert (diff["baseline"], diff["strategy"]) == (baseline, strategy)
        assert (out / f"scene-0000.{baseline}.json").exists()


# strings that look like the layout's own separators, brackets and escapes
TRICKY_TEXT = st.lists(
    st.sampled_from([", ", ",", "[", "]", "{", "}", '"', "\\", "\n", "\u00e9", "\u4e2d", "a"])
).map("".join)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | TRICKY_TEXT,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text() | TRICKY_TEXT, children)
    ),
    max_leaves=20,
)


def indented(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@st.composite
def integer_arrays(draw):
    """1-D arrays of a few integer dtypes: values from the whole dtype range
    (mostly wider than the array), or a few around one point (the table)."""
    dtype = np.dtype(draw(st.sampled_from(["int8", "int32", "int64", "uint64"])))
    low, high = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    if draw(st.booleans()):
        center, width = draw(st.integers(low, high)), draw(st.integers(0, 3))
        low, high = max(low, center - width), min(high, center + width)
    return draw(hnp.arrays(dtype, st.integers(0, 30), elements=st.integers(low, high)))


def as_lists(value):
    """``value`` with every array replaced by its list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    return value


class TestJsonWriter:
    @given(JSON_VALUES)
    @example(["a, b", 1])
    @example({"k": (1, 2), "j": [(), {}, [[]]]})
    @example([float("inf"), float("-inf"), float("nan"), None, True, 1.5e300])
    def test_equals_the_indented_encoder(self, value):
        assert _json_text(value) + "\n" == indented(value)

    def test_real_payloads(self, tmp_path):
        cfg = build_run_config(make_parser().parse_args(["assign", "--synthetic"]))
        scene = synth_scene(SceneSpec(seed=3))
        at = (cfg.matching, 3, [cfg.assign_progress])  # as cmd_assign labels with seed 3
        anchors, points_grid = generate_anchors(cfg.grid), generate_points(cfg.grid)
        base, [[dyn]] = _labelled(scene, anchors, cfg.trajectory, ["mutual"], *at)
        _, [[points]] = _labelled(scene, points_grid, cfg.trajectory, ["fcos-mutual"], *at)
        empty = SimpleNamespace(classification_labels=np.full(7, -1))
        fixed = TrajectoryResult("l2c-fixed", [TrajectoryStep(0.0, 0), TrajectoryStep(1.0, 4)])
        payloads = {
            "anchors": dyn.to_json_dict(),
            "points": points.to_json_dict(),
            "diff": _diff_payload("scene-0000", "mutual", "static", base, dyn, len(scene.boxes)),
            "diff-m0": _diff_payload(1, "mutual", "static", empty, empty, 0),
            "trajectory": {
                "format_version": 1,
                "image_id": 1,
                "dynamic": TrajectoryResult("l2c", [TrajectoryStep(0.0, 9)]).to_json_dict(),
                "fixed": fixed.to_json_dict(),
                "verdict": {"dynamic_constant": True, "fixed_growth_factor": float("inf")},
            },
            "evaluation": EvalResult(0.5, 1.0, None, (0.5, 0.75), (1.0, 0.0)).to_json_dict(),
        }
        for name, payload in payloads.items():
            _write_json(tmp_path / name, payload)
            assert (tmp_path / name).read_text() == indented(as_lists(payload)), name

    @given(integer_arrays())
    @example(np.zeros(0, dtype=np.int64))
    @example(np.array([7], dtype=np.int32))
    @example(np.full(5, -2, dtype=np.int8))
    @example(np.array([-2, -1, 0, 3, -1, 2], dtype=np.int64))
    @example(np.array([-100, 100] * 101, dtype=np.int8))  # value - lo wraps in int8
    @example(np.array([-(2**63), 2**63 - 1], dtype=np.int64))  # no table of 2**64 strings
    @example(np.array([2**63 - 1, -(2**63)] * 3, dtype=np.int64))
    @example(np.array([2**64 - 1, 2**64 - 3, 2**64 - 2], dtype=np.uint64))
    @example(np.array([0, 2**64 - 1], dtype=np.uint64))
    def test_integer_arrays_equal_their_lists(self, arr):
        assert _json_text(arr) + "\n" == indented(arr.tolist())

    def test_nested_arrays_lists_and_dicts(self):
        payload = {
            "labels": np.array([-2, -1, 0, 1, 1, 0], dtype=np.int64),
            "rows": [np.zeros(0, dtype=np.intp), {"k": np.arange(3, dtype=np.uint8)}, [1, "a"]],
            "sparse": np.array([3, 700, 7499], dtype=np.intp),
            "empty": {},
            "nested": {"z": [[np.array([5], dtype=np.int32)], ()], "a": None},
        }
        assert _json_text(payload) + "\n" == indented(as_lists(payload))

    def test_assign_writes_the_label_arrays_themselves(self, tmp_path, monkeypatch):
        """The writer gets the label arrays and the diff's index arrays, and the files
        hold their lists."""
        written, write = {}, cli._write_json

        def spy(path, payload):
            written[path.name] = payload
            write(path, payload)

        monkeypatch.setattr(cli, "_write_json", spy)
        assert main(["assign", "--synthetic", "--seed", "3", "--out", str(tmp_path)]) == 0
        for name in ("scene-0000.static.json", "scene-0000.mutual.json"):
            payload = written[name]
            for key in ("classification", "localization"):
                assert isinstance(payload[key], np.ndarray), (name, key)
            assert (tmp_path / name).read_text() == indented(as_lists(payload))
        diff = written["scene-0000.diff.json"]
        assert all(isinstance(diff[key], np.ndarray) for key in ("only_baseline", "only_strategy"))
        assert (tmp_path / "scene-0000.diff.json").read_text() == indented(as_lists(diff))



class TestRunConfig:
    def test_defaults_are_the_library_types_own(self):
        args = make_parser().parse_args(["assign", "--synthetic", "--seed", "4"])
        assert build_run_config(args) == RunConfig(
            grid=AnchorGridSpec(),
            matching=MatchingConfig(),
            scene_spec=SceneSpec(seed=4),
            trajectory=TrajectoryConfig(),
            num_scenes=1,
            assign_progress=0.5,
        )

    def test_sections_apply_on_top_of_the_defaults(self, tmp_path):
        config = write_json(
            tmp_path / "config.json",
            {
                "image": {"height": 160},
                "matching": {"t_pos": 0.6},
                "scene": {"count_range": [2, 3], "num_classes": 5.0},
                "trajectory": {"noise": 0.0},
                "num_scenes": 3,
            },
        )
        argv = ["simulate", "--synthetic", "--config", config, "--sigma", "3"]
        cfg = build_run_config(make_parser().parse_args(argv))
        assert cfg.grid == AnchorGridSpec(image_height=160)
        assert cfg.matching == MatchingConfig(t_pos=0.6, sigma=3.0)
        assert cfg.scene_spec == SceneSpec(image_height=160, count_range=(2, 3), num_classes=5)
        assert cfg.trajectory == TrajectoryConfig(noise=0.0)
        assert (cfg.num_scenes, cfg.assign_progress) == (3, 0.5)

    def test_integral_floats_are_integers(self, tmp_path):
        config = write_json(tmp_path / "c.json", {"image": {"width": 320.0}, "num_scenes": 3.0})
        cfg = build_run_config(make_parser().parse_args(["assign", "--config", config]))
        assert (cfg.grid.image_width, cfg.num_scenes) == (320, 3)
        assert type(cfg.grid.image_width) is type(cfg.num_scenes) is int

    def test_errors_name_the_section_and_field(self, tmp_path, capsys):
        config = write_json(tmp_path / "c.json", {"scene": {"num_classes": 2.5}})
        assert main(["assign", "--synthetic", "--config", config]) == 1
        assert capsys.readouterr().err == (
            "error: invalid configuration: scene: bad field 'num_classes': "
            "must be a 64-bit integer, got 2.5\n"
        )

    @pytest.mark.parametrize("text, error", [
        ("{", "not valid JSON ("), ("[]", "expected a JSON object at the top level"),
    ])
    def test_read_errors_read_like_annotation_ones(self, text, error, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(text)
        assert main(["assign", "--synthetic", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: {error}")

    def test_sigma_flag_is_checked_with_the_matching_section(self, tmp_path, capsys):
        argv = ["assign", "--synthetic", "--sigma", "1", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        error = capsys.readouterr().err
        assert "invalid configuration: matching: sigma must be > 1, got 1.0" in error


# name -> a config whose one section breaks the number rule, a field's range or the
# section's own shape (a top-level key is checked by RunConfig, section "config")
INVALID_CONFIGS = {
    "fractional-width": {"image": {"width": 320.9}},
    "bool-width": {"image": {"width": True}},
    "string-width": {"image": {"width": "320"}},
    "fractional-stride": {"levels": [{"stride": 8.7, "scales": [32]}]},
    "string-scale": {"levels": [{"stride": 8, "scales": ["32"]}]},
    "fractional-num-scenes": {"num_scenes": 1.9},
    "string-num-scenes": {"num_scenes": "3"},
    "fractional-num-classes": {"scene": {"num_classes": 2.5}},
    "fractional-count": {"scene": {"count_range": [1.5, 3]}},
    "bool-size": {"scene": {"size_range": [True, 64]}},
    "fractional-steps": {"trajectory": {"steps": 2.5}},
    "bool-steps": {"trajectory": {"steps": True}},
    "bool-noise": {"trajectory": {"noise": True}},
    "bool-t-pos": {"matching": {"t_pos": True}},
    "string-progress": {"assign_progress": "0.5"},
    "nan-progress": {"assign_progress": float("nan")},
    "string-overlap-cap": {"scene": {"max_pairwise_iou": "0.2", "count_range": [3, 3]}},
    "overlap-cap-above-one": {"scene": {"max_pairwise_iou": 1.5}},
    "string-aspect-ratio": {"levels": [{"stride": 8, "scales": [32], "aspect_ratios": ["1"]}]},
    "nan-noise": {"trajectory": {"noise": float("nan")}},
    "inf-sigma": {"matching": {"sigma": float("inf")}},
    "progress-above-one": {"assign_progress": 7},
    "zero-num-scenes": {"num_scenes": 0},
    "scene-not-an-object": {"scene": 5},
    "levels-not-a-list": {"levels": 5},
    "level-not-an-object": {"levels": [5]},
    "three-value-count": {"scene": {"count_range": [1, 2, 3]}},
    "reversed-count": {"scene": {"count_range": [3, 1]}},
}
SECTIONS = {"image", "levels", "matching", "scene", "trajectory"}


@pytest.mark.parametrize("config", INVALID_CONFIGS.values(), ids=INVALID_CONFIGS)
@pytest.mark.parametrize("command", ["assign", "simulate"])
def test_invalid_configs_are_rejected(config, command, tmp_path, capsys):
    argv = [command, "--synthetic", "--config", write_json(tmp_path / "c.json", config),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    (key,) = config
    section = key if key in SECTIONS else "config"  # a top-level key
    assert capsys.readouterr().err.startswith(f"error: invalid configuration: {section}: ")
    assert not (tmp_path / "out").exists()


def build_from_config(config):
    """The library type of the one section of ``config``, built straight from it."""
    (key, section), = config.items()
    if key == "image":
        return AnchorGridSpec(**{f"image_{name}": value for name, value in section.items()})
    if key == "levels":
        return [LevelSpec(**level) for level in section]
    types = {"matching": MatchingConfig, "scene": SceneSpec, "trajectory": TrajectoryConfig}
    if key in types:
        return types[key](**section)
    return RunConfig(AnchorGridSpec(), MatchingConfig(), SceneSpec(), TrajectoryConfig(), **config)


def field_names(config):
    """The field names a config's one section sets; None for a section that
    is not an object (or a list of objects, for levels)."""
    (key, section), = config.items()
    if key not in SECTIONS:
        return list(config)
    if key == "levels" and isinstance(section, list) and all(isinstance(s, dict) for s in section):
        return [name for level in section for name in level]
    return list(section) if isinstance(section, dict) else None


FIELD_CONFIGS = {name: c for name, c in INVALID_CONFIGS.items() if field_names(c)}


@pytest.mark.parametrize("config", FIELD_CONFIGS.values(), ids=FIELD_CONFIGS)
def test_library_types_reject_the_invalid_configs(config):
    # the library rejects a value with the same rule as the CLI, and names the field
    with pytest.raises((ValueError, TypeError)) as error:
        build_from_config(config)
    assert any(name in str(error.value) for name in field_names(config))


def test_library_number_fields_take_numpy_scalars_and_integral_floats():
    grid = AnchorGridSpec(image_width=320.0, image_height=np.int64(160))
    assert (grid.image_width, grid.image_height) == (320, 160)
    assert type(grid.image_width) is type(grid.image_height) is int
    threshold = np.float32(0.6)
    assert MatchingConfig(t_pos=threshold).t_pos is threshold
    assert TrajectoryConfig(steps=np.int32(3)).steps == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["assign", "--synthetic", "--strategy", "static"],
        ["assign", "--annotations", "gt.json", "--strategy", "static"],
        ["simulate", "--synthetic"],
        ["evaluate", "--annotations", "gt.json", "--detections", "dets.json"],
    ],
    ids=["assign-synthetic", "assign-annotations", "simulate", "evaluate"],
)
def test_negative_seed_is_rejected_before_any_output(argv, tmp_path, capsys, monkeypatch):
    # every command builds its scene config from --seed, even one that draws no numbers
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "gt.json", {"images": [{"id": 1, "width": 320, "height": 320}]})
    write_json(tmp_path / "dets.json", [])
    assert main(argv + ["--seed", "-1", "--out", "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: scene: bad field 'seed': ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: SceneSpec(seed=-1), "seed"),
        (lambda: SceneSpec(size_range=(32.0, 64.0, 96.0)), "size_range"),
        (lambda: SceneSpec(count_range=(1,)), "count_range"),
        (lambda: AnchorGridSpec(levels=(5,)), "levels"),
        (lambda: AnchorGridSpec(levels=()), "levels"),
    ],
    ids=["negative-seed", "three-value-size", "one-value-count", "int-level", "no-level"],
)
def test_library_config_shapes_name_their_field(build, field):
    with pytest.raises(ValueError, match=f"^bad field '{field}': "):
        build()


class TestSimulateCommand:
    def test_takes_the_first_image_with_an_object(self, tmp_path, monkeypatch):
        gt = write_json(
            tmp_path / "gt.json",
            {
                "images": [{"id": 1, "width": 320, "height": 320},
                           {"id": 2, "width": 320, "height": 320}],
                "annotations": [{"image_id": 2, "bbox": BOAT_BBOX, "category_id": 1}],
            },
        )
        seeds = []
        real = cli._trajectories
        monkeypatch.setattr(cli, "_trajectories", lambda *a: seeds.append(a[-1]) or real(*a))
        out = tmp_path / "out"
        assert main(["simulate", "--annotations", gt, "--seed", "5", "--out", str(out)]) == 0
        assert json.loads((out / "trajectory.json").read_text())["image_id"] == 2
        assert seeds == [6]  # the per-image seed: --seed plus the image's index

    def test_no_image_with_an_object_fails(self, tmp_path, capsys):
        gt = write_json(tmp_path / "gt.json", {"images": [{"id": 1, "width": 320, "height": 320}]})
        assert main(["simulate", "--annotations", gt, "--out", str(tmp_path / "out")]) == 1
        assert "error: simulate needs an image with at least one object" in capsys.readouterr().err

    def test_writes_trajectory_and_verdict(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--synthetic", "--seed", "7", "--out", str(out)]) == 0
        payload = json.loads((out / "trajectory.json").read_text())
        assert payload["verdict"]["dynamic_constant"] is True
        assert payload["verdict"]["fixed_growth_factor"] > 1.0
        counts = [s["positive_count"] for s in payload["dynamic"]["steps"]]
        assert len(set(counts)) == 1
        stdout = capsys.readouterr().out
        assert "dynamic constant: yes" in stdout

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--synthetic", "--seed", "5"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert (out_a / "trajectory.json").read_bytes() == (out_b / "trajectory.json").read_bytes()


    def test_each_step_is_simulated_once(self, tmp_path, monkeypatch):
        calls = []
        real = simulator.synth_predictions
        monkeypatch.setattr(
            simulator, "synth_predictions", lambda *a, **k: calls.append(a[3]) or real(*a, **k)
        )
        assert main(["simulate", "--synthetic", "--seed", "7", "--out", str(tmp_path)]) == 0
        steps = json.loads((tmp_path / "trajectory.json").read_text())["fixed"]["steps"]
        assert len(calls) == TrajectoryConfig().steps == len(steps)
        assert calls == [s["t"] for s in steps]


class TestEvaluateCommand:
    def test_perfect_detections_print_ones(self, annotation_file, tmp_path, capsys):
        dets = write_json(
            tmp_path / "dets.json",
            [
                {"image_id": 1, "bbox": BOAT_BBOX, "category_id": 1, "score": 1.0},
                {"image_id": 1, "bbox": [200, 40, 80, 60], "category_id": 2, "score": 1.0},
            ],
        )
        out = tmp_path / "out"
        argv = ["evaluate", "--annotations", annotation_file, "--detections", dets,
                "--out", str(out)]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("1.000") == 3
        payload = json.loads((out / "evaluation.json").read_text())
        assert payload["ap"] == 1.0

    def test_empty_detections_zero(self, annotation_file, tmp_path, capsys):
        dets = write_json(tmp_path / "dets.json", [])
        out = tmp_path / "out"
        argv = ["evaluate", "--annotations", annotation_file, "--detections", dets,
                "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads((out / "evaluation.json").read_text())
        assert payload["ap"] == 0.0 and payload["ap50"] == 0.0

    def test_hand_computed_case(self, tmp_path):
        gt = write_json(
            tmp_path / "gt.json",
            {
                "images": [{"id": 1, "width": 320, "height": 320}],
                "annotations": [{"image_id": 1, "bbox": [0, 0, 10, 10], "category_id": 1}],
                "categories": [{"id": 1, "name": "thing"}],
            },
        )
        dets = write_json(
            tmp_path / "dets.json",
            [
                {"image_id": 1, "bbox": [0, 0, 10, 6], "category_id": 1, "score": 0.9},
                {"image_id": 1, "bbox": [50, 50, 10, 10], "category_id": 1, "score": 0.8},
            ],
        )
        out = tmp_path / "out"
        assert main(["evaluate", "--annotations", gt, "--detections", dets, "--out", str(out)]) == 0
        payload = json.loads((out / "evaluation.json").read_text())
        assert payload["ap50"] == 1.0
        assert payload["ap75"] == 0.0

    def test_unknown_image_id_rejected(self, annotation_file, tmp_path, capsys):
        dets = write_json(
            tmp_path / "dets.json",
            [{"image_id": 99, "bbox": [0, 0, 5, 5], "category_id": 1, "score": 0.9}],
        )
        argv = ["evaluate", "--annotations", annotation_file, "--detections", dets,
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "99" in capsys.readouterr().err

    def test_requires_detections(self, annotation_file, tmp_path, capsys):
        argv = ["evaluate", "--annotations", annotation_file, "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "--detections" in capsys.readouterr().err


# Every CLI command on one fixed config; the files each run writes are pinned
# by SHA-256, so a refactor that changes any output byte fails here.
GOLDEN_ARGV = {
    **{
        strategy: ["assign", "--synthetic", "--seed", "15", "--svg", "--strategy", strategy]
        for strategy in ("static", "l2c", "c2l", "mutual", "fcos", "fcos-mutual")
    },
    "simulate": ["simulate", "--synthetic", "--seed", "15"],
    "evaluate": ["evaluate", "--area-bands"],
    "config": ["assign", "--synthetic", "--seed", "15", "--svg", "--sigma", "1.5"],
}

# every config section off its default, for the "config" run
GOLDEN_CONFIG = {
    "image": {"width": 256, "height": 192},
    "levels": [
        {"stride": 8, "scales": [24, 40], "aspect_ratios": [1, 3]},
        {"stride": 32, "scales": [96]},
    ],
    "matching": {"t_pos": 0.55, "t_neg": 0.35, "sigma": 2.5},
    "scene": {"count_range": [2, 4], "size_range": [24, 96], "max_pairwise_iou": 0.3,
              "num_classes": 2},
    "trajectory": {"steps": 4, "localization_gain": "sqrt", "score_gain": "quadratic",
                   "noise": 0.1, "misalignment_fraction": 0.2},
    "assign_progress": 0.7,
    "num_scenes": 2,
}

GOLDEN_DETECTIONS = [
    {"image_id": 1, "bbox": BOAT_BBOX, "category_id": 1, "score": 0.9},
    {"image_id": 1, "bbox": [66, 98, 40, 60], "category_id": 1, "score": 0.6},
    {"image_id": 1, "bbox": [205, 30, 70, 70], "category_id": 2, "score": 0.8},
    {"image_id": 1, "bbox": [10, 250, 30, 30], "category_id": 2, "score": 0.7},
    {"image_id": 2, "bbox": [100, 100, 50, 50], "category_id": 1, "score": 0.4},
]

GOLDEN_SHA256 = {
    "c2l": {
        "scene-0000.c2l.json": "cb736e5ae8e5474b53f5f6aa62165cca2016198c687195bcf107262427e6931e",
        "scene-0000.diff.json": "f03e59d18d9dd65c80e1eef901aabfe56ea9e4aefe74b73b07df0ef565e4b437",
        "scene-0000.static.json":
            "c95f483d47b43da4277a4a2b72b345f86b8805b71fc41c2df2c1f29614ae978a",
        "scene-0000.svg": "432f9a5b3dac0703e336d63dfbf99c8916a9165f38a447624c14875eceabef93",
    },
    "config": {
        "scene-0000.diff.json": "3f5e7b50497856038bd4745b302adae7a02f7b3381d306284ec22fefa12c101b",
        "scene-0000.mutual.json":
            "f7325cfdeb47c24a0ab9c37380b5904543fe4e9c836ca3e09bb403a4a17736af",
        "scene-0000.static.json":
            "217ce36f9fe1e07cbdf1e50b7b0d1219e55a25b14e26d5ea8675bb3a5e73d65e",
        "scene-0000.svg": "59b0d1c5ba0c4a16060146aeeabb0cb52059e8307c16449cc45914cc685d93e2",
        "scene-0001.diff.json": "f374e6784ae674a756110590fe31f053f331d5bf68285f8017b77013f22b77dc",
        "scene-0001.mutual.json":
            "0c3c574fb2fac12d17bb7b8711f8e70603be605834d47ccf475882082b5ada7e",
        "scene-0001.static.json":
            "ac7de10997d57381bfe7c4b3378f6780697a57f31f9da10e3462582dcb8eb7b8",
        "scene-0001.svg": "01592002392d3412510a6b6eb66fe027a441c909efa480a32ead6476890239a2",
    },
    "evaluate": {
        "evaluation.json": "4c6014d08fc4400181588b71463da8b5b43be8b148cd8982899f7a8c5f46ec67",
    },
    "fcos": {
        "scene-0000.diff.json": "9e0001d238da868781010783c04104e0cf2f38ce600ee1cbe851f9f9458e7a90",
        "scene-0000.fcos.json": "3851f99af8957c38ed6a22a09ebb30b6708e504b451b98d73e278cd70a3230b1",
        "scene-0000.svg": "ef358b9e2017b36a76f103712946eb523fe847794840645727bc21c70732a027",
    },
    "fcos-mutual": {
        "scene-0000.diff.json": "5fe07678049ca6aeca196483765fa2a56ce997b6e5d6324711533b3179a79806",
        "scene-0000.fcos-mutual.json":
            "b644db7c0426b6ba87e2595b9e7118d3be8be3dd9a2f34c78ad7e928e381e393",
        "scene-0000.fcos.json": "3851f99af8957c38ed6a22a09ebb30b6708e504b451b98d73e278cd70a3230b1",
        "scene-0000.svg": "18b57a82301ad8c78783718c9e13863530e93ab2ab9ce1a2b5c785f47bec4d91",
    },
    "l2c": {
        "scene-0000.diff.json": "d7d7241a6d7e800c087cd9ed9b24085a1aa9b5832bdea196cdc72be36ab5b906",
        "scene-0000.l2c.json": "3c5ae02144a201f64a49e7e6b0184dd7cc6b27f1db96777bc875bf8cdff75a81",
        "scene-0000.static.json":
            "c95f483d47b43da4277a4a2b72b345f86b8805b71fc41c2df2c1f29614ae978a",
        "scene-0000.svg": "c53250ef52df6e7479800f6116fd95cfa16efcd2dd0cb7a5b50ce48ab479f5dd",
    },
    "mutual": {
        "scene-0000.diff.json": "6b91871eb159cfd072676eb5a40f13e32e99108d86aa3d34201d485352b3a41d",
        "scene-0000.mutual.json":
            "08fecb2c50fe087d97374577ef03a7366c5592081a6da2a851a0ca6cf41bb5ec",
        "scene-0000.static.json":
            "c95f483d47b43da4277a4a2b72b345f86b8805b71fc41c2df2c1f29614ae978a",
        "scene-0000.svg": "a767f23c785fa314103ef7c29bb7636e738860cf8cd86a065831b07dd115634a",
    },
    "simulate": {
        "trajectory.json": "65bd5f49d61b45870723fb93433bb266ed1a0be2c4506db463cd05734d801674",
    },
    "static": {
        "scene-0000.diff.json": "beaef0467ae4e0aab6d0aeb1cacd580ece3f37f91d431570ad0017ec2b97b9f3",
        "scene-0000.static.json":
            "c95f483d47b43da4277a4a2b72b345f86b8805b71fc41c2df2c1f29614ae978a",
        "scene-0000.svg": "dd67a1c38b0b5cfd43b7122ab92e147a001b50046925b19c978b2ec4890d42ca",
    },
}


def golden_digests(run, annotation_file, tmp_path):
    """Run one golden command; return {file name: SHA-256} of what it wrote."""
    argv = list(GOLDEN_ARGV[run])
    if run == "evaluate":
        dets = write_json(tmp_path / "dets.json", GOLDEN_DETECTIONS)
        argv += ["--annotations", annotation_file, "--detections", dets]
    if run == "config":
        argv += ["--config", write_json(tmp_path / "config.json", GOLDEN_CONFIG)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }


@pytest.mark.parametrize("run", sorted(GOLDEN_ARGV))
def test_golden_outputs(run, annotation_file, tmp_path):
    assert golden_digests(run, annotation_file, tmp_path) == GOLDEN_SHA256[run]
