import hashlib
import json

import pytest

from boxmatch.annotations import AnnotationError, load_annotations, load_detections
from boxmatch.cli import main

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
        assert [img.image_id for img in images] == [1, 2]
        box = images[0].boxes[0]
        assert (box.x_min, box.y_min, box.x_max, box.y_max) == (61, 90, 101, 162)
        assert images[0].class_ids == [1, 2]
        assert images[1].boxes == []
        assert categories == {1: "boat", 2: "car"}

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
        # the empty image is skipped with a warning on stderr
        assert "no annotations" in capsys.readouterr().err

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


class TestSimulateCommand:
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
        "scene-0000.static.json": "c95f483d47b43da4277a4a2b72b345f86b8805b71fc41c2df2c1f29614ae978a",
        "scene-0000.svg": "432f9a5b3dac0703e336d63dfbf99c8916a9165f38a447624c14875eceabef93",
    },
    "evaluate": {
        "evaluation.json": "4c6014d08fc4400181588b71463da8b5b43be8b148cd8982899f7a8c5f46ec67",
    },
    "fcos": {
        "scene-0000.diff.json": "6c0d072d251c7c7be1f58479fa453b0f42e9c73da98ad7f1979b3e4fb848ffc0",
        "scene-0000.fcos.json": "3851f99af8957c38ed6a22a09ebb30b6708e504b451b98d73e278cd70a3230b1",
        "scene-0000.svg": "ef358b9e2017b36a76f103712946eb523fe847794840645727bc21c70732a027",
    },
    "fcos-mutual": {
        "scene-0000.diff.json": "c7264e6ae456b1f7465353a3f3f039f127da3c78ecbf3bc9e06f38ee3f001bcd",
        "scene-0000.fcos-mutual.json": "b644db7c0426b6ba87e2595b9e7118d3be8be3dd9a2f34c78ad7e928e381e393",
        "scene-0000.fcos.json": "3851f99af8957c38ed6a22a09ebb30b6708e504b451b98d73e278cd70a3230b1",
        "scene-0000.svg": "18b57a82301ad8c78783718c9e13863530e93ab2ab9ce1a2b5c785f47bec4d91",
    },
    "l2c": {
        "scene-0000.diff.json": "d7d7241a6d7e800c087cd9ed9b24085a1aa9b5832bdea196cdc72be36ab5b906",
        "scene-0000.l2c.json": "3c5ae02144a201f64a49e7e6b0184dd7cc6b27f1db96777bc875bf8cdff75a81",
        "scene-0000.static.json": "c95f483d47b43da4277a4a2b72b345f86b8805b71fc41c2df2c1f29614ae978a",
        "scene-0000.svg": "c53250ef52df6e7479800f6116fd95cfa16efcd2dd0cb7a5b50ce48ab479f5dd",
    },
    "mutual": {
        "scene-0000.diff.json": "6b91871eb159cfd072676eb5a40f13e32e99108d86aa3d34201d485352b3a41d",
        "scene-0000.mutual.json": "08fecb2c50fe087d97374577ef03a7366c5592081a6da2a851a0ca6cf41bb5ec",
        "scene-0000.static.json": "c95f483d47b43da4277a4a2b72b345f86b8805b71fc41c2df2c1f29614ae978a",
        "scene-0000.svg": "a767f23c785fa314103ef7c29bb7636e738860cf8cd86a065831b07dd115634a",
    },
    "simulate": {
        "trajectory.json": "65bd5f49d61b45870723fb93433bb266ed1a0be2c4506db463cd05734d801674",
    },
    "static": {
        "scene-0000.diff.json": "beaef0467ae4e0aab6d0aeb1cacd580ece3f37f91d431570ad0017ec2b97b9f3",
        "scene-0000.static.json": "c95f483d47b43da4277a4a2b72b345f86b8805b71fc41c2df2c1f29614ae978a",
        "scene-0000.svg": "dd67a1c38b0b5cfd43b7122ab92e147a001b50046925b19c978b2ec4890d42ca",
    },
}


def golden_digests(run, annotation_file, tmp_path):
    """Run one golden command; return {file name: SHA-256} of what it wrote."""
    argv = list(GOLDEN_ARGV[run])
    if run == "evaluate":
        dets = write_json(tmp_path / "dets.json", GOLDEN_DETECTIONS)
        argv += ["--annotations", annotation_file, "--detections", dets]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }


@pytest.mark.parametrize("run", sorted(GOLDEN_ARGV))
def test_golden_outputs(run, annotation_file, tmp_path):
    assert golden_digests(run, annotation_file, tmp_path) == GOLDEN_SHA256[run]
