"""Seeded inputs, operations and output checks for the benchmark workloads.

Every input is built from the workload seed by this file's own generator
before timing starts, so the package only ever receives generated inputs and
a change to the package cannot change them. Object counts are stratified
(evenly spaced over the workload's range, shuffled by the seed) so that every
seed gets the same mix of small and large scenes; seeds differ in placement,
sizes and classes.

An operation is one call of `Workload.op(k, layers)`. Operations cycle through
a fixed pass of `pass_len` operations; every pass does the same work, so the
benchmark measures whole passes and digests the first one.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import shutil
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

TRAJ_STEPS = 10
TRAJ_TS = np.linspace(0.0, 1.0, TRAJ_STEPS)
# the paper's misalignment experiment: late in training, with 30% of the
# well-placed anchors given a drifted box or a dampened score
PAPER_T = 0.8
PAPER_MISALIGNMENT = 0.3
NMS_IOU = 0.5
PAIRWISE_CAP = 0.2  # the default SceneSpec overlap cap
# objects behind each ap_mutual / misalign_gap figure; fewer makes them
# depend on the seed more than on the code
PAPER_MIN_OBJECTS = 300


class CheckFailure(Exception):
    """An output invariant did not hold."""


def require(condition, message):
    if not condition:
        raise CheckFailure(message)


def _box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    lt = np.maximum(a[:, None, :2], b[None, :, :2])
    rb = np.minimum(a[:, None, 2:], b[None, :, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def scene_boxes(rng, width, count, size_range, cap=PAIRWISE_CAP) -> np.ndarray:
    """`count` boxes inside a width x width image, pairwise IoU at most `cap`."""
    boxes = np.empty((0, 4))
    for _ in range(1000 * count):
        if len(boxes) == count:
            return boxes
        w, h = rng.uniform(*size_range, size=2)
        x = rng.uniform(0.0, width - w)
        y = rng.uniform(0.0, width - h)
        cand = np.asarray([[x, y, x + w, y + h]])
        if len(boxes) and _box_iou(cand, boxes).max() > cap:
            continue
        boxes = np.vstack([boxes, cand])
    if len(boxes) == count:
        return boxes
    raise RuntimeError(f"could not place {count} boxes of size {size_range} in {width}px")


def stratified_counts(rng, lo, hi, k) -> list[int]:
    return [int(c) for c in rng.permutation(np.round(np.linspace(lo, hi, k)).astype(int))]


def make_scenes(bm, rng, width, counts, size_range):
    scenes = []
    for count in counts:
        boxes = scene_boxes(rng, width, count, size_range)
        classes = rng.integers(0, 3, size=count)
        scenes.append(
            bm.Scene(
                width,
                width,
                tuple(bm.Box(*map(float, b)) for b in boxes),
                tuple(int(c) for c in classes),
            )
        )
    return scenes


def ground_truth(bm, scenes):
    return [
        bm.GroundTruth(box=b, class_id=c, image_id=i)
        for i, scene in enumerate(scenes)
        for b, c in zip(scene.boxes, scene.class_ids)
    ]


# ---------------------------------------------------------------- checks


def check_covers(labels, m, what):
    """Every object 0..m-1 keeps at least one positive; no other positive ids."""
    pos = labels[labels >= 0]
    require(pos.size == 0 or pos.max() < m, f"{what}: positive for unknown object")
    require(
        np.bincount(pos, minlength=m).min() >= 1 if m else True,
        f"{what}: an object has no positive",
    )


def check_no_ignored(labels, what):
    require(not np.any(labels == -2), f"{what}: IGNORED in localization labels")


def check_nms(dets, kept, what):
    """`kept` is a subset of `dets` ordered by descending score, then index."""
    index = {id(d): i for i, d in enumerate(dets)}
    idx = [index.get(id(d), -1) for d in kept]
    require(all(i >= 0 for i in idx), f"{what}: NMS returned a detection not in its input")
    require(len(set(idx)) == len(idx), f"{what}: NMS kept a detection twice")
    keys = [(-dets[i].score, i) for i in idx]
    require(keys == sorted(keys), f"{what}: NMS output is not ordered")
    return idx


def check_eval_result(result, what):
    values = [result.ap, result.ap50, result.ap75, *result.per_threshold_ap]
    values += [result.ap_small, result.ap_medium, result.ap_large]
    for v in values:
        require(v is None or 0.0 <= v <= 1.0, f"{what}: AP {v} outside [0, 1]")


# ---------------------------------------------------------------- the paper's experiment


def paper_image(L, bm, anchors, scene, gt_array, image_id, seed):
    """Static and mutual labels at t=0.8 for one image, their detections and NMS."""
    cfg = bm.TrajectoryConfig(misalignment_fraction=PAPER_MISALIGNMENT)
    iou_anchor = L.pairwise_iou(anchors.array, gt_array)
    snap = L.synth_predictions(scene, anchors, cfg, PAPER_T, seed=seed)
    static = L.static_assign(iou_anchor)
    mutual = L.mutual_guidance_assign(iou_anchor, snap.iou_regressed, snap.classif_scores)
    d_static = L.detections_from_snapshot(
        scene, anchors, snap, static.classification_labels, image_id=image_id
    )
    d_mutual = L.detections_from_snapshot(
        scene, anchors, snap, mutual.classification_labels, image_id=image_id
    )
    return {
        "m": len(scene.boxes),
        "static": static,
        "mutual": mutual,
        "dets": (d_static, d_mutual),
        "kept": (L.nms(d_static, NMS_IOU), L.nms(d_mutual, NMS_IOU)),
    }


def paper_corpus(L, kept_static, kept_mutual, gts):
    return {
        "ap": (
            L.average_precision(kept_static, gts, area_bands=True),
            L.average_precision(kept_mutual, gts, area_bands=True),
        ),
        "mis": (L.misalignment_rate(kept_static, gts), L.misalignment_rate(kept_mutual, gts)),
    }


def check_paper_image(out, digest):
    m = out["m"]
    static, mutual = out["static"], out["mutual"]
    require(mutual.per_object_counts == static.per_object_counts, "mutual: budgets != static")
    check_covers(static.classification_labels, m, "static")
    check_covers(mutual.classification_labels, m, "mutual classification")
    check_covers(mutual.localization_labels, m, "mutual localization")
    check_no_ignored(static.localization_labels, "static")
    check_no_ignored(mutual.localization_labels, "mutual")
    for which, dets, kept in zip(("static", "mutual"), out["dets"], out["kept"]):
        idx = check_nms(dets, kept, f"{which} NMS")
        if digest is not None:
            digest.update(np.asarray(idx, dtype=np.int64).tobytes())
    if digest is not None:
        for labels in (
            static.classification_labels,
            mutual.classification_labels,
            mutual.localization_labels,
        ):
            digest.update(np.ascontiguousarray(labels, dtype=np.int64).tobytes())


def check_paper_corpus(out, digest):
    for which, result in zip(("static", "mutual"), out["ap"]):
        check_eval_result(result, f"{which} AP")
    for which, mis in zip(("static", "mutual"), out["mis"]):
        require(0.0 <= mis.rate <= 1.0, f"{which}: misalignment rate outside [0, 1]")
    if digest is not None:
        payload = [r.to_json_dict() for r in out["ap"]] + [
            {"rate": m.rate, "flags": m.flags} for m in out["mis"]
        ]
        digest.update(json.dumps(payload, sort_keys=True).encode())


def paper_figures(corpus):
    """(ap_mutual, misalign_gap): corpus AP of the mutual-label detections and
    the static minus the mutual misalignment rate."""
    return corpus["ap"][1].ap, corpus["mis"][0].rate - corpus["mis"][1].rate


def check_oracles(oracles, image_out, kept_mutual, gts, ap_mutual):
    """Cross-check one image's static-label NMS and the mutual-label AP at IoU
    0.5 with the brute-force oracles."""
    dets, kept = image_out["dets"][0], image_out["kept"][0]
    reference = oracles.brute_force_nms(dets, NMS_IOU)
    require([id(d) for d in kept] == [id(d) for d in reference], "NMS differs from the oracle")
    ap50 = ap_mutual.per_threshold_ap[ap_mutual.iou_thresholds.index(0.5)]
    check_ap50(oracles, kept_mutual, gts, ap50)


def check_ap50(oracles, dets, gts, value):
    """`value` is the mean over ground-truth classes of the oracle's AP at IoU 0.5."""
    per_class = [
        oracles.brute_force_ap_at_threshold(
            [d for d in dets if d.class_id == c], [g for g in gts if g.class_id == c], 0.5
        )
        for c in sorted({g.class_id for g in gts})
    ]
    oracle = float(np.mean(per_class))
    require(abs(oracle - value) < 1e-9, f"AP@0.5 {value} differs from the oracle's {oracle}")


# ---------------------------------------------------------------- workloads


class Workload:
    """Base: a fixed pass of operations over seeded inputs."""

    name = ""
    width = 320  # image and grid size
    pass_len = 1

    def __init__(self, bm, seed, grid, workdir: Path, oracles):
        self.bm = bm
        self.seed = seed
        self.anchors, self.points = grid
        self.workdir = workdir
        self.oracles = oracles
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.digest = hashlib.sha256()
        self.digest_ops = 0
        self.bytes_written = 0

    def op(self, k, L):
        raise NotImplementedError

    def check(self, k, out, digest):
        """Raise CheckFailure on a broken invariant; feed `digest` if given."""
        raise NotImplementedError

    def paper_set(self):
        """This workload's scenes plus more of the same mix, so that the paper
        figures rest on at least PAPER_MIN_OBJECTS objects."""
        mean = sum(self.count_range) / 2
        extra = max(0, math.ceil(PAPER_MIN_OBJECTS / mean) - len(self.scenes))
        counts = stratified_counts(self.rng, *self.count_range, extra)
        return self.scenes + make_scenes(self.bm, self.rng, self.width, counts, self.size_range)

    def paper_experiment(self, L):
        """Run the misalignment experiment on this workload's scene mix; returns
        (ap_mutual, misalign_gap) and cross-checks a sample with the oracles."""
        scenes = self.paper_scenes
        outs = [
            paper_image(
                L, self.bm, self.anchors, s, self.bm.boxes_to_array(s.boxes), i, self.seed + i
            )
            for i, s in enumerate(scenes)
        ]
        for out in outs:
            check_paper_image(out, None)
        gts = ground_truth(self.bm, scenes)
        kept_static = [d for o in outs for d in o["kept"][0]]
        kept_mutual = [d for o in outs for d in o["kept"][1]]
        corpus = paper_corpus(L, kept_static, kept_mutual, gts)
        check_paper_corpus(corpus, None)
        check_oracles(self.oracles, outs[0], kept_mutual, gts, corpus["ap"][1])
        return paper_figures(corpus)


class Train(Workload):
    """Training-loop labelling: every strategy on one scene at one trajectory step."""

    pass_len = TRAJ_STEPS  # 5 scenes x 2 trajectory steps each
    scenes_per_pass = 5

    def __init__(self, *args):
        super().__init__(*args)
        counts = stratified_counts(self.rng, *self.count_range, self.scenes_per_pass)
        self.scenes = make_scenes(self.bm, self.rng, self.width, counts, self.size_range)
        self.gt_arrays = [self.bm.boxes_to_array(s.boxes) for s in self.scenes]
        self.traj = self.bm.TrajectoryConfig(steps=TRAJ_STEPS)
        self.paper_scenes = self.paper_set()

    def op(self, k, L):
        i = k % self.scenes_per_pass
        scene, gt = self.scenes[i], self.gt_arrays[i]
        t = float(TRAJ_TS[k % TRAJ_STEPS])
        seed = self.seed + i
        iou_anchor = L.pairwise_iou(self.anchors.array, gt)
        snap = L.synth_predictions(scene, self.anchors, self.traj, t, seed=seed)
        static = L.static_assign(iou_anchor)
        l2c = L.localize_to_classify(iou_anchor, snap.iou_regressed)
        c2l = L.classify_to_localize(iou_anchor, snap.classif_scores)
        mutual = L.mutual_guidance_assign(iou_anchor, snap.iou_regressed, snap.classif_scores)
        iou_reg, scores = L.synth_point_predictions(scene, self.points, self.traj, t, seed=seed)
        original = L.fcos_assign_original(self.points, scene.boxes)
        f_l2c = L.fcos_localize_to_classify(self.points, scene.boxes, iou_reg)
        f_c2l = L.fcos_classify_to_localize(self.points, scene.boxes, scores)
        return len(scene.boxes), static, l2c, c2l, mutual, original, f_l2c, f_c2l

    def check(self, k, out, digest):
        m, static, l2c, c2l, mutual, original, f_l2c, f_c2l = out
        n_anchors, n_points = len(self.anchors.array), len(self.points.xy)
        budgets = [p for p, _ in static.per_object_counts]
        require(l2c.premerge_positive_counts == budgets, "l2c: pre-merge counts != static budgets")
        require(c2l.premerge_positive_counts == budgets, "c2l: pre-merge counts != static budgets")
        require(mutual.per_object_counts == static.per_object_counts, "mutual: budgets != static")
        anchor_labels = {
            "static classification": static.classification_labels,
            "static localization": static.localization_labels,
            "l2c": l2c.labels,
            "c2l": c2l.labels,
            "mutual classification": mutual.classification_labels,
            "mutual localization": mutual.localization_labels,
        }
        for what, labels in anchor_labels.items():
            require(labels.shape == (n_anchors,), f"{what}: wrong label count")
            check_covers(labels, m, what)
        for what in ("static localization", "c2l", "mutual localization"):
            check_no_ignored(anchor_labels[what], what)
        point_budgets = list(original.per_object_counts)
        require(f_l2c.premerge_positive_counts == point_budgets, "fcos l2c: pre-merge != budgets")
        require(f_c2l.premerge_positive_counts == point_budgets, "fcos c2l: pre-merge != budgets")
        point_labels = {
            "fcos": original.classification_labels,
            "fcos l2c": f_l2c.labels,
            "fcos c2l": f_c2l.labels,
        }
        for what, labels in point_labels.items():
            require(labels.shape == (n_points,), f"{what}: wrong label count")
            check_covers(labels, m, what)
            check_no_ignored(labels, what)
        if digest is not None:
            for labels in (*anchor_labels.values(), *point_labels.values()):
                digest.update(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
            self.digest_ops += 1


class TrainSparse(Train):
    name = "train_sparse"
    count_range = (1, 5)
    size_range = (32.0, 128.0)


class TrainCrowded(Train):
    name = "train_crowded"
    width = 512
    count_range = (20, 50)
    size_range = (24.0, 160.0)


class EvalPaper(Workload):
    """The paper's misalignment experiment, one image per operation; the
    operation that closes a pass also evaluates the pass's corpus.

    An image's cost depends on its seeded placement (detections pass a score
    threshold, NMS is quadratic in them), so a pass holds thirty images: the
    pass cost then varies little from seed to seed."""

    name = "eval_paper"
    pass_len = 30
    count_range = (10, 30)
    size_range = (16.0, 80.0)

    def __init__(self, *args):
        super().__init__(*args)
        counts = stratified_counts(self.rng, *self.count_range, self.pass_len)
        self.scenes = make_scenes(self.bm, self.rng, self.width, counts, self.size_range)
        self.gt_arrays = [self.bm.boxes_to_array(s.boxes) for s in self.scenes]
        self.gts = ground_truth(self.bm, self.scenes)
        self.kept = [None] * self.pass_len
        self.paper_scenes = self.paper_set()

    def op(self, k, L):
        i = k % self.pass_len
        out = paper_image(
            L, self.bm, self.anchors, self.scenes[i], self.gt_arrays[i], i, self.seed + i
        )
        self.kept[i] = out["kept"]
        if i == self.pass_len - 1:
            kept_static = [d for pair in self.kept for d in pair[0]]
            kept_mutual = [d for pair in self.kept for d in pair[1]]
            out["corpus"] = paper_corpus(L, kept_static, kept_mutual, self.gts)
            self.kept = [None] * self.pass_len
        return out

    def check(self, k, out, digest):
        check_paper_image(out, digest)
        if "corpus" in out:
            check_paper_corpus(out["corpus"], digest)
        if digest is not None:
            self.digest_ops += 1


class CliIO(Workload):
    """One operation runs one CLI command, in process, on generated annotation
    and detection files, into a fresh directory; a pass runs the four commands
    in sequence, and its last operation checks and removes their outputs."""

    name = "cli_io"
    pass_len = 4
    images = 8
    count_range = (1, 5)
    size_range = (32.0, 128.0)

    def __init__(self, *args):
        super().__init__(*args)
        self.workdir.mkdir(parents=True, exist_ok=True)
        # `simulate` runs on the first image only, so that image has the same
        # object count on every seed
        counts = stratified_counts(self.rng, *self.count_range, self.images)
        counts.remove(self.count_range[1])
        counts.insert(0, self.count_range[1])
        self.scenes = make_scenes(self.bm, self.rng, self.width, counts, self.size_range)
        self.gt_path = self.workdir / "gt.json"
        self.dets_path = self.workdir / "dets.json"
        self._write_inputs()
        self.paper_scenes = self.paper_set()
        self.logs: list[str] = []  # the current pass's command output
        self.commands = [
            ("assign", ["--annotations", self.gt_path, "--strategy", "mutual", "--svg"]),
            ("assign", ["--annotations", self.gt_path, "--strategy", "fcos-mutual"]),
            ("simulate", ["--annotations", self.gt_path]),
            ("evaluate", ["--annotations", self.gt_path, "--detections", self.dets_path,
                          "--area-bands"]),
        ]

    def _write_inputs(self):
        rng = self.rng
        images, annotations, dets = [], [], []
        self.gts, self.dets = [], []
        for i, scene in enumerate(self.scenes):
            image_id = i + 1
            images.append({"id": image_id, "width": self.width, "height": self.width})
            for box, cls in zip(scene.boxes, scene.class_ids):
                bbox = [box.x_min, box.y_min, box.width, box.height]
                annotations.append({"image_id": image_id, "category_id": cls, "bbox": bbox})
                self.gts.append(self.bm.GroundTruth(self._box(bbox), cls, image_id))
                # two detections per object: a tight one and a loose one
                for spread, score in ((0.05, rng.uniform(0.5, 1.0)), (0.25, rng.uniform(0.1, 0.8))):
                    jx, jy, jw, jh = rng.uniform(-spread, spread, size=4)
                    det = [bbox[0] + jx * box.width, bbox[1] + jy * box.height,
                           box.width * (1 + jw), box.height * (1 + jh)]
                    dets.append({"image_id": image_id, "category_id": cls,
                                 "bbox": [round(v, 2) for v in det],
                                 "score": round(float(score), 4)})
            for _ in range(3):  # background false positives
                w, h = rng.uniform(16, 96, size=2)
                x, y = rng.uniform(0, self.width - w), rng.uniform(0, self.width - h)
                dets.append({"image_id": image_id, "category_id": int(rng.integers(0, 3)),
                             "bbox": [round(x, 2), round(y, 2), round(w, 2), round(h, 2)],
                             "score": round(float(rng.uniform(0.05, 0.6)), 4)})
        for d in dets:
            self.dets.append(
                self.bm.Detection(self._box(d["bbox"]), d["category_id"], d["score"], d["image_id"])
            )
        categories = [{"id": c, "name": f"class{c}"} for c in range(3)]
        self.gt_path.write_text(
            json.dumps({"images": images, "annotations": annotations, "categories": categories})
        )
        self.dets_path.write_text(json.dumps(dets))

    def _box(self, bbox):
        x, y, w, h = (float(v) for v in bbox)
        return self.bm.Box(x, y, x + w, y + h)

    def op(self, k, L):
        n = k % self.pass_len
        root = self.workdir / f"pass{k // self.pass_len}"
        if n == 0:
            shutil.rmtree(root, ignore_errors=True)
            self.logs = []
        command, flags = self.commands[n]
        argv = [command, *map(str, flags), "--seed", str(self.seed),
                "--out", str(root / f"{n}-{command}")]
        log = StringIO()
        with redirect_stdout(log), redirect_stderr(log), L.span(f"cli.{command}"):
            code = L.cli_main(argv)
        self.logs.append(log.getvalue())
        return root, n, code, log.getvalue()

    def check(self, k, out, digest):
        root, n, code, log = out
        last = n == self.pass_len - 1
        try:
            require(code == 0, f"CLI {self.commands[n][0]} exit code {code}: {log.strip()[-300:]}")
            if last:
                self._check_outputs(root, "".join(self.logs), digest)
        finally:
            if last:
                shutil.rmtree(root, ignore_errors=True)

    def _check_outputs(self, root, log, digest):
        files = sorted(p for p in root.rglob("*") if p.is_file())
        payload = {p.relative_to(root).as_posix(): p.read_bytes() for p in files}
        n_anchors, n_points = len(self.anchors.array), len(self.points.xy)
        for i, scene in enumerate(self.scenes):
            m = len(scene.boxes)
            for path, n, mode in (
                (f"0-assign/{i + 1}.mutual.json", n_anchors, "anchors"),
                (f"0-assign/{i + 1}.static.json", n_anchors, "anchors"),
                (f"1-assign/{i + 1}.fcos-mutual.json", n_points, "points"),
                (f"1-assign/{i + 1}.fcos.json", n_points, "points"),
            ):
                require(path in payload, f"missing output {path}")
                doc = json.loads(payload[path])
                require(doc["mode"] == mode, f"{path}: mode {doc['mode']}")
                cls = np.asarray(doc["classification"])
                loc = np.asarray(doc["localization"])
                require(cls.shape == loc.shape == (n,), f"{path}: wrong label count")
                check_covers(cls, m, path)
                check_covers(loc, m, path)
                check_no_ignored(loc, path)
                require(len(doc["per_object_counts"]) == m, f"{path}: wrong object count")
            require(f"0-assign/{i + 1}.svg" in payload, f"missing SVG for image {i + 1}")
        require("2-simulate/trajectory.json" in payload, "missing trajectory.json")
        evaluation = json.loads(payload["3-evaluate/evaluation.json"])
        for key in ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"):
            v = evaluation[key]
            require(v is None or 0.0 <= v <= 1.0, f"evaluate: {key}={v} outside [0, 1]")
        if digest is not None:
            for name, data in payload.items():
                digest.update(name.encode() + b"\0" + data)
            digest.update(log.encode())
            self.digest_ops += self.pass_len
            self.bytes_written = sum(len(v) for v in payload.values()) / self.pass_len
            check_ap50(self.oracles, self.dets, self.gts, evaluation["per_threshold_ap"][0])


WORKLOADS = {w.name: w for w in (TrainSparse, TrainCrowded, EvalPaper, CliIO)}


def load_oracles(path: Path):
    """Import the test suite's brute-force oracles from their file."""
    spec = importlib.util.spec_from_file_location("boxmatch_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reanchor_rows(bm, seed) -> dict[str, float]:
    """The layer rows of the ROADMAP re-anchor table, in ms, each the median
    of a few untraced calls: grid generation on the 320 and 1024 grids, and
    IoU, mutual assignment, detections from a snapshot (every anchor scored),
    NMS and AP at m=5 and m=50 objects on the 320 grid."""
    def median_ms(fn, repeats):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1000.0

    rows = {}
    rng = np.random.default_rng([seed, 5050])
    for width, repeats in ((320, 5), (1024, 3)):
        spec = bm.AnchorGridSpec(image_width=width, image_height=width)
        rows[f"anchors.generate_anchors_ms.g{width}"] = median_ms(
            lambda: bm.generate_anchors(spec), repeats
        )
    anchors = bm.generate_anchors(bm.AnchorGridSpec())
    cfg = bm.TrajectoryConfig(misalignment_fraction=PAPER_MISALIGNMENT)
    for m in (5, 50):
        scene = make_scenes(bm, rng, 320, [m], (16.0, 80.0))[0]
        gt = bm.boxes_to_array(scene.boxes)
        gts = ground_truth(bm, [scene])
        snap = bm.synth_predictions(scene, anchors, cfg, PAPER_T, seed=seed)
        iou_anchor = bm.pairwise_iou(anchors.array, gt)
        dets = bm.detections_from_snapshot(scene, anchors, snap)
        rows[f"geometry.pairwise_iou_ms.m{m}"] = median_ms(
            lambda: bm.pairwise_iou(anchors.array, gt), 7
        )
        rows[f"assignment.mutual_guidance_assign_ms.m{m}"] = median_ms(
            lambda: bm.mutual_guidance_assign(
                iou_anchor, snap.iou_regressed, snap.classif_scores
            ),
            5,
        )
        rows[f"simulator.detections_from_snapshot_ms.m{m}"] = median_ms(
            lambda: bm.detections_from_snapshot(scene, anchors, snap), 3
        )
        rows[f"evaluation.nms_ms.m{m}"] = median_ms(lambda: bm.nms(dets, NMS_IOU), 3)
        rows[f"evaluation.average_precision_ms.m{m}"] = median_ms(
            lambda: bm.average_precision(dets, gts), 3
        )
    return rows
