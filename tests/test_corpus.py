"""The contention corpus: uncapped crowded scenes, where the merge loses claims and
the refill serves. The benchmark workloads, the CLI golden outputs and most test
corpora are capped scenes, on which the anchor merge loses no claim and the refill
never fires; here a change to either moves a pin.

Each of the 36 scene-steps is one seed of 0-11 with 10-30 objects, no overlap cap,
on the default 320 grid at progress 0.2, 0.5 and 0.8. Every row of
``assignment.STRATEGIES`` labels it as the CLI does, and each row's labels and
warnings over all steps are pinned by one SHA-256. One 512-grid scene of 20-50
objects joins the counts that show the merge is exercised, and nothing else."""

import hashlib
from typing import NamedTuple

import numpy as np
import pytest

from boxmatch.anchors import AnchorGridSpec, generate_anchors, generate_points
from boxmatch.assignment import STRATEGIES, MatchingConfig
from boxmatch.geometry import boxes_to_array, pairwise_iou
from boxmatch.simulator import (
    Scene,
    SceneSpec,
    TrajectoryConfig,
    synth_point_predictions,
    synth_predictions,
    synth_scene,
)
from oracles import brute_force_guided, brute_force_point_guided
from strategy_rows import anchor_guided, point_guided, served_samples

PROGRESS = (0.2, 0.5, 0.8)

# one digest per row over the 36 steps, in seed then progress order: both label
# sets as little-endian int64, then the warnings joined by newlines and a NUL
CORPUS_SHA256 = {
    "static": "f1d401fb724de368f81345f46ddd7b411589884bd9c5cbe26e0a78505620f957",
    "l2c": "82a40e4751ca3322d2108f5d93e09e9f856ceff33d5f43f07f7a39fbed70ab2a",
    "c2l": "86d28e8a8d74dacd9cb217bbe16b593b071d6e4a81472318aa5344e0fb1965c0",
    "mutual": "0108db9e709206569804b099d5ea8bd2674cdc101f172e38d306197a0e688275",
    "fcos": "1cce610e8d700610abb98a5508f1c378128412bac4c83684080c341de9a39e0e",
    "fcos-mutual": "6ab11e34820f7c02b9f4ed6746aab7ae3ec0f6acf5ecf1387856693d0b7783d0",
}

# the anchor refill serves at seed 7, t = 0.2; seed 11 has the fewest objects
ORACLE_STEPS = [(7, 0.2), (11, 0.2)]


class Step(NamedTuple):
    seed: int
    t: float
    scene: Scene
    inputs: dict  # grid -> the matrices a row of that grid reads, after its name
    rows: dict  # strategy name -> (its baseline, the answer of ``assignment._guide``)
    served: dict  # grid -> the samples ``_serve`` relabelled for its rows, by caller


def scene_steps(spec: AnchorGridSpec, count_range: tuple[int, int], seeds):
    anchors, points, cfg = generate_anchors(spec), generate_points(spec), TrajectoryConfig()
    for seed in seeds:
        scene_spec = SceneSpec(spec.image_width, spec.image_height, count_range,
                               max_pairwise_iou=None, seed=seed)
        scene = synth_scene(scene_spec)
        iou_anchor = pairwise_iou(anchors.array, boxes_to_array(scene.boxes))
        for t in PROGRESS:
            snapshot = synth_predictions(scene, anchors, cfg, t, seed, iou_anchor)
            inputs = {
                "anchors": (iou_anchor, snapshot.iou_regressed, snapshot.classif_scores),
                "points": (points, scene.boxes,
                           *synth_point_predictions(scene, points, cfg, t, seed)),
            }
            rows, served = {}, {}
            for grid, guided in (("anchors", anchor_guided), ("points", point_guided)):
                with served_samples() as served[grid]:
                    rows |= {name: guided(name, *inputs[grid]) for name in STRATEGIES[grid]}
            yield Step(seed, t, scene, inputs, rows, served)


@pytest.fixture(scope="module")
def corpus():
    return list(scene_steps(AnchorGridSpec(), (10, 30), range(12)))


@pytest.fixture(scope="module")
def crowded():
    return list(scene_steps(AnchorGridSpec(512, 512), (20, 50), [0]))


def outputs(result):
    return {
        "classification": result.classification_labels.tolist(),
        "localization": result.localization_labels.tolist(),
        "counts": result.per_object_counts,
        "warnings": result.warnings,
    }


def test_the_corpus_holds_36_crowded_steps(corpus):
    assert len(corpus) == 36
    assert min(len(step.scene.boxes) for step in corpus) >= 10


@pytest.mark.parametrize("name", CORPUS_SHA256)
def test_every_row_matches_its_pin(corpus, name):
    digest = hashlib.sha256()
    for step in corpus:
        result = step.rows[name][1][0]
        for labels in (result.classification_labels, result.localization_labels):
            digest.update(labels.astype("<i8").tobytes())
        digest.update("\n".join(result.warnings).encode() + b"\0")
    assert digest.hexdigest() == CORPUS_SHA256[name]


@pytest.mark.parametrize("seed, t", ORACLE_STEPS)
def test_every_row_matches_the_oracle(corpus, seed, t):
    step = next(step for step in corpus if (step.seed, step.t) == (seed, t))
    sigma = MatchingConfig().sigma
    matrices = [matrix.tolist() for matrix in step.inputs["anchors"]]
    for name, tasks in STRATEGIES["anchors"].items():
        expected = brute_force_guided(*matrices, sigma, *tasks)
        assert outputs(step.rows[name][1][0]) == expected, name
    points, boxes, regressed, scores = step.inputs["points"]
    for name, tasks in STRATEGIES["points"].items():
        expected = brute_force_point_guided(
            points, boxes_to_array(boxes), regressed, scores, sigma, *tasks)
        assert outputs(step.rows[name][1][0]) == expected, name


@pytest.mark.parametrize("grid", STRATEGIES)
def test_the_corpus_exercises_the_merge(corpus, crowded, grid):
    """Some object ends a guided task with fewer positives than it claimed before the
    merge, and the ranking's refill relabels at least one sample."""
    short = refilled = 0
    for step in corpus + crowded:
        refilled += step.served[grid]["ranked_selection"]
        for name in STRATEGIES[grid]:
            for selection in step.rows[name][1][1:]:
                premerge = selection.premerge_positive_counts
                labels = selection.labels[selection.labels >= 0]
                short += int((np.bincount(labels, minlength=len(premerge)) < premerge).sum())
    assert short > 0 and refilled > 0
