"""The layer A/B harness in tools/ab_layers.py, run A/A: one source tree
against itself, imported under two package names (once, for eval_paper's AP),
on one pass of a workload."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
# the layer calls of one training operation, in their order
TRAINING = (
    "geometry.pairwise_iou", "simulator.synth_predictions", "assignment.static_assign",
    "assignment.localize_to_classify", "assignment.classify_to_localize",
    "assignment.mutual_guidance_assign", "simulator.synth_point_predictions",
    "fcos.assign_original", "fcos.localize_to_classify", "fcos.classify_to_localize",
)


def load_harness():
    spec = importlib.util.spec_from_file_location("ab_layers", ROOT / "tools" / "ab_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HARNESS = load_harness()


def check_a_a(results, rows, rounds):
    # an A/A interval misses 1 by chance only: at 99.9% nominal, in about 1%
    # of runs at 8 rounds and 0.3% at 20 (the percentile bootstrap of a
    # median covers less than its level over few rounds); a bias between the
    # two imports or the two orders would miss it every time
    assert list(results) == rows
    for summary in results.values():
        low, high = summary["interval"]
        assert low <= summary["median"] <= high
        assert low <= 1.0 <= high
        assert summary["rounds"] == rounds


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    """The A/A pair of trees of a workload, each recording one pass; built once."""
    built = {}

    def pair(workload):
        if workload not in built:
            workdir = tmp_path_factory.mktemp(workload)
            built[workload] = HARNESS.make_trees(ROOT / "src", ROOT / "src", workload, 1, workdir)
        return built[workload]

    return pair


@pytest.fixture(scope="module")
def eval_paper_tree(tmp_path_factory):
    """One eval_paper tree, recording one pass (see the AP test for why one)."""
    bm = HARNESS.load_package("boxmatch_ab_base", ROOT / "src")
    benchmarks = HARNESS.load_benchmark("tracing"), HARNESS.load_benchmark("workloads")
    return HARNESS.Tree(bm, *benchmarks, "eval_paper", 1, tmp_path_factory.mktemp("eval"))


def test_a_tree_against_itself_gives_an_interval_around_one(trees):
    rows = ["assignment.static_assign", "pass"]
    results = HARNESS.replay(*trees("train_sparse"), rounds=8, functions=rows, level=0.999)
    check_a_a(results, rows, 8)


def test_summary_of_known_ratios():
    summary = HARNESS.summarize(np.asarray([0.8, 0.9, 0.9, 1.1]))
    assert summary["median"] == 0.9
    assert summary["faster"] == 3 and summary["rounds"] == 4
    low, high = summary["interval"]
    assert 0.8 <= low <= 0.9 <= high <= 1.1


def test_cli_command_against_itself(trees):
    """cli_io rounds run the commands in process, each tree writing into its
    own directory; A/A, `evaluate` gives an interval around one."""
    results = HARNESS.replay(*trees("cli_io"), rounds=20, functions=["cli.evaluate"],
                             level=0.999)
    check_a_a(results, ["cli.evaluate"], 20)


def test_average_precision_against_itself(eval_paper_tree):
    """An eval_paper pass reaches its corpus AP, which closes the pass. One
    tree is timed against itself: of two trees, the one whose workload is
    built second runs AP 1-3% faster, whichever source it holds (see the
    README's harness section), and a 20-round interval resolves that."""
    rows = ["evaluation.average_precision"]
    results = HARNESS.replay(eval_paper_tree, eval_paper_tree, rounds=20, functions=rows,
                             level=0.999)
    check_a_a(results, rows, 20)


def test_a_recorded_pass_holds_the_calls_of_its_workload(trees, eval_paper_tree):
    def recorded(workload):
        tree = eval_paper_tree if workload == "eval_paper" else trees(workload)[0]
        return [name for name, _ in tree.calls]

    assert recorded("train_sparse") == list(TRAINING) * 10
    # per image: static and mutual labels, their detections and NMS; the
    # last image's operation also evaluates the pass's corpus
    image = ["geometry.pairwise_iou", "simulator.synth_predictions", "assignment.static_assign",
             "assignment.mutual_guidance_assign", *["simulator.detections_from_snapshot"] * 2,
             *["evaluation.nms"] * 2]
    corpus = [*["evaluation.average_precision"] * 2, *["evaluation.misalignment_rate"] * 2]
    assert recorded("eval_paper") == image * 30 + corpus
    # the two assigns are told apart by their strategy
    assert recorded("cli_io") == [
        "cli.assign:mutual", "cli.assign:fcos-mutual", "cli.simulate", "cli.evaluate"
    ]
