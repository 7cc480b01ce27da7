"""The layer A/B harness in tools/ab_layers.py, run A/A: one source tree
against itself, imported under two package names (once, for eval_paper's AP),
on one pass of a workload."""

import importlib.util
import mmap
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
    # an A/A interval misses 1 by chance only: at 99.9%, in at most 0.1% of
    # runs (0.098% at 11 rounds, min to max; 0.040% at 20, the 3rd to the
    # 18th ratio); a bias between the two imports or the two orders would
    # miss it every time
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
    results = HARNESS.replay(*trees("train_sparse"), rounds=11, functions=rows, level=0.999)
    check_a_a(results, rows, 11)


def test_summary_of_known_ratios():
    summary = HARNESS.summarize(np.asarray([0.8, 0.9, 0.9, 1.1]))
    assert summary["median"] == 0.9
    assert summary["faster"] == 3 and summary["rounds"] == 4
    # 4 rounds cannot reach 95%: the interval is min to max
    assert summary["interval"] == (0.8, 1.1)


@pytest.mark.parametrize("n, level, k", [(10, 0.95, 2), (20, 0.95, 6), (20, 0.999, 3)])
def test_interval_is_the_kth_lowest_to_the_kth_highest_ratio(n, level, k):
    ratios = np.random.default_rng(n).permutation(np.arange(1.0, n + 1.0))
    assert HARNESS.summarize(ratios, level)["interval"] == (k, n + 1 - k)


def miss_chance(n, k):
    """The chance that [x(k), x(n+1-k)] of n draws misses their median, by
    enumerating which draws fall below it: each of the 2**n patterns is as likely."""
    below = np.zeros(2**n, dtype=int)
    for bit in range(n):
        below += (np.arange(2**n) >> bit) & 1
    return np.count_nonzero((below < k) | (below > n - k)) / 2**n


@pytest.mark.parametrize("level", [0.95, 0.999])
@pytest.mark.parametrize("n", range(1, 17))
def test_interval_holds_its_level(n, level):
    """The chosen k misses the median with chance at most 1 - level and k + 1
    would miss more often; where even min to max misses more often, k = 1."""
    k = int(HARNESS.summarize(np.arange(1.0, n + 1.0), level)["interval"][0])
    if miss_chance(n, 1) > 1 - level:
        assert k == 1
    else:
        assert miss_chance(n, k) <= 1 - level < miss_chance(n, k + 1)


class StubTree:
    """A tree's recorded calls and one pass, all doing nothing: no workload is built."""

    def __init__(self, *names):
        self.calls = [(name, lambda: None) for name in names]
        self.passes = [lambda: None]


def test_unknown_rows_are_refused():
    base, change = StubTree("evaluation.nms"), StubTree("evaluation.nms")
    with pytest.raises(ValueError, match=r"no rows named \['nope'\]; the rows are "
                                         r"\['evaluation.nms', 'pass'\]"):
        HARNESS.replay(base, change, rounds=2, functions=["nope", "pass"])
    assert list(HARNESS.replay(base, change, rounds=2, functions=["pass"])) == ["pass"]
    # `--functions` with no names times every row, as no `--functions` does
    assert list(HARNESS.replay(base, change, rounds=2, functions=[])) == ["evaluation.nms", "pass"]


def touch_fresh_pages(pages: int) -> None:
    """Write one byte into each page of a fresh anonymous mapping: a minor fault per page."""
    with mmap.mmap(-1, pages * mmap.PAGESIZE) as region:
        for offset in range(0, len(region), mmap.PAGESIZE):
            region[offset] = 1


def test_summary_carries_the_faults_per_call_of_both_trees():
    base, change = StubTree("evaluation.nms"), StubTree("evaluation.nms")
    change.calls = [("evaluation.nms", lambda: touch_fresh_pages(16))]
    results = HARNESS.replay(base, change, rounds=4)
    base_faults, change_faults = results["evaluation.nms"]["faults"]
    assert 0 <= base_faults < 16 <= change_faults
    assert all(len(summary["faults"]) == 2 for summary in results.values())


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
