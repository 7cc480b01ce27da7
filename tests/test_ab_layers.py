"""The layer A/B harness in tools/ab_layers.py, run A/A: one source tree
against itself, imported under two package names, on a few small operations."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_harness():
    spec = importlib.util.spec_from_file_location("ab_layers", ROOT / "tools" / "ab_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself_gives_an_interval_around_one():
    harness = load_harness()
    # at 99.9%, an A/A interval misses 1 by chance about once in a thousand
    # runs; a bias between the two imports or the two orders would not
    results = harness.compare(ROOT / "src", ROOT / "src", "train_sparse", seed=1, rounds=15,
                              ops=2, functions=["static_assign", "op"], level=0.999)
    assert list(results) == ["static_assign", "op"]
    for summary in results.values():
        low, high = summary["interval"]
        assert low <= summary["median"] <= high
        assert low <= 1.0 <= high
        assert summary["rounds"] == 15


def test_summary_of_known_ratios():
    summary = load_harness().summarize(np.asarray([0.8, 0.9, 0.9, 1.1]))
    assert summary["median"] == 0.9
    assert summary["faster"] == 3 and summary["rounds"] == 4
    low, high = summary["interval"]
    assert 0.8 <= low <= 0.9 <= high <= 1.1



def test_cli_command_against_itself():
    """cli_io rounds run the commands in process, each tree writing into its
    own directory; A/A, `evaluate` gives an interval around one (40 runs in a
    row all held)."""
    results = load_harness().compare(ROOT / "src", ROOT / "src", "cli_io", seed=1, rounds=20,
                                     ops=1, functions=["evaluate"], level=0.999)
    assert list(results) == ["evaluate"]
    low, high = results["evaluate"]["interval"]
    assert low <= 1.0 <= high
    assert results["evaluate"]["rounds"] == 20
