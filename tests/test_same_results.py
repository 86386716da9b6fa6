"""The equality harness of tools/same_results.py, run on two copies of this tree."""

import importlib.util
from pathlib import Path

import numpy as np

import swanson

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_results.py"


def _harness():
    spec = importlib.util.spec_from_file_location("same_results", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_copies_of_this_tree_give_the_same_results(tmp_path):
    harness = _harness()
    twin = harness.load_tree(Path(swanson.__file__).parent, "swanson_twin", tmp_path)
    assert twin.ModelParams is not swanson.ModelParams
    summary = harness.compare(swanson, twin, quick=True)
    assert summary["differ"] == []
    assert summary["equal"] == summary["compared"] > 400


def test_the_comparison_sees_signed_zeros_dtypes_and_messages():
    harness = _harness()
    canonical = harness.canonical
    assert canonical(0.0) != canonical(-0.0)
    assert canonical(np.zeros(2)) != canonical(np.zeros(2, dtype=complex))
    assert canonical(np.zeros(2)) != canonical(np.zeros((2, 1)))
    assert canonical(("raised", "ValueError", "a")) != canonical(("raised", "ValueError", "b"))
    # absolute and relative to the larger magnitude; None where the results do not line up
    assert harness._change(np.array([1.0, 2.0]), np.array([1.0, 2.5])) == (0.5, 0.2)
    assert harness._change(np.zeros(2), np.zeros(3)) == (None, None)
    # equal infinities and NaNs are no change; an infinity against a number is
    assert harness._change(np.array([np.inf, np.nan]), np.array([np.inf, np.nan])) == (0.0, 0.0)
    assert harness._change(np.array([np.inf]), np.array([1.0]))[0] == np.inf
