"""The summarising step of scripts/bench_ab.py, on canned benchmark lines."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "bench_ab.py")
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

BETTER = {"wall_s": "lower", "ops_per_s": "higher"}


def _line(wall, ops, failed=0):
    return json.dumps({
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}, "ops_per_s": {"value": ops, "unit": "1/s"}},
    })


def _runs(base, change, workload="sweep-bulk"):
    runs = []
    for pair, (b, c) in enumerate(zip(base, change)):
        for side, line in (("base", b), ("change", c)):
            runs.append({"workload": workload, "pair": pair, "side": side, "result": json.loads(line)})
    return runs


def test_medians_quartiles_ratio_and_pairs_won():
    base = [_line(w, 100 / w) for w in (0.30, 0.34, 0.32, 0.36, 0.33)]
    change = [_line(w, 100 / w) for w in (0.25, 0.26, 0.33, 0.24, 0.34)]
    summary = bench_ab.summarise(_runs(base, change), BETTER)["sweep-bulk"]
    assert summary["pairs"] == 5 and summary["correct"]
    wall = summary["metrics"]["wall_s"]
    assert wall["base"]["median"] == pytest.approx(0.33)
    assert (wall["base"]["q1"], wall["base"]["q3"]) == pytest.approx((0.32, 0.34))
    assert (wall["change"]["min"], wall["change"]["max"]) == (0.24, 0.34)
    assert wall["ratio"] == pytest.approx(0.26 / 0.33)
    # pair 2 (0.33 vs 0.32) and pair 4 (0.34 vs 0.33) go to the base
    assert wall["change_wins"] == 3 and wall["unit"] == "s"
    ops = summary["metrics"]["ops_per_s"]
    assert ops["better"] == "higher" and ops["change_wins"] == 3


def test_ties_and_failures_and_unpaired_runs():
    base = [_line(0.3, 10), _line(0.3, 10)]
    change = [_line(0.3, 10), _line(0.2, 12, failed=2)]
    runs = _runs(base, change)
    runs.append({"workload": "sweep-bulk", "pair": 7, "side": "base", "result": json.loads(_line(9.0, 1))})
    summary = bench_ab.summarise(runs, BETTER)["sweep-bulk"]
    assert summary["pairs"] == 2  # the pair without a change run is left out
    assert summary["failed"] == {"base": 0, "change": 2} and not summary["correct"]
    assert summary["metrics"]["wall_s"]["change_wins"] == 1  # the tie counts for neither
    assert summary["metrics"]["wall_s"]["base"]["n"] == 2


def test_one_pair_has_a_degenerate_spread():
    summary = bench_ab.summarise(_runs([_line(0.5, 2)], [_line(0.4, 3)]), BETTER)
    wall = summary["sweep-bulk"]["metrics"]["wall_s"]
    assert wall["change"]["q1"] == wall["change"]["median"] == wall["change"]["q3"] == 0.4
