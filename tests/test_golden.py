"""Outputs pinned as SHA-256 digests in bench/golden.json.

The benchmark pins these digests at its default seed and checks them on
every run; this module checks the same outputs in the test suite, so a
refactor or speedup cannot change results silently. It reads the
benchmark's workload definitions and never writes under ``bench/``.
"""

import io
import os
import sys

import pytest

from permchal import games, harness

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import workloads  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

SEED = workloads.DEFAULT_SEED


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_grid_csv(jobs):
    grid = workloads.SweepGrid
    specs = [
        workloads._spec(g, a, n, t, grid.TRIALS, workloads.sub_seed(SEED, grid.name, i), s_bits)
        for i, (g, a, n, t, s_bits) in enumerate(grid.GRID)
    ]
    buf = io.StringIO()
    harness.write_csv(harness.sweep_grid(specs, jobs=jobs), buf)
    assert workloads.sha256(buf.getvalue()) == workloads.golden("sweep_grid_csv")


@pytest.mark.parametrize("alias,n", workloads.TranslationExhaustive.UNIFORMITY)
def test_measure_uniformity(alias, n):
    res = games.measure_uniformity(games.build_game(harness.GAME_ALIASES[alias], n))
    assert workloads.uniformity_digest(res) == workloads.golden("uniformity")[f"{alias}-n{n}"]


def test_verify_inequalities():
    n, trials = workloads.InequalitySuite.GOLDEN_VERIFY
    summary = workloads.summary_json(harness.verify_inequalities(n, trials, SEED))
    assert workloads.sha256(summary) == workloads.golden("verify_inequalities_4_200")
