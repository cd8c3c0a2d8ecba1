#!/usr/bin/env python3
"""Pin the golden SHA-256 digests the benchmark checks, from the current program.

    python3 bench/pin_golden.py

Writes bench/golden.json with the digests of, at the default seed:

* the sweep-grid CSV (``#permchal-v1``, seconds = 0.000), identical at
  ``--jobs 1`` and ``--jobs 2`` or nothing is written;
* the JSON of ``verify_inequalities(4, 200, 0)``, as ``permchal shearer
  --n 4 --trials 200 --format json`` prints it;
* each ``measure_uniformity`` result of the translation-exhaustive games.

Re-pinning is a statement that the program's outputs changed on purpose.
"""

import io
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from permchal import games, harness  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    grid = workloads.SweepGrid(workloads.DEFAULT_SEED, smoke=False)
    grid.setup()
    try:
        _ops, (code, text) = grid.run_pass()
    finally:
        grid.close()
    buf = io.StringIO()
    harness.write_csv(harness.sweep_grid(grid.specs, jobs=1), buf)
    if code != 0 or buf.getvalue() != text:
        print("error: sweep-grid CSV differs between --jobs 1 and --jobs 2", file=sys.stderr)
        return 1

    ineq = workloads.InequalitySuite
    n, trials = ineq.GOLDEN_VERIFY
    summary = workloads.summary_json(harness.verify_inequalities(n, trials, workloads.DEFAULT_SEED))

    uniformity = {}
    for alias, size in workloads.TranslationExhaustive.UNIFORMITY:
        res = games.measure_uniformity(games.build_game(harness.GAME_ALIASES[alias], size))
        uniformity[f"{alias}-n{size}"] = workloads.uniformity_digest(res)

    pinned = {
        "sweep_grid_csv": workloads.sha256(text),
        "verify_inequalities_4_200": workloads.sha256(summary),
        "uniformity": uniformity,
    }
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(pinned, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
