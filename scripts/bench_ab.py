#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark: a base commit against the working tree.

    python3 scripts/bench_ab.py --base HEAD~1 --out BENCH_<n>.json \\
        [--repeats 5] [--criteria 07 09] [--workloads sweep-grid ...] [--workdir DIR]

Run from the repository root. The base revision is resolved to its commit
hash, which the report records, and that commit is exported with
``git archive`` into a scratch directory (``--workdir``, default a new
temporary directory, removed afterwards), so the repository's own ``.git``
is left as it is. For each workload in ``BENCHMARK.json`` (or each one
named by ``--workloads``, in the file's order), pair r runs
``bench/run_bench.py --trace 0 --seed r+1`` for the declared
``run_seconds`` once on each tree, each tree with its own ``bench/``; the
side that runs first alternates from pair to pair. Each side keeps its
bytecode in its own empty cache under the work directory
(``PYTHONPYCACHEPREFIX``), never in a tree's ``__pycache__``, so both start
from the same state whatever the working tree holds. With
``--criteria`` the named acceptance criteria are then timed the same way:
``--repeats`` pairs of pytest runs, one per tree, the first side
alternating (pytest's call duration).

The output file holds, per workload and end-to-end metric, each side's
median, quartiles and range, the change/base ratio of the medians and how
many pairs the change won; plus the ``src/`` line count of each tree,
``nproc``, each side's spread of the criterion seconds and every raw run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")
_DURATION = re.compile(r"([\d.]+)s call\s+\S*::test_criterion_(\d+)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--repeats", type=int, default=5, help="pairs of runs per workload")
    p.add_argument("--criteria", nargs="*", default=[], help="acceptance criteria to time, e.g. 07 09")
    p.add_argument("--workloads", nargs="+", help="run only these BENCHMARK.json workloads")
    p.add_argument("--workdir", help="where to export the base tree and keep each side's bytecode")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be positive")
    if not all(re.fullmatch(r"\d\d", c) for c in args.criteria):
        p.error("--criteria takes two-digit criterion numbers, e.g. 07")
    return args


def select_workloads(declared: dict, names) -> list:
    """The declared workload names, in ``BENCHMARK.json`` order, restricted to
    ``names`` unless that is None; an undeclared name raises."""
    order = [w["name"] for w in declared["workloads"]]
    unknown = sorted(set(names or ()) - set(order))
    if unknown:
        raise ValueError(f"workloads not in BENCHMARK.json: {unknown}; declared: {order}")
    return [name for name in order if names is None or name in names]


def resolve_commit(rev: str) -> str:
    """The full hash of the commit ``rev`` names, by ``git rev-parse``."""
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise ValueError(f"--base {rev!r} names no commit")
    return proc.stdout.strip()


def export_tree(rev: str, dest: str) -> str:
    """The files of ``rev`` under ``dest``, by ``git archive``."""
    os.makedirs(dest)
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def src_lines(tree: str) -> int:
    lines = 0
    for dirpath, _dirs, files in os.walk(os.path.join(tree, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    return lines


def run_bench(tree: str, workload: str, seed: int, seconds: float, pycache: str) -> dict:
    """One untraced benchmark run, its bytecode under ``pycache``; its last
    stdout line, parsed."""
    cmd = [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def time_criteria(tree: str, criteria, pycache: str) -> dict:
    """Seconds of pytest's call phase per acceptance criterion, and its
    ``ACCEPTANCE`` line (verdict and detail); bytecode goes under ``pycache``.

    A criterion that fails still has its seconds (pytest exit 1). Any other
    non-zero exit (nothing selected, a collection error) or a requested
    criterion without a duration raises, with pytest's output.
    """
    selector = " or ".join(f"test_criterion_{c}_" for c in criteria)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONPYCACHEPREFIX=pycache)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "--durations=0", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", selector],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    seconds = {m.group(2): float(m.group(1)) for m in _DURATION.finditer(proc.stdout)}
    missing = [c for c in criteria if c not in seconds]
    if proc.returncode not in (0, 1) or missing:
        raise RuntimeError(
            f"pytest in {tree} exited {proc.returncode}; no duration for criteria {missing}\n"
            f"{proc.stderr}\n{proc.stdout[-2000:]}"
        )
    lines = dict(re.findall(r"ACCEPTANCE (\d+) (.*)", proc.stdout))
    return {c: {"seconds": seconds[c], "line": lines.get(c)} for c in criteria}


def _order(pair: int) -> tuple:
    """The sides in the order they run in pair ``pair``: base first in even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def time_criteria_pairs(trees: dict, criteria, repeats: int, caches: dict) -> dict:
    """``time_criteria`` on both trees in ``repeats`` pairs, in ``_order``,
    each side with its bytecode cache from ``caches``.

    Per side and criterion: the spread of its seconds, the seconds of every
    run in pair order and the distinct ``ACCEPTANCE`` lines seen.
    """
    runs = {side: [] for side in SIDES}
    for pair in range(repeats):
        for side in _order(pair):
            runs[side].append(time_criteria(trees[side], criteria, caches[side]))
    out = {}
    for side in SIDES:
        out[side] = {}
        for c in criteria:
            seconds = [run[c]["seconds"] for run in runs[side]]
            lines = sorted({run[c]["line"] for run in runs[side]}, key=str)
            out[side][c] = {**_spread(seconds), "seconds": seconds, "lines": lines}
    return out


def _spread(values) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values), "n": len(values)}


def summarise(runs, better: dict) -> dict:
    """Per workload and metric: each side's spread, the median ratio and the pairs won.

    ``runs`` are records ``{"workload", "pair", "side", "result"}`` where
    ``result`` is a run's parsed JSON line; ``better`` maps a metric name to
    "lower" or "higher". A pair is won when the change's value is strictly
    better than the base's; ties count for neither side.
    """
    table: dict = {}
    for run in runs:
        cell = table.setdefault(run["workload"], {}).setdefault(run["pair"], {})
        cell[run["side"]] = run["result"]
    summary = {}
    for workload, pairs in table.items():
        complete = [p for p in pairs.values() if all(side in p for side in SIDES)]
        out = {
            "pairs": len(complete),
            "failed": {side: sum(p[side]["failed"] for p in complete) for side in SIDES},
            "correct": all(p[side]["correct"] for p in complete for side in SIDES),
            "metrics": {},
        }
        for name in complete[0]["base"]["metrics"] if complete else ():
            values = {side: [p[side]["metrics"][name]["value"] for p in complete] for side in SIDES}
            sign = -1 if better.get(name, "lower") == "lower" else 1
            wins = sum(sign * (c - b) > 0 for b, c in zip(values["base"], values["change"]))
            base_median = statistics.median(values["base"])
            out["metrics"][name] = {
                "unit": complete[0]["base"]["metrics"][name]["unit"],
                "better": better.get(name, "lower"),
                **{side: _spread(values[side]) for side in SIDES},
                "ratio": statistics.median(values["change"]) / base_median if base_median else None,
                "change_wins": wins,
            }
        summary[workload] = out
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    workloads = select_workloads(declared, args.workloads)
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    base = resolve_commit(args.base)
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_ab_")
    base_tree = export_tree(base, os.path.join(workdir, "base"))
    trees = {"base": base_tree, "change": ROOT}
    caches = {side: os.path.join(workdir, "pycache", side) for side in SIDES}
    try:
        runs = []
        for workload in workloads:
            for pair in range(args.repeats):
                for side in _order(pair):
                    result = run_bench(trees[side], workload, pair + 1, seconds, caches[side])
                    runs.append({"workload": workload, "pair": pair, "side": side, "result": result})
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {pair} {side}: wall_s {wall:.4f}", file=sys.stderr)
        criteria = time_criteria_pairs(trees, args.criteria, args.repeats, caches) if args.criteria else {}
        report = {
            "base": base,
            "change": "working tree",
            "nproc": os.cpu_count(),
            "seconds_per_run": seconds,
            "src_lines": {side: src_lines(trees[side]) for side in SIDES},
            "workloads": summarise(runs, better),
            "criteria_seconds": criteria,
            "runs": runs,
        }
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
        shutil.rmtree(os.path.join(workdir, "pycache"), ignore_errors=True)
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
