#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at tiny scale (``--smoke``), untraced and traced, and
asserts that each run exits 0 with a correct result whose metrics are
exactly the names BENCHMARK.json lists, each with its unit. Then checks
that the benchmark refuses to run (non-zero exit, no result line) in a
directory holding only BENCHMARK.json and this directory's files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = [sys.executable, os.path.join("bench", "run_bench.py")]


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"])
            tag = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{tag}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
                problems.append(f"{tag}: not correct: {result['failed']}/{result['attempted']} checks failed")
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            missing = sorted(set(expected[trace]) - set(got))
            extra = sorted(set(got) - set(expected[trace]))
            units = sorted(n for n in set(got) & set(expected[trace]) if got[n] != expected[trace][n])
            numbers = sorted(n for n, m in result["metrics"].items() if not isinstance(m.get("value"), (int, float)))
            for what, names in (("missing", missing), ("unexpected", extra), ("wrong unit", units), ("not a number", numbers)):
                if names:
                    problems.append(f"{tag}: {what}: {names}")
            print(f"ok {tag}: {len(got)} metrics, {result['attempted']} checks", flush=True)

    work = os.path.join(BENCH_DIR, "_work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("_work", "__pycache__"))
        done = run(["--workload", spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append("without src/ the benchmark must exit non-zero and print no result")
        else:
            print(f"ok refuses to run without the program (exit {done.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
