#!/usr/bin/env python3
"""permchal benchmark: one workload per run, end-to-end or traced.

    python3 bench/run_bench.py --workload sweep-bulk --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics (and the tracing overhead). The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable summary and the run's
environment. ``--smoke`` runs the workload at tiny scale (see smoke.py).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep-bulk", "sweep-grid", "inequality-suite", "translation-exhaustive")
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh child processes

ATTACKS = ("bsgs", "daemen", "sqddh-majority", "chains", "rho", "guess")
ADAPTIVE = ("chains", "rho")  # no decide phase: run() returns the output
SHEARER_FNS = (
    "random_bijection_distribution", "random_cover", "bijection_shearer_terms",
    "random_read_k_family", "read_k_concentration_gap", "indicator_shearer_gap",
    "product_shearer_gap",
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs; golden digests are not checked")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": _git_commit(),
        **_src_summary(),
    }


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"  # a plain checkout: src_sha256 identifies the code instead


def _src_summary() -> dict:
    lines = 0
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    return {"src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


def timed_setup(args, tracer=None):
    """Import permchal, build program objects, warm caches.

    Returns (workload, raw seconds, speed-adjusted seconds); numpy is
    imported first, as part of the environment rather than the program.
    """
    from clock import REFERENCE_S, reference_seconds

    reference_seconds()
    before = reference_seconds()
    start = perf_counter()
    import workloads  # imports permchal

    elapsed = perf_counter() - start
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)  # inputs from the seed, untimed
    if tracer is not None:
        wl.tracer = tracer
        tracer.enabled = True  # spans around the benchmark's own set-up calls
    start = perf_counter()
    wl.setup()
    elapsed += perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    after = reference_seconds()
    return wl, elapsed, elapsed * REFERENCE_S / ((before + after) / 2)


def setup_sample(args) -> tuple:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["raw_s"], sample["setup_s"]


def measure(wl, seconds, tracer):
    """Repeat the workload's pass for `seconds`.

    Returns the speed-adjusted seconds of each untraced and each traced
    pass, the raw seconds of each untraced pass, and the operations the
    untraced passes did. In a traced run every second pass is traced, so
    the untraced passes of the same run give the overhead baseline.
    """
    walls, traced_walls, raw_walls = [], [], []
    ops = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not walls or (tracer and not traced_walls):
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.install()
        try:
            done, output = wl.run_pass()
        except Exception:
            traceback.print_exc()
            wl.checks.check(False, f"{wl.name}: pass raised")
            break
        finally:
            if traced:
                tracer.uninstall()
        raw, adjusted = wl.clock.lap()
        if traced:
            traced_walls.append(adjusted)
        else:
            walls.append(adjusted)
            raw_walls.append(raw)
            ops += done
        _with_spans(tracer, wl.check_pass, output)
    return walls, traced_walls, raw_walls, ops


def _with_spans(tracer, fn, *args):
    """Checks run untimed; in a traced run their direct program calls still record spans."""
    if tracer is not None:
        tracer.enabled = True
    try:
        return fn(*args)
    finally:
        if tracer is not None:
            tracer.enabled = False


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def per_layer_metrics(tr, walls, traced_walls) -> dict:
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for a in ATTACKS:
        put(f"attacks.{a}.preprocess_us", tr.median_us(f"attacks.{a}.preprocess_us"), "us")
        put(f"attacks.{a}.online_us", tr.median_us(f"attacks.{a}.online_us"), "us")
        if a not in ADAPTIVE:
            put(f"attacks.{a}.decide_us", tr.median_us(f"attacks.{a}.decide_us"), "us")
        put(f"attacks.{a}.queries_per_trial", tr.mean(f"attacks.{a}.queries_per_trial"), "count")
        put(f"attacks.{a}.advice_bits", tr.mean(f"attacks.{a}.advice_bits"), "bits")
        put(f"attacks.{a}.s_bits", tr.mean(f"attacks.{a}.s_bits"), "bits")
        put(f"attacks.{a}.queries_over_budget", tr.counts[f"attacks.{a}.queries_over_budget"], "count")
        put(f"attacks.{a}.trials", tr.counts[f"attacks.{a}.trials"], "count")
    put("attacks.chains.endpoint_merges", tr.mean("attacks.chains.endpoint_merges"), "count")
    put("attacks.mi.run_mi_game_us", tr.median_us("attacks.mi.run_mi_game_us"), "us")

    for n in (256, 1009, 8191):
        put(f"games.random_sigma_us.n{n}", tr.median_us(f"games.random_sigma_us.n{n}"), "us")
    for g in ("dlog", "em", "sqddh"):
        put(f"games.sample_secret_us.{g}", tr.median_us(f"games.sample_secret_us.{g}"), "us")
    for a in ATTACKS:
        put(f"games.play_game_self_us.{a}", tr.median_us(f"games.play_game_us.{a}", self_time=True), "us")
    for g in ("dlog", "ddh", "sqddh", "em", "em1k"):
        put(f"games.measure_uniformity_s.{g}", tr.median_us(f"games.measure_uniformity_s.{g}") / 1e6, "s")
    put("games.translations", tr.counts["games.translations"], "count")

    put("midgame.mid_simulation_oracle_us", tr.median_us("midgame.mid_simulation_oracle_us"), "us")
    put("midgame.play_mid_game_us", tr.median_us("midgame.play_mid_game_us"), "us")
    put("midgame.w1_rate", tr.mean("midgame.w1_rate"), "ratio")
    put("midgame.w2_rate", tr.mean("midgame.w2_rate"), "ratio")
    put("midgame.runs", tr.counts["midgame.runs"], "count")

    for fn in SHEARER_FNS:
        for n in (4, 5):
            put(f"shearer.{fn}_us.n{n}", tr.median_us(f"shearer.{fn}_us.n{n}"), "us")
    for n in (2, 4):
        name = f"shearer.extremal_ratio_search_ms.n{n}"
        put(name, tr.median_us(name) / 1e3, "ms")
    put("shearer.verify_inequalities_s", tr.median_us("shearer.verify_inequalities_s") / 1e6, "s")
    put("shearer.gap_evals", tr.counts["shearer.gap_evals"], "count")

    put("infotheory.kl_bernoulli_us", tr.median_us("infotheory.kl_bernoulli_us"), "us")
    put("infotheory.JointDistribution_us", tr.median_us("infotheory.JointDistribution_us"), "us")
    put("permutations.permutation_matrix_ms", tr.median_us("permutations.permutation_matrix_ms") / 1e3, "ms")

    put("harness.run_trials_ms_p50", tr.quantile_s("harness.run_trials_ms", 0.5) * 1e3, "ms")
    put("harness.run_trials_ms_p90", tr.quantile_s("harness.run_trials_ms", 0.9) * 1e3, "ms")
    put("harness.write_csv_ms", tr.median_us("harness.write_csv_ms") / 1e3, "ms")
    put("harness.check_bound_assertions_ms", tr.median_us("harness.check_bound_assertions_ms") / 1e3, "ms")
    put("harness.specs", tr.counts["harness.specs"], "count")
    put("harness.trials", tr.counts["harness.trials"], "count")
    put("cli.main_s", tr.median_us("cli.main_s") / 1e6, "s")
    put("bounds.evaluate_bound_us", tr.median_us("bounds.evaluate_bound_us"), "us")

    untraced, traced = statistics.fmean(walls), statistics.fmean(traced_walls)
    put("trace.wall_s_untraced", untraced, "s")
    put("trace.wall_s_traced", traced, "s")
    put("trace.overhead_s", traced - untraced, "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "permchal", "__init__.py")):
        print(f"error: permchal sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = environment()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    wl, setup_raw, setup_s = timed_setup(args, tracer)
    try:
        if args.setup_only:
            print(json.dumps({"raw_s": setup_raw, "setup_s": setup_s}))
            return 0
        if tracer is not None:
            wl.install_tracing(tracer)
        walls, traced_walls, raw_walls, ops = measure(wl, args.seconds, tracer)
        if not walls or (tracer is not None and not traced_walls):
            print("error: no pass completed", file=sys.stderr)
            return 1
        rss = peak_rss_mb()
        try:
            _with_spans(tracer, wl.finish)
        except Exception:
            traceback.print_exc()
            wl.checks.check(False, f"{wl.name}: final checks raised")
    finally:
        wl.close()

    env.update(passes=len(walls), raw_wall_s=statistics.fmean(raw_walls), raw_ops_per_s=ops / sum(raw_walls))
    if tracer is None:
        setups = [(setup_raw, setup_s)] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        values = {
            "setup_s": statistics.median(s for _raw, s in setups),
            # every pass does the same operations; medians resist a pass slowed by a neighbour
            "wall_s": statistics.median(walls),
            "ops_per_s": ops / len(walls) / statistics.median(walls),
            "peak_rss_mb": rss,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        env.update(raw_setup_s=statistics.median(raw for raw, _s in setups))
    else:
        metrics = per_layer_metrics(tracer, walls, traced_walls)
        env.update(traced_passes=len(traced_walls))

    checks = wl.checks
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for note in checks.notes.values():
        print(f"note: {note}", file=sys.stderr)
    env.update(notes=len(checks.notes))
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {checks.failed / max(1, checks.attempted):.6g} ({checks.failed}/{checks.attempted} checks)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
