"""The four benchmark workloads.

Each workload is a closed loop driven by this one client process: it
repeats a fixed *pass* (one job, same inputs every pass) until the run's
time is used up. Inputs are generated from the run's seed only; the
program sees the resulting specs, distributions and queries.

A workload object provides

* ``setup()``      build program objects and warm lazy caches (timed as setup_s);
* ``run_pass()``   the job, timed step by step through ``self.clock``;
                   returns (operations done, pass output);
* ``check(out)``   correctness of one pass's output, recorded on ``self.checks``;
* ``finish()``     checks that need a further untimed run (``--jobs`` invariance);
* ``install_tracing(tracer)`` register the program functions the traced
  run wraps (after ``setup``, which may discover the classes to wrap).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import asdict

import numpy as np

from permchal import cli, games, harness, infotheory, midgame, permutations, shearer
from permchal.harness import ExperimentReport, ExperimentSpec

from clock import Clock
from spans import NullTracer

DEFAULT_SEED = 0
GAP_TOL = 1e-9
LEMMA_TOL = 1e-12
# Floating-point rounding allowed at the ends of a Wilson interval: at 0 or
# all successes wilson_interval computes an end as center - half (or center
# + half), which misses p_hat by one rounding step (0 of 400: ci_low 8.7e-19).
# The excess seen is reported as a note, so the rounding stays visible.
WILSON_TOL = 1e-12
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
_golden = {}


def golden(key: str):
    """Digest pinned from the program at the default seed (see pin_golden.py)."""
    if not _golden:
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            _golden.update(json.load(fh))
    return _golden[key]


def sub_seed(seed: int, *labels) -> int:
    """A 48-bit seed for one input stream, derived from the run seed."""
    text = ":".join(str(x) for x in (seed,) + labels)
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def summary_json(summary) -> str:
    """An InequalitySummary as ``permchal shearer --format json`` prints it."""
    return json.dumps(asdict(summary), indent=2)


def uniformity_digest(result) -> str:
    return sha256(json.dumps(asdict(result), sort_keys=True))


class Checks:
    """Correctness checks; a failed check counts as a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.notes = {}

    def note(self, key: str, what: str) -> None:
        """An observation that is not a failure; one per key."""
        self.notes.setdefault(key, what)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Workload:
    name = ""
    CLOCK_CORES = 1  # cores the timed steps keep busy (see clock.py)

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.golden = seed == DEFAULT_SEED and not smoke
        self.checks = Checks()
        self.tracer = NullTracer()  # the runner swaps in a Tracer for traced runs
        self.clock = Clock(self.CLOCK_CORES)
        self.first_output = None
        self.first_key = None

    def setup(self) -> None:
        pass

    def install_tracing(self, tracer) -> None:
        pass

    def run_pass(self):
        raise NotImplementedError

    def check_pass(self, output) -> None:
        """Full checks on the first pass; later passes must reproduce it exactly."""
        if self.first_output is None:
            self.first_output = output
            self.first_key = self.comparable(output)
            self.check(output)
        else:
            self.checks.check(
                self.comparable(output) == self.first_key,
                f"{self.name}: pass output differs from first pass",
            )

    def comparable(self, output):
        return output

    def check(self, output) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def close(self) -> None:
        self.clock.close()


# ---------------------------------------------------------------------------
# Monte Carlo sweeps
# ---------------------------------------------------------------------------


def _check_reports(checks: Checks, tracer, reports, label: str, bound_check: bool = True) -> None:
    """Checks on experiment reports; all but the ceiling check hold on every seed.

    ``check_bound_assertions`` is a one-sided statistical test (p_hat <=
    ceiling + Wilson half-width + 0.01). A row whose true success sits just
    under its ceiling, as the constant guess on ddh n=101, sqddh n=127 and
    sqddh n=31 does (1/2 against 0.520, 0.516 and 0.565), fails it on 3.2%,
    3.2% and 1.1% of seeds at 24 trials, about 7% of seeds for the grid;
    ``bound_check=False`` then times the call without counting it.
    """
    for r in reports:
        spec = r.spec
        tag = f"{label} {spec.game}/{spec.attack} n={spec.n} t={spec.t}"
        checks.check(0 <= r.successes <= spec.trials, f"{tag}: successes out of range")
        excess = max(r.ci_low - r.p_hat, r.p_hat - r.ci_high)
        checks.check(excess <= WILSON_TOL, f"{tag}: p_hat outside its Wilson interval by {excess!r}")
        if excess > 0:
            checks.note(f"wilson {tag}", f"{tag}: p_hat outside its Wilson interval by {excess!r} (rounding)")
        if spec.attack == "bsgs" and spec.t * spec.t >= spec.n:
            checks.check(r.successes == spec.trials, f"{tag}: bsgs with m^2 >= n must always succeed")
    rows = tracer.call("harness.check_bound_assertions_ms", harness.check_bound_assertions, reports)
    if bound_check:
        checks.check(not rows, f"{label}: non-adaptive rows above their ceiling: {[r.spec for r in rows]}")


def _spec(game, attack, n, t, trials, seed, s_bits=None) -> ExperimentSpec:
    return ExperimentSpec(game=game, attack=attack, n=n, t=t, trials=trials, master_seed=seed, s_bits=s_bits)


class SweepBulk(Workload):
    """``run_trials`` at jobs=1 over the pinned attack points, many trials each."""

    name = "sweep-bulk"
    # (game, attack, n, t, s_bits, trials per pass); chains: 32 chains x 16 steps
    POINTS = (
        ("dlog", "bsgs", 1009, 32, None, 200),
        ("em", "daemen", 256, 16, None, 200),
        ("sqddh", "sqddh-majority", 8191, 16, 128, 100),
        ("dlog", "chains", 1009, 16, 32 * 2 * 10, 60),
        ("dlog", "rho", 1009, 128, None, 200),
        ("dlog", "guess", 1009, 1, None, 400),
        ("dlog", "mi", 1009, 60, None, 10),
    )

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.specs = [
            _spec(g, a, n, t, 4 if smoke else trials, sub_seed(seed, self.name, i), s_bits)
            for i, (g, a, n, t, s_bits, trials) in enumerate(self.POINTS)
        ]

    def setup(self):
        self.games = {}
        self.adversary_classes = set()
        for spec in self.specs:
            game = self.games.setdefault(spec.game, games.build_game(spec.kind, spec.n))
            if spec.attack != "mi":
                adversary = harness.build_adversary(spec, game)
                self.adversary_classes.add(type(adversary))
            # first call of every point warms whatever the program builds lazily
            harness.run_trials(ExperimentSpec(**{**asdict(spec), "trials": 1}))

    def install_tracing(self, tracer):
        tracer.wrap_run_trials(harness)
        tracer.wrap_play_game(harness)
        tracer.wrap_function(harness, "random_sigma", lambda rng, n: f"games.random_sigma_us.n{n}")
        tracer.wrap_function(harness, "run_mi_game", lambda *a, **k: "attacks.mi.run_mi_game_us")
        tracer.wrap_function(harness, "evaluate_bound", lambda *a, **k: "bounds.evaluate_bound_us")
        for cls in self.adversary_classes:
            tracer.wrap_adversary_class(cls)
        for alias, game in self.games.items():
            tracer.wrap_sample_secret(type(game), alias)

    def run_pass(self):
        reports = [self.clock.step(harness.run_trials, spec) for spec in self.specs]
        return sum(s.trials for s in self.specs), reports

    def comparable(self, reports):
        buf = io.StringIO()
        self.tracer.call("harness.write_csv_ms", harness.write_csv, reports, buf)
        return buf.getvalue()

    def check(self, reports):
        _check_reports(self.checks, self.tracer, reports, self.name)


class SweepGrid(Workload):
    """``permchal sweep --jobs 2`` over small specs covering every game x attack pair."""

    name = "sweep-grid"
    JOBS = 2
    CLOCK_CORES = JOBS
    # (game, attack, n, t, s_bits)
    GRID = (
        ("dlog", "bsgs", 101, 5, None),
        ("dlog", "bsgs", 101, 11, None),
        ("dlog", "bsgs", 1009, 16, None),
        ("dlog", "bsgs", 1009, 32, None),
        ("dlog", "rho", 101, 32, None),
        ("dlog", "rho", 1009, 64, None),
        ("dlog", "chains", 101, 8, 8 * 2 * 7),
        ("dlog", "chains", 1009, 16, 32 * 2 * 10),
        ("dlog", "guess", 101, 1, None),
        ("dlog", "guess", 1009, 1, None),
        ("dlog", "mi", 101, 10, None),
        ("dlog", "mi", 1009, 60, None),
        ("ddh", "guess", 13, 1, None),
        ("ddh", "guess", 101, 1, None),
        ("sqddh", "guess", 31, 1, None),
        ("sqddh", "guess", 127, 1, None),
        ("em", "guess", 64, 1, None),
        ("em", "guess", 256, 1, None),
        ("em1k", "guess", 64, 1, None),
        ("em1k", "guess", 256, 1, None),
        ("sqddh", "sqddh-majority", 127, 8, 16),
        ("sqddh", "sqddh-majority", 8191, 16, 128),
        ("em", "daemen", 256, 16, None),
        ("em", "daemen", 1024, 32, None),
    )
    TRIALS = 24

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        grid = self.GRID[::4] if smoke else self.GRID
        trials = 4 if smoke else self.TRIALS
        self.specs = [
            _spec(g, a, n, t, trials, sub_seed(seed, self.name, i), s_bits)
            for i, (g, a, n, t, s_bits) in enumerate(grid)
        ]

    def setup(self):
        work = os.path.join(BENCH_DIR, "_work")
        os.makedirs(work, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="sweep-grid-", dir=work)
        self.config = os.path.join(self.workdir, "grid.json")
        self.out = os.path.join(self.workdir, "grid.csv")
        entries = []
        for spec in self.specs:
            entry = {"game": spec.game, "attack": spec.attack, "n": spec.n, "t": spec.t,
                     "trials": spec.trials, "seed": spec.master_seed}
            if spec.s_bits is not None:
                entry["s_bits"] = spec.s_bits
            entries.append(entry)
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
        for spec in self.specs:
            harness.run_trials(ExperimentSpec(**{**asdict(spec), "trials": 1}))

    def install_tracing(self, tracer):
        tracer.wrap_run_trials(harness)
        tracer.wrap_function(harness, "evaluate_bound", lambda *a, **k: "bounds.evaluate_bound_us")

    def run_pass(self):
        code = self.clock.step(
            self.tracer.call, "cli.main_s", cli.main,
            ["sweep", "--config", self.config, "--jobs", str(self.JOBS), "--out", self.out],
        )
        with open(self.out, encoding="utf-8", newline="") as fh:
            text = fh.read()
        return sum(s.trials for s in self.specs), (code, text)

    def _reports(self, text):
        lines = text.splitlines()
        rows = list(csv.reader(lines[1:]))
        reports = []
        for spec, row in zip(self.specs, rows[1:]):
            rec = dict(zip(rows[0], row))
            reports.append(ExperimentReport(
                spec=spec,
                s_bits=int(rec["s_bits"]),
                successes=int(rec["successes"]),
                p_hat=float(rec["p_hat"]),
                ci_low=float(rec["ci_low"]),
                ci_high=float(rec["ci_high"]),
                bound_theorem=rec["bound_theorem"],
                bound_value=float(rec["bound_value"]) if rec["bound_value"] else None,
                seconds=0.0,
            ))
        return lines, rows, reports

    def check(self, output):
        code, text = output
        c = self.checks
        c.check(code == 0, f"{self.name}: permchal sweep exited {code}")
        lines, rows, reports = self._reports(text)
        c.check(bool(lines) and lines[0] == harness.CSV_VERSION_LINE, f"{self.name}: missing #permchal-v1 header")
        c.check(len(rows) == len(self.specs) + 1, f"{self.name}: expected {len(self.specs)} rows")
        for spec, row in zip(self.specs, rows[1:]):
            rec = dict(zip(rows[0], row))
            c.check(
                (rec["game"], rec["attack"], int(rec["n"]), int(rec["t"]), int(rec["trials"]), int(rec["seed"]))
                == (spec.game, spec.attack, spec.n, spec.t, spec.trials, spec.master_seed)
                and rec["seconds"] == "0.000",
                f"{self.name}: row does not echo its spec: {row}",
            )
        # 24 trials per spec: the ceiling check is counted at the pinned seed only
        _check_reports(c, self.tracer, reports, self.name, bound_check=self.golden)
        buf = io.StringIO()
        self.tracer.call("harness.write_csv_ms", harness.write_csv, reports, buf)
        c.check(buf.getvalue() == text, f"{self.name}: CLI CSV differs from harness.write_csv of the same rows")
        if self.golden:
            c.check(sha256(text) == golden("sweep_grid_csv"), f"{self.name}: CSV digest differs from golden")

    def finish(self):
        # --jobs invariance on every seed: the in-process jobs=1 run must give the same bytes
        buf = io.StringIO()
        harness.write_csv(harness.sweep_grid(self.specs, jobs=1), buf)
        self.checks.check(
            self.first_key is not None and buf.getvalue() == self.first_key[1],
            f"{self.name}: CSV at --jobs 1 differs from --jobs {self.JOBS}",
        )

    def close(self):
        super().close()
        if getattr(self, "workdir", None):
            shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Inequalities over bijections
# ---------------------------------------------------------------------------


class InequalitySuite(Workload):
    """The criteria 01-04 pattern at n in {4, 5}; no game is involved."""

    name = "inequality-suite"
    SIZES = (4, 5)
    TRIALS = 200  # random (P, cover, read-k family) draws per n and pass
    GOLDEN_VERIFY = (4, 200)  # verify_inequalities(4, 200, seed), pinned at the default seed
    VERIFY_N5_TRIALS = 10
    KL_GRID = 40  # lemma grid points per axis

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.trials = 3 if smoke else self.TRIALS
        self.verify_runs = ((4, 5), (5, 2)) if smoke else (self.GOLDEN_VERIFY, (5, self.VERIFY_N5_TRIALS))
        self.verify_seed = DEFAULT_SEED if seed == DEFAULT_SEED else sub_seed(seed, self.name, "verify")
        rng = np.random.Generator(np.random.PCG64(sub_seed(seed, self.name, "kl")))
        g = 5 if smoke else self.KL_GRID
        # Bernoulli lemma grids of criterion 04, at seeded points
        self.kl_quad = [(p, e * (1.0 - p)) for p, e in zip(rng.uniform(0.01, 0.9, g * g), rng.uniform(1e-6, 1.0, g * g))]
        self.kl_dom = list(zip(rng.uniform(0.01, 1.0, g * g), rng.uniform(0.01, 1.0, g * g)))

    def setup(self):
        t = self.tracer
        for n in self.SIZES + (2,):
            t.call("permutations.permutation_matrix_ms", permutations.permutation_matrix, n)
            # one cover holding every non-empty coordinate set fills the marginal projections
            subsets = tuple(frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1, 2**n))
            shearer.bijection_shearer_terms(
                shearer.BijectionDistribution.uniform(n), shearer.CoverFamily(n, subsets)
            )
        self.singles = {n: shearer.CoverFamily(n, tuple(frozenset([i]) for i in range(n))) for n in (2, 4)}
        self.joint_axes = {n: (tuple(f"x{i}" for i in range(n)), tuple((0, 1) for _ in range(n))) for n in self.SIZES}

    def _random_gaps(self, n):
        """Random (P, cover, read-k family) draws at one n; every gap of each draw."""
        t = self.tracer
        rng = np.random.Generator(np.random.PCG64(sub_seed(self.seed, self.name, n)))
        axes, supports = self.joint_axes[n]
        names = {fn: f"shearer.{fn}_us.n{n}" for fn in (
            "random_bijection_distribution", "random_cover", "bijection_shearer_terms",
            "random_read_k_family", "read_k_concentration_gap", "indicator_shearer_gap",
            "product_shearer_gap")}
        gaps = []
        for _ in range(self.trials):
            p = t.call(names["random_bijection_distribution"], shearer.random_bijection_distribution, rng, n)
            cover = t.call(names["random_cover"], shearer.random_cover, rng, n)
            kl_full, marginal = t.call(names["bijection_shearer_terms"], shearer.bijection_shearer_terms, p, cover)
            gaps.append(("c2", n, 2.0 * cover.k * kl_full - marginal))
            gaps.append(("c9", n, 9.0 * cover.k * kl_full - marginal))
            fam = t.call(names["random_read_k_family"], shearer.random_read_k_family, rng, n)
            gaps.append(("read-k", n, t.call(names["read_k_concentration_gap"], shearer.read_k_concentration_gap, p, fam)))
            probs = rng.dirichlet(np.ones(n))
            cover = shearer.random_cover(rng, n)
            gaps.append(("indicator", n, t.call(
                names["indicator_shearer_gap"], shearer.indicator_shearer_gap, shearer.indicator_distribution(probs), cover)))
            table = rng.dirichlet(np.ones(2**n)).reshape((2,) * n)
            joint = t.call("infotheory.JointDistribution_us", infotheory.JointDistribution, axes, supports, table)
            cover = shearer.random_cover(rng, n)
            gaps.append(("product", n, t.call(names["product_shearer_gap"], shearer.product_shearer_gap, joint, cover)))
        return gaps

    def _ratio(self, n):
        return self.tracer.call(
            f"shearer.extremal_ratio_search_ms.n{n}", shearer.extremal_ratio_search,
            n, self.singles[n], 2 if n == 2 else 5, sub_seed(self.seed, self.name, "ratio", n),
        ).best_ratio

    def _verify(self, n, trials):
        return summary_json(self.tracer.call(
            "shearer.verify_inequalities_s", harness.verify_inequalities, n, trials, self.verify_seed))

    def _lemma_slacks(self):
        """The Bernoulli lemma grids of criterion 04."""
        t = self.tracer
        kl = infotheory.kl_bernoulli
        slacks = []
        for p, eps in self.kl_quad:
            d = t.call("infotheory.kl_bernoulli_us", kl, p + eps, p)
            slacks.append(("quadratic", d - eps * eps / (2 * (p + eps))))
            slacks.append(("pinsker", d - 2 * eps * eps))
        for p, q in self.kl_dom:
            slacks.append(("domination", 2 * (q + t.call("infotheory.kl_bernoulli_us", kl, p, q)) - p))
        return slacks

    def run_pass(self):
        step = self.clock.step
        gaps = [g for n in self.SIZES for g in step(self._random_gaps, n)]
        ratios = tuple((n, step(self._ratio, n)) for n in (2, 4))
        summaries = tuple(step(self._verify, n, trials) for n, trials in self.verify_runs)
        slacks = step(self._lemma_slacks)
        verify_gaps = sum(5 * trials + 2 for _n, trials in self.verify_runs)
        ops = len(gaps) + len(slacks) + verify_gaps
        if self.tracer.enabled:
            self.tracer.counts["shearer.gap_evals"] += ops
        return ops, (tuple(gaps), tuple(slacks), ratios, summaries)

    def check(self, output):
        gaps, slacks, ratios, summaries = output
        c = self.checks
        worst = {}
        for kind, n, gap in gaps:
            worst[(kind, n)] = min(worst.get((kind, n), math.inf), gap)
        for (kind, n), gap in sorted(worst.items()):
            c.check(gap >= -GAP_TOL, f"{self.name}: {kind} gap {gap!r} < -1e-9 at n={n}")
        worst_slack = {}
        for kind, s in slacks:
            worst_slack[kind] = min(worst_slack.get(kind, math.inf), s)
        for kind, s in sorted(worst_slack.items()):
            c.check(s >= -LEMMA_TOL, f"{self.name}: {kind} lemma slack {s!r} < -1e-12")
        ratios = dict(ratios)
        c.check(ratios[2] == 2.0, f"{self.name}: extremal ratio at n=2 is {ratios[2]!r}, not exactly 2.0")
        c.check(ratios[4] >= 4 / 3 - 0.01, f"{self.name}: extremal ratio at n=4 is {ratios[4]!r} < n/(n-1)")
        for (n, trials), text in zip(self.verify_runs, summaries):
            summary = harness.InequalitySummary(**json.loads(text))
            c.check(summary.all_gaps_nonnegative(GAP_TOL), f"{self.name}: verify_inequalities({n}, {trials}) has a negative gap")
        if self.golden:
            c.check(sha256(summaries[0]) == golden("verify_inequalities_4_200"),
                    f"{self.name}: verify_inequalities(4, 200) JSON digest differs from golden")


# ---------------------------------------------------------------------------
# Translation layer: all secrets x one query, and scalar hybrid-game calls
# ---------------------------------------------------------------------------


def _dlog_element(a: int, d: int, b: int, n: int) -> int:
    """The DLOG translation a*d + b mod n with n standing for 0 (game definition)."""
    r = (a * d + b) % n
    return n if r == 0 else r


def _constant_output(answers) -> int:
    """Hybrid-game decision; the answers and flags are what the workload checks."""
    return 1


class TranslationExhaustive(Workload):
    """measure_uniformity for every game, plus the criterion-08 hybrid-game loop."""

    name = "translation-exhaustive"
    # (alias, n); DDH n=13 and SQDDH n=31 are the heavy ones
    UNIFORMITY = (("dlog", 101), ("ddh", 13), ("sqddh", 31), ("em", 256), ("em1k", 256))
    SMOKE_UNIFORMITY = (("dlog", 11), ("ddh", 3), ("sqddh", 5), ("em", 16), ("em1k", 16))
    MID_N = 101
    MID_T1 = MID_T2 = 5
    MID_RUNS = 2000
    MID_CHUNK = 250  # hybrid-game runs per timed step

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.uniformity = self.SMOKE_UNIFORMITY if smoke else self.UNIFORMITY
        runs = 20 if smoke else self.MID_RUNS
        n = self.MID_N
        rng = np.random.Generator(np.random.PCG64(sub_seed(seed, self.name, "mid")))
        self.mid_inputs = []
        for _ in range(runs):
            ins = [int(x) + 1 for x in rng.choice(n, size=self.MID_T1, replace=False)]
            outs = [int(x) + 1 for x in rng.choice(n, size=self.MID_T1, replace=False)]
            queries = [(1, int(b) + 1) for b in rng.choice(n, size=self.MID_T2, replace=False)]
            secret = int(rng.integers(1, n + 1))
            self.mid_inputs.append((ins, outs, queries, secret, int(rng.integers(2**62)), int(rng.integers(2**62))))

    def setup(self):
        self.games = [(alias, games.build_game(harness.GAME_ALIASES[alias], n)) for alias, n in self.uniformity]
        self.mid_game = games.build_game("DLOG", self.MID_N)
        self.mid_cases = [
            (midgame.MidConstraints(ins, outs), queries, secret, s1, s2)
            for ins, outs, queries, secret, s1, s2 in self.mid_inputs
        ]
        self.translations = sum(g.outer_query_count * g.secret_count for _a, g in self.games)
        self.translations += len(self.mid_cases) * 2 * self.MID_T2

    def _mid_runs(self, cases):
        t = self.tracer
        rows = []
        for constraints, queries, secret, s1, s2 in cases:
            sim = t.call("midgame.mid_simulation_oracle_us", midgame.mid_simulation_oracle,
                         self.mid_game, constraints, queries, secret, s1)
            real = t.call("midgame.play_mid_game_us", midgame.play_mid_game,
                          self.mid_game, constraints, queries, _constant_output, secret, s2)
            rows.append((sim.responses, sim.w1, sim.w2, real.outer_answers, real.t1, real.t2))
        return rows

    def run_pass(self):
        t = self.tracer
        step = self.clock.step
        uniformity = tuple(
            (alias, game.n, step(t.call, f"games.measure_uniformity_s.{alias}", games.measure_uniformity, game))
            for alias, game in self.games
        )
        chunk = self.MID_CHUNK
        mid = tuple(
            row
            for lo in range(0, len(self.mid_cases), chunk)
            for row in step(self._mid_runs, self.mid_cases[lo : lo + chunk])
        )
        if t.enabled:
            t.counts["games.translations"] += self.translations
            t.counts["midgame.runs"] += len(mid)
            for row in mid:
                t.observe("midgame.w1_rate", row[1])
                t.observe("midgame.w2_rate", row[2])
        return self.translations, (uniformity, mid)

    def check(self, output):
        uniformity, mid = output
        c = self.checks
        for alias, n, res in uniformity:
            if alias in ("dlog", "em", "em1k"):
                c.check(res.u == float(n), f"{self.name}: {alias} n={n} u={res.u!r}, expected n")
            else:
                c.check(res.u >= n / 2, f"{self.name}: {alias} n={n} u={res.u!r} < n/2")
            if not self.smoke:
                c.check(uniformity_digest(res) == golden("uniformity")[f"{alias}-n{n}"],
                        f"{self.name}: measure_uniformity({alias}, n={n}) digest differs from golden")
        n = self.MID_N
        w1 = w2 = 0
        for (constraints, queries, secret, _s1, _s2), (sim, f1, f2, real, t1, t2) in zip(self.mid_cases, mid):
            pin = dict(zip(constraints.inputs, constraints.outputs))
            points = [_dlog_element(a, secret, b, n) for a, b in queries]
            ok = t1 == self.MID_T1 and t2 == self.MID_T2 and len(sim) == len(real) == len(queries)
            ok &= f1 == int(any(u in pin for u in points))
            for u, vs, vr in zip(points, sim, real):
                if u in pin:
                    ok &= vs == pin[u] and vr == pin[u]
                else:
                    ok &= vr not in pin.values() and vs not in pin.values()
            c.check(bool(ok), f"{self.name}: hybrid-game answers disagree with the pins (secret {secret})")
            w1 += f1
            w2 += f2
        runs = len(mid)
        p1, p2 = w1 / runs, w2 / runs
        t = self.MID_T1 + self.MID_T2
        b1, b2 = self.MID_T1 * self.MID_T2 / n, t * t / (4 * n)
        s1 = 3 * math.sqrt(max(p1 * (1 - p1), 1e-6) / runs)
        s2 = 3 * math.sqrt(max(p2 * (1 - p2), 1e-6) / runs)
        c.check(p1 <= b1 + s1, f"{self.name}: Pr[W1]={p1:.4f} above {b1:.4f} + 3 sigma")
        c.check(p2 <= b2 + s2, f"{self.name}: Pr[W2]={p2:.4f} above {b2:.4f} + 3 sigma")


WORKLOADS = {w.name: w for w in (SweepBulk, SweepGrid, InequalitySuite, TranslationExhaustive)}
