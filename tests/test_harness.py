import io
import itertools
import math
import multiprocessing
import os
import signal

import numpy as np
import pytest

from permchal import harness
from permchal.attacks import ATTACKS, Attack
from permchal.errors import ValidationError
from permchal.games import AdaptiveAdversary, GameKind
from permchal.harness import (
    CSV_VERSION_LINE,
    GAME_ALIASES,
    ExperimentReport,
    ExperimentSpec,
    check_bound_assertions,
    run_trials,
    sweep_grid,
    verify_inequalities,
    wilson_interval,
    write_csv,
    write_json,
)
from permchal.seeding import (
    _pcg64_state_words,
    derive_trial_seed,
    mix64,
    mix64_array,
    trial_generator,
    trial_generators,
)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_trial_seed(12345, 678) == derive_trial_seed(12345, 678)

    def test_no_collisions_over_a_million_indices(self):
        master = 987654321
        seen = set()
        for i in range(1_000_000):
            seen.add(derive_trial_seed(master, i))
        assert len(seen) == 1_000_000

    def test_master_seed_sensitivity(self):
        assert derive_trial_seed(0, 0) != derive_trial_seed(1, 0)
        assert derive_trial_seed(5, 1) != derive_trial_seed(5, 2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_trial_seed(0, -1)

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("lo,size", [(0, 1), (0, 12), (0, 200), (7, 1), (41, 12), (1000, 200)])
    def test_chunk_streams_are_the_trial_streams(self, master, lo, size):
        chunk = list(trial_generators(master, lo, lo + size))
        assert len(chunk) == size
        for index, rng in zip(range(lo, lo + size), chunk):
            want = trial_generator(master, index).integers(0, 2**64, size=64, dtype=np.uint64)
            assert rng.integers(0, 2**64, size=64, dtype=np.uint64).tolist() == want.tolist()

    def test_state_words_are_numpys_seed_hash(self):
        seeds = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
        got = _pcg64_state_words(np.array(seeds, dtype=np.uint64))
        assert got.dtype == np.uint64 and got.shape == (len(seeds), 4)
        for seed, words in zip(seeds, got):
            assert words.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()

    def test_empty_and_reversed_chunks(self):
        assert list(trial_generators(3, 5, 5)) == []
        for lo, hi in ((5, 4), (-1, 2)):
            with pytest.raises(ValueError):
                trial_generators(3, lo, hi)

    @pytest.mark.filterwarnings("error")  # uint64 array arithmetic wraps silently
    @pytest.mark.parametrize("n", [1009, 10007])
    def test_mix64_array_matches_mix64_without_warnings(self, n):
        values = np.random.Generator(np.random.PCG64(n)).integers(0, 2**64, size=n, dtype=np.uint64)
        mixed = mix64_array(0xC4A1, values, values[::-1]).tolist()
        assert mixed == [mix64(0xC4A1, int(a), int(b)) for a, b in zip(values, values[::-1])]


class TestWilson:
    def test_contains_point_estimate(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(300):
            trials = int(rng.integers(1, 5000))
            successes = int(rng.integers(0, trials + 1))
            lo, hi = wilson_interval(successes, trials)
            assert lo <= successes / trials <= hi
            assert 0.0 <= lo <= hi <= 1.0

    @pytest.mark.parametrize("trials", [1, 2, 7, 24, 100, 400, 1000, 4999])
    def test_exact_containment_at_the_extremes(self, trials):
        # at 0 or all successes the unclamped ends miss p_hat by a rounding step
        assert wilson_interval(0, trials)[0] == 0.0
        assert wilson_interval(trials, trials)[1] == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            wilson_interval(5, 0)
        with pytest.raises(ValidationError):
            wilson_interval(7, 5)


class TestRunTrials:
    def test_bsgs_full_success(self):
        spec = ExperimentSpec(
            game="dlog", attack="bsgs", n=101, t=11, trials=1000, master_seed=1
        )
        report = run_trials(spec)
        assert report.p_hat == 1.0
        assert report.s_bits == 2 * 11 * 7
        assert report.bound_theorem == "T11"
        assert report.bound_value == 1.0  # far above the attainable rate here

    def test_guess_rate_in_band(self):
        spec = ExperimentSpec(
            game="sqddh", attack="guess", n=11, t=0, trials=3000, master_seed=2
        )
        report = run_trials(spec)
        assert report.ci_low <= 0.5 <= report.ci_high

    def test_sqddh_reports_carry_t12(self):
        spec = ExperimentSpec(
            game="sqddh", attack="sqddh-majority", n=127, t=8, trials=50,
            master_seed=3, s_bits=16,
        )
        report = run_trials(spec)
        assert report.bound_theorem == "T12"
        assert report.bound_value == pytest.approx(
            min(1.0, 0.5 + 64 / 127 + math.sqrt(2 * math.log(2) * 16 * 8 / 127)), abs=1e-9
        )

    def test_attack_game_compatibility(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(game="em", attack="bsgs", n=16, t=4, trials=1)

    def test_parallel_jobs_agree_with_serial(self):
        spec = ExperimentSpec(
            game="dlog", attack="bsgs", n=101, t=5, trials=200, master_seed=4
        )
        serial = run_trials(spec, jobs=1)
        parallel = run_trials(spec, jobs=3)
        assert serial.successes == parallel.successes
        assert serial.csv_row() == parallel.csv_row()

    @pytest.mark.parametrize("field", ["n", "t", "trials"])
    def test_float_sizes_are_validation_errors(self, field):
        kwargs = dict(game="dlog", attack="bsgs", n=101, t=11, trials=5)
        kwargs[field] = float(kwargs[field])
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            ExperimentSpec(**kwargs)

    def test_numpy_integers_stored_as_python_ints(self):
        spec = ExperimentSpec("dlog", "bsgs", *map(np.int64, (101, 11, 5, 2, 300)))
        assert spec == ExperimentSpec("dlog", "bsgs", 101, 11, 5, 2, 300)
        assert {type(v) for v in (spec.n, spec.t, spec.trials, spec.master_seed, spec.s_bits)} == {int}

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        spec = ExperimentSpec(game="dlog", attack="bsgs", n=11, t=3, trials=4)
        with pytest.raises(ValidationError):
            run_trials(spec, jobs=jobs)
        with pytest.raises(ValidationError):
            sweep_grid([spec], jobs=jobs)


class _ToyAdaptive(Attack, AdaptiveAdversary):
    """Finds sigma(d) by inner queries 1, 2, ...: an attack added by one class."""

    name = "toy-adaptive"
    games = frozenset({GameKind.DLOG})

    def __init__(self, game, t, s_bits=None, seed=0):
        self.n = self._game_size(game)
        super().__init__(s_bits=0, t_budget=t)

    def run(self, z, oracle):
        y = oracle.outer((1, self.n))  # sigma(d): a = 1, b = the element n (zero)
        return next(i for i in range(1, self.n + 1) if oracle.inner(i) == y)


class TestAttackRegistry:
    @pytest.mark.parametrize("game", sorted(GAME_ALIASES))
    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    def test_spec_accepts_exactly_the_declared_games(self, attack, game):
        assert ATTACKS[attack].name == attack
        if GAME_ALIASES[game] in ATTACKS[attack].games:
            ExperimentSpec(game=game, attack=attack, n=11, t=2, trials=1)
        else:
            with pytest.raises(ValidationError):
                ExperimentSpec(game=game, attack=attack, n=11, t=2, trials=1)

    def test_readme_table_lists_the_registry(self):
        # name, class and games of every row, in registry order
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
        with open(readme, encoding="utf-8") as fh:
            table = fh.read().split("| attack | class | games | adaptive |", 1)[1].splitlines()[2:]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in itertools.takewhile(lambda line: line.startswith("|"), table)]
        assert [(name, cls, {GAME_ALIASES[g] for g in games.split(", ")}, adaptive.split()[0])
                for name, cls, games, adaptive, _ in rows] == [
            (f"`{name}`", f"`{cls.__name__}`", set(cls.games), "yes" if cls.adaptive else "no")
            for name, cls in ATTACKS.items()
        ]

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(game="dlog", attack="nope", n=11, t=2, trials=1)

    @pytest.mark.parametrize("field", ["game", "attack"])
    def test_non_string_names_are_validation_errors(self, field):
        kwargs = dict(game="dlog", attack="bsgs", n=11, t=2, trials=1)
        kwargs[field] = [kwargs[field]]
        with pytest.raises(ValidationError, match=f"unknown {field}"):
            ExperimentSpec(**kwargs)

    def test_registered_class_runs_and_is_exempt_from_ceilings(self, monkeypatch):
        monkeypatch.setitem(ATTACKS, _ToyAdaptive.name, _ToyAdaptive)
        spec = ExperimentSpec(game="dlog", attack="toy-adaptive", n=11, t=12, trials=20)
        assert run_trials(spec).successes == 20

        def above_ceiling(attack):
            return ExperimentReport(
                spec=ExperimentSpec(game="dlog", attack=attack, n=101, t=4, trials=100),
                s_bits=0, successes=100, p_hat=1.0, ci_low=0.963, ci_high=1.0,
                bound_theorem="T11", bound_value=0.1, seconds=0.0,
            )

        adaptive, non_adaptive = above_ceiling("toy-adaptive"), above_ceiling("bsgs")
        assert check_bound_assertions([adaptive, non_adaptive]) == [non_adaptive]

    def test_mi_plays_its_own_game_without_a_ceiling(self):
        report = run_trials(ExperimentSpec(game="dlog", attack="mi", n=101, t=10, trials=3))
        assert (report.s_bits, report.bound_theorem, report.bound_value) == (0, "", None)
        assert run_trials(
            ExperimentSpec(game="dlog", attack="mi", n=101, t=10, trials=1, s_bits=7)
        ).s_bits == 7


def _send_claims(counter, total, conn):
    conn.send(list(iter(lambda: harness._claim(counter, total), None)))


class TestSweep:
    def _grid(self):
        return [
            ExperimentSpec(game="dlog", attack="bsgs", n=101, t=m, trials=100, master_seed=7)
            for m in (3, 5, 7)
        ]

    def test_singleton_grid_matches_run_trials(self):
        spec = self._grid()[:1]
        direct = run_trials(spec[0])
        from_sweep = sweep_grid(spec)[0]
        assert direct.csv_row() == from_sweep.csv_row()

    def test_order_preserved(self):
        reports = sweep_grid(self._grid())
        assert [r.spec.t for r in reports] == [3, 5, 7]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            sweep_grid([])

    def test_hard_failure_aborts_with_partial_results_flushed(self):
        good = ExperimentSpec(game="dlog", attack="bsgs", n=101, t=3, trials=50, master_seed=1)
        # advice bound too small for the table: fails when the adversary is built
        bad = ExperimentSpec(
            game="dlog", attack="bsgs", n=101, t=11, trials=50, master_seed=1, s_bits=10
        )
        flushed = []
        with pytest.raises(ValidationError):
            sweep_grid([good, bad, good], on_report=flushed.append)
        assert len(flushed) == 1 and flushed[0].spec.t == 3

    def test_hard_failure_at_two_jobs_shuts_the_pool_down(self):
        good = ExperimentSpec(game="dlog", attack="bsgs", n=101, t=3, trials=50, master_seed=1)
        bad = ExperimentSpec(
            game="dlog", attack="bsgs", n=101, t=11, trials=50, master_seed=1, s_bits=10
        )
        flushed = []
        with pytest.raises(ValidationError):
            sweep_grid([good, bad, good], jobs=2, on_report=flushed.append)
        assert len(flushed) == 1 and flushed[0].spec.t == 3
        assert multiprocessing.active_children() == []

    def _record_children(self, monkeypatch):
        """Patch the process class the sweep starts; returns the list of
        children started, each holding the length of its chunk list."""
        started = []

        class RecordingProcess(multiprocessing.Process):
            def start(self):
                self.chunk_count = len(self._args[0])
                started.append(self)
                super().start()

        monkeypatch.setattr(harness.multiprocessing, "Process", RecordingProcess)
        return started

    def test_one_pool_per_sweep(self, monkeypatch):
        # a sweep starts its jobs - 1 children once, and none at --jobs 1
        started = self._record_children(monkeypatch)
        sweep_grid(self._grid(), jobs=2)
        assert len(started) == 1
        sweep_grid(self._grid(), jobs=1)
        assert len(started) == 1
        run_trials(self._grid()[0], jobs=2)
        assert len(started) == 2
        sweep_grid(self._grid(), jobs=3)
        assert len(started) == 4
        assert multiprocessing.active_children() == []
        assert [child.exitcode for child in started] == [0] * 4  # joined, not terminated

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_every_chunk_is_queued_before_the_first_report(self, monkeypatch, jobs):
        # every chunk is claimable before the first row: each child is handed
        # the whole chunk list when the sweep starts
        started = self._record_children(monkeypatch)
        grid = [
            ExperimentSpec(game="dlog", attack="bsgs", n=101, t=5, trials=trials, master_seed=7)
            for trials in (1, 4, 100)
        ]
        at_first_report = []

        def on_report(report):
            if not at_first_report:
                at_first_report.append([child.chunk_count for child in started])

        reports = sweep_grid(grid, jobs=jobs, on_report=on_report)
        expected = sum(min(jobs, spec.trials) for spec in grid)
        assert at_first_report == [[expected] * (jobs - 1)]
        assert [r.csv_row() for r in reports] == [r.csv_row() for r in sweep_grid(grid)]

    def test_a_child_that_dies_raises_and_leaves_no_process(self, monkeypatch):
        original, caller = harness._run_chunk, os.getpid()

        def dying_chunk(spec, lo, hi):
            if os.getpid() != caller:
                os._exit(3)
            return original(spec, lo, hi)

        def hung(signum, frame):
            raise TimeoutError("the sweep hung on a dead child")

        monkeypatch.setattr(harness, "_run_chunk", dying_chunk)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)  # not inherited by the forked children
        try:
            with pytest.raises(RuntimeError, match="exited with code 3"):
                sweep_grid(self._grid(), jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_concurrent_claims_hand_out_each_index_once(self):
        # more claimants than cores; a lost counter update hands an index out twice
        total, counter = 20000, multiprocessing.Value("q", 0)
        pipes, children = [], []
        for _ in range(5):
            reader, writer = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_send_claims, args=(counter, total, writer), daemon=True
            )
            child.start()
            writer.close()
            pipes.append(reader)
            children.append(child)
        claimed = [index for pipe in pipes if pipe.poll(60) for index in pipe.recv()]
        for child in children:
            child.join(60)
            assert child.exitcode == 0
        assert sorted(claimed) == list(range(total))

    @pytest.mark.parametrize("jobs", [2, 3, 5])
    def test_csv_byte_identical_to_one_job_on_uneven_trials(self, jobs):
        grid = [
            ExperimentSpec(game="dlog", attack="bsgs", n=101, t=5, trials=trials, master_seed=7)
            for trials in (1, 4, 100)
        ]
        outputs = []
        for j in (1, jobs):
            buf = io.StringIO()
            write_csv(sweep_grid(grid, jobs=j), buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_failure_inside_a_worker_flushes_earlier_rows_and_stops_the_pool(self, monkeypatch):
        original = harness.random_sigma

        def failing_sigma(rng, n):
            if n == 103:
                raise ValidationError("synthetic failure in a trial")
            return original(rng, n)

        # the children are forked after the patch, so they raise as the caller does
        monkeypatch.setattr(harness, "random_sigma", failing_sigma)
        good = ExperimentSpec(game="dlog", attack="bsgs", n=101, t=11, trials=40, master_seed=1)
        bad = ExperimentSpec(game="dlog", attack="bsgs", n=103, t=11, trials=40, master_seed=1)
        flushed = []
        with pytest.raises(ValidationError, match="synthetic failure"):
            sweep_grid([good, bad, good, good], jobs=2, on_report=flushed.append)
        assert [r.spec.n for r in flushed] == [101]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_timed_rows_carry_their_chunks_seconds(self, jobs):
        buf = io.StringIO()
        reports = sweep_grid(self._grid(), jobs=jobs)
        write_csv(reports, buf, timing=True)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[2:]]
        assert len(rows) == 3 and all(float(row[-1]) > 0 for row in rows)
        assert all(r.seconds > 0 for r in reports)

    def test_byte_identical_csv_across_jobs(self):
        grid = self._grid()
        outputs = []
        for jobs in (1, 2):
            buf = io.StringIO()
            write_csv(sweep_grid(grid, jobs=jobs), buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(CSV_VERSION_LINE)

    def test_json_output_carries_measured_seconds(self):
        buf = io.StringIO()
        write_json(sweep_grid(self._grid()[:1]), buf)
        assert '"seconds"' in buf.getvalue()

    def test_bound_assertions_hold_on_grid(self):
        reports = sweep_grid(
            [
                ExperimentSpec(game="dlog", attack="bsgs", n=101, t=m, trials=400, master_seed=8)
                for m in (2, 4, 8)
            ]
            + [
                ExperimentSpec(
                    game="em", attack="daemen", n=64, t=t2, trials=400, master_seed=9
                )
                for t2 in (4, 8)
            ]
            + [
                ExperimentSpec(
                    game="sqddh", attack="sqddh-majority", n=127, t=8, trials=400,
                    master_seed=10, s_bits=16,
                )
            ]
        )
        assert check_bound_assertions(reports) == []


class TestVerifyInequalities:
    def test_zero_trials_empty_summary(self):
        summary = verify_inequalities(4, 0, seed=0)
        assert summary.trials == 0
        assert summary.min_bijection_gap_c2 is None
        assert summary.all_gaps_nonnegative()

    @pytest.mark.parametrize("trials", [0, 5])
    def test_negative_seed_rejected(self, trials):
        with pytest.raises(ValidationError):
            verify_inequalities(3, trials, seed=-1)

    @pytest.mark.parametrize("trials", [2.5, "3", None])
    def test_non_integer_trials_are_validation_errors(self, trials):
        with pytest.raises(ValidationError, match="trials must be an integer"):
            verify_inequalities(3, trials, seed=0)

    def test_non_integer_n_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="n must be an integer"):
            verify_inequalities(2.5, 2, seed=0)

    def test_numpy_integer_trials_accepted(self):
        summary = verify_inequalities(3, np.int64(2), seed=0)
        assert summary.trials == 2 and type(summary.trials) is int

    def test_n2_extremal_point_mass_found(self):
        summary = verify_inequalities(2, 100, seed=1)
        assert summary.extremal_ratio == 2.0
        assert summary.min_bijection_gap_c2 == pytest.approx(0.0, abs=1e-12)
        assert summary.all_gaps_nonnegative()

    def test_n4_random_run(self):
        summary = verify_inequalities(4, 300, seed=2)
        assert summary.all_gaps_nonnegative()
        assert summary.extremal_ratio >= 4 / 3 - 0.01
