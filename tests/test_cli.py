import io
import json

import pytest

from permchal import cli, harness
from permchal.attacks import ATTACKS, Attack
from permchal.errors import ContractViolation
from permchal.games import GameKind, NonAdaptiveAdversary
from permchal.harness import CSV_COLUMNS, CSV_VERSION_LINE, ExperimentSpec, sweep_grid, write_json
from permchal.seeding import derive_trial_seed


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGameCommand:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "game", "--game", "dlog", "--attack", "bsgs",
            "--n", "101", "--t", "11", "--trials", "50", "--seed", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("#permchal-v1")
        assert lines[1].split(",")[0] == "game"
        row = lines[2].split(",")
        assert row[:3] == ["dlog", "bsgs", "101"]
        assert row[7] == "1.000000"  # p_hat
        assert row[13] == "0.000"  # measured seconds go to JSON only

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "game", "--game", "dlog", "--attack", "guess",
            "--n", "11", "--t", "0", "--trials", "20", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data[0]["attack"] == "guess"
        assert data[0]["seconds"] > 0

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "row.csv"
        code, out, _ = run_cli(
            capsys,
            "game", "--game", "em", "--attack", "daemen",
            "--n", "64", "--t", "8", "--trials", "30", "--out", str(path),
        )
        assert code == 0 and out == ""
        assert path.read_text().startswith("#permchal-v1")

    def test_validation_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "game", "--game", "dlog", "--attack", "bsgs",
            "--n", "10", "--t", "3", "--trials", "5",
        )
        assert code == 2
        assert "prime" in err

    def test_theorem_flag_rejected(self, capsys):
        # the ceiling is the game's own; there is no per-run selector
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "game", "--game", "dlog", "--attack", "bsgs",
                "--n", "11", "--t", "3", "--trials", "2", "--theorem", "T11",
            ])
        assert exc.value.code == 2
        assert "--theorem" in capsys.readouterr().err

    def test_assert_mode_flags_vacuous_bound_violation(self, capsys):
        # at t=0 the plugged-in no-advice ceiling is 0, below the guess rate
        code, _, err = run_cli(
            capsys,
            "game", "--game", "dlog", "--attack", "guess",
            "--n", "5", "--t", "0", "--trials", "400", "--assert",
        )
        assert code == 4
        assert "bound assertion" in err

    def test_contract_violation_exit_code(self, capsys, monkeypatch):
        def boom(specs, jobs=1, on_report=None):
            raise ContractViolation("synthetic violation")

        monkeypatch.setattr(cli, "sweep_grid", boom)
        code, out, err = run_cli(
            capsys,
            "game", "--game", "dlog", "--attack", "bsgs",
            "--n", "11", "--t", "3", "--trials", "5",
        )
        assert code == 3
        assert "synthetic violation" in err
        # the header is written before the trials run, as for a sweep
        assert out.splitlines() == [CSV_VERSION_LINE, ",".join(CSV_COLUMNS)]

    def test_plan_over_the_query_budget_exit_code(self, capsys, monkeypatch):
        class OverBudget(Attack, NonAdaptiveAdversary):
            """Plans t + 1 outer queries against the budget t."""

            name = "over-budget"
            games = frozenset({GameKind.DLOG})

            def __init__(self, game, t, s_bits=None, seed=0):
                super().__init__(s_bits, t)
                self.queries = [(1, b) for b in range(1, t + 2)]

            def decide(self, z, inner_answers, outer_answers):
                return 1

        monkeypatch.setitem(ATTACKS, OverBudget.name, OverBudget)
        code, _, err = run_cli(
            capsys,
            "game", "--game", "dlog", "--attack", "over-budget",
            "--n", "101", "--t", "5", "--trials", "3",
        )
        assert code == 3
        assert "budget" in err

    def test_attack_choices_come_from_the_registry(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["game", "--game", "dlog", "--attack", "nope", "--n", "11", "--t", "1", "--trials", "1"])
        assert "sqddh-majority" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_game_is_a_one_entry_sweep(self, tmp_path, capsys, jobs, fmt):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(
            [{"game": "sqddh", "attack": "sqddh-majority", "n": 127, "t": 8, "trials": 30, "seed": 4}]
        ))
        outputs = []
        for argv in (
            ["game", "--game", "sqddh", "--attack", "sqddh-majority",
             "--n", "127", "--t", "8", "--trials", "30", "--seed", "4"],
            ["sweep", "--config", str(config)],
        ):
            out_path = tmp_path / f"{argv[0]}.{fmt}"
            code, out, _ = run_cli(
                capsys, *argv, "--jobs", jobs, "--format", fmt, "--out", str(out_path)
            )
            assert code == 0 and out == ""
            outputs.append(out_path.read_text())
        if fmt == "json":  # wall time is the one field that differs between runs
            outputs = [json.loads(text) for text in outputs]
            for row in outputs[0] + outputs[1]:
                assert row.pop("seconds") > 0
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["game", "sweep"])
    def test_timing_flag_rejected(self, tmp_path, capsys, command):
        # measured seconds are in --format json; CSV bytes never depend on the clock
        config = tmp_path / "grid.json"
        config.write_text(json.dumps([{"game": "dlog", "attack": "guess", "n": 11, "t": 1, "trials": 2}]))
        argv = {
            "game": ["game", "--game", "dlog", "--attack", "guess", "--n", "11", "--t", "1", "--trials", "2"],
            "sweep": ["sweep", "--config", str(config)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--timing"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --timing" in capsys.readouterr().err

    def test_invalid_game_leaves_out_untouched(self, tmp_path, capsys):
        out_path = tmp_path / "o.csv"
        out_path.write_text("previous run\n")
        code, _, err = run_cli(
            capsys,
            "game", "--game", "dlog", "--attack", "bsgs",
            "--n", "11", "--t", "12", "--trials", "5", "--out", str(out_path),
        )
        assert code == 2 and "Traceback" not in err
        assert out_path.read_text() == "previous run\n"


class TestSweepCommand:
    def _config(self, tmp_path, entries):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(entries))
        return str(path)

    def test_grid_runs(self, tmp_path, capsys):
        cfg = self._config(
            tmp_path,
            [
                {"game": "dlog", "attack": "bsgs", "n": 101, "t": 5, "trials": 40, "seed": 3},
                {"game": "dlog", "attack": "bsgs", "n": 101, "t": 7, "trials": 40, "seed": 3},
            ],
        )
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_dashed_keys_accepted(self, tmp_path, capsys):
        cfg = self._config(
            tmp_path,
            [{"game": "sqddh", "attack": "guess", "n": 11, "t": 0, "trials": 10, "s-bits": 0}],
        )
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = self._config(
            tmp_path,
            [{"game": "dlog", "attack": "bsgs", "n": 11, "t": 3, "trials": 5, "bogus": 1}],
        )
        code, _, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert "bogus" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--config", "/nonexistent.json")
        assert code == 2

    def test_byte_identical_across_jobs(self, tmp_path, capsys):
        cfg = self._config(
            tmp_path,
            [{"game": "dlog", "attack": "bsgs", "n": 101, "t": 6, "trials": 60, "seed": 5}],
        )
        outputs = []
        for jobs in ("1", "2"):
            out_path = tmp_path / f"o{jobs}.csv"
            code, _, _ = run_cli(
                capsys, "sweep", "--config", cfg, "--jobs", jobs, "--out", str(out_path)
            )
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_json_format_is_write_json_of_the_sweep(self, tmp_path, capsys):
        entries = [
            {"game": "dlog", "attack": "bsgs", "n": 101, "t": 6, "trials": 20, "seed": 5},
            {"game": "dlog", "attack": "mi", "n": 101, "t": 10, "trials": 5, "seed": 2},
        ]
        code, out, _ = run_cli(capsys, "sweep", "--config", self._config(tmp_path, entries), "--format", "json")
        assert code == 0
        buf = io.StringIO()
        write_json(sweep_grid([ExperimentSpec(master_seed=e.pop("seed"), **e) for e in entries]), buf)
        got, want = json.loads(out), json.loads(buf.getvalue())
        for row in got + want:  # wall time is the one field that differs between runs
            assert row.pop("seconds") >= 0
        assert got == want and len(got) == 2

    def test_jobs_below_one_rejected(self, tmp_path, capsys):
        cfg = self._config(
            tmp_path, [{"game": "dlog", "attack": "bsgs", "n": 11, "t": 3, "trials": 5}]
        )
        code, _, err = run_cli(capsys, "sweep", "--config", cfg, "--jobs", "0")
        assert code == 2
        assert "jobs" in err

    @pytest.mark.parametrize(
        "jobs,entry",
        [
            ("0", {"game": "dlog", "attack": "bsgs", "n": 11, "t": 3, "trials": 5}),
            ("1", {"game": "dlog", "attack": "bsgs", "n": 12, "t": 3, "trials": 5}),
            ("1", {"game": "dlog", "attack": "bsgs", "n": 11, "t": 3, "trials": 5, "theorem": "T11"}),
            ("1", {"game": "dlog", "attack": "chains", "n": 11, "t": 3, "trials": 5}),
            ("1", {"game": "dlog", "attack": "bsgs", "n": 11, "t": 12, "trials": 5}),
            ("1", {"game": "dlog", "attack": "bsgs", "n": 11, "t": 3, "trials": 5, "s_bits": 1}),
            ("1", {"game": "dlog", "attack": "mi", "n": 101, "t": 200, "trials": 1}),
        ],
        ids=["jobs-0", "non-prime-n", "theorem-key", "chains-without-s-bits", "bsgs-t-above-n",
             "s-bits-below-the-encoding", "mi-t-above-n"],
    )
    def test_invalid_sweep_leaves_out_untouched(self, tmp_path, capsys, jobs, entry):
        cfg = self._config(
            tmp_path, [{"game": "dlog", "attack": "bsgs", "n": 11, "t": 3, "trials": 5}, entry]
        )
        out_path = tmp_path / "o.csv"
        out_path.write_text("previous run\n")
        code, _, _ = run_cli(
            capsys, "sweep", "--config", cfg, "--jobs", jobs, "--out", str(out_path)
        )
        assert code == 2
        assert out_path.read_text() == "previous run\n"

    @pytest.mark.parametrize(
        "entry,message",
        [
            (1, "config entry 1: must be a JSON object"),
            ({"game": ["dlog"], "attack": "bsgs", "n": 11, "t": 3, "trials": 5},
             "config entry 1: unknown game ['dlog']"),
            ({"game": "dlog", "attack": ["bsgs"], "n": 11, "t": 3, "trials": 5},
             "config entry 1: unknown attack ['bsgs']"),
            ({"game": "dlog", "attack": "bsgs", "n": 11, "t": 3, "trials": 5, "s-bits": 200, "s_bits": 300},
             "config entry 1: key 's_bits' given twice"),
            ({"game": "dlog", "attack": "mi", "n": 101, "t": 200, "trials": 1},
             "config entry 1: per-instance budget must be below the group size"),
        ],
        ids=["not-an-object", "list-game", "list-attack", "keys-normalising-to-one", "mi-t-above-n"],
    )
    def test_malformed_entry_is_a_validation_error(self, tmp_path, capsys, entry, message):
        cfg = self._config(
            tmp_path, [{"game": "dlog", "attack": "bsgs", "n": 11, "t": 3, "trials": 5}, entry]
        )
        code, out, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2 and out == ""
        assert message in err


    def test_repeated_literal_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(
            '[{"game": "dlog", "attack": "bsgs", "n": 11, "t": 3, "trials": 5},'
            ' {"game": "dlog", "attack": "guess", "n": 11, "t": 1, "trials": 5,'
            ' "s_bits": 100, "s_bits": 200}]'
        )
        out_path = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "sweep", "--config", str(path), "--out", str(out_path))
        assert code == 2 and not out_path.exists()
        assert "config entry 1: key 's_bits' given twice" in err


class TestOtherCommands:
    def test_uniformity(self, capsys):
        code, out, _ = run_cli(capsys, "uniformity", "--game", "dlog", "--n", "13")
        assert code == 0
        assert "u=13.000000" in out

    def test_shearer_text_and_json(self, capsys):
        code, out, _ = run_cli(capsys, "shearer", "--n", "3", "--trials", "50", "--seed", "1")
        assert code == 0
        assert "all_gaps_nonnegative = True" in out
        code, out, _ = run_cli(
            capsys, "shearer", "--n", "3", "--trials", "50", "--seed", "1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["min_bijection_gap_c2"] >= -1e-9

    def test_shearer_above_the_ratio_search_cap_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "shearer", "--n", "7", "--trials", "100")
        assert code == 2
        assert "verify_inequalities" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("shearer", "--n", "3", "--trials", "2", "--seed", "-1"),
            ("mi", "--n", "101", "--t", "10", "--seed", "-1"),
            ("game", "--game", "dlog", "--attack", "guess", "--n", "101", "--t", "5",
             "--trials", "3", "--seed", "-1"),
            ("sweep", "--config", "{config}"),
        ],
    )
    def test_negative_seed_exit_code(self, tmp_path, capsys, argv):
        # a negative seed would share its trial streams with seed + 2**64
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(
            [{"game": "dlog", "attack": "guess", "n": 101, "t": 5, "trials": 3, "seed": -1}]
        ))
        code, out, err = run_cli(capsys, *(a.format(config=config) for a in argv))
        assert code == 2 and out == ""
        assert "seed must be non-negative" in err

    def test_negative_s_bits_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys,
            "game", "--game", "dlog", "--attack", "mi", "--n", "101", "--t", "10",
            "--trials", "1", "--s-bits", "-5",
        )
        assert code == 2 and out == ""
        assert "s_bits must be non-negative" in err

    @pytest.mark.parametrize("attack,t", [("guess", 1), ("rho", 8), ("mi", 10)])
    def test_positive_s_bits_for_an_attack_without_advice_exit_code(self, capsys, attack, t):
        argv = ["game", "--game", "dlog", "--attack", attack, "--n", "101", "--t", str(t), "--trials", "5"]
        code, out, err = run_cli(capsys, *argv, "--s-bits", "100")
        assert code == 2 and out == ""
        assert f"attack '{attack}' reads no advice" in err
        code, out, _ = run_cli(capsys, *argv, "--s-bits", "0")
        assert code == 0 and out.splitlines()[2].startswith(f"dlog,{attack},101,0,")

    @pytest.mark.parametrize("flag", ["--guess-count", "--instances"])
    def test_mi_size_flags_rejected(self, capsys, flag):
        # the instance and guess counts derive from n and t; neither is a flag
        with pytest.raises(SystemExit) as exc:
            cli.main(["mi", "--n", "101", "--t", "10", flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_mi(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mi", "--n", "1009", "--t", "60", "--runs", "5", "--seed", "2", "--forced-correct",
        )
        assert code == 0
        assert "instances=4 guessed=2" in out
        assert "determined_fraction" in out

    def test_mi_runs_are_the_trials_of_a_sweep_row(self, capsys, monkeypatch):
        # run r of `mi --seed s` is trial r of a sweep mi row with seed s
        def recorder(seeds, play):
            def record(n, t, seed, forced_correct=False):
                seeds.append(seed)
                return play(n, t, seed, forced_correct)
            return record

        runs = {}
        for seed in (0, 1):
            runs[seed] = []
            monkeypatch.setattr(cli, "run_mi_game", recorder(runs[seed], cli.run_mi_game))
            code, _, _ = run_cli(capsys, "mi", "--n", "101", "--t", "10", "--runs", "5", "--seed", str(seed))
            monkeypatch.undo()
            assert code == 0
        trials = []
        monkeypatch.setattr(harness, "run_mi_game", recorder(trials, harness.run_mi_game))
        harness.run_trials(ExperimentSpec("dlog", "mi", 101, 10, trials=5, master_seed=1))
        assert runs[1] == trials == [derive_trial_seed(1, r) for r in range(5)]
        assert not set(runs[0]) & set(runs[1])  # seeds 0 and 1 share no run

    def test_bounds_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "--theorem", "T11", "--n", "1009", "--s-bits", "8,16", "--t", "4,8",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theorem,n,s_bits,t,bound"
        assert len(lines) == 5

    @pytest.mark.parametrize("flags", [("--s-bits", "8,x", "--t", "4"), ("--s-bits", "8", "--t", "1.5")],
                             ids=["s-bits-8-x", "t-1.5"])
    def test_bounds_non_integer_list_exit_code(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "--theorem", "T11", "--n", "1009", *flags])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "not a comma-separated list of integers" in err

    def test_bounds_requires_u_for_generic_theorem(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--theorem", "T41", "--n", "101", "--s-bits", "8", "--t", "4"
        )
        assert code == 2

    @pytest.mark.parametrize("theorem", ["T11", "T12", "T13"])
    def test_bounds_named_theorem_rejects_u_exit_code(self, capsys, theorem):
        code, out, err = run_cli(
            capsys, "bounds", "--theorem", theorem, "--n", "100003", "--s-bits", "10", "--t", "3", "--u", "5"
        )
        assert code == 2 and out == ""
        assert "derives u from n" in err

    def test_bounds_named_theorem_prints_without_u(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--theorem", "T11", "--n", "100003", "--s-bits", "10", "--t", "3"
        )
        assert code == 0
        assert out.splitlines()[1] == "T11,100003,10,3,0.001102"

    @pytest.mark.parametrize(
        "flags",
        [("--theorem", "T11", "--max-s", "nan"), ("--theorem", "T41", "--u", "nan", "--max-s", "0.1")],
        ids=["max-s-nan", "u-nan"],
    )
    def test_bounds_non_finite_input_exit_code(self, capsys, flags):
        code, out, err = run_cli(capsys, "bounds", "--n", "101", "--s-bits", "10", "--t", "5", *flags)
        assert code == 2 and out == ""
        assert "must be finite" in err
