import json

import pytest

from permchal import cli
from permchal.attacks import AttackConfig, BsgsAdversary
from permchal.errors import ContractViolation


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
        assert row[13] == "0.000"  # timing defaults off

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
        def boom(spec, jobs=1):
            raise ContractViolation("synthetic violation")

        monkeypatch.setattr(cli, "run_trials", boom)
        code, _, err = run_cli(
            capsys,
            "game", "--game", "dlog", "--attack", "bsgs",
            "--n", "11", "--t", "3", "--trials", "5",
        )
        assert code == 3
        assert "synthetic violation" in err

    def test_plan_over_the_query_budget_exit_code(self, capsys, monkeypatch):
        # a table one column wider than the budget t plans t + 1 outer queries
        def too_wide(cls, spec, game, trial_seed):
            return cls(AttackConfig(n=spec.n, t_budget=spec.t, m=spec.t + 1))

        monkeypatch.setattr(BsgsAdversary, "from_spec", classmethod(too_wide))
        code, _, err = run_cli(
            capsys,
            "game", "--game", "dlog", "--attack", "bsgs",
            "--n", "101", "--t", "5", "--trials", "3",
        )
        assert code == 3
        assert "budget" in err

    def test_attack_choices_come_from_the_registry(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["game", "--game", "dlog", "--attack", "nope", "--n", "11", "--t", "1", "--trials", "1"])
        assert "sqddh-majority" in capsys.readouterr().err


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
        ],
        ids=["jobs-0", "non-prime-n", "theorem-key", "chains-without-s-bits", "bsgs-t-above-n",
             "s-bits-below-the-encoding"],
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
        ],
        ids=["not-an-object", "list-game", "list-attack", "keys-normalising-to-one"],
    )
    def test_malformed_entry_is_a_validation_error(self, tmp_path, capsys, entry, message):
        cfg = self._config(
            tmp_path, [{"game": "dlog", "attack": "bsgs", "n": 11, "t": 3, "trials": 5}, entry]
        )
        code, out, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2 and out == ""
        assert message in err


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

    def test_negative_guess_count_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "mi", "--n", "101", "--t", "10", "--guess-count", "-3")
        assert code == 2 and out == ""
        assert "guess count must be non-negative" in err
        code, out, _ = run_cli(capsys, "mi", "--n", "101", "--t", "10", "--guess-count", "0")
        assert code == 0 and "guessed=0" in out

    def test_mi(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mi", "--n", "1009", "--t", "60", "--runs", "5", "--seed", "2", "--forced-correct",
        )
        assert code == 0
        assert "determined_fraction" in out

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

    @pytest.mark.parametrize(
        "flags",
        [("--theorem", "T11", "--max-s", "nan"), ("--theorem", "T41", "--u", "nan", "--max-s", "0.1")],
        ids=["max-s-nan", "u-nan"],
    )
    def test_bounds_non_finite_input_exit_code(self, capsys, flags):
        code, out, err = run_cli(capsys, "bounds", "--n", "101", "--s-bits", "10", "--t", "5", *flags)
        assert code == 2 and out == ""
        assert "must be finite" in err
