"""The summarising and criterion-timing steps of scripts/bench_ab.py, on canned runs."""

import importlib.util
import json
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "bench_ab.py")
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

BETTER = [
    {"name": "wall_s", "better": "lower", "bound": 0.24},
    {"name": "ops_per_s", "better": "higher", "bound": 0.24},
]


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


def _verdicts(base_walls, change_walls):
    """The wall_s and ops_per_s verdicts of canned pairs (ops_per_s = 100 / wall_s)."""
    base = [_line(w, 100 / w) for w in base_walls]
    change = [_line(w, 100 / w) for w in change_walls]
    metrics = bench_ab.summarise(_runs(base, change), BETTER)["sweep-bulk"]["metrics"]
    return metrics["wall_s"]["verdict"], metrics["ops_per_s"]["verdict"]


BASE_WALLS = (0.330, 0.328, 0.335, 0.331, 0.329, 0.333, 0.334, 0.327, 0.332, 0.336)


def test_verdict_gain_needs_nine_wins_and_medians_apart_by_the_base_quartiles():
    faster = [w * 0.85 for w in BASE_WALLS]
    assert _verdicts(BASE_WALLS, faster) == ("gain", "gain")
    # 8 of 10 wins is not enough, however far the medians moved
    eight = faster[:8] + [0.40, 0.40]
    assert _verdicts(BASE_WALLS, eight) == ("flat", "flat")
    # 10 of 10 wins by less than the base's quartile distance (about 0.004 s)
    close = [w - 0.001 for w in BASE_WALLS]
    assert _verdicts(BASE_WALLS, close) == ("flat", "flat")


def test_verdict_regression_is_a_median_worse_than_the_bound():
    assert _verdicts(BASE_WALLS, [w * 1.3 for w in BASE_WALLS]) == ("regression", "flat")
    # ops_per_s = 100 / wall_s falls by 1 - 1/1.4 = 29%, past its 24% bound
    assert _verdicts(BASE_WALLS, [w * 1.4 for w in BASE_WALLS]) == ("regression", "regression")
    assert _verdicts(BASE_WALLS, [w * 1.2 for w in BASE_WALLS]) == ("flat", "flat")


def test_verdict_unresolved_is_a_base_spread_wider_than_the_bound():
    noisy = (0.20, 0.40, 0.25, 0.45, 0.30, 0.35, 0.22, 0.42, 0.28, 0.38)
    assert _verdicts(noisy, [w * 1.1 for w in noisy]) == ("unresolved", "unresolved")
    # 9 wins, the medians 0.115 s apart, within the base's quartile distance
    assert _verdicts(noisy, [0.21] * 10)[0] == "unresolved"
    # every change run beats every base run: flat while the medians lie
    # within the base's quartile distance (0.14 s), a gain beyond it
    assert _verdicts(noisy, [0.19] * 10)[0] == "flat"
    assert _verdicts(noisy, [0.10] * 10) == ("gain", "gain")


def test_verdict_without_a_bound_is_a_gain_or_flat():
    base, change = [_line(w, 1) for w in BASE_WALLS], [_line(w * 2, 1) for w in BASE_WALLS]
    metrics = bench_ab.summarise(_runs(base, change), [])["sweep-bulk"]["metrics"]
    assert metrics["wall_s"]["verdict"] == "flat" and metrics["wall_s"]["better"] == "lower"
    assert bench_ab.verdict(
        {"median": 1.0, "q1": 0.9, "q3": 1.1}, {"median": 0.5}, 10, 10, "lower", None
    ) == "gain"


def _pytest_result(monkeypatch, returncode, stdout, stderr=""):
    """Make ``subprocess.run`` inside bench_ab return a canned pytest run."""
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        return bench_ab.subprocess.CompletedProcess(cmd, returncode, stdout, stderr)

    monkeypatch.setattr(bench_ab.subprocess, "run", fake_run)
    return calls


_PASSED = (
    "ACCEPTANCE 05 PASS: exhaustive u values\n"
    "ACCEPTANCE 07 FAIL: 3/32\n"
    "1.88s call     tests/test_acceptance.py::test_criterion_05_uniformity\n"
    "37.10s call     tests/test_acceptance.py::test_criterion_07_adaptive_separation_exhibit\n"
)


def test_time_criteria_reads_durations_also_of_a_failing_criterion(monkeypatch):
    calls = _pytest_result(monkeypatch, 1, _PASSED)
    got = bench_ab.time_criteria("tree", ["05", "07"], "cache")
    assert got == {
        "05": {"seconds": 1.88, "line": "PASS: exhaustive u values"},
        "07": {"seconds": 37.10, "line": "FAIL: 3/32"},
    }
    assert calls[0][-1] == "test_criterion_05_ or test_criterion_07_"


def test_time_criteria_raises_when_nothing_was_selected(monkeypatch):
    _pytest_result(monkeypatch, 5, "no tests ran\n", "selected nothing")
    with pytest.raises(RuntimeError, match="exited 5") as err:
        bench_ab.time_criteria("tree", ["7"], "cache")
    assert "selected nothing" in str(err.value)


def test_time_criteria_raises_on_a_collection_error(monkeypatch):
    _pytest_result(monkeypatch, 2, "ERROR collecting tests/test_acceptance.py\n", "ImportError: x")
    with pytest.raises(RuntimeError, match="ImportError"):
        bench_ab.time_criteria("tree", ["05"], "cache")


def test_time_criteria_raises_when_a_criterion_has_no_duration(monkeypatch):
    _pytest_result(monkeypatch, 0, _PASSED)
    with pytest.raises(RuntimeError, match=r"\['09'\]"):
        bench_ab.time_criteria("tree", ["05", "09"], "cache")


def test_unpadded_criterion_rejected_before_any_run():
    with pytest.raises(SystemExit):
        bench_ab.parse_args(["--base", "HEAD", "--out", "x.json", "--criteria", "7"])
    assert bench_ab.parse_args(["--base", "HEAD", "--out", "x.json", "--criteria", "07"]).criteria == ["07"]


def test_criteria_pairs_alternate_the_first_side(monkeypatch):
    calls = []
    seconds = iter([10.0, 9.0, 8.5, 11.0, 10.5, 9.5])

    def fake_time_criteria(tree, criteria, pycache):
        calls.append(tree)
        return {"07": {"seconds": next(seconds), "line": f"PASS: {tree}"}}

    monkeypatch.setattr(bench_ab, "time_criteria", fake_time_criteria)
    got = bench_ab.time_criteria_pairs({"base": "B", "change": "C"}, ["07"], 3, {"base": "b", "change": "c"})
    assert calls == ["B", "C", "C", "B", "B", "C"]
    base, change = got["base"]["07"], got["change"]["07"]
    assert base["seconds"] == [10.0, 11.0, 10.5] and change["seconds"] == [9.0, 8.5, 9.5]
    assert base["median"] == 10.5 and (change["min"], change["max"], change["n"]) == (8.5, 9.5, 3)
    assert base["lines"] == ["PASS: B"] and change["lines"] == ["PASS: C"]


DECLARED = {"workloads": [{"name": n} for n in ("sweep-bulk", "sweep-grid", "inequality-suite")]}


def test_workloads_default_to_all_in_declared_order():
    assert bench_ab.select_workloads(DECLARED, None) == ["sweep-bulk", "sweep-grid", "inequality-suite"]
    args = bench_ab.parse_args(["--base", "HEAD", "--out", "x.json"])
    assert bench_ab.select_workloads(DECLARED, args.workloads) == ["sweep-bulk", "sweep-grid", "inequality-suite"]


def test_workloads_restrict_the_pairs_in_declared_order():
    args = bench_ab.parse_args(["--base", "HEAD", "--out", "x.json", "--workloads", "inequality-suite", "sweep-bulk"])
    assert bench_ab.select_workloads(DECLARED, args.workloads) == ["sweep-bulk", "inequality-suite"]


def test_unknown_workload_rejected_before_any_run(monkeypatch):
    monkeypatch.setattr(bench_ab, "export_tree", lambda *a: pytest.fail("exported a tree"))
    with pytest.raises(ValueError, match="sweep-gird"):
        bench_ab.main(["--base", "HEAD", "--out", "x.json", "--workloads", "sweep-gird"])


def test_main_pairs_only_the_named_workloads(monkeypatch, tmp_path):
    ran = []

    def fake_run_bench(tree, workload, seed, seconds, pycache):
        ran.append((workload, seed))
        return json.loads(_line(0.1, 10))

    monkeypatch.setattr(bench_ab, "resolve_commit", lambda rev: rev)
    monkeypatch.setattr(bench_ab, "export_tree", lambda rev, dest: dest)
    monkeypatch.setattr(bench_ab, "copy_worktree", lambda dest: dest)
    monkeypatch.setattr(bench_ab, "run_bench", fake_run_bench)
    monkeypatch.setattr(bench_ab, "src_lines", lambda tree: 0)
    out = tmp_path / "ab.json"
    bench_ab.main(["--base", "HEAD", "--out", str(out), "--repeats", "2",
                   "--workloads", "sweep-grid", "--workdir", str(tmp_path / "work")])
    assert ran == [("sweep-grid", 1)] * 2 + [("sweep-grid", 2)] * 2
    assert list(json.loads(out.read_text())["workloads"]) == ["sweep-grid"]


def _commit(repo, name):
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.org"]
    (repo / name).write_text(name)
    subprocess.run(git + ["add", name], check=True)
    subprocess.run(git + ["commit", "-q", "-m", name], check=True)
    return subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True, text=True).stdout.strip()


def test_report_records_the_resolved_base_commit(monkeypatch, tmp_path):
    repo = tmp_path / "repo"
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / "BENCHMARK.json").write_text(json.dumps({**DECLARED, "run_seconds": 1, "end_to_end": []}))
    first, second = _commit(repo, "a"), _commit(repo, "b")
    monkeypatch.setattr(bench_ab, "ROOT", str(repo))
    assert bench_ab.resolve_commit("HEAD") == second
    assert bench_ab.resolve_commit("HEAD~1") == first
    with pytest.raises(ValueError, match="names no commit"):
        bench_ab.resolve_commit("no-such-revision")

    exported = []
    monkeypatch.setattr(bench_ab, "export_tree", lambda rev, dest: exported.append(rev) or dest)
    monkeypatch.setattr(bench_ab, "copy_worktree", lambda dest: dest)
    monkeypatch.setattr(bench_ab, "run_bench", lambda *a: json.loads(_line(0.1, 10)))
    monkeypatch.setattr(bench_ab, "src_lines", lambda tree: 0)
    out = tmp_path / "ab.json"
    bench_ab.main(["--base", "HEAD~1", "--out", str(out), "--repeats", "1",
                   "--workloads", "sweep-grid", "--workdir", str(tmp_path / "work")])
    assert json.loads(out.read_text())["base"] == first and exported == [first]


def test_each_side_keeps_its_own_bytecode_under_the_workdir(monkeypatch, tmp_path):
    # the working tree's stale __pycache__ must not give the change a warm start,
    # and both sides run from paths of equal length under the workdir
    seen = []

    def fake_run(cmd, **kwargs):
        seen.append((kwargs["cwd"], kwargs["env"]["PYTHONPYCACHEPREFIX"]))
        os.makedirs(seen[-1][1], exist_ok=True)  # as Python fills the cache
        stdout = _line(0.1, 10) if "bench/run_bench.py" in cmd else _PASSED
        return bench_ab.subprocess.CompletedProcess(cmd, 0, stdout, "")

    copied = []
    monkeypatch.setattr(bench_ab, "resolve_commit", lambda rev: rev)
    monkeypatch.setattr(bench_ab, "export_tree", lambda rev, dest: os.makedirs(dest) or dest)
    monkeypatch.setattr(bench_ab, "copy_worktree", lambda dest: copied.append(dest) or os.makedirs(dest) or dest)
    monkeypatch.setattr(bench_ab, "src_lines", lambda tree: 0)
    monkeypatch.setattr(bench_ab.subprocess, "run", fake_run)
    work = tmp_path / "work"
    bench_ab.main(["--base", "HEAD", "--out", str(tmp_path / "ab.json"), "--repeats", "2",
                   "--workloads", "sweep-grid", "--criteria", "05", "--workdir", str(work)])
    assert len(seen) == 8  # 2 pairs of benchmark runs, then 2 pairs of pytest runs
    caches = {}
    for cwd, prefix in seen:
        caches.setdefault(cwd, set()).add(prefix)
    assert set(caches) == {str(work / "base"), str(work / "chng")} and copied == [str(work / "chng")]
    assert all(len(prefixes) == 1 for prefixes in caches.values())  # one cache per side
    base_cache, change_cache = caches[str(work / "base")].pop(), caches[str(work / "chng")].pop()
    assert base_cache != change_cache and len(base_cache) == len(change_cache)
    for prefix in (base_cache, change_cache):
        assert os.path.commonpath([prefix, str(work)]) == str(work)
        assert os.path.commonpath([prefix, bench_ab.ROOT]) != bench_ab.ROOT
    assert not (work / "pycache").exists()  # removed afterwards, so a rerun starts cold too
    assert not (work / "base").exists() and not (work / "chng").exists()


def test_worktree_copy_holds_tracked_and_untracked_files_not_ignored_ones(monkeypatch, tmp_path):
    repo = tmp_path / "repo"
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    _commit(repo, "kept")
    _commit(repo, "deleted")
    (repo / "kept").write_text("edited")
    (repo / "deleted").unlink()
    (repo / "pkg" / "__pycache__").mkdir(parents=True)
    (repo / "pkg" / "new.py").write_text("x = 1")
    (repo / "pkg" / "__pycache__" / "new.pyc").write_text("stale")
    monkeypatch.setattr(bench_ab, "ROOT", str(repo))
    dest = bench_ab.copy_worktree(str(tmp_path / "copy"))
    files = sorted(os.path.relpath(os.path.join(d, f), dest) for d, _, fs in os.walk(dest) for f in fs)
    assert files == [".gitignore", "kept", os.path.join("pkg", "new.py")]
    assert (tmp_path / "copy" / "kept").read_text() == "edited"
