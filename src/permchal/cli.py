"""Command line front end.

Subcommands:

* ``game``       one experiment -> one report row (csv or json): a one-entry sweep
* ``sweep``      a grid of experiments from a JSON config file
* ``uniformity`` exhaustive translation-uniformity measurement
* ``shearer``    random verification of the bijection inequalities
* ``mi``         the multi-instance search game
* ``bounds``     print the closed-form ceiling over an S/T grid

Exit codes: 0 success, 2 validation error, 3 adversary contract
violation, 4 bound assertion failure (``--assert`` mode).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, fields

from .attacks import ATTACKS, run_mi_game
from .bounds import BoundTheorem, evaluate_bound
from .errors import ContractViolation, PermchalError, ValidationError, nonnegative_int
from .games import build_game, measure_uniformity
from .harness import (
    GAME_ALIASES,
    ExperimentSpec,
    build_adversary,
    check_bound_assertions,
    csv_writer,
    sweep_grid,
    verify_inequalities,
    write_json,
)
from .seeding import derive_trial_seed

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONTRACT = 3
EXIT_ASSERT = 4

_SPEC_KEYS = {"game", "attack", "n", "s_bits", "t", "trials", "seed"}


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", choices=sorted(GAME_ALIASES), required=True)
    p.add_argument("--attack", choices=sorted(ATTACKS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s-bits", type=int, default=None,
                   help="advice bound S in bits; default: the length the attack's advice needs. "
                        "An attack that reads no advice (README's attack table) takes only 0")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1,
                   help="processes that run trial chunks: this one plus N-1 children (default 1, in-process)")
    p.add_argument("--out", default=None, help="output path; default stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--assert", dest="assert_bounds", action="store_true", help="exit 4 if any non-adaptive row exceeds its ceiling")


def _int_list(text: str) -> list:
    """Comma-separated integers, as an argparse type: a bad entry exits 2."""
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="permchal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_game = sub.add_parser("game", help="run a single experiment")
    _add_common_run_flags(p_game)
    _add_output_flags(p_game)

    p_sweep = sub.add_parser("sweep", help="run a grid of experiments from a config file")
    p_sweep.add_argument("--config", required=True, help="JSON list of flat spec objects")
    _add_output_flags(p_sweep)

    p_uni = sub.add_parser("uniformity", help="measure translation uniformity exhaustively")
    p_uni.add_argument("--game", choices=sorted(GAME_ALIASES), required=True)
    p_uni.add_argument("--n", type=int, required=True)

    p_sh = sub.add_parser("shearer", help="verify the bijection inequalities at one n")
    p_sh.add_argument("--n", type=int, required=True)
    p_sh.add_argument("--trials", type=int, required=True)
    p_sh.add_argument("--seed", type=int, default=0)
    p_sh.add_argument("--format", choices=("text", "json"), default="text")

    p_mi = sub.add_parser("mi", help="run the multi-instance search game")
    p_mi.add_argument("--n", type=int, required=True)
    p_mi.add_argument("--t", type=int, required=True)
    p_mi.add_argument("--runs", type=int, default=1)
    p_mi.add_argument("--seed", type=int, default=0)
    p_mi.add_argument("--forced-correct", action="store_true")

    p_b = sub.add_parser("bounds", help="print the ceiling over an S/T grid")
    p_b.add_argument("--theorem", required=True, choices=[t.value for t in BoundTheorem])
    p_b.add_argument("--n", type=int, required=True)
    p_b.add_argument("--s-bits", type=_int_list, required=True, help="comma-separated advice sizes")
    p_b.add_argument("--t", type=_int_list, required=True, help="comma-separated query budgets")
    p_b.add_argument("--u", type=float, default=None, help="uniformity u, for T41 and TE1 only")
    p_b.add_argument("--max-s", type=float, default=None,
                     help="no-advice success maxS: overrides T11/T12/T13's default, T41 and TE1 need it")

    return parser


def _checked(spec: ExperimentSpec) -> ExperimentSpec:
    """``spec``, once its game and adversary build: an invalid spec fails
    before any output is opened."""
    build_adversary(spec, build_game(spec.kind, spec.n), derive_trial_seed(spec.master_seed, 0))
    return spec


def _spec_from_mapping(entry, index: int) -> ExperimentSpec:
    """One sweep config entry as a checked spec; errors name the entry."""
    where = f"config entry {index}"
    if not isinstance(entry, tuple):
        raise ValidationError(f"{where}: must be a JSON object, not {entry!r}")
    normalized = {}
    for key, value in entry:
        key = key.replace("-", "_")
        if key not in _SPEC_KEYS:
            raise ValidationError(f"{where}: unknown key {key!r}")
        if key in normalized:
            raise ValidationError(f"{where}: key {key!r} given twice")
        normalized[key] = value
    missing = {"game", "attack", "n", "t", "trials"} - set(normalized)
    if missing:
        raise ValidationError(f"{where}: missing keys {sorted(missing)}")
    seed = normalized.pop("seed", 0)
    try:
        return _checked(ExperimentSpec(master_seed=seed, **normalized))
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _load_sweep_config(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        # objects load as tuples of (key, value) pairs, so a repeated key is kept to be rejected
        data = json.load(fh, object_pairs_hook=tuple)
    if not isinstance(data, list) or not data:
        raise ValidationError("sweep config must be a non-empty JSON list of spec objects")
    return [_spec_from_mapping(entry, i) for i, entry in enumerate(data)]


def _run(args, specs: list) -> int:
    """Run checked ``specs`` and write their report rows to ``--out`` (default
    stdout): CSV rows stream out as each spec completes, JSON is written at
    the end. Under ``--assert``, exit 4 if a non-adaptive row exceeds its
    ceiling."""
    # reject what fails before any row, so an invalid run leaves --out untouched
    if args.jobs < 1:
        raise ValidationError("jobs must be at least 1")
    out = nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
    with out as fh:
        on_report = csv_writer(fh) if args.format == "csv" else None
        reports = sweep_grid(specs, jobs=args.jobs, on_report=on_report)
        if args.format == "json":
            write_json(reports, fh)
    if args.assert_bounds and check_bound_assertions(reports):
        print("bound assertion failed", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_game(args) -> int:
    spec = ExperimentSpec(master_seed=args.seed, **{k: getattr(args, k) for k in _SPEC_KEYS - {"seed"}})
    return _run(args, [_checked(spec)])


def _cmd_sweep(args) -> int:
    return _run(args, _load_sweep_config(args.config))


def _cmd_uniformity(args) -> int:
    game = build_game(GAME_ALIASES[args.game], args.n)
    res = measure_uniformity(game)
    print(
        f"game={args.game} n={args.n} u={res.u:.6f} max_fiber={res.max_fiber} "
        f"secrets={res.secret_count} worst_query={res.worst_query} worst_target={res.worst_target}"
    )
    return EXIT_OK


def _cmd_shearer(args) -> int:
    summary = verify_inequalities(args.n, args.trials, args.seed)
    if args.format == "json":
        print(json.dumps(asdict(summary), indent=2))
    else:
        print(f"n={summary.n} trials={summary.trials} seed={summary.seed}")
        for field in fields(summary)[3:]:  # the gaps and the ratio, after n, trials, seed
            value = getattr(summary, field.name)
            print(f"  {field.name} = {'-' if value is None else f'{value:.9f}'}")
        print(f"  all_gaps_nonnegative = {summary.all_gaps_nonnegative()}")
    return EXIT_OK


def _cmd_mi(args) -> int:
    if args.runs < 1:
        raise ValidationError("mi: --runs must be at least 1")
    seed = nonnegative_int(args.seed, "mi: seed")
    all_correct = 0
    det_fracs = []
    coverages = []
    for run in range(args.runs):  # run r is trial r of a sweep mi row with this seed
        res = run_mi_game(args.n, args.t, derive_trial_seed(seed, run), args.forced_correct)
        all_correct += res.all_correct
        det_fracs.append(res.determined_fraction)
        coverages.append(res.interval_coverage)
    mean = lambda xs: sum(xs) / len(xs)
    print(
        f"n={args.n} t={args.t} runs={args.runs} instances={res.instances} "
        f"guessed={res.guessed} forced_correct={args.forced_correct}"
    )
    print(
        f"  all_correct={all_correct}/{args.runs} "
        f"determined_fraction mean={mean(det_fracs):.4f} min={min(det_fracs):.4f} "
        f"interval_coverage mean={mean(coverages):.4f} min={min(coverages):.4f}"
    )
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if not args.s_bits or not args.t:
        raise ValidationError("bounds: need at least one S and one T value")
    rows = [(s, t, evaluate_bound(args.theorem, args.n, s, t, u=args.u, max_s=args.max_s))
            for s in args.s_bits for t in args.t]  # all first: a rejected input prints nothing
    print("theorem,n,s_bits,t,bound")
    for s, t, value in rows:
        print(f"{args.theorem},{args.n},{s},{t},{value:.6f}")
    return EXIT_OK


_COMMANDS = {
    "game": _cmd_game,
    "sweep": _cmd_sweep,
    "uniformity": _cmd_uniformity,
    "shearer": _cmd_shearer,
    "mi": _cmd_mi,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (PermchalError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
