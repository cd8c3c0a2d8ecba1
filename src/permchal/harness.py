"""Seeded Monte Carlo experiment runner, bound comparison and reports.

Every trial derives its own RNG stream from (master seed, trial index),
so runs are reproducible bit-for-bit regardless of worker count, and
aggregate counts are order-insensitive. CSV output is the product: a
versioned header comment, a fixed column order, fixed float formatting.
Wall-clock measurements are kept out of the CSV by default so that two
runs of the same spec are byte-identical; ``timing=True`` (CLI
``--timing``) opts into measured seconds at the cost of that guarantee.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import time
from contextlib import closing
from dataclasses import asdict, dataclass
from itertools import islice
from multiprocessing.connection import wait
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .attacks import ATTACKS, run_mi_game
from .bounds import evaluate_bound
from .errors import ValidationError, nonnegative_int
from .games import GAME_ALIASES, GAMES, GameKind, build_game, play_game, random_sigma
from .seeding import derive_trial_seed, seeded_generator, trial_generators
from .shearer import (
    RATIO_SEARCH_MAX_N,
    CoverFamily,
    bijection_shearer_gap,
    extremal_ratio_search,
    indicator_distribution,
    indicator_shearer_gap,
    product_shearer_gap,
    random_bijection_distribution,
    random_cover,
    random_read_k_family,
    read_k_concentration_gap,
)
from .infotheory import JointDistribution

WILSON_Z = 1.959963984540054  # two-sided 95%
BOUND_SLACK = 0.01  # check_bound_assertions' allowance over ceiling + Wilson halfwidth
SEED_NOTE = "trial seed = splitmix64(master ^ (index * golden64)); Fisher-Yates sigma then secret"

CSV_COLUMNS = [
    "game",
    "attack",
    "n",
    "s_bits",
    "t",
    "trials",
    "successes",
    "p_hat",
    "ci_low",
    "ci_high",
    "bound_theorem",
    "bound_value",
    "seed",
    "seconds",
]

CSV_VERSION_LINE = "#permchal-v1 columns=" + ",".join(CSV_COLUMNS)


def wilson_interval(successes: int, trials: int) -> tuple:
    """Wilson score interval at ``WILSON_Z``; always contains the point estimate
    (the ends are clamped to it: at 0 of 400, center - half rounds to 8.7e-19)."""
    if trials < 1 or not (0 <= successes <= trials):
        raise ValidationError("wilson_interval: need 0 <= successes <= trials, trials >= 1")
    p, z = successes / trials, WILSON_Z
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, min(p, center - half)), min(1.0, max(p, center + half))


@dataclass(frozen=True)
class ExperimentSpec:
    game: str
    attack: str
    n: int
    t: int
    trials: int
    master_seed: int = 0
    s_bits: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.game, str) or self.game not in GAME_ALIASES:
            raise ValidationError(f"unknown game {self.game!r}")
        if not isinstance(self.attack, str) or self.attack not in ATTACKS:
            raise ValidationError(f"unknown attack {self.attack!r}")
        if self.kind not in ATTACKS[self.attack].games:
            raise ValidationError(f"attack {self.attack!r} does not apply to game {self.game!r}")
        for field in ("n", "t", "trials", "master_seed", "s_bits"):
            if field != "s_bits" or self.s_bits is not None:
                value = nonnegative_int(getattr(self, field), f"ExperimentSpec: {field}")
                object.__setattr__(self, field, value)  # a Python int, also from numpy input
        if self.trials < 1:
            raise ValidationError("trials must be at least 1")

    @property
    def kind(self) -> GameKind:
        return GAME_ALIASES[self.game]


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    s_bits: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float
    bound_theorem: str
    bound_value: Optional[float]
    seconds: float

    def csv_row(self, timing: bool = False) -> list:
        return [
            self.spec.game,
            self.spec.attack,
            str(self.spec.n),
            str(self.s_bits),
            str(self.spec.t),
            str(self.spec.trials),
            str(self.successes),
            f"{self.p_hat:.6f}",
            f"{self.ci_low:.6f}",
            f"{self.ci_high:.6f}",
            self.bound_theorem,
            "" if self.bound_value is None else f"{self.bound_value:.6f}",
            str(self.spec.master_seed),
            f"{self.seconds:.3f}" if timing else "0.000",
        ]

    def to_json_dict(self) -> dict:
        d = asdict(self.spec)
        d.update(
            s_bits_declared=self.s_bits,
            successes=self.successes,
            p_hat=self.p_hat,
            ci_low=self.ci_low,
            ci_high=self.ci_high,
            bound_theorem=self.bound_theorem,
            bound_value=self.bound_value,
            seconds=self.seconds,
            seed_note=SEED_NOTE,
        )
        return d


def build_adversary(spec: ExperimentSpec, game, trial_seed: int = 0):
    """The spec's attack on ``game``, seeded by the trial seed if it is
    ``reseeded`` and by the master seed otherwise."""
    attack = ATTACKS[spec.attack]
    seed = trial_seed if attack.reseeded else spec.master_seed
    return attack(game, spec.t, spec.s_bits, seed)


def _run_chunk(spec: ExperimentSpec, lo: int, hi: int) -> tuple:
    """Successes over trials ``lo..hi-1`` and the wall seconds they took."""
    start = time.perf_counter()
    attack = ATTACKS[spec.attack]
    game = build_game(spec.kind, spec.n)
    successes = 0
    adversary = None
    for index, rng in zip(range(lo, hi), trial_generators(spec.master_seed, lo, hi)):
        if attack.own_game:
            tseed = derive_trial_seed(spec.master_seed, index)
            successes += run_mi_game(spec.n, spec.t, tseed).all_correct
            continue
        if adversary is None or attack.reseeded:
            adversary = build_adversary(spec, game, derive_trial_seed(spec.master_seed, index))
        sigma = random_sigma(rng, spec.n)
        secret = game.sample_secret(rng)
        successes += play_game(game, adversary, sigma, secret).success
    return successes, time.perf_counter() - start


def _chunks(spec: ExperimentSpec, jobs: int) -> list:
    """``_run_chunk``'s arguments for ``spec``'s trials cut into
    ``min(jobs, trials)`` chunks, at most ``ceil(trials / jobs)`` each."""
    count = min(jobs, spec.trials)
    ends = [i * spec.trials // count for i in range(count + 1)]
    return [(spec, lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]


def _claim(counter, total: int) -> Optional[int]:
    """The next unclaimed index below ``total`` from the shared ``counter``,
    or None once every index is claimed."""
    with counter.get_lock():
        index = counter.value
        if index >= total:
            return None
        counter.value = index + 1
        return index


def _attempt(chunk: tuple):
    """``_run_chunk``'s result on ``chunk``, or the exception it raised."""
    try:
        return _run_chunk(*chunk)
    except Exception as exc:
        return exc


def _claim_chunks(chunks: list, counter, conn) -> None:
    """A child's loop: claim chunks and send ``(index, result or exception)``
    over its own pipe until none is left."""
    while (index := _claim(counter, len(chunks))) is not None:
        conn.send((index, _attempt(chunks[index])))
    conn.close()


def _claimed_results(chunks: list, workers: int) -> Iterator[tuple]:
    """Every chunk's ``_run_chunk`` result, in order; a chunk's exception is
    raised at its turn.

    The caller and ``workers - 1`` children claim chunk indices from one
    shared counter. The caller takes the results that are ready before each
    claim and blocks only when nothing is left to claim, so a result is
    yielded at most one chunk after it is ready. A child that exits with a
    non-zero code raises. Every child is joined when the generator ends;
    on a failure, or when the generator is closed early, it is terminated
    first, so no chunk is claimed after the failure.
    """
    counter = multiprocessing.Value("q", 0)
    children = []
    finished = False
    try:
        for _ in range(workers - 1):
            pipe, writer = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_claim_chunks, args=(chunks, counter, writer), daemon=True
            )
            child.start()
            writer.close()  # so the pipe reads EOF once the child is gone
            children.append((pipe, child))
        pipes = {pipe for pipe, _ in children}  # the pipes not yet at EOF
        running = {child.sentinel: child for _, child in children}
        done = {}
        for index in range(len(chunks)):
            while index not in done:
                ready = wait(pipes, 0)
                if not ready:
                    mine = _claim(counter, len(chunks))
                    if mine is not None:
                        done[mine] = _attempt(chunks[mine])
                        continue
                    if not (pipes or running):
                        raise RuntimeError(f"sweep chunk {index} was claimed but never sent")
                    ready = wait([*pipes, *running])
                for source in ready:
                    if source in running:
                        # a child that exited normally may still have results in its pipe
                        child = running.pop(source)
                        child.join()
                        if child.exitcode != 0:
                            raise RuntimeError(
                                f"sweep worker process {child.pid} exited with code {child.exitcode}"
                            )
                        continue
                    try:
                        claimed, result = source.recv()
                        done[claimed] = result
                    except EOFError:
                        pipes.discard(source)
            result = done.pop(index)
            finished = index == len(chunks) - 1  # every result is in, so the children are exiting
            if isinstance(result, Exception):
                raise result
            yield result
    finally:
        for pipe, child in children:
            if not finished:
                child.terminate()
            child.join()
            pipe.close()


def _report(spec: ExperimentSpec, chunks: Iterable[tuple]) -> ExperimentReport:
    """The report row of ``spec`` from its chunks' (successes, seconds).

    The report attaches the game's ceiling (none for an attack that plays
    its own game) at the attack's declared advice length and the
    experiment's t; the adversary is built before any chunk result is
    read, so an invalid spec fails here.
    """
    theorem = None if ATTACKS[spec.attack].own_game else GAMES[spec.kind].theorem
    game = build_game(spec.kind, spec.n)
    declared_bits = build_adversary(spec, game, derive_trial_seed(spec.master_seed, 0)).s_bits
    successes, seconds = map(sum, zip(*chunks))
    ci_low, ci_high = wilson_interval(successes, spec.trials)
    bound = (
        evaluate_bound(theorem, spec.n, declared_bits, spec.t) if theorem is not None else None
    )
    return ExperimentReport(
        spec=spec,
        s_bits=declared_bits,
        successes=successes,
        p_hat=successes / spec.trials,
        ci_low=ci_low,
        ci_high=ci_high,
        bound_theorem=theorem.value if theorem is not None else "",
        bound_value=bound,
        seconds=seconds,
    )


def run_trials(spec: ExperimentSpec, jobs: int = 1) -> ExperimentReport:
    """Run one experiment's trials and assemble the report row.

    Each trial samples a fresh uniform permutation (Fisher-Yates under
    the trial stream) and a fresh uniform secret, then plays the game.
    This is ``sweep_grid`` of the one spec: ``jobs > 1`` cuts it into
    ``min(jobs, trials)`` chunks that this process and ``jobs - 1``
    children started for this call claim.
    """
    return sweep_grid([spec], jobs)[0]


def sweep_grid(
    specs: Sequence[ExperimentSpec],
    jobs: int = 1,
    on_report: Optional[Callable[[ExperimentReport], None]] = None,
) -> list:
    """Run specs in one dispatch; report them in order, each as it completes.

    At ``jobs = 1`` every spec runs in-process as one chunk, and is built
    and reported before the next starts. Otherwise each spec's trials are
    cut into ``min(jobs, trials)`` chunks of at most ``ceil(trials / jobs)``,
    the chunks of every spec form one list in spec order, and this process
    and ``jobs - 1`` children (started once per sweep) claim them from one
    shared counter (``_claimed_results``). A row's ``seconds`` is the
    summed wall time of its chunks.

    A hard failure raises after the callback has seen every earlier
    report, so partial results are already flushed; no chunk is claimed
    after it, and the children are stopped.
    """
    if not specs:
        raise ValidationError("sweep_grid: empty grid")
    if jobs < 1:
        raise ValidationError("jobs must be at least 1")
    workers = min(jobs, max(spec.trials for spec in specs))
    chunks = [_chunks(spec, workers) for spec in specs]
    flat = [chunk for own in chunks for chunk in own]
    # lazy either way: at jobs = 1 a spec's one chunk runs when its report reads it
    results = (_run_chunk(*chunk) for chunk in flat) if workers == 1 else _claimed_results(flat, workers)
    reports = []
    with closing(results):
        for spec, own in zip(specs, chunks):
            report = _report(spec, islice(results, len(own)))
            reports.append(report)
            if on_report is not None:
                on_report(report)
    return reports


def csv_writer(fh, timing: bool = False) -> Callable[[ExperimentReport], None]:
    """Write the CSV header; the returned callback writes and flushes one row."""
    fh.write(CSV_VERSION_LINE + "\n")
    fh.write(",".join(CSV_COLUMNS) + "\n")

    def write_row(report: ExperimentReport) -> None:
        fh.write(",".join(report.csv_row(timing=timing)) + "\n")
        fh.flush()

    return write_row


def write_csv(reports: Iterable[ExperimentReport], fh, timing: bool = False) -> None:
    write_row = csv_writer(fh, timing)
    for r in reports:
        write_row(r)


def write_json(reports: Iterable[ExperimentReport], fh) -> None:
    json.dump([r.to_json_dict() for r in reports], fh, indent=2)
    fh.write("\n")


def check_bound_assertions(reports: Iterable[ExperimentReport]) -> list:
    """Rows violating p_hat <= bound + Wilson halfwidth + ``BOUND_SLACK``.

    Only non-adaptive attacks are held to the ceilings.
    """
    bad = []
    for r in reports:
        if ATTACKS[r.spec.attack].adaptive or r.bound_value is None:
            continue
        half = (r.ci_high - r.ci_low) / 2.0
        if r.p_hat > r.bound_value + half + BOUND_SLACK:
            bad.append(r)
    return bad


# ---------------------------------------------------------------------------
# Inequality verification front end
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalitySummary:
    n: int
    trials: int
    seed: int
    min_bijection_gap_c2: Optional[float] = None
    min_bijection_gap_c9: Optional[float] = None
    min_read_k_gap: Optional[float] = None
    min_indicator_gap: Optional[float] = None
    min_product_gap: Optional[float] = None
    extremal_ratio: Optional[float] = None

    def all_gaps_nonnegative(self, tol: float = 1e-9) -> bool:
        gaps = [
            self.min_bijection_gap_c2,
            self.min_bijection_gap_c9,
            self.min_read_k_gap,
            self.min_indicator_gap,
            self.min_product_gap,
        ]
        return all(g is None or g >= -tol for g in gaps)


def verify_inequalities(n: int, random_trials: int, seed: int) -> InequalitySummary:
    """Exhaustive random verification of every inequality at one n.

    Samples Dirichlet-random distributions with fresh random covers and
    read-k families per trial and tracks the minimum gap of each
    inequality; also runs the extremal ratio search on singleton covers.
    trials = 0 yields an empty summary.
    """
    n = nonnegative_int(n, "verify_inequalities: n")
    if not 2 <= n <= RATIO_SEARCH_MAX_N:
        raise ValidationError(f"verify_inequalities: need 2 <= n <= {RATIO_SEARCH_MAX_N}")
    random_trials = nonnegative_int(random_trials, "verify_inequalities: trials")
    rng = seeded_generator(seed, "verify_inequalities")
    if random_trials == 0:
        return InequalitySummary(n=n, trials=0, seed=seed)
    min_c2 = min_c9 = min_rk = min_ind = min_prod = math.inf
    axes = tuple(f"x{i}" for i in range(n))
    supports = tuple((0, 1) for _ in range(n))
    for _ in range(random_trials):
        p = random_bijection_distribution(rng, n)
        cover = random_cover(rng, n)
        min_c2 = min(min_c2, bijection_shearer_gap(p, cover, 2.0))
        min_c9 = min(min_c9, bijection_shearer_gap(p, cover, 9.0))
        fam = random_read_k_family(rng, n)
        min_rk = min(min_rk, read_k_concentration_gap(p, fam))
        probs = rng.dirichlet(np.ones(n))
        min_ind = min(
            min_ind, indicator_shearer_gap(indicator_distribution(probs), random_cover(rng, n))
        )
        table = rng.dirichlet(np.ones(2**n)).reshape((2,) * n)
        joint = JointDistribution(axes, supports, table)
        min_prod = min(min_prod, product_shearer_gap(joint, random_cover(rng, n)))
    singles = CoverFamily(n, tuple(frozenset([i]) for i in range(n)))
    search = extremal_ratio_search(n, singles, trials=min(10, random_trials), seed=seed)
    ratio = search.best_ratio
    # the search witness is the closest-to-tight distribution seen; its gap
    # belongs in the minima (at n=2 the point-mass witness reaches 0 exactly)
    min_c2 = min(min_c2, bijection_shearer_gap(search.witness, singles, 2.0))
    min_c9 = min(min_c9, bijection_shearer_gap(search.witness, singles, 9.0))
    return InequalitySummary(
        n=n,
        trials=random_trials,
        seed=seed,
        min_bijection_gap_c2=min_c2,
        min_bijection_gap_c9=min_c9,
        min_read_k_gap=min_rk,
        min_indicator_gap=min_ind,
        min_product_gap=min_prod,
        extremal_ratio=ratio,
    )
