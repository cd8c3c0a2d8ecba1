import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2

from permchal import bounds, harness
from permchal.attacks import ConstantGuessAdversary
from permchal.bounds import BoundTheorem, evaluate_bound
from permchal.errors import ContractViolation, ValidationError
from permchal.games import (
    GAME_ALIASES,
    GAMES,
    GameKind,
    GameOracle,
    LazyPermutation,
    NonAdaptiveAdversary,
    PCGame,
    UniformityResult,
    build_game,
    measure_uniformity,
    play_game,
    random_sigma,
)
from permchal.midgame import (
    MidConstraints,
    mid_simulation_oracle,
    play_mid_game,
    sample_constrained_permutation,
)
from permchal.seeding import derive_trial_seed, trial_generator

PRIMES = (2, 3, 5, 7, 11, 13)
POWERS_OF_TWO = (2, 4, 8, 16)


class _FixedQueryAdversary(NonAdaptiveAdversary):
    """Replays fixed query lists and returns a constant; test scaffolding."""

    def __init__(self, inner=(), outer=(), output=1, t_budget=None):
        super().__init__(s_bits=0, t_budget=t_budget)
        self.inner = list(inner)
        self.outer = list(outer)
        self.output = output

    def plan(self, z):
        return list(self.inner), list(self.outer)

    def decide(self, z, inner_answers, outer_answers):
        return self.output


class TestBuildGame:
    def test_dlog_translate_wraps_to_element_n(self):
        g = build_game("DLOG", 5)
        assert g.translate(3, (2, 4)) == 5

    def test_ddh_quadratic_branch(self):
        g = build_game("DDH", 5)
        d = (2, 3, 4, 1)
        a = (1, 1, 1, 5)  # b = 5 is the zero element
        expect = (2 + 3 + (2 * 3)) % 5
        assert g.translate(d, a) == (expect if expect else 5)
        d0 = (2, 3, 4, 0)
        expect0 = (2 + 3 + 4) % 5
        assert g.translate(d0, a) == (expect0 if expect0 else 5)

    def test_sqddh_square_branch(self):
        g = build_game("SQDDH", 7)
        assert g.translate((3, 5, 1), (1, 1, 7)) == (3 + 9) % 7  # 12 mod 7 = 5
        assert g.translate((3, 5, 0), (1, 1, 7)) == (3 + 5) % 7

    def test_em_bit_convention(self):
        g = build_game("EM_KR", 8)
        assert g.translate((3, 5), 3) == 1  # bits 2^2 = 0 -> element 1
        assert g.post_process((3, 5), 1) == 5  # bits 0^4 = 4 -> element 5

    def test_prime_validation(self):
        with pytest.raises(ValidationError):
            build_game("DLOG", 9)
        with pytest.raises(ValidationError):
            build_game("SQDDH", 15)

    def test_power_of_two_validation(self):
        with pytest.raises(ValidationError):
            build_game("EM_KR", 12)
        build_game("EM_KR_SINGLE", 16)

    @pytest.mark.parametrize("kind", ["dlog", "BOGUS", None])
    def test_unknown_kind_is_validation_error(self, kind):
        with pytest.raises(ValidationError, match="unknown game kind"):
            build_game(kind, 5)

    @pytest.mark.parametrize("kind,n", [("DLOG", 101.0), ("EM_KR", 8.0), ("DLOG", "7"), ("DDH", None)])
    def test_non_integer_size_is_validation_error(self, kind, n):
        with pytest.raises(ValidationError, match="n must be an integer"):
            build_game(kind, n)

    def test_numpy_integer_size_is_a_python_int(self):
        assert type(build_game("DLOG", np.int64(11)).n) is int


DESK_GAMES = (("DLOG", 7), ("DDH", 3), ("SQDDH", 5), ("EM_KR", 4), ("EM_KR_SINGLE", 8))


class TestGameDeclarations:
    """What each game class declares: its spaces, alias, ceiling and default guess."""

    @pytest.mark.parametrize("kind,n", DESK_GAMES)
    def test_spaces_match_their_counts_and_validation(self, kind, n):
        g = build_game(kind, n)
        queries = list(g.iter_outer_queries())
        secrets = list(g.iter_secrets())
        assert g.outer_query_count == len(queries) == len(set(queries))
        assert g.secret_count == len(secrets) == len(set(secrets))
        for m in queries:
            g.validate_outer_query(m)
        rng = trial_generator(3, 0)
        assert all(g.sample_secret(rng) in secrets for _ in range(20))

    @pytest.mark.parametrize("kind,n", DESK_GAMES)
    def test_offset_class_leaders_are_an_ordered_subsequence(self, kind, n):
        g = build_game(kind, n)
        leaders = list(g._class_leaders())
        remaining = g.iter_outer_queries()
        assert all(m in remaining for m in leaders)  # `in` consumes: order is kept
        # one leader per class: n offsets of the query, times the n - 1 units for GGM
        class_size = n if kind.startswith("EM") else n * (n - 1)
        assert len(leaders) * class_size == g.outer_query_count

    def test_registry_aliases_and_theorems(self):
        assert set(GAMES) == set(GameKind)
        assert all(cls.kind == kind for kind, cls in GAMES.items())
        assert GAME_ALIASES == {
            "dlog": GameKind.DLOG,
            "ddh": GameKind.DDH,
            "sqddh": GameKind.SQDDH,
            "em": GameKind.EM_KR,
            "em1k": GameKind.EM_KR_SINGLE,
        }
        assert harness.GAME_ALIASES is GAME_ALIASES
        assert {kind: cls.theorem for kind, cls in GAMES.items()} == {
            GameKind.DLOG: BoundTheorem.T11,
            GameKind.DDH: BoundTheorem.T12,
            GameKind.SQDDH: BoundTheorem.T12,
            GameKind.EM_KR: BoundTheorem.T13,
            GameKind.EM_KR_SINGLE: BoundTheorem.T13,
        }

    @pytest.mark.parametrize("cls", list(GAMES.values()), ids=lambda cls: cls.alias)
    def test_ceiling_u_is_at_most_the_measured_uniformity(self, cls):
        # at criterion 05's sizes: its primes for the GGM games, its powers of two for XOR
        sizes = POWERS_OF_TWO if cls.kind in (GameKind.EM_KR, GameKind.EM_KR_SINGLE) else PRIMES
        n_over_u, _ = bounds._NAMED[cls.theorem]
        for n in sizes:
            assert n / n_over_u <= measure_uniformity(cls(n)).u

    def test_constant_guess_defaults(self):
        values = [ConstantGuessAdversary(build_game(kind, n), 0).value for kind, n in DESK_GAMES]
        assert values == [1, 0, 0, (1, 1), 1]


class _ProductGame(PCGame):
    """A game that states no query classes (no ``_class_leaders``).  Its
    translation (a*b*d) mod n sends every secret to 0 at b = n, a fiber no
    b = 1 query shows, so only the every-query default finds the maximum."""

    secret_count = 5
    outer_query_count = 20

    def __init__(self):
        super().__init__(5)

    def element_from_index(self, idx):
        return idx + 1

    def iter_secrets(self):
        return iter(range(1, 6))

    def iter_outer_queries(self):
        return itertools.product(range(1, 5), range(1, 6))

    def _coefficients(self, secret):
        return secret

    def _translate_index(self, d, m):
        a, b = m
        return (a * b * d) % self.n


class TestMeasureUniformity:
    @pytest.mark.parametrize("n", PRIMES)
    def test_dlog_exact(self, n):
        assert measure_uniformity(build_game("DLOG", n)).u == float(n)

    @pytest.mark.parametrize("n", POWERS_OF_TWO)
    def test_em_exact(self, n):
        assert measure_uniformity(build_game("EM_KR", n)).u == float(n)
        assert measure_uniformity(build_game("EM_KR_SINGLE", n)).u == float(n)

    @pytest.mark.parametrize("n", PRIMES)
    def test_decision_games_at_least_half(self, n):
        assert measure_uniformity(build_game("SQDDH", n)).u >= n / 2
        assert measure_uniformity(build_game("DDH", n)).u >= n / 2

    def test_worst_pair_is_reported(self):
        res = measure_uniformity(build_game("SQDDH", 5))
        g = build_game("SQDDH", 5)
        fiber = sum(
            1 for d in g.iter_secrets() if g.translate(d, res.worst_query) == res.worst_target
        )
        assert fiber == res.max_fiber

    @pytest.mark.parametrize(
        "game",
        [build_game(kind, n) for kind in ("DLOG", "SQDDH", "DDH") for n in PRIMES]
        + [build_game(kind, n) for kind in ("EM_KR", "EM_KR_SINGLE") for n in (2, 4, 8, 16, 32)]
        + [_ProductGame()],
        ids=lambda g: f"{type(g).__name__}-{g.n}",
    )
    def test_leader_scan_matches_full_scan(self, game):
        # reference: one bincount per outer query, the scan before offset classes
        columns = game._secret_columns
        best_fiber, worst_query, worst_idx = 0, None, 0
        for m in game.iter_outer_queries():
            counts = np.bincount(game._translate_index(columns, m), minlength=game.n)
            if int(counts.max()) > best_fiber:
                best_fiber, worst_query, worst_idx = int(counts.max()), m, int(counts.argmax())
        expected = UniformityResult(
            u=game.secret_count / best_fiber,
            worst_query=worst_query,
            worst_target=game.element_from_index(worst_idx),
            max_fiber=best_fiber,
            secret_count=game.secret_count,
        )
        result = measure_uniformity(game)
        assert result == expected
        assert type(result.worst_query) is type(expected.worst_query)

    @pytest.mark.parametrize("kind", ["DLOG", "DDH", "SQDDH"])
    @pytest.mark.parametrize("n", [5, 7])
    def test_unit_scaled_queries_relabel_their_leader(self, kind, n):
        # (u*a.., b) reads u*(a.c) + b: the leader's counts moved by j -> u(j - 1) + b mod n
        g = build_game(kind, n)
        columns = g._secret_columns
        leaders = list(g._class_leaders())
        assert len(leaders) == (n**g.arity - 1) // (n - 1)
        j = np.arange(n)
        for m in leaders:
            a = m[:-1]
            assert m[-1] == 1 and next(x for x in a if x != n) == 1
            counts = np.bincount(g._translate_index(columns, m), minlength=n)
            for u in range(1, n):
                scaled = tuple((u * x - 1) % n + 1 for x in a)
                for b in (1, 2, n):
                    moved = np.zeros(n, dtype=counts.dtype)
                    moved[(u * (j - 1) + b) % n] = counts
                    got = np.bincount(g._translate_index(columns, scaled + (b,)), minlength=n)
                    assert got.tolist() == moved.tolist()

    @pytest.mark.parametrize(
        "kind,n",
        [("DLOG", 101), ("DDH", 13), ("SQDDH", 31), ("EM_KR", 64), ("EM_KR", 256), ("EM_KR_SINGLE", 256)],
    )
    def test_secret_columns_equal_the_listed_secrets(self, kind, n):
        # the streamed secrets against one array built from their list
        g = build_game(kind, n)
        listed = g._coefficients(np.array(list(g.iter_secrets()), dtype=np.int64).T)
        columns = g._secret_columns
        assert type(columns) is type(listed)
        pairs = zip(columns, listed, strict=True) if isinstance(listed, tuple) else [(columns, listed)]
        for got, want in pairs:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "kind,n", [("DLOG", 7), ("DDH", 3), ("SQDDH", 5), ("EM_KR", 8), ("EM_KR_SINGLE", 8)]
    )
    def test_batched_translation_matches_scalar(self, kind, n):
        # the one kernel over all secret columns against the scalar path, every (secret, query)
        g = build_game(kind, n)
        secrets = list(g.iter_secrets())
        for m in g.iter_outer_queries():
            batch = g._translate_index(g._secret_columns, m)
            assert batch.tolist() == [g._translate_index(g._coefficients(d), m) for d in secrets]


class TestPlayGame:
    def test_guess_rate_matches_counting(self):
        g = build_game("EM_KR", 8)
        adv = _FixedQueryAdversary(output=(1, 1))
        rng = np.random.Generator(np.random.PCG64(0))
        wins = sum(
            play_game(g, adv, random_sigma(rng, 8), g.sample_secret(rng)).success
            for _ in range(20000)
        )
        assert wins / 20000 == pytest.approx(1 / 64, abs=0.004)

    @pytest.mark.parametrize(
        "kind,n",
        [("DLOG", 11), ("DDH", 5), ("SQDDH", 7), ("EM_KR", 8), ("EM_KR_SINGLE", 16)],
    )
    def test_outer_answers_recompute(self, kind, n):
        g = build_game(kind, n)
        rng = np.random.Generator(np.random.PCG64(99))
        trials = 2000
        for _ in range(trials):
            sigma = random_sigma(rng, n)
            secret = g.sample_secret(rng)
            queries = [_random_outer_query(rng, g) for _ in range(3)]
            adv = _FixedQueryAdversary(outer=queries)
            tr = play_game(g, adv, sigma, secret)
            for m, ans in zip(queries, tr.outer_answers):
                element = g.translate(secret, m)
                assert ans == g.post_process(secret, int(sigma[element - 1]))
            assert tr.t1 + tr.t2 == 3
            assert tr.success == int(tr.output == g.success_target(secret))

    def test_engine_keeps_the_non_adaptive_call_order(self):
        g = build_game("DLOG", 11)
        calls = []

        class Recorder(_FixedQueryAdversary):
            def preprocess(self, sigma):
                calls.append(("preprocess",))
                return format(int(sigma[0]), "04b")

            def plan(self, *args, **kwargs):
                calls.append(("plan", args, kwargs))
                return super().plan(*args)

            def decide(self, z, inner_answers, outer_answers):
                calls.append(("decide", z, inner_answers, outer_answers))
                return 1

        rng = np.random.Generator(np.random.PCG64(3))
        adv = Recorder(inner=[2, 7], outer=[(1, 4), (3, 11), (1, 4)])
        adv.s_bits = 4
        for _ in range(4):
            sigma, secret = random_sigma(rng, 11), g.sample_secret(rng)
            calls.clear()
            tr = play_game(g, adv, sigma, secret)
            z = format(int(sigma[0]), "04b")
            want = GameOracle(g, sigma, secret, None).answer_plan(adv.inner, adv.outer)
            assert calls == [("preprocess",), ("plan", (z,), {}), ("decide", z, *want)]
            assert (tr.inner_answers, tr.outer_answers) == want
            assert (tr.t1, tr.t2) == (2, 3)

        # the hybrid game's t1 is its number of pins
        pins = MidConstraints((1, 5, 9), (4, 2, 11))
        tr = play_mid_game(g, pins, [(1, 3), (2, 7)], lambda answers: 1, 3, 17)
        assert (tr.t1, tr.t2) == (len(tr.inner_answers), len(tr.outer_answers)) == (3, 2)

    def test_advice_too_long_is_hard_failure(self):
        g = build_game("DLOG", 5)

        class Verbose(_FixedQueryAdversary):
            def preprocess(self, sigma):
                return "0101"

        with pytest.raises(ContractViolation):
            play_game(g, Verbose(), np.arange(1, 6), 2)

    def test_plan_over_the_query_budget_is_hard_failure(self):
        g = build_game("DLOG", 5)
        with pytest.raises(ContractViolation, match="budget"):
            play_game(g, _FixedQueryAdversary(inner=[2], outer=[(1, 5)], t_budget=1), np.arange(1, 6), 3)
        tr = play_game(g, _FixedQueryAdversary(inner=[2], outer=[(1, 5)], t_budget=2), np.arange(1, 6), 3)
        assert tr.t1 + tr.t2 == 2

    def test_inverse_inner_rules(self):
        dlog = build_game("DLOG", 5)
        with pytest.raises(ContractViolation):
            play_game(dlog, _FixedQueryAdversary(inner=[(2, True)]), np.arange(1, 6), 1)
        em = build_game("EM_KR", 8)
        sigma = random_sigma(np.random.Generator(np.random.PCG64(1)), 8)
        tr = play_game(em, _FixedQueryAdversary(inner=[(int(sigma[4]), True)], output=(1, 1)), sigma, (1, 1))
        assert tr.inner_answers == (5,)

    @pytest.mark.parametrize("query", [(2, True), (9, True)])
    def test_forbidden_inverse_query_is_refused_before_its_range_by_both_contracts(self, query):
        dlog = build_game("DLOG", 5)
        sigma = np.arange(1, 6)
        with pytest.raises(ContractViolation, match="inverse"):
            play_game(dlog, _FixedQueryAdversary(inner=[query]), sigma, 1)
        with pytest.raises(ContractViolation, match="inverse"):
            GameOracle(dlog, sigma, 1, None).inner(*query)

    @pytest.mark.parametrize("sigma", [np.arange(1, 5), np.arange(1, 7), np.arange(1, 6).reshape(1, 5)])
    def test_sigma_of_the_wrong_shape_is_rejected(self, sigma):
        with pytest.raises(ValidationError, match="length n"):
            play_game(build_game("DLOG", 5), _FixedQueryAdversary(outer=[(1, 5)]), sigma, 1)

    @pytest.mark.parametrize("sigma", [np.ones(5), [1.5, 2, 3, 4, 5]], ids=["ones", "floats"])
    def test_non_integer_sigma_is_rejected_before_preprocess(self, sigma):
        class Unreachable(_FixedQueryAdversary):
            def preprocess(self, sigma):
                raise AssertionError("preprocess saw a non-integer sigma")

        with pytest.raises(ValidationError, match="integer permutation array"):
            play_game(build_game("DLOG", 5), Unreachable(outer=[(1, 5)]), sigma, 1)

    @pytest.mark.parametrize("sigma", [np.array([3, 1, 5, 2, 4], dtype=np.int32), [3, 1, 5, 2, 4]],
                             ids=["int32", "list"])
    def test_integer_sigma_plays(self, sigma):
        g, adv = build_game("DLOG", 5), _FixedQueryAdversary(outer=[(1, 5), (2, 5)])
        tr = play_game(g, adv, sigma, 2)
        assert tr.sigma.dtype == np.int64
        assert tr.outer_answers == play_game(g, adv, np.array([3, 1, 5, 2, 4]), 2).outer_answers == (1, 2)

    def test_query_out_of_range(self):
        g = build_game("DLOG", 5)
        with pytest.raises(ValidationError):
            play_game(g, _FixedQueryAdversary(inner=[9]), np.arange(1, 6), 1)
        with pytest.raises(ValidationError):
            play_game(g, _FixedQueryAdversary(outer=[(5, 1)]), np.arange(1, 6), 1)


def _inner_queries(rng, game, count):
    """Uniform inner queries, inverse ones as well where the game allows them."""
    queries = []
    for _ in range(count):
        i = int(rng.integers(1, game.n + 1))
        queries.append((i, bool(rng.integers(0, 2))) if game.allow_inverse_inner else i)
    return queries


def _read_sigma(sigma, i, inverse=False):
    """The answer to inner query i read straight off a permutation array."""
    return int(np.flatnonzero(sigma == i)[0]) + 1 if inverse else int(sigma[i - 1])


def _oracle_pair(game, lazy, secret, t_budget):
    """Two oracles on equal sigmas: an array, or lazy permutations drawn from one seed."""
    if lazy:
        return [GameOracle(game, LazyPermutation(game.n, trial_generator(35, 0)), secret, t_budget)
                for _ in range(2)]
    sigma = random_sigma(np.random.Generator(np.random.PCG64(35)), game.n)
    return [GameOracle(game, sigma, secret, t_budget) for _ in range(2)]


class TestGameOracle:
    @pytest.mark.parametrize("lazy", [False, True], ids=["array", "lazy"])
    @pytest.mark.parametrize("cls", list(GAMES.values()), ids=lambda cls: cls.alias)
    def test_inner_is_a_plan_of_one(self, cls, lazy):
        game = cls(8 if cls.kind in (GameKind.EM_KR, GameKind.EM_KR_SINGLE) else 7)
        rng = np.random.Generator(np.random.PCG64(36))
        queries = [q if isinstance(q, tuple) else (q, False) for q in _inner_queries(rng, game, 6)]
        scalar, plan = _oracle_pair(game, lazy, game.sample_secret(rng), len(queries))
        rejected = [(0, False), (game.n + 1, False), (2.0, False), ("1", False)]
        if not game.allow_inverse_inner:
            rejected.append((1, True))
        for q in queries + [None]:  # None: the budget is spent, so a valid query is one too many
            left = scalar.remaining
            for i, inverse in rejected + ([(1, False)] if q is None else []):
                errors = []
                for ask in (lambda: scalar.inner(i, inverse), lambda: plan.answer_plan([(i, inverse)], ())):
                    with pytest.raises((ValidationError, ContractViolation)) as exc:
                        ask()
                    errors.append((type(exc.value), str(exc.value)))
                assert errors[0] == errors[1]
                assert scalar.remaining == plan.remaining == left
            if q is not None:
                assert plan.answer_plan([q], ()) == ((scalar.inner(*q),), ())
                assert (scalar.inner_log, scalar.remaining) == (plan.inner_log, plan.remaining)
        assert scalar.remaining == 0 and len(scalar.inner_log) == len(queries)
        assert scalar.outer_log == plan.outer_log == []

    @pytest.mark.parametrize("cls", list(GAMES.values()), ids=lambda cls: cls.alias)
    def test_plan_answers_equal_scalar_queries(self, cls):
        game = cls(8 if cls.kind in (GameKind.EM_KR, GameKind.EM_KR_SINGLE) else 7)
        rng = np.random.Generator(np.random.PCG64(31))
        for size in (0, 1, 2, 5, 20, 0, 3, 40) * 5:
            sigma = random_sigma(rng, game.n)
            secret = game.sample_secret(rng)
            outer = [_random_outer_query(rng, game) for _ in range(size)]
            if outer:
                outer.append(outer[0])  # a repeated query
            inner = _inner_queries(rng, game, size % 3)
            oracle = GameOracle(game, sigma, secret, len(inner) + len(outer))
            got = oracle.answer_plan(inner, outer)
            scalar = GameOracle(game, sigma, secret, None)
            want = (  # inner answers read off sigma: ``inner`` is itself a plan of one
                tuple(_read_sigma(sigma, *(q if isinstance(q, tuple) else (q,))) for q in inner),
                tuple(scalar.outer(m) for m in outer),
            )
            assert got == want
            assert all(type(v) is int for v in got[0] + got[1])
            assert (oracle.inner_log, oracle.outer_log) == (list(want[0]), list(want[1]))
            assert oracle.remaining == 0

    def test_plan_on_a_group_too_large_for_int64_products(self):
        # a*d + b reaches 2^64 here: the plan is translated in Python integers
        n = 4294967311  # the least prime above 2^32
        game = build_game("DLOG", n)
        sigma = LazyPermutation(n, np.random.Generator(np.random.PCG64(32)))
        secret = n - 2
        queries = [(n - 1, n), (n - 2, 5), (12345, n - 7), (1, n)]
        _, answers = GameOracle(game, sigma, secret, None).answer_plan((), queries)
        scalar = GameOracle(game, sigma, secret, None)  # reads the slots the plan drew
        assert answers == tuple(scalar.outer(m) for m in queries)
        assert answers[3] == sigma[secret - 1]

    @pytest.mark.parametrize("query", [(1,), (), (1, False, 3)], ids=["short", "empty", "long"])
    def test_malformed_inner_query_rejected_before_charging(self, query):
        game = build_game("EM_KR", 8)
        sigma = random_sigma(np.random.Generator(np.random.PCG64(34)), 8)
        oracle = GameOracle(game, sigma, (3, 5), 4)
        with pytest.raises(ValidationError, match="inner query"):
            oracle.answer_plan([1, query], [2])
        assert oracle.remaining == 4
        assert oracle.inner_log == oracle.outer_log == []

    @pytest.mark.parametrize("flag", ["no", 2.5, 1, None, 1.0, np.int64(1), (True,)], ids=repr)
    @pytest.mark.parametrize("kind,n", [("EM_KR", 8), ("DLOG", 7)])
    def test_inverse_flag_that_is_not_a_bool_is_rejected_before_charging(self, kind, n, flag):
        game = build_game(kind, n)
        rng = np.random.Generator(np.random.PCG64(37))
        oracle = GameOracle(game, random_sigma(rng, n), game.sample_secret(rng), 4)
        for ask in (lambda: oracle.inner(1, flag), lambda: oracle.answer_plan([2, (1, flag)], ())):
            with pytest.raises(ValidationError, match="inverse flag must be a bool"):
                ask()
            assert oracle.remaining == 4
            assert oracle.inner_log == oracle.outer_log == []

    @pytest.mark.parametrize("kind,n", [("EM_KR", 8), ("DLOG", 7)])
    def test_numpy_bool_flags_read_as_bools(self, kind, n):
        game = build_game(kind, n)
        rng = np.random.Generator(np.random.PCG64(38))
        sigma = random_sigma(rng, n)
        secret = game.sample_secret(rng)
        flags = (False, True) if game.allow_inverse_inner else (False,)
        for flag in flags:
            want = GameOracle(game, sigma, secret, None).inner(3, flag)
            oracle = GameOracle(game, sigma, secret, None)
            assert oracle.inner(3, np.bool_(flag)) == want
            assert oracle.answer_plan([(3, np.bool_(flag))], ()) == ((want,), ())
        if not game.allow_inverse_inner:
            with pytest.raises(ContractViolation, match="inverse"):
                GameOracle(game, sigma, secret, None).answer_plan([(3, np.True_)], ())

    @pytest.mark.parametrize("t", [0, 1, 4])
    def test_exactly_t_queries_pass(self, t):
        game = build_game("EM_KR", 8)
        sigma = random_sigma(np.random.Generator(np.random.PCG64(33)), 8)
        oracle = GameOracle(game, sigma, (3, 5), t)
        for k in range(t):
            if k % 2:
                oracle.inner(k + 1, inverse=k % 4 == 3)
            else:
                oracle.outer(k + 1)
        assert oracle.remaining == 0
        for query in (lambda: oracle.outer(1), lambda: oracle.inner(1)):
            with pytest.raises(ContractViolation, match="budget"):
                query()
        assert GameOracle(game, sigma, (3, 5), t).answer_plan([], list(range(1, t + 1)))
        with pytest.raises(ContractViolation, match="budget"):
            GameOracle(game, sigma, (3, 5), t).answer_plan([1], list(range(1, t + 1)))

    def test_remaining_after_mixed_queries(self):
        game = build_game("DLOG", 11)
        oracle = GameOracle(game, np.arange(1, 12), 4, 10)
        oracle.inner(3)
        oracle.outer((2, 5))
        assert oracle.remaining == 8
        oracle.answer_plan([1, 2], [(1, 1), (3, 3), (1, 1)])
        assert oracle.remaining == 3
        oracle.outer((10, 11))
        assert oracle.remaining == 2
        assert GameOracle(game, np.arange(1, 12), 4, None).remaining is None

    @pytest.mark.parametrize("t_budget,message", [(-1, "non-negative"), (2.5, "an integer"), ("3", "an integer")])
    def test_budget_must_be_a_non_negative_integer(self, t_budget, message):
        with pytest.raises(ValidationError, match=f"t_budget must be {message}"):
            GameOracle(build_game("DLOG", 11), np.arange(1, 12), 3, t_budget)

    @pytest.mark.parametrize("t_budget", [None, 0, 2, np.int64(2)], ids=repr)
    def test_integer_or_unbounded_budget(self, t_budget):
        oracle = GameOracle(build_game("DLOG", 11), np.arange(1, 12), 3, t_budget)
        assert oracle.remaining == t_budget and type(oracle.remaining) in (int, type(None))

    def test_rejected_queries_leave_the_budget(self):
        dlog = build_game("DLOG", 11)
        oracle = GameOracle(dlog, np.arange(1, 12), 4, 3)
        oracle.outer((1, 1))
        rejected = [
            (ValidationError, lambda: oracle.outer((11, 1))),  # a = n is an inner query
            (ValidationError, lambda: oracle.outer((1, 2, 3))),
            (ValidationError, lambda: oracle.inner(12)),
            (ContractViolation, lambda: oracle.inner(2, inverse=True)),
            (ValidationError, lambda: oracle.answer_plan([], [(1, 1), (0, 1)])),
            (ValidationError, lambda: oracle.answer_plan([], [(1, 1), (2.0, 1)])),
            (ValidationError, lambda: oracle.answer_plan([1, 0], [])),
        ]
        for error, query in rejected:
            with pytest.raises(error):
                query()
            assert oracle.remaining == 2
        assert oracle.inner_log == [] and oracle.outer_log == [5]  # sigma(1 * 4 + 1)
        oracle.answer_plan([5], [(1, 3)])
        assert oracle.remaining == 0


# (kind, n, secret, an outer query with a float coordinate, its integer twin)
FLOAT_OUTER_QUERIES = [
    ("DLOG", 11, 4, (2.5, 1), (2, 1)),  # 2.5 * 4 + 1 = 11.0: index 0.0, which reads as the element n
    ("DLOG", 11, 4, (2.25, 1), (2, 1)),  # index 10.0: a float slot
    ("DLOG", 11, 4, (2.0, 1), (2, 1)),
    ("DDH", 5, (1, 2, 3, 0), (1.5, 1, 1, 1), (1, 1, 1, 1)),
    ("SQDDH", 7, (3, 5, 1), (1, 2.5, 1), (1, 2, 1)),
]
# coordinates that are no numbers at all: comparing or multiplying them raises TypeError
NON_NUMBER_OUTER_QUERIES = [
    ("DLOG", 11, 4, ("a", 1), (2, 1)),
    ("DDH", 5, (1, 2, 3, 0), (1, None, 1, 1), (1, 1, 1, 1)),
    ("SQDDH", 7, (3, 5, 1), (1, 2, "1"), (1, 2, 1)),
]


class TestFloatOuterQueries:
    """A translated index that is no integer, or a coordinate that is no
    number, is rejected on every path that answers an outer query, before
    any budget is charged."""

    @pytest.mark.parametrize("kind,n,secret,query,valid", FLOAT_OUTER_QUERIES + NON_NUMBER_OUTER_QUERIES)
    def test_rejected_with_the_budget_untouched(self, kind, n, secret, query, valid):
        game = build_game(kind, n)
        oracle = GameOracle(game, np.arange(1, n + 1), secret, 3)
        for ask in (
            lambda: oracle.outer(query),
            lambda: oracle.answer_plan((), [query]),
            lambda: oracle.answer_plan([1], [valid, query]),
        ):
            with pytest.raises(ValidationError, match="integers"):
                ask()
            assert oracle.remaining == 3
        assert oracle.inner_log == [] and oracle.outer_log == []
        for play in (
            lambda: mid_simulation_oracle(game, MidConstraints((1,), (2,)), [valid, query], secret, 0),
            lambda: play_mid_game(game, MidConstraints((1,), (2,)), [query], lambda a: 1, secret, 0),
        ):
            with pytest.raises(ValidationError, match="integers"):
                play()

    @pytest.mark.parametrize("kind,n,secret,_query,twin", FLOAT_OUTER_QUERIES)
    def test_numpy_integer_coordinates_are_answered(self, kind, n, secret, _query, twin):
        game = build_game(kind, n)
        sigma = random_sigma(np.random.Generator(np.random.PCG64(34)), n)
        np_twin = tuple(np.int64(c) for c in twin)
        want = GameOracle(game, sigma, secret, None).outer(twin)
        oracle = GameOracle(game, sigma, secret, 2)
        assert oracle.outer(np_twin) == want
        assert oracle.answer_plan((), [np_twin]) == ((), (want,))
        assert oracle.remaining == 0
        constraints = MidConstraints((1,), (2,))
        assert mid_simulation_oracle(game, constraints, [np_twin], secret, 5) == mid_simulation_oracle(
            game, constraints, [twin], secret, 5
        )

    @pytest.mark.parametrize("kind,secret", [("EM_KR", (3, 5)), ("EM_KR_SINGLE", 3)])
    def test_numpy_integer_encryption_query_is_answered(self, kind, secret):
        game = build_game(kind, 8)
        sigma = random_sigma(np.random.Generator(np.random.PCG64(34)), 8)
        want = GameOracle(game, sigma, secret, None).outer(3)
        oracle = GameOracle(game, sigma, secret, 2)
        assert oracle.outer(np.int64(3)) == want
        assert oracle.answer_plan((), [np.int64(3)]) == ((), (want,))
        assert oracle.remaining == 0
        oracle = GameOracle(game, sigma, secret, 2)
        for ask in (lambda: oracle.outer(3.0), lambda: oracle.answer_plan((), [3.0])):
            with pytest.raises(ValidationError, match="out of range"):
                ask()
        assert oracle.remaining == 2


def _s4_chi_square(read, seed):
    """Chi-square statistic over all 24 permutations of [4], each sample
    a fresh LazyPermutation resolved in full by ``read``."""
    counts = dict.fromkeys(itertools.permutations(range(1, 5)), 0)
    samples = 24_000
    for i in range(samples):
        counts[read(LazyPermutation(4, trial_generator(seed, i)))] += 1
    expected = samples / 24
    return sum((c - expected) ** 2 / expected for c in counts.values())


class TestLazyPermutation:
    @pytest.mark.parametrize("inverse_reads", [False, True])
    def test_full_resolution_is_uniform_over_s4(self, inverse_reads):
        # chi-square over all 24 permutations of [4]. The reads go in a
        # fixed order (a random order would hide a biased value choice);
        # with inverse_reads the preimages of 1 and 2 are drawn first.
        def read(sigma):
            if inverse_reads:
                sigma.inverse[0], sigma.inverse[1]
            return tuple(sigma[j] for j in range(4))

        assert _s4_chi_square(read, 62) <= chi2.ppf(1 - 1e-3, df=23)

    @pytest.mark.parametrize("inverse_reads", [False, True])
    @pytest.mark.parametrize(
        "batches",
        [[[0, 1, 2, 3]], [[1, 3], [3, 0, 2, 1]], [[2, 0, 2, 1, 3, 0]]],
        ids=["one-batch", "two-batches", "repeated-slot"],
    )
    def test_batched_resolution_is_uniform_over_s4(self, batches, inverse_reads):
        # the same chi-square through take; the second batch repeats slots
        # the first has drawn, and with inverse_reads a batch of inverse
        # reads draws the preimages of 1 and 2 first
        def read(sigma):
            if inverse_reads:
                sigma.inverse.take(np.array([0, 1]))
            image = {}
            for batch in batches:
                image.update(zip(batch, sigma.take(np.array(batch)).tolist()))
            return tuple(image[j] for j in range(4))

        assert _s4_chi_square(read, 69) <= chi2.ppf(1 - 1e-3, df=23)

    def test_take_agrees_with_scalar_reads(self):
        n = 50
        sigma = LazyPermutation(n, np.random.Generator(np.random.PCG64(70)))
        first = sigma.take(np.array([7, 7, 3, 7], dtype=np.int64))
        assert first.dtype == np.int64 and first[0] == first[1] == first[3] == sigma[7]
        assert first[2] == sigma[3] != first[0]
        slots = np.random.Generator(np.random.PCG64(71)).integers(0, n, size=40)
        assert sigma.take(slots).tolist() == [sigma[int(j)] for j in slots]
        values = sigma.take(np.arange(n))
        assert sorted(values.tolist()) == list(range(1, n + 1))
        assert sigma.inverse.take(values - 1).tolist() == list(range(1, n + 1))
        assert sigma.take(np.array([], dtype=np.int64)).tolist() == []

    def test_take_rejects_bad_slot_arrays(self):
        sigma = LazyPermutation(5, np.random.Generator(np.random.PCG64(72)))
        bad = ([0, 5], [-1], np.array([1.0]), np.array([[1]]), ["1"], np.array([True]), 3)
        for slots in bad:
            with pytest.raises(ValidationError):
                sigma.take(slots)
            with pytest.raises(ValidationError):
                sigma.inverse.take(slots)
        assert sigma._image == {}

    def test_reads_are_stable_and_values_distinct(self):
        n = 50
        sigma = LazyPermutation(n, np.random.Generator(np.random.PCG64(63)))
        rng = np.random.Generator(np.random.PCG64(64))
        seen = {}
        for slot in rng.integers(0, n, size=400):
            v = sigma[int(slot)]
            assert seen.setdefault(int(slot), v) == v
        assert len(set(seen.values())) == len(seen)
        values = [sigma[j] for j in range(n)]
        assert sorted(values) == list(range(1, n + 1))
        assert all(sigma.inverse[v - 1] == j + 1 for j, v in enumerate(values))

    def test_out_of_range_slots_rejected(self):
        sigma = LazyPermutation(5, np.random.Generator(np.random.PCG64(65)))
        for bad in (-1, 5, 2.0, np.array([1]), "1"):
            with pytest.raises(ValidationError):
                sigma[bad]
            with pytest.raises(ValidationError):
                sigma.inverse[bad]
        with pytest.raises(ValidationError):
            LazyPermutation(0, np.random.Generator(np.random.PCG64(65)))

    def test_inverse_inner_queries_sampled_or_refused(self):
        em = build_game("EM_KR", 8)
        sigma = LazyPermutation(8, np.random.Generator(np.random.PCG64(66)))
        adv = _FixedQueryAdversary(inner=[(5, True), 3, (5, True)], output=(1, 1))
        tr = play_game(em, adv, sigma, (1, 1))
        pre, _, again = tr.inner_answers
        assert pre == again and sigma[pre - 1] == 5
        with pytest.raises(ValidationError):
            play_game(em, _FixedQueryAdversary(inner=[(9, True)]), sigma, (1, 1))
        dlog = build_game("DLOG", 5)
        lazy5 = LazyPermutation(5, np.random.Generator(np.random.PCG64(67)))
        with pytest.raises(ContractViolation):
            play_game(dlog, _FixedQueryAdversary(inner=[(2, True)]), lazy5, 1)
        lazy7 = LazyPermutation(7, np.random.Generator(np.random.PCG64(68)))
        with pytest.raises(ValidationError):
            play_game(dlog, _FixedQueryAdversary(), lazy7, 1)


def _random_outer_query(rng, game):
    """A uniform valid outer query, by rejection."""
    n = game.n
    while True:
        if game.kind == GameKind.DLOG:
            m = (int(rng.integers(1, n)), int(rng.integers(1, n + 1)))
        elif game.kind == GameKind.DDH:
            m = tuple(int(v) for v in rng.integers(1, n + 1, size=4))
        elif game.kind == GameKind.SQDDH:
            m = tuple(int(v) for v in rng.integers(1, n + 1, size=3))
        else:
            m = int(rng.integers(1, n + 1))
        try:
            game.validate_outer_query(m)
            return m
        except ValidationError:
            continue


class TestMidGame:
    def test_constraints_validation(self):
        with pytest.raises(ValidationError):
            MidConstraints((1, 1), (2, 3))
        with pytest.raises(ValidationError):
            MidConstraints((1, 2), (3, 3))
        with pytest.raises(ValidationError):
            MidConstraints((1,), (2, 3))

    @pytest.mark.parametrize("bad", [1.5, 2.0, "a", None])
    def test_non_integer_entries_rejected(self, bad):
        with pytest.raises(ValidationError, match="integers"):
            MidConstraints((bad,), (2,))
        with pytest.raises(ValidationError, match="integers"):
            MidConstraints((2,), (bad,))

    def test_numpy_integers_accepted(self):
        c = MidConstraints((np.int64(1), np.uint8(3)), [np.int32(2), 4])
        assert c.inputs == (1, 3) and c.outputs == (2, 4)
        assert all(type(v) is int for v in c.inputs + c.outputs)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_bad_seed_is_a_validation_error(self, seed):
        g = build_game("DLOG", 11)
        pins = MidConstraints((1,), (2,))
        with pytest.raises(ValidationError, match="play_mid_game: seed"):
            play_mid_game(g, pins, [(1, 3)], lambda a: 1, 3, seed)
        with pytest.raises(ValidationError, match="mid_simulation_oracle: seed"):
            mid_simulation_oracle(g, pins, [(1, 3)], 3, seed)

    @pytest.mark.parametrize("n", [2.5, -3, "3"])
    def test_bad_n_of_a_constrained_permutation(self, n):
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ValidationError, match="constrained permutation: n"):
            sample_constrained_permutation(n, MidConstraints((1,), (2,)), rng)

    @pytest.mark.parametrize(
        "pins",
        [((0,), (2,)), ((2,), (0,)), ((12,), (2,)), ((2,), (12,))],
        ids=["input-0", "output-0", "input-n+1", "output-n+1"],
    )
    def test_pins_out_of_range_rejected(self, pins):
        # a pin at 0 would otherwise write sigma[n - 1]
        g = build_game("DLOG", 11)
        constraints = MidConstraints(*pins)
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ValidationError, match="out of range"):
            sample_constrained_permutation(g.n, constraints, rng)
        with pytest.raises(ValidationError, match="out of range"):
            play_mid_game(g, constraints, [(1, 3)], lambda a: 1, 3, 0)
        with pytest.raises(ValidationError, match="out of range"):
            mid_simulation_oracle(g, constraints, [(1, 3)], 3, 0)

    def test_full_constraints_determine_sigma(self):
        g = build_game("DLOG", 5)
        perm = (3, 1, 4, 5, 2)
        tr = play_mid_game(g, MidConstraints((1, 2, 3, 4, 5), perm), [], lambda a: 1, 2, 7)
        assert tuple(tr.sigma) == perm
        assert tr.t1 == 5

    def test_pinned_value_marginal_is_conditionally_uniform(self):
        g = build_game("DLOG", 5)
        counts = np.zeros(6)
        samples = 40000
        for i in range(samples):
            tr = play_mid_game(
                g, MidConstraints((1,), (2,)), [], lambda a: 1, 1, derive_trial_seed(13, i)
            )
            counts[int(tr.sigma[1])] += 1
        assert counts[2] == 0
        p = 0.25
        band = 3 * math.sqrt(p * (1 - p) * samples)
        for v in (1, 3, 4, 5):
            assert abs(counts[v] - samples * p) <= band

    def test_empty_constraints_match_unconstrained_game(self):
        g = build_game("DLOG", 7)
        queries = [(2, 3), (1, 5)]
        samples = 20000
        counts_mid = np.zeros((8, 8))
        counts_plain = np.zeros((8, 8))
        for i in range(samples):
            tr = play_mid_game(
                g, MidConstraints((), ()), queries, lambda a: 1, 3, derive_trial_seed(17, i)
            )
            counts_mid[tr.outer_answers[0], tr.outer_answers[1]] += 1
            rng = trial_generator(18, i)
            sigma = random_sigma(rng, 7)
            tr2 = play_game(g, _FixedQueryAdversary(outer=queries), sigma, 3)
            counts_plain[tr2.outer_answers[0], tr2.outer_answers[1]] += 1
        # same support and close frequencies
        assert (counts_mid > 0).sum() == (counts_plain > 0).sum()
        diff = np.abs(counts_mid - counts_plain) / samples
        assert diff.max() < 0.02


def _setdiff1d_constrained_permutation(n, constraints, rng):
    """The free positions and values by np.setdiff1d: the reference construction."""
    sigma = np.zeros(n, dtype=np.int64)
    pinned_in = np.array(constraints.inputs, dtype=np.int64)
    pinned_out = np.array(constraints.outputs, dtype=np.int64)
    if len(pinned_in):
        sigma[pinned_in - 1] = pinned_out
    free_pos = np.setdiff1d(np.arange(1, n + 1, dtype=np.int64), pinned_in)
    free_val = np.setdiff1d(np.arange(1, n + 1, dtype=np.int64), pinned_out)
    sigma[free_pos - 1] = rng.permutation(free_val)
    return sigma


def _random_pins(rng, n, t1):
    ins = [int(x) + 1 for x in rng.choice(n, size=t1, replace=False)]
    outs = [int(x) + 1 for x in rng.choice(n, size=t1, replace=False)]
    return MidConstraints(ins, outs)


@pytest.mark.parametrize("n,t1", [(n, t1) for n in (1, 2, 5, 101) for t1 in sorted({0, 1, n - 1, n})])
class TestComplementCrossCheck:
    def test_constrained_permutation_matches_setdiff1d(self, n, t1):
        for seed in range(8):
            constraints = _random_pins(trial_generator(60, seed), n, t1)
            got = sample_constrained_permutation(n, constraints, trial_generator(61, seed))
            want = _setdiff1d_constrained_permutation(n, constraints, trial_generator(61, seed))
            assert got.dtype == want.dtype and np.array_equal(got, want)


def _mid_transcript_digest():
    h = hashlib.sha256()
    for kind, n in (("DLOG", 11), ("DDH", 5), ("SQDDH", 7), ("EM_KR", 8)):
        g = build_game(kind, n)
        for i in range(40):
            rng = trial_generator(90, i)
            constraints = _random_pins(rng, n, int(rng.integers(0, n + 1)))
            queries = [_random_outer_query(rng, g) for _ in range(3)]
            secret = g.sample_secret(rng)
            tr = play_mid_game(g, constraints, queries, lambda a: a[0], secret, derive_trial_seed(91, i))
            h.update(tr.sigma.tobytes())
            h.update(repr((tr.secret, tr.outer_answers, tr.output, tr.success, tr.t1, tr.t2)).encode())
    return h.hexdigest()


def test_play_mid_game_transcripts_pinned():
    # digest of transcripts at fixed seeds, as the np.setdiff1d construction gave them
    assert _mid_transcript_digest() == "2b06dd89e25a08b7704bfecf654d10fc3abb3825c8bc9196e15a0ca30f615a61"


class TestMidSimulationOracle:
    @pytest.mark.parametrize(
        "kind,n",
        [("DLOG", 11), ("DDH", 5), ("SQDDH", 7), ("EM_KR", 8), ("EM_KR_SINGLE", 16)],
    )
    def test_both_oracles_follow_the_translation(self, kind, n):
        # the hybrid game answers sigma at the translated point, post-processed;
        # the simulation raises W1 exactly when a translated point is pinned
        g = build_game(kind, n)
        runs = 300
        flagged = 0
        for i in range(runs):
            rng = trial_generator(81, i)
            ins = [int(x) + 1 for x in rng.choice(n, size=3, replace=False)]
            outs = [int(x) + 1 for x in rng.choice(n, size=3, replace=False)]
            queries = [_random_outer_query(rng, g) for _ in range(4)]
            secret = g.sample_secret(rng)
            constraints = MidConstraints(ins, outs)
            pin = dict(zip(ins, outs))
            points = [g.translate(secret, m) for m in queries]

            tr = play_mid_game(g, constraints, queries, lambda a: 1, secret, derive_trial_seed(82, i))
            assert tr.outer_answers == tuple(
                g.post_process(secret, int(tr.sigma[u - 1])) for u in points
            )

            run = mid_simulation_oracle(g, constraints, queries, secret, derive_trial_seed(83, i))
            assert run.w1 == int(any(u in pin for u in points))
            for u, response in zip(points, run.responses):
                if u in pin:
                    assert response == g.post_process(secret, pin[u])
            flagged += run.w1
        assert 0 < flagged < runs

    def test_empty_constraints_never_flag(self):
        g = build_game("DLOG", 11)
        for i in range(200):
            rng = trial_generator(21, i)
            queries = [(1, int(b) + 1) for b in rng.choice(11, size=4, replace=False)]
            run = mid_simulation_oracle(
                g, MidConstraints((), ()), queries, g.sample_secret(rng), derive_trial_seed(22, i)
            )
            assert run.w1 == 0 and run.w2 == 0

    def test_flag_rates_within_union_bounds(self):
        g = build_game("DLOG", 101)
        u = 101.0
        for t1, t2, master in ((5, 5, 31), (10, 10, 32)):
            runs = 20000
            w1 = w2 = 0
            for i in range(runs):
                rng = trial_generator(master, i)
                ins = [int(x) + 1 for x in rng.choice(101, size=t1, replace=False)]
                outs = [int(x) + 1 for x in rng.choice(101, size=t1, replace=False)]
                queries = [(1, int(b) + 1) for b in rng.choice(101, size=t2, replace=False)]
                d = g.sample_secret(rng)
                run = mid_simulation_oracle(
                    g, MidConstraints(ins, outs), queries, d, derive_trial_seed(master + 1, i)
                )
                w1 += run.w1
                w2 += run.w2
            t = t1 + t2
            b1, b2 = t1 * t2 / u, t * t / (4 * u)
            for observed, bound in ((w1 / runs, b1), (w2 / runs, b2)):
                sigma_hat = math.sqrt(max(observed * (1 - observed), 1e-4) / runs)
                assert observed <= min(1.0, bound) + 3 * sigma_hat

    def test_w1_rate_matches_exact_fiber_count(self):
        # For a fixed pin set and fixed queries, Pr[W1] over the uniform
        # secret equals the exactly-counted fraction of secrets whose
        # translated queries land on a pinned input.
        g = build_game("DLOG", 101)
        rng = np.random.Generator(np.random.PCG64(55))
        ins = [int(x) + 1 for x in rng.choice(101, size=10, replace=False)]
        outs = [int(x) + 1 for x in rng.choice(101, size=10, replace=False)]
        queries = [(1, int(b) + 1) for b in rng.choice(101, size=10, replace=False)]
        constraints = MidConstraints(ins, outs)
        exact = sum(
            1
            for d in g.iter_secrets()
            if any(g.translate(d, m) in set(ins) for m in queries)
        ) / 101
        assert exact <= 100 / 101  # the union bound t1*t2/u
        runs = 30000
        w1 = 0
        for i in range(runs):
            rng_i = trial_generator(56, i)
            d = g.sample_secret(rng_i)
            run = mid_simulation_oracle(g, constraints, queries, d, derive_trial_seed(57, i))
            w1 += run.w1
        observed = w1 / runs
        band = 3 * math.sqrt(exact * (1 - exact) / runs)
        assert abs(observed - exact) <= band

    def test_matches_exact_hybrid_distribution(self):
        # chi-square goodness of fit of the oracle's joint responses
        # against the enumerated hybrid-game distribution at n=5.
        g = build_game("DLOG", 5)
        d = 2
        queries = [(1, 3), (1, 4)]  # translate to sigma inputs 5 and 1 (pinned)
        pins = (1, 2)

        exact = {}
        for o1, o2 in itertools.permutations(range(1, 6), 2):
            remaining = [v for v in range(1, 6) if v not in (o1, o2)]
            for r1 in remaining:
                exact[(r1, o1)] = exact.get((r1, o1), 0.0) + (1 / 20) * (1 / 3)
        assert abs(sum(exact.values()) - 1.0) < 1e-12

        samples = 100000
        counts = {}
        for i in range(samples):
            rng = trial_generator(41, i)
            sigma_prime = random_sigma(rng, 5)
            constraints = MidConstraints(pins, (int(sigma_prime[0]), int(sigma_prime[1])))
            run = mid_simulation_oracle(g, constraints, queries, d, derive_trial_seed(42, i))
            counts[run.responses] = counts.get(run.responses, 0) + 1

        assert set(counts) <= set(exact)
        stat = 0.0
        for cat, prob in exact.items():
            expected = prob * samples
            stat += (counts.get(cat, 0) - expected) ** 2 / expected
        threshold = chi2.ppf(1 - 1e-3, df=len(exact) - 1)
        assert stat <= threshold


class TestEvaluateBound:
    def test_worked_example(self):
        v = evaluate_bound("T11", 1009, 20, 10, max_s=100 / 1009)
        assert v == pytest.approx(0.8469, abs=5e-4)

    def test_zero_queries_leave_only_max_s_terms(self):
        # The search-game forms keep their leading factor 2; the min()
        # forms and the decision form collapse to maxS itself.
        assert evaluate_bound("T11", 101, 0, 0, max_s=0.25) == 0.5
        assert evaluate_bound("T13", 101, 0, 0, max_s=0.25) == 0.5
        assert evaluate_bound("T12", 101, 0, 0, max_s=0.25) == 0.25
        assert evaluate_bound("T41", 101, 0, 0, u=101, max_s=0.25) == 0.25
        assert evaluate_bound("TE1", 101, 0, 0, u=101, max_s=0.25) == 0.25

    def test_te1_never_exceeds_t41(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(500):
            n = int(rng.integers(10, 5000))
            s = float(rng.integers(0, 200))
            t = float(rng.integers(0, 50))
            u = float(rng.integers(1, n + 1))
            max_s = float(rng.random() * 0.5)
            assert evaluate_bound("TE1", n, s, t, u=u, max_s=max_s) <= evaluate_bound(
                "T41", n, s, t, u=u, max_s=max_s
            ) + 1e-12

    def test_monotone_in_s_and_t(self):
        s_grid = [0, 5, 20, 80, 320]
        t_grid = [0, 2, 8, 32, 128]
        for theorem, kwargs in (
            ("T11", {}),
            ("T12", {}),
            ("T13", {}),
            ("T41", dict(u=500.0, max_s=0.01)),
            ("TE1", dict(u=500.0, max_s=0.01)),
        ):
            for t in t_grid:
                values = [evaluate_bound(theorem, 1009, s, t, **kwargs) for s in s_grid]
                assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
            for s in s_grid:
                if theorem in ("T11", "T12", "T13"):
                    values = [evaluate_bound(theorem, 1009, s, t) for t in t_grid]
                else:
                    values = [evaluate_bound(theorem, 1009, s, t, **kwargs) for t in t_grid]
                assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_defaults_per_theorem(self):
        n, t = 101, 5
        assert evaluate_bound("T11", n, 0, t) == pytest.approx(
            3 * t * t / n, abs=1e-12
        )
        assert evaluate_bound("T12", n, 0, t) == pytest.approx(0.5 + 2 * t * t / n, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            evaluate_bound("T41", 101, 1, 1, u=0, max_s=0.1)
        with pytest.raises(ValidationError):
            evaluate_bound("T41", 101, 1, 1, u=101)
        with pytest.raises(ValidationError):
            evaluate_bound("T11", 101, -1, 1)
        with pytest.raises(ValueError):
            evaluate_bound("T99", 101, 1, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("argument", ["n", "s_bits", "t", "u", "max_s"])
    def test_non_finite_inputs_rejected(self, argument, bad):
        # nan compares false everywhere, so unchecked it would clamp to a ceiling of 0
        kwargs = dict(theorem="T41", n=101, s_bits=10, t=5, u=101.0, max_s=0.1)
        kwargs[argument] = bad
        with pytest.raises(ValidationError, match="must be finite"):
            evaluate_bound(**kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(theorem="T99"), "unknown theorem 'T99'"),
        (dict(theorem=None), "unknown theorem None"),
        (dict(n="101"), "must be finite numbers"),
        (dict(n=None), "must be finite numbers"),
        (dict(s_bits="1"), "must be finite numbers"),
        (dict(t=[1]), "must be finite numbers"),
        (dict(theorem="T41", u="101", max_s=0.1), "must be finite numbers"),
        (dict(theorem="T41", u=101, max_s="0.1"), "must be finite numbers"),
    ], ids=lambda v: repr(v) if isinstance(v, dict) else "")
    def test_bad_inputs_are_validation_errors(self, kwargs, message):
        args = dict(theorem="T11", n=101, s_bits=1, t=1) | kwargs
        with pytest.raises(ValidationError, match=message):
            evaluate_bound(**args)

    def test_numpy_numbers_accepted(self):
        assert evaluate_bound("T11", np.int64(101), np.float64(1.0), np.int64(1)) == evaluate_bound("T11", 101, 1, 1)
        assert evaluate_bound(BoundTheorem.T12, 101, 1, 1) == evaluate_bound("T12", 101, 1, 1)

    def test_clamped_to_unit_interval(self):
        assert evaluate_bound("T11", 11, 1000, 1000) == 1.0

    @pytest.mark.parametrize("theorem", ["T11", "T12", "T13"])
    def test_named_theorems_reject_u(self, theorem):
        # u is derived from n, so a given u is an error, not a silently ignored input
        with pytest.raises(ValidationError, match="derives u from n"):
            evaluate_bound(theorem, 100003, 10, 3, u=5)
        with pytest.raises(ValidationError, match="derives u from n"):
            evaluate_bound(theorem, 100003, 10, 3, u=100003.0, max_s=0.1)


LN2 = math.log(2.0)


def _frozen_closed_form(theorem, n, s_bits, t, u=None, max_s=None):
    """The five closed forms as ``bounds`` wrote them out one by one before
    they became branches of T41; a frozen reference for the shared path."""
    if max_s is None:
        max_s = 0.5 + t * t / n if theorem == "T12" else t * t / n
    if theorem in ("T41", "TE1"):
        st_over_u = s_bits * t / u
    if theorem == "T41":
        value = min(
            2.0 * max_s + 4.0 * LN2 * st_over_u + t * t / u,
            max_s + math.sqrt(LN2 * st_over_u) + t * t / (2.0 * u),
        )
    elif theorem == "TE1":
        value = min(
            2.0 * max_s + 4.0 * LN2 * st_over_u,
            max_s + math.sqrt(LN2 * st_over_u),
        )
    elif theorem == "T11":
        value = 2.0 * max_s + 4.0 * LN2 * s_bits * t / n + t * t / n
    elif theorem == "T12":
        value = max_s + math.sqrt(2.0 * LN2 * s_bits * t / n) + t * t / n
    else:  # T13
        value = 2.0 * max_s + 4.0 * LN2 * s_bits * (t + 1.0) / n + t * t / n
    return min(1.0, max(0.0, value))


def _frozen_grid_points():
    """Seeded (n, S, T, u, maxS) points: N from 101 to 2^29 - 3, S up to 10^6,
    T up to 5000, and each range's ends; maxS is a draw in [0, 0.5)."""
    rng = np.random.Generator(np.random.PCG64(1717))
    ends = [(101, 0, 0), (101, 10**6, 5000), (2**29 - 3, 0, 5000), (2**29 - 3, 10**6, 1),
            (536870909, 10440, 4878), (1009, 20, 10), (100003, 10, 3)]
    points = [(n, s, t, float(n), 0.0) for n, s, t in ends]
    for _ in range(4000):
        n = int(rng.integers(101, 2**29 - 2))
        s = int(rng.integers(0, 10**6 + 1)) if rng.random() < 0.5 else int(rng.integers(0, 200))
        t = int(rng.integers(0, 5001)) if rng.random() < 0.5 else int(rng.integers(0, 60))
        u = float(n) if rng.random() < 0.3 else float(rng.uniform(1.0, n))
        points.append((n, s, t, u, float(rng.random() * 0.5)))
    return points


class TestFrozenClosedForms:
    """The shared T41 branches against the old per-theorem forms."""

    POINTS = _frozen_grid_points()

    @pytest.mark.parametrize("theorem", ["T11", "T12", "T13"])
    def test_named_theorems_are_bit_identical(self, theorem):
        for n, s, t, _u, max_s in self.POINTS:
            assert evaluate_bound(theorem, n, s, t) == _frozen_closed_form(theorem, n, s, t)
            assert evaluate_bound(theorem, n, s, t, max_s=max_s) == _frozen_closed_form(
                theorem, n, s, t, max_s=max_s
            )

    @pytest.mark.parametrize("theorem", ["T41", "TE1"])
    def test_generic_theorems_within_one_ulp_and_equal_at_six_decimals(self, theorem):
        for n, s, t, u, max_s in self.POINTS:
            for m in (max_s, t * t / n):
                got = evaluate_bound(theorem, n, s, t, u=u, max_s=m)
                want = _frozen_closed_form(theorem, n, s, t, u=u, max_s=m)
                assert abs(got - want) <= 2.3e-16
                assert f"{got:.6f}" == f"{want:.6f}"
