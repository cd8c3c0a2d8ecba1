import math

import numpy as np
import pytest

from permchal.attacks import (
    AttackConfig,
    bits_decode_array,
    bits_encode,
    bits_encode_array,
    bsgs_adversary,
    chain_preprocessing_dlog,
    constant_guess_adversary,
    daemen_em_adversary,
    pollard_rho_adversary,
    run_mi_game,
    sqddh_nonadaptive_adversary,
)
from permchal.errors import ValidationError
from permchal.games import LazyPermutation, build_game, is_prime, play_game, random_sigma
from permchal.harness import wilson_interval
from permchal.seeding import derive_trial_seed, mix64, mix64_array, trial_generator

PRIMES_TO_101 = [n for n in range(2, 102) if is_prime(n)]


def _reference_chain_preprocess(adv, sigma):
    """Chain preprocessing one scalar read and one mix64 per step, chain by
    chain: the advice and the any-offset merge count."""
    n = adv.n
    out = []
    visited = set()
    merged = 0
    for c in range(adv.chains):
        x = mix64(adv.walk_key, 0x5747, c) % n
        path = [x]
        for _ in range(adv.length):
            x = (x + adv._step_size(int(sigma[(x - 1) % n]))) % n
            path.append(x)
        merged += not visited.isdisjoint(path)
        visited.update(path)
        out.append(bits_encode(int(sigma[(x - 1) % n]) - 1, adv.width) + bits_encode(x, adv.width))
    return "".join(out), merged


def _reference_bsgs_preprocess(adv, sigma):
    """BSGS advice entry by entry: the (sigma(j), j) rows sorted, each field
    written by the scalar ``bits_encode``."""
    rows = sorted((int(sigma[(j - 1) % adv.n]), j) for j in range(adv.m))
    return "".join(bits_encode(v - 1, adv.width) + bits_encode(j, adv.width) for v, j in rows)


def _reference_daemen_preprocess(adv, sigma):
    """Difference-table advice one scalar read and ``bits_encode`` per stored point."""
    return "".join(bits_encode(int(sigma[p]) - 1, adv.width) for p in adv.stored)


def _reference_sqddh_preprocess(adv, sigma):
    """Majority advice with the gather indices built per call and the
    advice joined bucket by bucket."""
    n = adv.n
    x = np.arange(n, dtype=np.int64)
    code = adv._pair_code(sigma[(x - 1) % n], sigma[((x * x) % n - 1) % n])
    marked = mix64_array(adv.key_mark, code) % np.uint64(adv.t) == 0
    code_m = code[marked]
    bucket = (mix64_array(adv.key_bucket, code_m) % np.uint64(adv.buckets)).astype(np.int64)
    qbit = (mix64_array(adv.key_bit, code_m) & np.uint64(1)).astype(np.float64)
    ones = np.bincount(bucket, weights=qbit, minlength=adv.buckets)
    counts = np.bincount(bucket, minlength=adv.buckets)
    return "".join("1" if 2 * o >= c else "0" for o, c in zip(ones, counts))


def _success_rate(game, adversary, trials, master, adversary_factory=None):
    wins = 0
    for i in range(trials):
        rng = trial_generator(master, i)
        sigma = random_sigma(rng, game.n)
        secret = game.sample_secret(rng)
        adv = adversary_factory(i) if adversary_factory else adversary
        wins += play_game(game, adv, sigma, secret).success
    return wins / trials


class TestAdviceEncoding:
    @pytest.mark.parametrize("width", [1, 10, 13])
    @pytest.mark.parametrize("count", [0, 1, 9])
    def test_decode_inverts_encode(self, width, count):
        rng = np.random.Generator(np.random.PCG64(100 * width + count))
        values = rng.integers(0, 1 << width, size=count)
        if count > 1:
            values[:2] = 0, (1 << width) - 1  # both extremes
        bits = bits_encode_array(values, width)
        assert bits == "".join(bits_encode(int(v), width) for v in values)
        decoded = bits_decode_array(bits, width)
        assert decoded.dtype == np.int64 and decoded.tolist() == values.tolist()

    @pytest.mark.parametrize("n", [2, 5, 101, 1009])
    def test_bsgs_advice_matches_the_per_entry_encoding(self, n):
        rng = np.random.Generator(np.random.PCG64(n))
        for m in sorted({1, math.isqrt(n - 1) + 1, n}):
            adv = bsgs_adversary(AttackConfig(n=n, t_budget=m, m=m))
            for _ in range(3):
                sigma = random_sigma(rng, n)
                assert adv.preprocess(sigma) == _reference_bsgs_preprocess(adv, sigma)

    @pytest.mark.parametrize("n,t", [(16, 4), (1024, 16), (1024, 64), (4096, 8)])
    def test_daemen_advice_matches_the_per_entry_encoding(self, n, t):
        rng = np.random.Generator(np.random.PCG64(n + t))
        adv = daemen_em_adversary(AttackConfig(n=n, t_budget=t))
        for _ in range(3):
            sigma = random_sigma(rng, n)
            assert adv.preprocess(sigma) == _reference_daemen_preprocess(adv, sigma)

    @pytest.mark.parametrize(
        "attack,knobs,required",
        [
            (bsgs_adversary, dict(n=101, t_budget=11, m=11), 11 * 2 * 7),
            (chain_preprocessing_dlog, dict(n=101, t_budget=8, chains=3), 3 * 2 * 7),
            (daemen_em_adversary, dict(n=1024, t_budget=16, table_budget=64), 64 * 10),
            (sqddh_nonadaptive_adversary, dict(n=127, t_budget=8, buckets=16), 16),
        ],
        ids=["bsgs", "chains", "daemen", "sqddh-majority"],
    )
    def test_s_bits_defaults_to_the_encoded_length(self, attack, knobs, required):
        adv = attack(AttackConfig(**knobs))
        assert adv.s_bits == required
        sigma = random_sigma(np.random.Generator(np.random.PCG64(required)), knobs["n"])
        assert len(adv.preprocess(sigma)) == required
        assert attack(AttackConfig(**knobs, s_bits=required + 1)).s_bits == required + 1
        with pytest.raises(ValidationError, match=f"needs {required} bits"):
            attack(AttackConfig(**knobs, s_bits=required - 1))


class TestBsgs:
    @pytest.mark.parametrize("n", PRIMES_TO_101)
    def test_exhaustive_success_probability_one(self, n):
        game = build_game("DLOG", n)
        m = math.isqrt(n - 1) + 1
        assert m * m >= n
        adv = bsgs_adversary(AttackConfig(n=n, t_budget=m, m=m))
        rng = np.random.Generator(np.random.PCG64(n))
        for _ in range(2):
            sigma = random_sigma(rng, n)
            assert all(play_game(game, adv, sigma, d).success for d in range(1, n + 1))

    def test_exhaustive_success_on_a_lazy_permutation(self):
        # one lazily drawn sigma shared by every secret stays one permutation
        game = build_game("DLOG", 101)
        adv = bsgs_adversary(AttackConfig(n=101, t_budget=11, m=11))
        sigma = LazyPermutation(101, np.random.Generator(np.random.PCG64(101)))
        assert all(play_game(game, adv, sigma, d).success for d in range(1, 102))

    def test_hand_simulated_small_case(self):
        game = build_game("DLOG", 5)
        adv = bsgs_adversary(AttackConfig(n=5, t_budget=3, m=3))
        tr = play_game(game, adv, np.arange(1, 6), 3)
        assert tr.output == 3 and tr.success == 1 and tr.t2 == 3

    def test_single_row_table_covers_one_secret(self):
        game = build_game("DLOG", 5)
        adv = bsgs_adversary(AttackConfig(n=5, t_budget=1, m=1))
        rng = np.random.Generator(np.random.PCG64(2))
        wins = 0
        for _ in range(100):
            sigma = random_sigma(rng, 5)
            wins += sum(play_game(game, adv, sigma, d).success for d in range(1, 6))
        assert wins == 100  # exactly the d = 0 row, one secret out of five

    def test_first_row_match(self):
        # d = j - 0*m for a table row j matches on the first query
        game = build_game("DLOG", 11)
        adv = bsgs_adversary(AttackConfig(n=11, t_budget=4, m=4))
        sigma = random_sigma(np.random.Generator(np.random.PCG64(3)), 11)
        tr = play_game(game, adv, sigma, 2)  # d = 2 < m: covered by i = 0
        assert tr.success == 1

    def test_advice_length_fits_declared_bound(self):
        n, m = 101, 11
        adv = bsgs_adversary(AttackConfig(n=n, t_budget=m, m=m))
        assert adv.s_bits == 2 * m * math.ceil(math.log2(n))
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(20):
            assert len(adv.preprocess(random_sigma(rng, n))) <= adv.s_bits

    def test_table_overflow_rejected(self):
        with pytest.raises(ValidationError):
            bsgs_adversary(AttackConfig(n=101, t_budget=11, m=11, s_bits=100))


class TestPollardRho:
    def test_success_at_101(self):
        game = build_game("DLOG", 101)
        budget = 8 * (math.isqrt(100) + 1)
        rate = _success_rate(
            game,
            None,
            10000,
            master=5,
            adversary_factory=lambda i: pollard_rho_adversary(
                AttackConfig(n=101, t_budget=budget, seed=derive_trial_seed(6, i))
            ),
        )
        assert rate >= 0.5

    def test_small_group_every_secret_solvable(self):
        game = build_game("DLOG", 5)
        solved = {d: 0 for d in range(1, 6)}
        rng = np.random.Generator(np.random.PCG64(7))
        for trial in range(60):
            sigma = random_sigma(rng, 5)
            for d in range(1, 6):
                adv = pollard_rho_adversary(
                    AttackConfig(n=5, t_budget=25, seed=derive_trial_seed(8, trial * 5 + d))
                )
                solved[d] += play_game(game, adv, sigma, d).success
        assert all(v > 0 for v in solved.values())
        assert sum(solved.values()) / 300 > 0.8

    def test_queries_within_budget(self):
        game = build_game("DLOG", 101)
        rng = np.random.Generator(np.random.PCG64(9))
        for i in range(50):
            adv = pollard_rho_adversary(AttackConfig(n=101, t_budget=30, seed=i))
            tr = play_game(game, adv, random_sigma(rng, 101), game.sample_secret(rng))
            assert tr.total_queries <= 30


class TestChainPreprocessing:
    def test_constant_success_on_the_tradeoff_curve(self):
        # chains * length^2 = 32 * 16^2 = 8192 ~ 8 * 1009
        game = build_game("DLOG", 1009)
        adv = chain_preprocessing_dlog(
            AttackConfig(n=1009, t_budget=16, chains=32, chain_length=16, seed=11)
        )
        rate = _success_rate(game, adv, 1000, master=12)
        assert rate >= 0.5

    def test_lazy_permutation_agrees_with_materialised_sigma(self):
        # the same attack on both sigma backends: the Wilson intervals overlap
        game = build_game("DLOG", 1009)
        adv = chain_preprocessing_dlog(
            AttackConfig(n=1009, t_budget=16, chains=32, chain_length=16, seed=11)
        )
        trials = 1000
        intervals = []
        for make_sigma in (random_sigma, lambda rng, n: LazyPermutation(n, rng)):
            wins = 0
            for i in range(trials):
                rng = trial_generator(17, i)
                sigma = make_sigma(rng, 1009)
                wins += play_game(game, adv, sigma, game.sample_secret(rng)).success
            intervals.append(wilson_interval(wins, trials))
        (lo_a, hi_a), (lo_b, hi_b) = intervals
        assert lo_a <= hi_b and lo_b <= hi_a, intervals

    def test_zero_budget_is_a_bare_guess(self):
        game = build_game("DLOG", 101)
        adv = chain_preprocessing_dlog(
            AttackConfig(n=101, t_budget=0, chains=4, chain_length=8, seed=13)
        )
        rate = _success_rate(game, adv, 4000, master=14)
        assert rate == pytest.approx(1 / 101, abs=0.01)

    def test_advice_fits_bound(self):
        adv = chain_preprocessing_dlog(
            AttackConfig(n=1009, t_budget=16, chains=32, chain_length=16)
        )
        assert adv.s_bits == 32 * 2 * 10
        sigma = random_sigma(np.random.Generator(np.random.PCG64(15)), 1009)
        assert len(adv.preprocess(sigma)) <= adv.s_bits

    def test_endpoint_collisions_reported(self):
        adv = chain_preprocessing_dlog(
            AttackConfig(n=101, t_budget=20, chains=20, chain_length=20, seed=1)
        )
        sigma = random_sigma(np.random.Generator(np.random.PCG64(16)), 101)
        adv.preprocess(sigma)
        assert 0 <= adv.last_endpoint_collisions < 20

    def test_merge_count_matches_pairwise_brute_force(self):
        # a chain is merged when any of its exponents lies on an earlier
        # chain, at any offset; the advice is the endpoint table either way
        n, chains, length = 101, 8, 6
        counts = []
        for seed in range(12):
            adv = chain_preprocessing_dlog(
                AttackConfig(n=n, t_budget=length, chains=chains, chain_length=length, seed=seed)
            )
            sigma = random_sigma(np.random.Generator(np.random.PCG64(100 + seed)), n)
            advice = adv.preprocess(sigma)
            paths = []
            for c in range(chains):
                x = mix64(adv.walk_key, 0x5747, c) % n
                path = [x]
                for _ in range(length):
                    x = (x + adv._step_size(int(sigma[(x - 1) % n]))) % n
                    path.append(x)
                paths.append(path)
            merged = sum(
                any(x == y for earlier in paths[:c] for y in earlier for x in paths[c])
                for c in range(chains)
            )
            assert adv.last_endpoint_collisions == merged
            assert advice == "".join(
                bits_encode(int(sigma[(p[-1] - 1) % n]) - 1, adv.width) + bits_encode(p[-1], adv.width)
                for p in paths
            )
            counts.append((merged, chains - len({p[-1] for p in paths})))
        # offset merges are counted: some seed merges chains whose endpoints all differ
        assert any(merged > 0 and same_end == 0 for merged, same_end in counts), counts


    @pytest.mark.parametrize("n,chains,length", [(101, 8, 8), (1009, 32, 16), (1009, 64, 40)])
    def test_batched_walk_matches_the_scalar_reference(self, n, chains, length):
        # all chains in lockstep over batched reads: the same advice and
        # merge count as the scalar walk, seed by seed
        for seed in range(200):
            adv = chain_preprocessing_dlog(
                AttackConfig(n=n, t_budget=length, chains=chains, chain_length=length, seed=seed)
            )
            sigma = random_sigma(trial_generator(300 + chains, seed), n)
            advice = adv.preprocess(sigma)
            assert (advice, adv.last_endpoint_collisions) == _reference_chain_preprocess(adv, sigma)


class TestDaemen:
    def test_planted_keys_recovered_exactly(self):
        game = build_game("EM_KR", 1024)
        adv = daemen_em_adversary(AttackConfig(n=1024, t_budget=64))
        rng = np.random.Generator(np.random.PCG64(16))
        # keys planted so that some queried message lands in the table
        cases = 0
        for _ in range(1000):
            sigma = random_sigma(rng, 1024)
            x = int(rng.integers(0, adv.t1 // 2))
            mm = adv.queries[int(rng.integers(0, len(adv.queries)))] - 1
            k1 = mm ^ x if rng.random() < 0.5 else mm ^ x ^ adv.alpha
            k2 = int(rng.integers(0, 1024))
            tr = play_game(game, adv, sigma, (k1 + 1, k2 + 1))
            cases += tr.success
        assert cases >= 995  # validation can only fail on rare value coincidences

    def test_full_coverage_budget_succeeds(self):
        # t1 * t2 = 64 * 64 = 4n at n = 1024: every k1 is covered
        game = build_game("EM_KR", 1024)
        adv = daemen_em_adversary(AttackConfig(n=1024, t_budget=64, table_budget=64))
        rate = _success_rate(game, adv, 1500, master=17)
        assert rate >= 0.99

    def test_partial_coverage_matches_scale(self):
        game = build_game("EM_KR", 1024)
        adv = daemen_em_adversary(AttackConfig(n=1024, t_budget=16, table_budget=64))
        rate = _success_rate(game, adv, 4000, master=18)
        predicted = adv.t1 * adv.t2 / (4 * 1024)
        assert 0.5 * predicted <= rate <= 1.5 * predicted

    def test_success_monotone_in_query_budget(self):
        game = build_game("EM_KR", 1024)
        rates = []
        for t2 in (8, 16, 32, 64):
            adv = daemen_em_adversary(AttackConfig(n=1024, t_budget=t2, table_budget=64))
            rates.append(_success_rate(game, adv, 2500, master=19))
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_advice_is_t1_log_n_bits(self):
        adv = daemen_em_adversary(AttackConfig(n=1024, t_budget=64, table_budget=64))
        assert adv.s_bits == 64 * 10
        sigma = random_sigma(np.random.Generator(np.random.PCG64(20)), 1024)
        assert len(adv.preprocess(sigma)) == adv.s_bits

    def test_validation(self):
        with pytest.raises(ValidationError):
            daemen_em_adversary(AttackConfig(n=1000, t_budget=16))  # not a power of two
        with pytest.raises(ValidationError):
            daemen_em_adversary(AttackConfig(n=1024, t_budget=10))  # budget not 4k
        with pytest.raises(ValidationError):
            daemen_em_adversary(AttackConfig(n=1024, t_budget=16, table_budget=24))
        with pytest.raises(ValidationError):
            daemen_em_adversary(AttackConfig(n=1024, t_budget=16, alpha=0))
        with pytest.raises(ValidationError):
            daemen_em_adversary(AttackConfig(n=1024, t_budget=16, table_budget=64, alpha=5))


class TestSqddhMajority:
    def test_singleton_buckets_always_agree_on_marked_pairs(self):
        # with one bucket per pair the majority is the pair's own bit
        n = 127
        game = build_game("SQDDH", n)
        adv = sqddh_nonadaptive_adversary(
            AttackConfig(n=n, t_budget=8, buckets=n * 8, seed=21)
        )
        rng = np.random.Generator(np.random.PCG64(22))
        hits = agree = 0
        for i in range(4000):
            sigma = random_sigma(rng, n)
            d1 = int(rng.integers(1, n + 1))
            secret = (d1, 1, 1)  # squared instance
            tr = play_game(game, adv, sigma, secret)
            saw_marked = False
            for j in range(0, len(tr.outer_answers), 2):
                code = int(
                    (tr.outer_answers[j] - 1) * n + (tr.outer_answers[j + 1] - 1)
                )
                if mix64(adv.key_mark, code) % adv.t == 0:
                    saw_marked = True
                    break
            if saw_marked:
                hits += 1
                agree += tr.output  # must answer 1 on a marked squared pair
        assert hits > 200
        assert agree / hits >= 0.98  # singleton-bucket collisions are the only misses

    def test_unmarked_walks_answer_like_a_coin(self):
        n = 127
        game = build_game("SQDDH", n)
        adv = sqddh_nonadaptive_adversary(AttackConfig(n=n, t_budget=8, buckets=8, seed=23))
        rng = np.random.Generator(np.random.PCG64(24))
        outputs = []
        for _ in range(6000):
            sigma = random_sigma(rng, n)
            secret = game.sample_secret(rng)
            tr = play_game(game, adv, sigma, secret)
            marked = any(
                mix64(
                    adv.key_mark,
                    int((tr.outer_answers[j] - 1) * n + (tr.outer_answers[j + 1] - 1)),
                )
                % adv.t
                == 0
                for j in range(0, len(tr.outer_answers), 2)
            )
            if not marked:
                outputs.append(tr.output)
        mean = sum(outputs) / len(outputs)
        assert abs(mean - 0.5) <= 3 * math.sqrt(0.25 / len(outputs))

    def test_advantage_positive_and_increasing(self):
        # Light version of the full-scale sweep: positivity is asserted on
        # the strongest cell; the increase is asserted on trials paired by
        # a shared master seed (common random numbers).
        n = 8191
        game = build_game("SQDDH", n)
        rates = []
        for buckets in (8, 128):
            adv = sqddh_nonadaptive_adversary(
                AttackConfig(n=n, t_budget=16, buckets=buckets, seed=123)
            )
            rates.append(_success_rate(game, adv, 3000, master=25))
        band = 3 * math.sqrt(0.25 / 3000)
        assert rates[1] - 0.5 > band
        assert rates[1] > rates[0] > 0.5

    @pytest.mark.parametrize("buckets", [8, 32, 128])
    def test_advice_matches_the_reference(self, buckets):
        n = 8191
        adv = sqddh_nonadaptive_adversary(AttackConfig(n=n, t_budget=16, buckets=buckets, seed=900))
        for i in range(20):
            sigma = random_sigma(trial_generator(901, i), n)
            assert adv.preprocess(sigma) == _reference_sqddh_preprocess(adv, sigma)

    def test_advice_is_bucket_count_bits(self):
        adv = sqddh_nonadaptive_adversary(AttackConfig(n=127, t_budget=8, buckets=32))
        sigma = random_sigma(np.random.Generator(np.random.PCG64(26)), 127)
        assert len(adv.preprocess(sigma)) == 32 == adv.s_bits


class TestConstantGuess:
    @pytest.mark.parametrize(
        "kind,n,space",
        [("DLOG", 11, 11), ("SQDDH", 11, 2), ("EM_KR", 8, 64), ("EM_KR_SINGLE", 8, 8)],
    )
    def test_rate_matches_answer_space(self, kind, n, space):
        game = build_game(kind, n)
        adv = constant_guess_adversary(game)
        rate = _success_rate(game, adv, 20000, master=27)
        assert abs(rate - 1 / space) <= 4 * math.sqrt((1 / space) * (1 - 1 / space) / 20000)


class TestMiGame:
    def test_single_instance_vacuous(self):
        res = run_mi_game(
            AttackConfig(n=101, t_budget=10, instances=1, guess_count=1), seed=0
        )
        assert res.determined_fraction == 0.0
        assert res.instances == 1

    def test_forced_correct_determination(self):
        good = 0
        for r in range(40):
            res = run_mi_game(
                AttackConfig(n=1009, t_budget=60, forced_correct=True), seed=1000 + r
            )
            assert res.instances == 4 and res.guessed == 2
            good += res.determined_fraction >= 0.95
        assert good >= 36

    def test_forced_correct_runs_are_all_correct_when_determined(self):
        res = run_mi_game(AttackConfig(n=1009, t_budget=60, forced_correct=True), seed=5)
        if res.determined_fraction == 1.0:
            assert res.all_correct == 1

    def test_interval_coverage_statistic(self):
        covs = [
            run_mi_game(
                AttackConfig(n=1009, t_budget=60, forced_correct=True), seed=2000 + r
            ).interval_coverage
            for r in range(40)
        ]
        assert sum(covs) / len(covs) >= 0.95

    def test_unforced_mode_rarely_all_correct(self):
        res = run_mi_game(AttackConfig(n=1009, t_budget=60), seed=3)
        assert res.all_correct in (0, 1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_mi_game(AttackConfig(n=1024, t_budget=10), seed=0)  # not prime
        with pytest.raises(ValidationError):
            run_mi_game(AttackConfig(n=101, t_budget=7), seed=0)  # odd budget
        with pytest.raises(ValidationError):
            run_mi_game(AttackConfig(n=101, t_budget=10), seed=-1)
        with pytest.raises(ValidationError):
            run_mi_game(AttackConfig(n=101, t_budget=10, seed=-1))  # the config's seed

    @pytest.mark.parametrize("guess_count", [-3, 1.5])
    def test_bad_guess_count_rejected(self, guess_count):
        with pytest.raises(ValidationError, match="guess count"):
            run_mi_game(AttackConfig(n=101, t_budget=10, guess_count=guess_count), seed=0)
