import hashlib
import inspect
import json
import math

import numpy as np
import pytest

from permchal import attacks
from permchal.attacks import (
    ATTACKS,
    BsgsAdversary,
    ChainPreprocessingDlog,
    ConstantGuessAdversary,
    DaemenEmAdversary,
    PollardRhoAdversary,
    SqddhMajorityAdversary,
    bits_decode_array,
    bits_encode,
    bits_encode_array,
    run_mi_game,
)
from permchal.errors import ContractViolation, ValidationError
from permchal.games import (
    GAME_ALIASES,
    GameOracle,
    LazyPermutation,
    build_game,
    is_prime,
    play_game,
    random_sigma,
)
from permchal.harness import ExperimentSpec, build_adversary, run_trials, wilson_interval
from permchal.seeding import derive_trial_seed, mix64, mix64_array, trial_generator

PRIMES_TO_101 = [n for n in range(2, 102) if is_prime(n)]


def _chains(n, length, chains, seed=0):
    """The chain attack with ``chains`` endpoints of ``length`` steps: S is
    2 * ceil(log2 n) bits per endpoint and t the chain length."""
    return ChainPreprocessingDlog(
        build_game("DLOG", n), length, s_bits=chains * 2 * (n - 1).bit_length(), seed=seed
    )


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


def _frozen_sqddh_pair_code(n, w1, w2):
    """The pair code as the attack first computed it, in uint64 numpy arithmetic."""
    return (np.asarray(w1, dtype=np.uint64) - 1) * np.uint64(n) + (np.asarray(w2, dtype=np.uint64) - 1)


def _frozen_sqddh_decide(adv, z, outer_answers):
    """The attack's first ``decide``: pair codes from 0-d uint64 arrays."""
    for i in range(0, len(outer_answers), 2):
        code = int(_frozen_sqddh_pair_code(adv.n, outer_answers[i], outer_answers[i + 1]))
        if mix64(adv.key_mark, code) % adv.t == 0:
            bucket = mix64(adv.key_bucket, code) % adv.buckets
            return int(mix64(adv.key_bit, code) & 1 == int(z[bucket]))
    return mix64(adv.key_guess, *outer_answers) & 1


def _reference_sqddh_preprocess(adv, sigma):
    """Majority advice with the gather indices built per call and the
    advice joined bucket by bucket."""
    n = adv.n
    x = np.arange(n, dtype=np.int64)
    code = _frozen_sqddh_pair_code(n, sigma[(x - 1) % n], sigma[((x * x) % n - 1) % n])
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
            adv = BsgsAdversary(build_game("DLOG", n), m)
            for _ in range(3):
                sigma = random_sigma(rng, n)
                assert adv.preprocess(sigma) == _reference_bsgs_preprocess(adv, sigma)

    @pytest.mark.parametrize("n,t", [(16, 4), (1024, 16), (1024, 64), (4096, 8)])
    def test_daemen_advice_matches_the_per_entry_encoding(self, n, t):
        rng = np.random.Generator(np.random.PCG64(n + t))
        adv = DaemenEmAdversary(build_game("EM_KR", n), t)
        for _ in range(3):
            sigma = random_sigma(rng, n)
            assert adv.preprocess(sigma) == _reference_daemen_preprocess(adv, sigma)

    @pytest.mark.parametrize(
        "attack,kind,n,t,s_bits,required,too_small",
        [
            (BsgsAdversary, "DLOG", 101, 11, None, 11 * 2 * 7, (11 * 2 * 7 - 1, "needs 154 bits")),
            (ChainPreprocessingDlog, "DLOG", 101, 8, 3 * 2 * 7, 3 * 2 * 7, (13, "single chain")),
            (DaemenEmAdversary, "EM_KR", 1024, 64, None, 64 * 10, (8 * 10 - 1, "needs 80 bits")),
            (SqddhMajorityAdversary, "SQDDH", 127, 8, None, 8, (0, "bucket count")),
        ],
        ids=["bsgs", "chains", "daemen", "sqddh-majority"],
    )
    def test_s_bits_defaults_to_the_encoded_length(
        self, attack, kind, n, t, s_bits, required, too_small
    ):
        # chains has no default: S sizes its endpoint table, and exactly fits it here
        game = build_game(kind, n)
        adv = attack(game, t, s_bits)
        assert adv.s_bits == required
        sigma = random_sigma(np.random.Generator(np.random.PCG64(required)), n)
        assert len(adv.preprocess(sigma)) == required
        assert attack(game, t, s_bits=required + 1).s_bits == required + 1
        bits, message = too_small  # below the smallest table the encoding allows
        with pytest.raises(ValidationError, match=message):
            attack(game, t, s_bits=bits)

    @pytest.mark.parametrize("attack", [BsgsAdversary, DaemenEmAdversary, SqddhMajorityAdversary])
    def test_a_game_the_attack_does_not_play_is_rejected(self, attack):
        with pytest.raises(ValidationError, match="does not apply"):
            attack(build_game("DDH", 11), 4)


class TestBsgs:
    @pytest.mark.parametrize("n", PRIMES_TO_101)
    def test_exhaustive_success_probability_one(self, n):
        game = build_game("DLOG", n)
        m = math.isqrt(n - 1) + 1
        assert m * m >= n
        adv = BsgsAdversary(game, m)
        rng = np.random.Generator(np.random.PCG64(n))
        for _ in range(2):
            sigma = random_sigma(rng, n)
            assert all(play_game(game, adv, sigma, d).success for d in range(1, n + 1))

    def test_exhaustive_success_on_a_lazy_permutation(self):
        # one lazily drawn sigma shared by every secret stays one permutation
        game = build_game("DLOG", 101)
        adv = BsgsAdversary(game, 11)
        sigma = LazyPermutation(101, np.random.Generator(np.random.PCG64(101)))
        assert all(play_game(game, adv, sigma, d).success for d in range(1, 102))

    def test_hand_simulated_small_case(self):
        game = build_game("DLOG", 5)
        adv = BsgsAdversary(game, 3)
        tr = play_game(game, adv, np.arange(1, 6), 3)
        assert tr.output == 3 and tr.success == 1 and tr.t2 == 3

    def test_single_row_table_covers_one_secret(self):
        game = build_game("DLOG", 5)
        adv = BsgsAdversary(game, 1)
        rng = np.random.Generator(np.random.PCG64(2))
        wins = 0
        for _ in range(100):
            sigma = random_sigma(rng, 5)
            wins += sum(play_game(game, adv, sigma, d).success for d in range(1, 6))
        assert wins == 100  # exactly the d = 0 row, one secret out of five

    def test_first_row_match(self):
        # d = j - 0*m for a table row j matches on the first query
        game = build_game("DLOG", 11)
        adv = BsgsAdversary(game, 4)
        sigma = random_sigma(np.random.Generator(np.random.PCG64(3)), 11)
        tr = play_game(game, adv, sigma, 2)  # d = 2 < m: covered by i = 0
        assert tr.success == 1

    def test_advice_length_fits_declared_bound(self):
        n, m = 101, 11
        adv = BsgsAdversary(build_game("DLOG", n), m)
        assert adv.s_bits == 2 * m * math.ceil(math.log2(n))
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(20):
            assert len(adv.preprocess(random_sigma(rng, n))) <= adv.s_bits

    def test_table_overflow_rejected(self):
        with pytest.raises(ValidationError):
            BsgsAdversary(build_game("DLOG", 101), 11, s_bits=100)


class TestPollardRho:
    def test_success_at_101(self):
        game = build_game("DLOG", 101)
        budget = 8 * (math.isqrt(100) + 1)
        rate = _success_rate(
            game,
            None,
            10000,
            master=5,
            adversary_factory=lambda i: PollardRhoAdversary(
                game, budget, seed=derive_trial_seed(6, i)
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
                adv = PollardRhoAdversary(game, 25, seed=derive_trial_seed(8, trial * 5 + d))
                solved[d] += play_game(game, adv, sigma, d).success
        assert all(v > 0 for v in solved.values())
        assert sum(solved.values()) / 300 > 0.8

    def test_queries_within_budget(self):
        game = build_game("DLOG", 101)
        rng = np.random.Generator(np.random.PCG64(9))
        for i in range(50):
            adv = PollardRhoAdversary(game, 30, seed=i)
            tr = play_game(game, adv, random_sigma(rng, 101), game.sample_secret(rng))
            assert tr.t1 + tr.t2 <= 30


class TestChainPreprocessing:
    def test_constant_success_on_the_tradeoff_curve(self):
        # chains * length^2 = 32 * 16^2 = 8192 ~ 8 * 1009
        game = build_game("DLOG", 1009)
        adv = _chains(1009, 16, 32, seed=11)
        rate = _success_rate(game, adv, 1000, master=12)
        assert rate >= 0.5

    def test_lazy_permutation_agrees_with_materialised_sigma(self):
        # the same attack on both sigma backends: the Wilson intervals overlap
        game = build_game("DLOG", 1009)
        adv = _chains(1009, 16, 32, seed=11)
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

    def test_validation(self):
        game = build_game("DLOG", 101)
        with pytest.raises(ValidationError, match="needs s_bits"):
            ChainPreprocessingDlog(game, 8)
        with pytest.raises(ValidationError, match="chain length"):
            ChainPreprocessingDlog(game, 0, s_bits=4 * 14)  # t is the chain length

    def test_advice_fits_bound(self):
        adv = _chains(1009, 16, 32)
        assert adv.s_bits == 32 * 2 * 10
        sigma = random_sigma(np.random.Generator(np.random.PCG64(15)), 1009)
        assert len(adv.preprocess(sigma)) <= adv.s_bits

    def test_endpoint_collisions_reported(self):
        adv = _chains(101, 20, 20, seed=1)
        sigma = random_sigma(np.random.Generator(np.random.PCG64(16)), 101)
        adv.preprocess(sigma)
        assert 0 <= adv.last_endpoint_collisions < 20

    def test_merge_count_matches_pairwise_brute_force(self):
        # a chain is merged when any of its exponents lies on an earlier
        # chain, at any offset; the advice is the endpoint table either way
        n, chains, length = 101, 8, 6
        counts = []
        for seed in range(12):
            adv = _chains(n, length, chains, seed=seed)
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


    @pytest.mark.filterwarnings("error")  # uint64 array arithmetic wraps silently
    @pytest.mark.parametrize("n,chains,length", [(101, 8, 8), (1009, 32, 16), (1009, 64, 40)])
    def test_batched_walk_matches_the_scalar_reference(self, n, chains, length):
        # all chains in lockstep over batched reads: the same advice and
        # merge count as the scalar walk, seed by seed
        for seed in range(200):
            adv = _chains(n, length, chains, seed=seed)
            sigma = random_sigma(trial_generator(300 + chains, seed), n)
            advice = adv.preprocess(sigma)
            assert (advice, adv.last_endpoint_collisions) == _reference_chain_preprocess(adv, sigma)


class TestDaemen:
    def test_planted_keys_recovered_exactly(self):
        game = build_game("EM_KR", 1024)
        adv = DaemenEmAdversary(game, 64)
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
        adv = DaemenEmAdversary(game, 64, s_bits=64 * 10)
        rate = _success_rate(game, adv, 1500, master=17)
        assert rate >= 0.99

    def test_partial_coverage_matches_scale(self):
        game = build_game("EM_KR", 1024)
        adv = DaemenEmAdversary(game, 16, s_bits=64 * 10)
        rate = _success_rate(game, adv, 4000, master=18)
        predicted = adv.t1 * adv.t2 / (4 * 1024)
        assert 0.5 * predicted <= rate <= 1.5 * predicted

    def test_success_monotone_in_query_budget(self):
        game = build_game("EM_KR", 1024)
        rates = []
        for t2 in (8, 16, 32, 64):
            adv = DaemenEmAdversary(game, t2, s_bits=64 * 10)
            rates.append(_success_rate(game, adv, 2500, master=19))
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_advice_is_t1_log_n_bits(self):
        adv = DaemenEmAdversary(build_game("EM_KR", 1024), 64)
        assert adv.t1 == 64 and adv.s_bits == 64 * 10
        sigma = random_sigma(np.random.Generator(np.random.PCG64(20)), 1024)
        assert len(adv.preprocess(sigma)) == adv.s_bits

    def test_validation(self):
        with pytest.raises(ValidationError):
            DaemenEmAdversary(build_game("EM_KR", 1000), 16)  # not a power of two
        with pytest.raises(ValidationError):
            DaemenEmAdversary(build_game("EM_KR", 1024), 10)  # budget not 4k
        with pytest.raises(ValidationError, match="exceeds the domain"):
            DaemenEmAdversary(build_game("EM_KR", 4), 4)  # no 8-point table fits


class TestSqddhMajority:
    def test_singleton_buckets_always_agree_on_marked_pairs(self):
        # with one bucket per pair the majority is the pair's own bit
        n = 127
        game = build_game("SQDDH", n)
        adv = SqddhMajorityAdversary(game, 8, s_bits=n * 8, seed=21)
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
        adv = SqddhMajorityAdversary(game, 8, s_bits=8, seed=23)
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
            adv = SqddhMajorityAdversary(game, 16, s_bits=buckets, seed=123)
            rates.append(_success_rate(game, adv, 3000, master=25))
        band = 3 * math.sqrt(0.25 / 3000)
        assert rates[1] - 0.5 > band
        assert rates[1] > rates[0] > 0.5

    @pytest.mark.parametrize("buckets", [8, 32, 128])
    def test_advice_matches_the_reference(self, buckets):
        n = 8191
        adv = SqddhMajorityAdversary(build_game("SQDDH", n), 16, s_bits=buckets, seed=900)
        for i in range(20):
            sigma = random_sigma(trial_generator(901, i), n)
            assert adv.preprocess(sigma) == _reference_sqddh_preprocess(adv, sigma)

    @pytest.mark.parametrize("n,t,trials", [(127, 8, 300), (8191, 16, 60)])
    def test_advice_and_output_match_the_frozen_formulas(self, n, t, trials):
        # the int64 pair code and the h // t * t mark against the uint64 originals
        game = build_game("SQDDH", n)
        adv = SqddhMajorityAdversary(game, t, s_bits=32, seed=31)
        marked = 0
        for i in range(trials):
            rng = trial_generator(32, i)
            sigma = random_sigma(rng, n)
            tr = play_game(game, adv, sigma, game.sample_secret(rng))
            assert tr.advice == _reference_sqddh_preprocess(adv, sigma)
            assert tr.output == _frozen_sqddh_decide(adv, tr.advice, tr.outer_answers)
            pairs = zip(tr.outer_answers[::2], tr.outer_answers[1::2])
            marked += any(mix64(adv.key_mark, (a - 1) * n + b - 1) % t == 0 for a, b in pairs)
        assert marked > 0  # some walks reach a marked pair

    def test_advice_is_bucket_count_bits(self):
        adv = SqddhMajorityAdversary(build_game("SQDDH", 127), 8, s_bits=32)
        sigma = random_sigma(np.random.Generator(np.random.PCG64(26)), 127)
        assert len(adv.preprocess(sigma)) == 32 == adv.s_bits


class TestConstantGuess:
    @pytest.mark.parametrize(
        "kind,n,space",
        [("DLOG", 11, 11), ("SQDDH", 11, 2), ("EM_KR", 8, 64), ("EM_KR_SINGLE", 8, 8)],
    )
    def test_rate_matches_answer_space(self, kind, n, space):
        game = build_game(kind, n)
        adv = ConstantGuessAdversary(game, 0)
        rate = _success_rate(game, adv, 20000, master=27)
        assert abs(rate - 1 / space) <= 4 * math.sqrt((1 / space) * (1 - 1 / space) / 20000)


class TestMiGame:
    def test_every_instance_guessed_determines_none(self):
        # 4 ceil(97/100) = 4 instances, ceil(388/100) = 4 of them guessed
        for seed in range(5):
            res = run_mi_game(97, 10, seed)
            assert (res.instances, res.guessed, res.determined) == (4, 4, 0)
            assert res.determined_fraction == 0.0

    def test_sizes_derive_from_n_and_t(self):
        assert list(inspect.signature(run_mi_game).parameters) == ["n", "t", "seed", "forced_correct"]
        for n, t, instances, guessed in [(11, 2, 12, 11), (101, 4, 28, 26), (211, 14, 8, 5), (1009, 60, 4, 2)]:
            res = run_mi_game(n, t, 0)
            assert (res.instances, res.guessed) == (instances, guessed)

    def test_forced_correct_determination(self):
        good = 0
        for r in range(40):
            res = run_mi_game(1009, 60, 1000 + r, forced_correct=True)
            assert res.instances == 4 and res.guessed == 2
            good += res.determined_fraction >= 0.95
        assert good >= 36

    def test_forced_correct_runs_are_all_correct_when_determined(self):
        res = run_mi_game(1009, 60, 5, forced_correct=True)
        if res.determined_fraction == 1.0:
            assert res.all_correct == 1

    def test_interval_coverage_statistic(self):
        covs = [
            run_mi_game(1009, 60, 2000 + r, forced_correct=True).interval_coverage
            for r in range(40)
        ]
        assert sum(covs) / len(covs) >= 0.95

    def test_unforced_mode_rarely_all_correct(self):
        res = run_mi_game(1009, 60, 3)
        assert res.all_correct in (0, 1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_mi_game(1024, 10, 0)  # not prime
        with pytest.raises(ValidationError):
            run_mi_game(101, 7, 0)  # odd budget
        with pytest.raises(ValidationError):
            run_mi_game(101, 10, -1)

    @pytest.mark.parametrize("t", [10.0, "10", None])
    def test_non_integer_budget_rejected(self, t):
        with pytest.raises(ValidationError, match="per-instance budget must be an integer"):
            run_mi_game(101, t, 0)
        with pytest.raises(ValidationError, match="per-instance budget must be an integer"):
            ATTACKS["mi"](build_game("DLOG", 101), t)

    def test_results_pinned(self):
        """The repr of every result over a grid of sizes, seeds and both
        guess modes, against the digest recorded when run_mi_game still
        translated its queries and read sigma itself."""
        grid = [(11, 2), (13, 12), (101, 4), (101, 10), (103, 20), (211, 14), (1009, 2), (1009, 60)]
        rows = [
            repr(run_mi_game(n, t, seed, forced_correct=forced))
            for n, t in grid
            for seed in range(25)
            for forced in (False, True)
        ]
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest == "ca1a5cecb827010cf14f68de65acfc9eef7c69d3889ab9b20af4b115f83c33ca"

    def test_every_instance_is_answered_by_its_own_oracle(self, monkeypatch):
        """Each instance's plan goes through one GameOracle with budget t,
        and sigma is read nowhere else."""
        n, t = 101, 10
        want = run_mi_game(n, t, 3)
        built = []

        class RecordingOracle(GameOracle):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        class UnindexableSigma(np.ndarray):
            def __getitem__(self, key):
                raise AssertionError("sigma read outside GameOracle.answer_plan")

        make_sigma = attacks.random_sigma
        monkeypatch.setattr(attacks, "GameOracle", RecordingOracle)
        monkeypatch.setattr(attacks, "random_sigma", lambda rng, n: make_sigma(rng, n).view(UnindexableSigma))
        assert run_mi_game(n, t, 3) == want
        assert len(built) == want.instances
        for oracle in built:
            assert oracle.remaining == 0 and oracle.inner_log == [] and len(oracle.outer_log) == t
            with pytest.raises(ContractViolation, match="budget"):
                oracle.answer_plan((), [(1, n)])


# (game, attack, n, t, s_bits): the sweep-bulk and sweep-grid benchmark points,
# then two edge points per attack
CONSTRUCTION_POINTS = [
    ("dlog", "bsgs", 101, 5, None), ("dlog", "bsgs", 101, 11, None),
    ("dlog", "bsgs", 1009, 16, None), ("dlog", "bsgs", 1009, 32, None),
    ("dlog", "rho", 101, 32, None), ("dlog", "rho", 1009, 64, None), ("dlog", "rho", 1009, 128, None),
    ("dlog", "chains", 101, 8, 8 * 2 * 7), ("dlog", "chains", 1009, 16, 32 * 2 * 10),
    ("dlog", "guess", 101, 1, None), ("dlog", "guess", 1009, 1, None),
    ("dlog", "mi", 101, 10, None), ("dlog", "mi", 1009, 60, None),
    ("ddh", "guess", 13, 1, None), ("ddh", "guess", 101, 1, None),
    ("sqddh", "guess", 31, 1, None), ("sqddh", "guess", 127, 1, None),
    ("em", "guess", 64, 1, None), ("em", "guess", 256, 1, None),
    ("em1k", "guess", 64, 1, None), ("em1k", "guess", 256, 1, None),
    ("sqddh", "sqddh-majority", 127, 8, 16), ("sqddh", "sqddh-majority", 8191, 16, 128),
    ("em", "daemen", 256, 16, None), ("em", "daemen", 1024, 32, None),
    ("dlog", "bsgs", 2, 1, None), ("dlog", "bsgs", 101, 101, None),
    ("dlog", "rho", 2, 4, None), ("dlog", "rho", 101, 4, None),
    ("dlog", "chains", 3, 1, 4), ("dlog", "chains", 101, 8, 3 * 14 + 13),
    ("em", "daemen", 8, 4, None), ("em", "daemen", 16, 64, 8 * 4 + 3),
    ("sqddh", "sqddh-majority", 3, 2, None), ("sqddh", "sqddh-majority", 5, 2, 1),
    ("ddh", "guess", 2, 0, None),
    ("dlog", "mi", 3, 2, None),
]

# taken on the code that built attacks through AttackConfig and from_spec, then
# re-taken without the points ("em1k", "guess", 2, 0, 5) and ("dlog", "mi", 101,
# 10, 7), each on the code just before a positive S became an error there
CONSTRUCTION_DIGEST = "18308de92f93401b0606f4deba0f1e568d8fc636f829475fee7c7fc3150897f7"


def _construction_record(index, point):
    """What the harness's adversary for one point declares and does on three
    trials: S, the fixed plan, and per trial the advice and transcript."""
    game_alias, attack, n, t, s_bits = point
    spec = ExperimentSpec(game_alias, attack, n, t, trials=3, master_seed=1000 + index, s_bits=s_bits)
    game = build_game(spec.kind, n)
    adversary = build_adversary(spec, game, derive_trial_seed(spec.master_seed, 0))
    record = [point, adversary.s_bits, list(getattr(adversary, "queries", []))]
    if ATTACKS[attack].own_game:
        return record + [run_trials(spec).successes]
    for i in range(3):
        if ATTACKS[attack].reseeded:
            adversary = build_adversary(spec, game, derive_trial_seed(spec.master_seed, i))
        rng = trial_generator(spec.master_seed, i)
        sigma = random_sigma(rng, n)
        tr = play_game(game, adversary, sigma, game.sample_secret(rng))
        record.append([tr.advice, tr.inner_answers, tr.outer_answers, tr.output, tr.success])
    return record


def _construction_digest():
    records = [_construction_record(i, point) for i, point in enumerate(CONSTRUCTION_POINTS)]
    return hashlib.sha256(json.dumps(records, default=int).encode()).hexdigest()


def _balanced_daemen_t1(n, t):
    """The XOR-difference table size when S is not given: t1 * t = 4n where
    it can, rounded down to a power of two >= 8."""
    raw = max(8, min(n, 4 * n // t))
    return 1 << (raw.bit_length() - 1)


class TestConstruction:
    def test_every_attack_builds_as_before(self):
        assert _construction_digest() == CONSTRUCTION_DIGEST

    @pytest.mark.parametrize("game_alias,attack,n,t", [("em1k", "guess", 2, 0), ("dlog", "rho", 101, 4)])
    def test_an_attack_without_advice_rejects_a_positive_s(self, game_alias, attack, n, t):
        game = build_game(GAME_ALIASES[game_alias], n)
        for s_bits in (None, 0):
            assert ATTACKS[attack](game, t, s_bits).s_bits == 0
        for s_bits in (1, 5):
            with pytest.raises(ValidationError, match="reads no advice"):
                ATTACKS[attack](game, t, s_bits)
        spec = ExperimentSpec(game_alias, attack, n, t, trials=3, master_seed=1035, s_bits=5)
        with pytest.raises(ValidationError, match="reads no advice"):
            run_trials(spec)

    def test_daemen_table_is_the_balanced_one_where_s_allows(self):
        # every spec whose S holds the balanced table keeps t1, the stored
        # points and the plan; a smaller S builds the largest table it holds
        kept = shrunk = 0
        for n in (1 << j for j in range(2, 13)):
            game, width = build_game("EM_KR", n), (n - 1).bit_length()
            for t in range(4, 129, 4):
                t1 = _balanced_daemen_t1(n, t)
                half = t1 // 2
                for s_bits in (None, 0, 7 * width, 8 * width - 1, 8 * width,
                               t1 * width - 1, t1 * width, t1 * width + 1, 50_000):
                    if t1 > n or (s_bits is not None and s_bits < 8 * width):
                        with pytest.raises(ValidationError):
                            DaemenEmAdversary(game, t, s_bits)
                        continue
                    adv = DaemenEmAdversary(game, t, s_bits)
                    if s_bits is None or s_bits >= t1 * width:
                        kept += 1
                        bases = [(r * t1) % n for r in range(t // 4)]
                        assert adv.t1 == t1 and adv.alpha == half
                        assert adv.stored == list(range(half)) + [x ^ half for x in range(half)]
                        assert adv.queries == [q + 1 for b in bases
                                               for q in (b, b ^ half, b ^ 1, b ^ half ^ 1)]
                        assert adv.s_bits == (t1 * width if s_bits is None else s_bits)
                    else:
                        shrunk += 1
                        assert adv.t1 * width <= s_bits < 2 * adv.t1 * width
                        assert len(adv.stored) == adv.t1
        assert kept > 1000 and shrunk > 100


# (attack, game kind, n, t, S) of an attack that is built as stated; numpy
# integers pass as well
INTEGER_SIZES = [
    ("bsgs", "DLOG", 11, np.int64(4), np.int64(100)),
    ("rho", "DLOG", 101, np.int64(8), None),
    ("chains", "DLOG", 11, 4, np.int64(100)),
    ("daemen", "EM_KR", 64, 8, None),
    ("sqddh-majority", "SQDDH", 31, 4, np.int64(8)),
    ("guess", "DLOG", 11, np.int64(1), 0),
    ("mi", "DLOG", 101, np.int64(10), None),
]
# the same attacks with a T or an S that is no non-negative integer
BAD_SIZES = [
    ("bsgs", "DLOG", 11, 4, 100.5, "s_bits must be an integer"),
    ("bsgs", "DLOG", 11, 4.0, None, "t must be an integer"),
    ("bsgs", "DLOG", 11, -4, None, "t must be non-negative"),
    ("rho", "DLOG", 101, 8.0, None, "t must be an integer"),
    ("chains", "DLOG", 11, 4, 100.5, "s_bits must be an integer"),
    ("daemen", "EM_KR", 64, "8", None, "t must be an integer"),
    ("sqddh-majority", "SQDDH", 31, 4, 8.5, "s_bits must be an integer"),
    ("guess", "DLOG", 11, "1", None, "t must be an integer"),
    ("guess", "DLOG", 11, 1, 0.0, "s_bits must be an integer"),
    ("mi", "DLOG", 101, 10, 0.0, "s_bits must be an integer"),
]


class TestIntegerSizes:
    @pytest.mark.parametrize("attack,kind,n,t,s_bits", INTEGER_SIZES, ids=[p[0] for p in INTEGER_SIZES])
    def test_integer_sizes_build(self, attack, kind, n, t, s_bits):
        adv = ATTACKS[attack](build_game(kind, n), t, s_bits)
        assert type(adv.s_bits) is int
        if not ATTACKS[attack].own_game:  # mi plays its own game, with no budget of its own
            assert adv.t_budget == t and type(adv.t_budget) is int

    @pytest.mark.parametrize("attack,kind,n,t,s_bits,message", BAD_SIZES,
                             ids=[f"{p[0]}-t={p[3]!r}-s={p[4]!r}" for p in BAD_SIZES])
    def test_other_sizes_are_validation_errors(self, attack, kind, n, t, s_bits, message):
        with pytest.raises(ValidationError, match=f"attack '{attack}': {message}"):
            ATTACKS[attack](build_game(kind, n), t, s_bits)


# (game kind, n, t) of each registered non-adaptive attack
NON_ADAPTIVE_POINTS = {
    "bsgs": ("DLOG", 101, 11),
    "daemen": ("EM_KR", 64, 8),
    "sqddh-majority": ("SQDDH", 31, 6),
    "guess": ("DDH", 11, 3),
}


def test_every_non_adaptive_attack_has_a_transcript_point():
    assert set(NON_ADAPTIVE_POINTS) == {name for name, cls in ATTACKS.items() if not cls.adaptive}


@pytest.mark.parametrize("attack", sorted(NON_ADAPTIVE_POINTS))
def test_transcript_holds_the_answers_decide_received(attack):
    kind, n, t = NON_ADAPTIVE_POINTS[attack]
    game = build_game(kind, n)
    adversary = ATTACKS[attack](game, t)
    received = []

    def decide(z, inner_answers, outer_answers):
        received.append((inner_answers, outer_answers))
        return type(adversary).decide(adversary, z, inner_answers, outer_answers)

    adversary.decide = decide
    for i in range(20):
        rng = trial_generator(37, i)
        tr = play_game(game, adversary, random_sigma(rng, n), game.sample_secret(rng))
        assert received[-1] == (tr.inner_answers, tr.outer_answers)
        assert len(tr.outer_answers) == len(adversary.queries)
    assert len(received) == 20
