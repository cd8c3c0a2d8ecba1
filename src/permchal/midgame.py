"""The pinned-permutation hybrid game and its flagged lazy-sampling oracle.

In the hybrid game the adversary pre-pins T1 permutation values
(constraints I -> O), a permutation is sampled uniformly subject to
those pins, and only outer queries are allowed afterwards. The flagged
simulation oracle answers the same outer queries by lazy sampling,
raising W1 when a translated query lands on a pinned input and W2 when
a freshly sampled value collides with a pinned output; conditioned on
the pins it reproduces the hybrid game's answer distribution exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError, nonnegative_int
from .games import GameOracle, GameTranscript, PCGame, _sample_outside
from .seeding import seeded_generator


def _complement(n: int, pinned) -> np.ndarray:
    """Sorted 1-based complement of the pinned set in [n], values in range."""
    free = np.ones(n + 1, dtype=bool)
    free[np.array(pinned, dtype=np.int64)] = False
    return np.flatnonzero(free)[1:]  # 0 is no element of [n]


@dataclass(frozen=True)
class MidConstraints:
    """Pinned values sigma(inputs[j]) = outputs[j], no repeats, equal lengths."""

    inputs: tuple
    outputs: tuple

    def __post_init__(self):
        try:
            inputs, outputs = (tuple(map(operator.index, v)) for v in (self.inputs, self.outputs))
        except TypeError:
            raise ValidationError("MidConstraints: inputs and outputs must be integers") from None
        if len(inputs) != len(outputs):
            raise ValidationError("MidConstraints: inputs and outputs must have equal length")
        if len(set(inputs)) != len(inputs):
            raise ValidationError("MidConstraints: repeated input")
        if len(set(outputs)) != len(outputs):
            raise ValidationError("MidConstraints: repeated output")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    def validate_range(self, n: int) -> None:
        if any(not (1 <= v <= n) for v in self.inputs + self.outputs):
            raise ValidationError("MidConstraints: value out of range [1, n]")


def sample_constrained_permutation(
    n: int, constraints: MidConstraints, rng: np.random.Generator
) -> np.ndarray:
    """Uniform permutation of [n] subject to sigma(I_j) = O_j."""
    n = nonnegative_int(n, "constrained permutation: n")
    constraints.validate_range(n)
    sigma = np.zeros(n, dtype=np.int64)
    sigma[np.array(constraints.inputs, dtype=np.int64) - 1] = constraints.outputs
    sigma[_complement(n, constraints.inputs) - 1] = rng.permutation(_complement(n, constraints.outputs))
    return sigma


def play_mid_game(
    game: PCGame,
    constraints: MidConstraints,
    outer_queries: Sequence,
    decide: Callable[[tuple], object],
    secret,
    rng_seed: int,
) -> GameTranscript:
    """Outer-query-only run against a permutation sampled under the pins.

    ``decide`` maps the tuple of outer answers to the output value; the
    pinned values count as the t1 inner budget of the transcript.
    """
    rng = seeded_generator(rng_seed, "play_mid_game")
    sigma = sample_constrained_permutation(game.n, constraints, rng)
    _, answers = GameOracle(game, sigma, secret, None).answer_plan((), outer_queries)
    output = decide(answers)
    return GameTranscript(
        sigma=sigma,
        secret=secret,
        advice="",
        inner_answers=tuple(constraints.outputs),
        outer_answers=answers,
        output=output,
        success=int(output == game.success_target(secret)),
    )


@dataclass(frozen=True)
class SimulationRun:
    responses: tuple
    w1: int
    w2: int


def mid_simulation_oracle(
    game: PCGame,
    constraints: MidConstraints,
    outer_queries: Sequence,
    secret,
    rng_seed: int,
) -> SimulationRun:
    """Lazy-sampling oracle with collision bookkeeping flags.

    For each outer query, the translated point u is resolved as:

    1. u is a pinned input I_k: answer from O_k and raise W1;
    2. u repeats an earlier translated point: reuse its value;
    3. otherwise sample a fresh value uniformly outside everything used
       so far; if it collides with a pinned output, raise W2 and resample
       uniformly outside the pinned outputs and the used values.

    Responses are post-processed with the secret as in the real game.
    """
    constraints.validate_range(game.n)
    rng = seeded_generator(rng_seed, "mid_simulation_oracle")
    pin = {i: o for i, o in zip(constraints.inputs, constraints.outputs)}
    pinned_out = set(constraints.outputs)
    value_of: dict = {}
    used_set: set = set()
    w1 = 0
    w2 = 0
    responses = []
    for m in outer_queries:
        u = game.translate(secret, m)
        if u in pin:
            v = pin[u]
            w1 = 1
        elif u in value_of:
            v = value_of[u]
        else:
            v = _sample_outside(game.n, used_set, rng)
            if v in pinned_out:
                w2 = 1
                v = _sample_outside(game.n, pinned_out | used_set, rng)
            value_of[u] = v
            used_set.add(v)
        responses.append(game.post_process(secret, v))
    return SimulationRun(tuple(responses), w1, w2)

