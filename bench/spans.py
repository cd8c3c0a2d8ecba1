"""In-memory spans around calls into permchal, recorded from the benchmark.

Two ways in:

* ``Tracer.call(name, fn, *args)`` times a call made by the benchmark's
  own code;
* ``Tracer.install()`` swaps wrappers onto the public functions and
  adversary/game methods that permchal calls internally (``play_game``
  inside ``run_trials``, ``preprocess``/``plan``/``decide``/``run`` inside
  ``play_game``, ...). ``uninstall()`` puts the originals back, so an
  untraced pass runs the program's own code objects.

A span's self time is its duration minus the time covered by its traced
children. Worker processes forked from a traced parent record nothing:
the fork hook disables the tracer in the child, and their spans would be
lost with the worker anyway.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from time import perf_counter

ADVERSARY_METHODS = ("preprocess", "plan", "decide", "run")


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    def __init__(self):
        self.enabled = False
        self.durations = defaultdict(list)  # span name -> seconds per call
        self.self_times = defaultdict(list)  # span name -> seconds minus traced children
        self.values = defaultdict(list)  # named observations (queries, advice bits, ...)
        self.counts = defaultdict(int)
        self.spec = None  # ExperimentSpec of the run_trials call in progress
        self._children = []  # child-time accumulator per open span
        self._plan_started = None
        self._targets = []  # (owner, attribute, wrapper factory)
        self._saved = []  # (owner, attribute, original, was_own_attribute)
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    # -- spans -------------------------------------------------------------
    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        acc = [0.0]
        self._children.append(acc)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._children.pop()
            self.durations[name].append(duration)
            self.self_times[name].append(duration - acc[0])
            if self._children:
                self._children[-1][0] += duration

    def observe(self, name, value):
        self.values[name].append(value)

    # -- patching ----------------------------------------------------------
    def wrap_function(self, module, attribute, namer):
        """Trace ``module.attribute``; ``namer(*args)`` names the span."""

        def factory(original):
            def traced(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                return self.call(namer(*args, **kwargs), original, *args, **kwargs)

            return traced

        self._targets.append((module, attribute, factory))

    def wrap_run_trials(self, harness):
        def factory(original):
            def traced(spec, *args, **kwargs):
                if not self.enabled:
                    return original(spec, *args, **kwargs)
                outer, self.spec = self.spec, spec
                try:
                    return self.call("harness.run_trials_ms", original, spec, *args, **kwargs)
                finally:
                    self.spec = outer
                    self.counts["harness.specs"] += 1
                    self.counts["harness.trials"] += spec.trials

            return traced

        self._targets.append((harness, "run_trials", factory))

    def wrap_play_game(self, harness):
        def factory(original):
            def traced(game, adversary, sigma, secret):
                if not self.enabled or self.spec is None:
                    return original(game, adversary, sigma, secret)
                attack = self.spec.attack
                transcript = self.call(
                    f"games.play_game_us.{attack}", original, game, adversary, sigma, secret
                )
                queries = transcript.t1 + transcript.t2
                self.observe(f"attacks.{attack}.queries_per_trial", queries)
                self.observe(f"attacks.{attack}.advice_bits", len(transcript.advice))
                self.observe(f"attacks.{attack}.s_bits", adversary.s_bits)
                self.counts[f"attacks.{attack}.trials"] += 1
                if queries > self.spec.t:
                    self.counts[f"attacks.{attack}.queries_over_budget"] += 1
                return transcript

            return traced

        self._targets.append((harness, "play_game", factory))

    def wrap_adversary_class(self, cls):
        """Time the adversary contract methods the engine calls per trial."""
        for method in ADVERSARY_METHODS:
            if hasattr(cls, method):
                self._targets.append((cls, method, self._adversary_factory(method)))

    def _adversary_factory(self, method):
        def factory(original):
            def traced(adversary, *args):
                if not self.enabled or self.spec is None:
                    return original(adversary, *args)
                attack = self.spec.attack
                if method == "plan":
                    self._plan_started = perf_counter()
                    return self.call(f"attacks.{attack}.plan_us", original, adversary, *args)
                if method == "decide":
                    # non-adaptive online phase: plan plus the engine answering the plan
                    if self._plan_started is not None:
                        self.durations[f"attacks.{attack}.online_us"].append(
                            perf_counter() - self._plan_started
                        )
                        self._plan_started = None
                    return self.call(f"attacks.{attack}.decide_us", original, adversary, *args)
                if method == "run":
                    return self.call(f"attacks.{attack}.online_us", original, adversary, *args)
                advice = self.call(f"attacks.{attack}.preprocess_us", original, adversary, *args)
                merges = getattr(adversary, "last_endpoint_collisions", None)
                if merges is not None:
                    self.observe(f"attacks.{attack}.endpoint_merges", merges)
                return advice

            return traced

        return factory

    def wrap_sample_secret(self, cls, alias):
        self.wrap_function(cls, "sample_secret", lambda *a, **k: f"games.sample_secret_us.{alias}")

    def install(self):
        for owner, attribute, factory in self._targets:
            original = getattr(owner, attribute)
            own = isinstance(owner, type) and attribute in owner.__dict__
            self._saved.append((owner, attribute, original, own or not isinstance(owner, type)))
            setattr(owner, attribute, factory(original))
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        for owner, attribute, original, own in reversed(self._saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)  # inherited method: drop the shadowing wrapper
        self._saved.clear()

    # -- summaries -----------------------------------------------------------
    def median_us(self, name, self_time=False):
        xs = (self.self_times if self_time else self.durations).get(name)
        return statistics.median(xs) * 1e6 if xs else 0.0

    def quantile_s(self, name, q):
        xs = sorted(self.durations.get(name, ()))
        if not xs:
            return 0.0
        return xs[min(len(xs) - 1, int(q * len(xs)))]

    def mean(self, name):
        xs = self.values.get(name)
        return sum(xs) / len(xs) if xs else 0.0
