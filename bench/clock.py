"""Step timing adjusted to the machine's momentary speed.

On a shared 2-core host the speed of a core drifts by up to 2x within
seconds and from one minute to the next, which no amount of repetition
averages out of raw wall times. So every timed step of a pass is
followed by a fixed reference kernel (plain Python and small numpy work,
no permchal code), and the step's wall time is divided by the mean of
the kernel's times measured on either side of it, then scaled by the
kernel's nominal time ``REFERENCE_S``. The result reads as seconds on a
machine where the kernel takes ``REFERENCE_S``, and it moves when
permchal's own code gets faster or slower, not when the neighbours do.
Raw wall times are kept alongside and printed in the run summary.

A workload whose steps keep both cores busy (sweep-grid's process pool)
uses a two-core reference: the kernel runs in this process and, at the
same moment, in one helper process, and the reference time is that of
both. When the other core is taken by someone else, a pool pass slows by
up to 1.6x while the one-core kernel does not move; the two-core kernel
does.
"""

from __future__ import annotations

import multiprocessing
from time import perf_counter

import numpy as np

REFERENCE_S = 0.012  # about the kernel's time on a quiet core of a 2-core Xeon at 2.1 GHz


def reference_kernel() -> int:
    """Fixed work shaped like permchal's: small-object Python, small and mid-size numpy arrays."""
    rng = np.random.Generator(np.random.PCG64(12345))
    acc = 0
    table = {}
    for i in range(3000):
        key = (i, i * 7 % 13, i & 3)
        table[key] = table.get(key[1:], 0) + (acc * 31 + i) % 1000003
        acc = (acc + len(str(i))) % 97
    idx = (np.arange(1009) * 7) % 1009
    for _ in range(40):
        x = rng.permutation(1009) + 1
        y = x[idx]
        acc += int(np.bincount(y % 101, minlength=101).max())
        acc += len(np.unique(x[:200] * y[:200] % 1009))
    cols = rng.integers(0, 13, size=(3, 4394))  # secret-column sized arrays
    for a in range(150):
        acc += int(np.bincount((a * cols[0] + 3 * cols[1] + a * cols[2] + 1) % 13, minlength=13).max())
    return acc


def reference_seconds() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def _helper_loop(conn) -> None:
    try:
        while conn.recv():
            reference_kernel()
            conn.send(True)
    except EOFError:  # the parent has gone
        pass


class TwoCoreReference:
    """Times the reference kernel run in this process and a helper process at once."""

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_helper_loop, args=(child,), daemon=True)
        self._proc.start()
        child.close()

    def __call__(self) -> float:
        start = perf_counter()
        self._conn.send(True)
        reference_kernel()
        self._conn.recv()
        return perf_counter() - start

    def close(self) -> None:
        try:
            self._conn.send(False)
        except OSError:
            pass
        self._conn.close()
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join()


class Clock:
    """Accumulates raw and speed-adjusted seconds over timed steps."""

    def __init__(self, cores: int = 1):
        self._two_core = TwoCoreReference() if cores == 2 else None
        self._reference = self._two_core or reference_seconds
        self._reference()  # first call pays for cold code paths
        self._last_reference = self._reference()
        self.raw = 0.0
        self.adjusted = 0.0

    def close(self) -> None:
        if self._two_core is not None:
            self._two_core.close()

    def step(self, fn, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        elapsed = perf_counter() - start
        reference = self._reference()
        self.raw += elapsed
        self.adjusted += elapsed * REFERENCE_S / ((self._last_reference + reference) / 2)
        self._last_reference = reference
        return result

    def lap(self) -> tuple:
        """(raw, adjusted) seconds since the last lap."""
        lap = (self.raw, self.adjusted)
        self.raw = self.adjusted = 0.0
        return lap
