"""A machine-speed probe sampled inside the untraced episodes.

On a shared host, other tenants slow this process's code by up to 2x in
stretches of a few seconds, without taking the CPU away from it (process
CPU time stays equal to wall time), so neither CPU time nor the fastest
episode of a run cancels it. While an episode runs, a timer signal every
``INTERVAL_S`` interrupts the benchmark's one thread and runs a fixed piece
of work, ``probe_work``: interpreter-bound small-array code like the
readout's per-step loop, and a small einsum contraction like the conv
layers'. How long it takes tracks how fast the machine runs this kind of
code at that moment.

A timing's value at reference speed is its wall time, less the time the
probe itself took in that interval, times ``NOMINAL_S`` over the mean probe
time of the episode. ``NOMINAL_S`` is the probe's time on an unloaded
2-core Intel Xeon VM, so that values read as seconds on that machine.
The probe is benchmark code and never changes with the program, so a
program that does its work twice as fast halves the value.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02     # timer period; one probe takes about 1 ms
BRACKET = 5           # probes run just before and just after the episode
NOMINAL_S = 1.0e-3    # probe time on an unloaded 2-core Intel Xeon VM

_rng = np.random.default_rng(0)
_A = _rng.random(64)
_B = _rng.random((64, 32))
_X = _rng.random(32)
_XP = (_rng.random((12, 12, 16)) < 0.1).astype(np.float64)
_WK = _rng.random((32, 5, 5, 16))


def probe_work() -> float:
    a, s = _A.copy(), 0.0
    for i in range(200):
        a = a * 0.9 + (_B @ _X) * 0.1
        s += float(a[3]) * 1.0001 + i % 7
    win = np.lib.stride_tricks.sliding_window_view(_XP, (5, 5), axis=(0, 1))
    return s + float(np.einsum("hwckl,oklc->hwo", win, _WK)[0, 0, 0])


class SpeedProbe:
    """Context manager that samples ``probe_work`` while its block runs.
    Only the main thread can use it, as it relies on ``SIGALRM``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._saved = None

    def sample(self, *_):
        t = perf_counter()
        probe_work()
        self.samples.append((t, perf_counter() - t))

    def __enter__(self):
        for _ in range(BRACKET):
            self.sample()
        self._saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        for _ in range(BRACKET):
            self.sample()
        return False

    def mean_s(self) -> float:
        return statistics.fmean(d for _, d in self.samples)

    def at_reference(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end`` without the probes that ran in
        it, scaled to the reference speed."""
        own = sum(d for t, d in self.samples if start <= t < end)
        return (end - start - own) * NOMINAL_S / self.mean_s()
