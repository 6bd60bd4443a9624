"""Machine-speed calibration.

The reference machine (README.md) is a 2-vCPU virtual machine whose speed
drifts by 15-35 % over minutes as other tenants load the host. The drift
lasts longer than a run, so no longer run or median removes it. A fixed
reference kernel that uses nothing from the program, timed every
SAMPLE_INTERVAL_S during the run in the same process, slows and speeds up
with the machine. Over ten 20 s windows, four program paths (2x2 condition
values, Q=4 condition values, the mfg subcommand, leakage draws) took
0.89x-1.20x of their median time, while their ratio to the kernel's time
stayed within 0.95x-1.05x in 37 of 40 windows (worst 0.88x). Every reported
time is therefore divided by speed() = trimmed mean kernel time / NOMINAL_S,
which reads as seconds at the reference machine's usual speed. A change to
the program moves the program's time and not the kernel's, so it shows in
full.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# kernel time on the reference machine at its usual speed (README.md)
NOMINAL_S = 0.0045
WARMUP_ROUNDS = 40
TIMED_ROUNDS = 150
SAMPLE_INTERVAL_S = 0.1
TRIM = 0.1   # share of samples dropped at each end before averaging


def kernel(rounds: int) -> float:
    """Fixed work of the same kinds the program does: small-array numpy
    reductions, a logarithm, dict and list handling and number formatting."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    cells = []
    for _ in range(rounds):
        a = rng.random((2, 3))
        a /= a.sum()
        p, q = a.sum(axis=1), a.sum(axis=0)
        nz = a > 0
        acc += float(np.sum(a[nz] * np.log2(a[nz] / np.outer(p, q)[nz])))
        row = {"value": acc, "index": len(cells)}
        cells.append(f"{row['index']},{row['value']:.12g}")
    return acc + len(",".join(cells))


def sample() -> tuple:
    """Run the kernel once; returns (start, total duration, timed duration).
    A short untimed warm-up first brings the kernel's own code and data back
    into cache, so the timed part reads the machine's speed rather than how
    much of the cache the program had just used."""
    t0 = time.perf_counter()
    kernel(WARMUP_ROUNDS)
    t1 = time.perf_counter()
    kernel(TIMED_ROUNDS)
    t2 = time.perf_counter()
    return t0, t2 - t0, t2 - t1


def speed(durations) -> float:
    """Machine slowness relative to the reference: 1.0 at the usual speed,
    above 1 when the machine runs slower. A trimmed mean follows the time
    average of a drifting machine but not a sample cut by a preemption."""
    d = np.sort(np.asarray(durations, dtype=float))
    k = int(len(d) * TRIM)
    return float(np.mean(d[k:len(d) - k])) / NOMINAL_S


class Sampler:
    """Times the kernel every SAMPLE_INTERVAL_S from a wall-clock timer
    signal while it runs. The handler runs between bytecodes of the main
    thread, so each sample interrupts the program at a random point; the
    samples (start, duration) let the caller subtract the kernel's time
    from any interval."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _on_timer(self, signum, frame):
        self.samples.append(sample())

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def within(self, t0, t1) -> float:
        """Kernel time spent inside [t0, t1)."""
        return sum(d for s, d, _ in self.samples if t0 <= s < t1)
