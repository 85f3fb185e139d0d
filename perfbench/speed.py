"""Core-speed log: times measured on a shared host, restated at reference speed.

On the 2-vCPU host the baselines were taken on, the speed of a core changes
by up to 2x and stays changed for seconds to minutes, each vCPU on its own;
process CPU time moves with wall time. Raw medians of 40-second runs then
spread by 20-40% between runs. So while a run measures, a fixed probe kernel
runs every ``PERIOD_S`` from a SIGALRM handler on the measuring thread
itself: no extra thread or process. The kernel is SHA-256 hashing, numpy
generator construction and a few draws, the mix of interpreter work and
small C calls that dominates epimon's profile, and it calls no epimon code.
A measured interval is restated as

    (wall time - probe time inside it) * REF_PROBE_S / probe

where ``probe`` is the mean probe duration around the interval, smoothed
over ``SMOOTH`` consecutive probes. The probe's own time is taken out of
every interval it interrupts. Short steps are restated from the thread's CPU
time instead of wall time (``ref_cpu_s``).
"""

from __future__ import annotations

import hashlib
import signal
import time

import numpy as np

PERIOD_S = 0.02
SMOOTH = 3
# Probe duration that defines reference speed: about the probe's time on an
# uncontended core of the host the baselines were taken on.
REF_PROBE_S = 0.55e-3


def _kernel() -> int:
    acc = 0
    for i in range(12):
        digest = hashlib.sha256(repr((i, "probe")).encode()).digest()
        words = np.frombuffer(digest, dtype=np.uint32).tolist()
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
        acc += int(gen.integers(0, 1000, size=16).sum())
    return acc


class SpeedLog:
    """Collects probes while active; restates intervals afterwards.

    Times are ``time.perf_counter_ns`` values.
    """

    def __init__(self):
        self._starts: list[int] = []
        self._durations: list[int] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter_ns()
        _kernel()
        self._durations.append(time.perf_counter_ns() - start)
        self._starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self._starts:
            self._on_alarm(None, None)
        # A handler can nest in a stalled one, so sort by start.
        order = np.argsort(np.asarray(self._starts, dtype=np.int64), kind="stable")
        self.starts = np.asarray(self._starts, dtype=np.int64)[order]
        durations = np.asarray(self._durations, dtype=np.int64)[order]
        self._stolen_cum = np.concatenate([[0], np.cumsum(durations)])
        # Centred running median of SMOOTH probes, in seconds.
        half = SMOOTH // 2
        padded = np.pad(durations / 1e9, half, mode="edge")
        self.smoothed = np.median(
            np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)

    def stolen_ns(self, t0, t1):
        """Probe time that started inside [t0, t1); arrays allowed."""
        i0 = np.searchsorted(self.starts, t0)
        i1 = np.searchsorted(self.starts, t1)
        return self._stolen_cum[i1] - self._stolen_cum[i0]

    def factor(self, t0, t1):
        """REF_PROBE_S / mean smoothed probe over [t0, t1], widened to the
        probe just before and just after; arrays allowed."""
        i0 = np.clip(np.searchsorted(self.starts, t0) - 1, 0, self.starts.size - 1)
        i1 = np.clip(np.searchsorted(self.starts, t1), 0, self.starts.size - 1)
        cum = np.concatenate([[0.0], np.cumsum(self.smoothed)])
        mean = (cum[i1 + 1] - cum[i0]) / (i1 + 1 - i0)
        return REF_PROBE_S / mean

    def raw_s(self, t0, t1):
        return (t1 - t0 - self.stolen_ns(t0, t1)) / 1e9

    def ref_s(self, t0, t1):
        return self.raw_s(t0, t1) * self.factor(t0, t1)

    def ref_cpu_s(self, t0, t1, cpu_ns):
        """Like ``ref_s`` for the thread CPU time ``cpu_ns`` spent in
        [t0, t1]: it leaves out stalls in which the host kept the thread off
        its core, which can be longer than a short step itself."""
        return (cpu_ns - self.stolen_ns(t0, t1)) / 1e9 * self.factor(t0, t1)
