"""Online sequential monitor: the live path (``epimon monitor``, library use).
Simulated whole runs are replayed in batches instead:
:func:`epimon.bfar.detection_steps` compares each value with a critical
value of its store row and fires exactly where
:func:`epimon.bfar.replay_pvalues` falls below the threshold. Those p-values
are tested equal to the monitor's at every test-point of generated streams;
both read the store rows of :meth:`epimon.bfar.MonitorPlan.store_rows`. The
replay takes mixed values from :func:`epimon.stats.mixed_values`; the
monitor reads a mixed test's p-value off a count table of its row instead
(below), bit for bit the same.
A stream that repeats reference episodes verbatim, as the BFAR replay's
resampled runs do, can have windows that tie a stored value exactly; there
a live p-value can differ from the replay's by a few ranks, because a value
can differ in its last bit: ``udt`` differences running sums, the monitor
takes ``udt`` and ``pdt`` pieces from one-row matrix products, and
``hotelling``'s quadratic from one H-row product over the monitor's H
horizons, whose rounding can differ from the batch's. ``mean`` and
``cusum`` match exactly on such streams, as a test pins.

The monitor consumes one downsampled sample at a time, aligned so that the
first sample is step 1 of an episode. After a warm-up of h_max episodes it
runs the full battery of (statistic, horizon) individual tests at every
test-point and fires as soon as any p-value drops below the tuned threshold.
Detection is one-shot: further samples raise until :meth:`Monitor.reset`.

A horizon-h test at global step t = k*T + tau evaluates the window of the
last h*T + tau samples (h whole past episodes plus the current partial one),
so detections can happen in the middle of an episode. The monitor evaluates
it with the same per-episode pieces and finish that the bootstrap store and
the BFAR replay use (see :mod:`epimon.stats`): for each statistic family of
the plan but ``udt`` and ``cusum``, mixed components included, it keeps a
ring of the pieces of the last h_max completed episodes. When the first
sample of the next episode arrives it rolls the rings and builds each
family's whole part of the last h episodes for every horizon h, stacked into
one row per horizon: a row family's whole part is a plain sum, the same for
every spec of the family, so ``pdt`` fractions share one. A test-point then
only builds each tail piece once and finishes each statistic over all its
horizons in one :func:`~epimon.stats.finish` call, so its cost grows neither
with h*T nor with a numpy call per horizon; the sorted store rows of every
test are looked up once, at construction (p-values below). ``udt``, set apart
once at construction, keeps a running sum of its episode pieces instead,
which is udt's finish in Python floats: O(1) per horizon, where a numpy
batch would cost more than the whole test; it keeps the last h_max + 1 sums
only, so memory does not grow with the stream. Routing ``udt`` through the
rings was measured and rejected: at test_every 1 the extra whole-part sums
at each episode completion took the benchmark's ``udt_c1`` per-test-point
latency from 7.8 to 9.8 us at p50 and from 13.1 to 22.7 us at p99 (4
alternating pairs against the running sum, 2-vCPU host).

The roll waits for the next episode's first sample, before that sample is
stored, rather than following the test at tau = T, which still sees the
finished episode as its tail. With test_every > 1 the roll's step tests
nothing, so no test-point pays for it; with test_every = 1 it moves to the
tau = 1 test-point, at the same cost. A mixed test makes no lookup in its
own row: its value, the least of its components' p-values against
rows of B values, is the grid value (1 + c) / (1 + B) of the least
component count c. So at construction each mixed test's row becomes a count
table, the B + 1 counts of the row at every grid value, and a test-point
reads the p-value (1 + table[c]) / (1 + B) at c: one lookup per component
row and none for the mixed one. On the benchmark's ``mdt_te4``
workload (mdt, T 40, horizons 3 and 30, test_every 4) the two took the
per-test-point latency from 94.2 to 65.8 us at p99 and from 44.2 to 38.2 us
at p50, and the monitor from 74 500 to 83 600 samples/s (medians of 10
alternating pairs, 2-vCPU host).

A p-value is read with :func:`bisect.bisect_right` over a memoryview of
the sorted store row, a zero-copy, read-only view that the constructor
keeps for each base test and each mixed component: (1 + count) / (1 + B),
the count a Python int. ``bisect_right`` gives the count
``searchsorted(side="right")`` gives for every float: ties, -0.0 and 0.0,
infinities, and NaN (both count the whole row). So every p-value is bit
for bit :func:`~epimon.stats.bootstrap_pvalues`, without a numpy call on a
Python float, a numpy integer result or numpy integers compared by
``min``. Each result is a :class:`TestEvaluation` ``NamedTuple``, several
times cheaper to build than a frozen dataclass. Against ``searchsorted`` and
a dataclass, the two took the per-test-point latency at p50 from 15.1 to
10.4 us on ``sim_small`` and from 9.1 to 7.2 us on ``udt_c1``, at p99 from
24.5 to 16.8 us and from 14.2 to 11.3 us, and the monitor from 57 500 to
78 000 and from 95 300 to 117 300 samples/s; on ``mdt_te4``, whose
test-points are bound by numpy calls in ``finish``, p50 went from 39.3 to
36.4 us (medians of 10 alternating pairs, 2-vCPU host).

Each ``cusum`` spec, set apart at construction too, is carried as a chain of
h_max + 1 drift-prefix states (P_n, min P) in Python floats: entry c covers
the window of c whole episodes plus the current partial one. Every sample
extends each entry by its drift (mu0_i - x) / std_i - k_ref, cusum's episode
piece less the reference value. When the next episode's first sample
arrives the chain shifts by one, before that sample's drift is added: entry
c, now exactly the whole part of c + 1 episodes, moves to c + 1, the oldest
drops out and entry 0 starts empty, so no ring, piece or whole part is
built for cusum. A test-point reads horizon h's value -(P_n - min(0, min P))
off entry h with no numpy call. The values are
bitwise those of :func:`~epimon.stats.whole_part` and
:func:`~epimon.stats.finish`: both run the same IEEE additions in the same
order (cumsum adds one term at a time, and finish continues the whole part's
prefix that way), and the conditional ``0.0 if 0.0 < low else low`` chooses
as ``np.minimum(0.0, low)`` does. The price is h_max + 1 additions per
sample and spec, where the ring path paid a numpy whole part per horizon at
each episode end and about ten numpy calls per test-point. On the
benchmark's ``sim_small`` workload (cusum:0.5 and udt, T 8, horizons 1 and
4) it took the per-test-point latency from 28.9 to 14.0 us at p50 and from
72.9 to 24.9 us at p99, and the monitor from 29 000 to 61 000 samples/s
(medians of 10 alternating pairs, 2-vCPU host).
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bfar import TunedMonitor, _pvalue_grid
from .errors import InvalidDataError, TerminalStateError
from .stats import (
    StatisticKind,
    base_statistics,
    episode_piece,
    finish,
    statistic_value,  # noqa: F401 -- perfbench's tracer patches this global
    whole_part,
)


class TestEvaluation(NamedTuple):
    """One individual test's result at a test-point. A ``NamedTuple``, built
    at every test-point for every test: it unpacks as ``(statistic,
    horizon, p)`` and compares equal to a tuple of the same fields."""

    statistic: StatisticKind
    horizon: int
    p: float


@dataclass(frozen=True)
class DetectionRecord:
    """Where and why the monitor fired.

    ``t`` counts downsampled steps from the start of the stream; ``raw_t`` is
    the same instant in raw (pre-downsampling) steps.
    """

    t: int
    raw_t: int
    episode: int
    offset: int
    horizon: int
    statistic: StatisticKind
    p: float


class Monitor:
    """Streaming sequential degradation test driven by a tuned bundle; raises
    :class:`NotTunedError` if its store lacks an entry the plan tests."""

    def __init__(self, tuned: TunedMonitor):
        self.tuned = tuned
        self.params = tuned.params
        self.plan = plan = tuned.plan
        T = self._T = self.params.T
        self.warmup_steps = plan.h_max * T
        self._test_every = plan.test_every
        self._horizons = plan.horizons
        bases = base_statistics(plan.statistics)
        # udt keeps a running sum and each cusum a chain of drift prefixes;
        # every other base statistic is a ring family.
        self._wants_udt = bases.pop("udt", None) is not None
        cusums = [spec for spec, base in bases.items() if base.name == "cusum"]
        self._cusums = tuple((spec, bases.pop(spec).k_ref) for spec in cusums)
        self._bases = tuple(bases.items())
        # A base of each ring family, for its whole part: a plain sum, the
        # same for every spec of the family (pdt fractions).
        self._families = {base.name: base for base in bases.values()}
        # Sorted store rows of each test per (horizon, offset) as read-only
        # memoryviews for bisect, a mixed test's row as its count table;
        # store_rows checks test_every | T.
        self._tests = {
            point: [(kind, spec, _count_table(rows) if components else memoryview(rows),
                     [(s, memoryview(r)) for s, r in components])
                    for kind, spec, rows, components in tests]
            for point, tests in plan.store_rows(tuned.store, T).items()
        }
        self._denominator = 1.0 + tuned.store.B
        self._mu0 = self.params.mu0.tolist()
        self._step_std = self.params.step_std.tolist()
        self._partial = np.empty(T)
        self.reset()

    def reset(self) -> None:
        """Set the stream state, as at construction: no samples seen, so a
        fresh warm-up is required. Re-arms the monitor after a detection."""
        h_max, T = self.plan.h_max, self._T
        # Pieces of the last h_max completed episodes, oldest first, per
        # family (pdt fractions share one): a number for mean, a row else.
        self._rings = {
            name: np.zeros(h_max if name == "mean" else (h_max, T))
            for name in self._families
        }
        # Whole parts of the last h episodes by family, stacked with one row
        # per horizon h, rebuilt when the episode after them starts.
        self._wholes: dict[str, np.ndarray] = {}
        # Running sums of the udt episode pieces, one per completed episode
        # (the first is 0.0); a test reads back at most h_max episodes, so
        # only the last h_max + 1 sums are kept. They stay absolute sums, so
        # every difference is the same number as with the full history.
        self._udt_cum = deque([0.0], maxlen=h_max + 1)
        # Per cusum spec, h_max + 1 drift-prefix states [last, low]: entry c
        # covers c whole episodes plus the current partial one. An empty
        # entry is [-0.0, inf], the identities of + and min, so its first
        # drift d extends it to exactly [d, d].
        self._chains = {
            spec: [[-0.0, math.inf] for _ in range(h_max + 1)]
            for spec, _ in self._cusums
        }
        self._partial_len = 0
        self.t = 0
        self.fired: DetectionRecord | None = None
        self.last_evaluations: tuple[TestEvaluation, ...] = ()
        self.last_test_point = 0

    def step(self, sample: float) -> DetectionRecord | None:
        """Ingest one downsampled sample; return a record if the monitor fires.
        A sample that is not a finite real number raises
        :class:`InvalidDataError` naming its step: a bool, a string, a
        complex number, None or an array of dimension > 0 included."""
        if self.fired is not None:
            raise TerminalStateError("monitor already fired; reset() to re-arm")
        if type(sample) is not float:
            sample = self._real(sample)
        if not math.isfinite(sample):
            raise InvalidDataError(f"non-finite sample at step {self.t + 1}")
        # The finished episode rolls when the next one's first sample
        # arrives: a test at tau = T still sees it as the tail, and with
        # test_every > 1 the roll lands on a step that tests nothing.
        if self._partial_len == self._T:
            self._complete_episode()

        self.t += 1
        i = self._partial_len
        self._partial[i] = sample
        self._partial_len += 1
        if self._cusums:
            # cusum's episode_piece of this step, then each chain entry's
            # next prefix value and running minimum.
            piece = (self._mu0[i] - sample) / self._step_std[i]
            for spec, k_ref in self._cusums:
                d = piece - k_ref
                for entry in self._chains[spec]:
                    last = entry[0] + d
                    entry[0] = last
                    if last < entry[1]:
                        entry[1] = last

        record = None
        if self.t > self.warmup_steps and self.t % self._test_every == 0:
            record = self._evaluate_test_point()
            self.last_test_point = self.t
            self.fired = record
        return record

    def _real(self, sample) -> float:
        """``sample``, not a Python float, as one, or InvalidDataError."""
        if isinstance(sample, np.ndarray) and sample.ndim == 0:
            sample = sample[()]
        if isinstance(sample, bool) or not isinstance(sample, numbers.Real):
            raise InvalidDataError(
                f"sample at step {self.t + 1} is a {type(sample).__name__}, "
                "not a real number"
            )
        try:
            return float(sample)
        except OverflowError:
            return math.inf  # an int beyond float range: not finite

    def _complete_episode(self) -> None:
        """Roll the rings and rebuild every horizon's whole parts, once per
        family; shift each cusum chain by one episode."""
        params = self.params
        episode = self._partial[np.newaxis]
        for name, ring in self._rings.items():
            ring[:-1] = ring[1:]
            ring[-1] = episode_piece(name, episode, params)[0]
            pieces = ring.T[np.newaxis]  # episode axis last
            base = self._families[name]
            self._wholes[name] = np.concatenate([
                whole_part(base, pieces[..., -h:]) for h in self._horizons
            ])
        if self._wants_udt:
            piece = float(params.full_weights @ self._partial)
            self._udt_cum.append(self._udt_cum[-1] + piece)
        # Entry c now holds c + 1 whole episodes: it moves to c + 1, the
        # oldest drops out and a new episode starts an empty entry 0.
        for chain in self._chains.values():
            chain.pop()
            chain.insert(0, [-0.0, math.inf])
        self._partial_len = 0

    def _evaluate_test_point(self) -> DetectionRecord | None:
        params = self.params
        tau = self._partial_len
        partial = self._partial[:tau]
        tails = {}
        for name in self._rings:
            tails[name] = episode_piece(name, partial[np.newaxis], params)
        # Each ring family's values at every horizon, in horizon order.
        columns = []
        for spec, base in self._bases:
            whole = self._wholes[base.name]
            y = finish(base, params, whole, tails[base.name], self._horizons, tau)
            columns.append((spec, y.tolist()))
        if self._wants_udt:
            udt_tail = float(params.tail_weights(tau) @ partial)
        denominator = self._denominator
        evaluations = []
        best = None
        for i, h in enumerate(self._horizons):
            values = {}
            for spec, column in columns:
                values[spec] = column[i]
            if self._wants_udt:
                values["udt"] = self._udt_cum[-1] - self._udt_cum[-1 - h] + udt_tail
            for spec, _ in self._cusums:
                # finish's -(P_n - min(0, min P)), np.minimum's choice made
                # by the conditional, signed zeros included
                last, low = self._chains[spec][h]
                values[spec] = -(last - (0.0 if 0.0 < low else low))
            for kind, spec, row, components in self._tests[h, tau]:
                if components:
                    # row is the count table, read at the least count
                    c = min([bisect_right(r, values[s]) for s, r in components])
                    p = (1.0 + row.item(c)) / denominator
                else:
                    p = (1.0 + bisect_right(row, values[spec])) / denominator
                evaluation = TestEvaluation(kind, h, p)
                evaluations.append(evaluation)
                if best is None or p < best.p:
                    best = evaluation
        self.last_evaluations = tuple(evaluations)
        if best is not None and best.p < self.tuned.p_threshold:
            k = (self.t - tau) // self._T
            return DetectionRecord(
                t=self.t,
                raw_t=self.t * params.downsample_factor,
                episode=k,
                offset=tau,
                horizon=best.horizon,
                statistic=best.statistic,
                p=best.p,
            )
        return None


def _count_table(rows: np.ndarray) -> np.ndarray:
    """Count table of a mixed test's sorted store row S of B values: entry c
    is #{b : S_b <= (1 + c) / (1 + B)}, c = 0..B. A mixed value, the least
    of its components' p-values against rows of B values, is the grid value
    (1 + c) / (1 + B) of the least component count c, so its p-value is
    (1 + table[c]) / (1 + B), bitwise :func:`~epimon.stats.mixed_values`
    and :func:`bootstrap_pvalues`. A numpy integer array, 8 bytes a count:
    a list of Python ints would cost several times the memory."""
    return rows.searchsorted(_pvalue_grid(rows.size), side="right")
