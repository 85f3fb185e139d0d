"""In-process span recorder for the traced benchmark run.

Wrappers are installed where each function is looked up (the importing
module's global, or the class attribute) for the timed calls of a traced
round and removed again before its checks. Each span adds its duration to the span that encloses it, so a
span's self time is its duration minus the time covered by its child spans.
Spans are aggregated in memory per (phase, name) as [calls, total_s, self_s]
rather than stored one by one: the udt tune alone opens ~160k ``substream``
spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

from epimon import bfar, cli, individual, sequential, stats, synthetic


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.phase = ""
        self._open: list[float] = []  # child time accumulated by each open span
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Counter = Counter()

    def _close(self, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        child = self._open.pop()
        if self._open:
            self._open[-1] += duration
        rec = self.spans[(self.phase, name)]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child

    @contextlib.contextmanager
    def root(self, phase: str, name: str):
        """A benchmark-side span that also labels everything under it."""
        self.phase = phase
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start)

    def wrap(self, fn, name, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            tracer._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, start)
            if on_call is not None:
                on_call(tracer.counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer boundary for the duration of the block."""
        saved = []
        for owner, attr, name, on_call in _BOUNDARIES:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, on_call))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def total(self, name: str, field: int, phase: str | None = None):
        """Sum one field (0 calls, 1 total_s, 2 self_s) over phases."""
        return sum(
            rec[field]
            for (ph, nm), rec in self.spans.items()
            if nm == name and (phase is None or ph == phase)
        )


def _count_rows(counters, args, result):
    counters["individual.index_rows_drawn"] += result.size


def _count_batch(counters, args, result):
    evaluator, kind, whole_idx, tail_idx, tau = args[:5]
    if kind.name == "mixed":  # its component calls are counted themselves
        return
    rows, K = whole_idx.shape
    if kind.name in ("mean", "udt"):
        per_row = K + 1  # one precomputed scalar per episode
    else:
        per_row = K * evaluator.params.T + int(tau)  # whole rows of floats
    counters["stats.batch_rows"] += rows
    counters["stats.batch_gather_bytes"] += 8 * rows * per_row


def _count_test_point(counters, args, result):
    monitor = args[0]
    if monitor.last_test_point == monitor.t:
        counters["sequential.test_points"] += 1


def _scalar_name(args):
    return "stats.scalar." + args[0].name


def _batch_name(args):
    return "stats.batch." + args[1].name


_BOUNDARIES = (
    *((mod, "substream", "rng.substream", None)
      for mod in (individual, bfar, cli, synthetic)),
    (individual, "resample_indices", "individual.resample_indices", _count_rows),
    (individual.BootstrapStore, "ensure", "individual.store_build", None),
    # The stats global is where a mixed statistic looks up its components.
    (stats, "statistic_value", _scalar_name, None),
    (individual, "statistic_value", _scalar_name, None),
    (sequential, "statistic_value", _scalar_name, None),
    (stats.BatchEvaluator, "values", _batch_name, _count_batch),
    (cli, "bfar_tune", "bfar.tune", None),
    (bfar, "bfar_min_p", "bfar.replay", None),
    (bfar, "h0_stream_indices", "bfar.stream_indices", None),
    (cli, "load_bundle", "bfar.load_bundle", None),
    (bfar, "load_bundle", "bfar.load_bundle", None),
    (sequential.Monitor, "__init__", "sequential.init", None),
    (sequential.Monitor, "step", "sequential.step", _count_test_point),
    (cli, "generate_episodes", "synthetic.generate", None),
    (cli, "load_reference_csv", "episodic.load_csv", None),
    (cli, "estimate_params", "episodic.estimate", None),
)
