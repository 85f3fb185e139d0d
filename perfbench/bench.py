"""Closed-loop benchmark rounds over the public entry points of epimon.

One round runs, in one thread, each call only after the previous returns:

* ``epimon estimate`` then ``epimon tune`` through ``epimon.cli.main``;
* set-up, ``SETUP_REPS`` times: ``epimon estimate`` + ``load_bundle`` +
  ``Monitor`` construction on ``tuned.with_threshold(0.0)``, which never
  fires, so the number of test-points is fixed by the plan and the stream;
* the monitor: every stream sample through ``Monitor.step``;
* ``epimon simulate`` over H0 blocks, ``SIMULATE_CALLS`` times.

Correctness checks and digests run after the timed calls of the round.

Times are restated at reference speed by ``speed.SpeedLog``; raw times are
printed alongside. See NOTES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from epimon import bfar, cli, sequential
from epimon.stats import SignalWindow, statistic_value

from spans import Tracer
from speed import SpeedLog
from workloads import Inputs, Workload

KINDS = ("mean", "udt", "pdt", "hotelling", "cusum", "mixed")
SETUP_REPS = 3
SIMULATE_CALLS = 3
CHECKED_TEST_POINTS = 40
# monitor_tp_us_p99 is the median over chunks of at least this many
# test-points (30 beyond each chunk's p99) of the chunk's p99, so that one
# stall of the shared host moves a few chunks, not the metric.
P99_CHUNK = 3000

END_TO_END_UNITS = {
    "setup_s": "s",
    "tune_s": "s",
    "monitor_tp_us_p50": "us",
    "monitor_tp_us_p99": "us",
    "monitor_samples_per_s": "1/s",
    "simulate_blocks_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class RoundFailed(Exception):
    """A CLI call failed, so the rest of the round cannot run."""


@dataclass
class Checks:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


Interval = tuple[int, int]  # perf_counter_ns at start and end


@dataclass
class Round:
    tune: Interval | None = None
    setups: list[Interval] = field(default_factory=list)
    simulates: list[Interval] = field(default_factory=list)
    monitor: Interval | None = None  # the whole stream through Monitor.step
    # perf_counter_ns around each Monitor.step at a test-point, and the
    # thread CPU time the step took
    step_t0: array = field(default_factory=lambda: array("q"))
    step_t1: array = field(default_factory=lambda: array("q"))
    step_cpu: array = field(default_factory=lambda: array("q"))
    digests: dict[str, str] = field(default_factory=dict)
    info: dict[str, float] = field(default_factory=dict)

    def intervals(self) -> list[Interval]:
        return [self.tune, *self.setups, self.monitor, *self.simulates]

    def step_times(self) -> tuple[np.ndarray, np.ndarray]:
        return np.frombuffer(self.step_t0, np.int64), np.frombuffer(self.step_t1, np.int64)

    def test_point_us(self, speed: SpeedLog) -> np.ndarray:
        """Test-point step latencies at reference speed, from CPU time."""
        cpu_ns = np.frombuffer(self.step_cpu, np.int64)
        return speed.ref_cpu_s(*self.step_times(), cpu_ns) * 1e6

    def summary(self, speed: SpeedLog) -> str:
        mid = statistics.median
        return (f"raw: tune_s={speed.raw_s(*self.tune):.4g} "
                f"setup_s={mid(speed.raw_s(*i) for i in self.setups):.4g} "
                f"monitor_tp_us_p50={np.median(speed.raw_s(*self.step_times())) * 1e6:.4g} "
                f"simulate_s={mid(speed.raw_s(*i) for i in self.simulates):.4g} "
                f"speed_factor={mid(speed.factor(*i) for i in self.intervals()):.4g}")


def end_to_end(rounds: list[Round], w: Workload, speed: SpeedLog) -> dict[str, float]:
    """End-to-end metrics at reference speed over the whole run: medians
    over rounds, calls or chunks, p50 over every test-point."""
    mid = statistics.median
    lat_us = [r.test_point_us(speed) for r in rounds]
    chunks = [c for lat in lat_us for c in np.array_split(lat, max(lat.size // P99_CHUNK, 1))]
    samples = (w.h_max + w.monitor_episodes) * w.T
    return {
        "setup_s": mid(speed.ref_s(*i) for r in rounds for i in r.setups),
        "tune_s": mid(speed.ref_s(*r.tune) for r in rounds),
        "monitor_tp_us_p50": float(np.percentile(np.concatenate(lat_us), 50)),
        "monitor_tp_us_p99": mid(float(np.percentile(c, 99)) for c in chunks),
        "monitor_samples_per_s": mid(samples / speed.ref_s(*r.monitor) for r in rounds),
        "simulate_blocks_per_s": mid(
            w.simulate_blocks / speed.ref_s(*i) for r in rounds for i in r.simulates),
        "peak_rss_mb": rounds[0].info["peak_rss_mb"],
    }


def timed(fn):
    """Run ``fn()``; return ((start_ns, end_ns), result)."""
    start = time.perf_counter_ns()
    result = fn()
    return (start, time.perf_counter_ns()), result


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list, checks: Checks, tracer: Tracer | None, phase: str) -> None:
    """Run one CLI command in-process, as a span in a traced round."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    span = tracer.root(phase, "cli." + argv[0]) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        code = cli.main(argv)
    if not checks.check(code == 0, f"epimon {argv[0]} exited {code}: {err.getvalue().strip()}"):
        raise RoundFailed(argv[0])


def run_round(
    w: Workload, inputs: Inputs, work: Path, checks: Checks, tracer: Tracer | None
) -> Round:
    """One round; a traced round has the tracer's wrappers installed for its
    timed calls only, so the checks leave no spans."""
    r = Round()
    params, bundle = work / "params.json", work / "bundle.json"
    store = work / "bundle.json.store.json"
    estimate = [
        "estimate", inputs.csv, "--episode-length", w.T_raw,
        "--downsample", w.downsample, "--out", params,
    ]
    tune = ["tune", inputs.csv, "--params", params, "--plan", inputs.plan, "--out", bundle]
    reports = [work / f"simulate-{i}.json" for i in range(SIMULATE_CALLS)]

    def set_up():
        _cli(estimate, checks, tracer, "setup")
        span = tracer.root("setup", "bench.setup") if tracer else contextlib.nullcontext()
        with span:
            tuned = bfar.load_bundle(bundle)
            return tuned, sequential.Monitor(tuned.with_threshold(0.0))

    with tracer.installed() if tracer else contextlib.nullcontext():
        _cli(estimate, checks, tracer, "estimate")
        r.tune, _ = timed(lambda: _cli(tune, checks, tracer, "tune"))

        for _ in range(SETUP_REPS):
            interval, (tuned, monitor) = timed(set_up)
            r.setups.append(interval)

        p_trace = _monitor(monitor, inputs.stream, r, tracer)

        for i, report in enumerate(reports):
            simulate = ["simulate", "--bundle", bundle, "--scenario", inputs.scenario,
                        "--blocks", w.simulate_blocks, "--seed", inputs.simulate_seed + i,
                        "--out", report]
            interval, _ = timed(lambda: _cli(simulate, checks, tracer, "simulate"))
            r.simulates.append(interval)

    # Peak RSS as the first round leaves it: later rounds repeat the same
    # work, while the timings the benchmark keeps grow with every round.
    r.info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check_outputs(w, inputs, tuned, p_trace, bundle, reports, checks, r)
    for name, paths in (("params", [params]), ("bundle", [bundle]), ("store", [store]),
                        ("simulate_reports", reports)):
        r.digests[name] = _sha256(b"".join(path.read_bytes() for path in paths))
    r.digests["monitor_p_trace"] = _sha256(p_trace.tobytes())
    r.info["store_bytes"] = store.stat().st_size
    r.info["store_entries"] = len(tuned.store.entries)
    return r


def _monitor(monitor, samples: array, r: Round, tracer: Tracer | None) -> array:
    """Step every sample; time the stream and each test-point step.

    Returns the p-values of every test-point, in evaluation order. The
    evaluation objects themselves are dropped, so the benchmark's own memory
    stays small next to the program's.
    """
    step_t0, step_t1, step_cpu, p_trace = r.step_t0, r.step_t1, r.step_cpu, array("d")
    clock, cpu = time.perf_counter_ns, time.thread_time_ns
    span = tracer.root("monitor", "bench.monitor") if tracer else contextlib.nullcontext()
    with span:
        step = monitor.step
        start = clock()
        for x in samples:
            t0, c0 = clock(), cpu()
            step(x)
            c1, t1 = cpu(), clock()
            if monitor.last_test_point == monitor.t:
                step_t0.append(t0)
                step_t1.append(t1)
                step_cpu.append(c1 - c0)
                p_trace.extend([ev.p for ev in monitor.last_evaluations])
        r.monitor = (start, clock())
    return p_trace


def _check_outputs(w, inputs, tuned, p_trace, bundle, reports, checks, r) -> None:
    plan, params = tuned.plan, tuned.params
    data = json.loads(bundle.read_text())
    threshold = float(data["p_threshold"])
    floor = 1.0 / (plan.B_inner + 1)
    checks.check(floor < threshold <= 1.0, f"threshold {threshold} outside ({floor}, 1]")
    min_p = np.asarray(data["min_p_distribution"])
    r.info["threshold"] = threshold
    r.info["floor_share"] = float(np.mean(min_p <= floor * (1 + 1e-9)))
    r.info["floor_headroom"] = threshold * (plan.B_inner + 1)

    for kind in plan.statistics:
        for n in plan.window_lengths(params.T):
            vals = tuned.store.entries.get((kind.spec, n))
            checks.check(
                vals is not None
                and vals.size == plan.B_inner
                and bool(np.all(np.isfinite(vals)))
                and bool(np.all(np.diff(vals) >= 0)),
                f"store entry ({kind.spec}, {n}) missing or malformed",
            )

    test_points = len(r.step_t0)
    per_test_point = len(plan.horizons) * len(plan.statistics)
    counted = checks.check(
        test_points == w.test_points and len(p_trace) == test_points * per_test_point,
        f"{test_points} test-points with {len(p_trace)} p-values, "
        f"expected {w.test_points} with {per_test_point} each",
    )
    T = params.T
    stream = np.asarray(inputs.stream)
    per_episode = T // plan.test_every
    checked = np.linspace(0, test_points - 1, CHECKED_TEST_POINTS).astype(int) if counted else []
    for i in checked:
        k, j = divmod(int(i), per_episode)
        tau = (j + 1) * plan.test_every
        t = (plan.h_max + k) * T + tau
        expected = []
        for h in plan.horizons:
            window = SignalWindow(stream[t - h * T - tau : t], params)
            for kind in plan.statistics:
                dist = tuned.store.entries[(kind.spec, window.n)]
                y = statistic_value(kind, window, tuned.store)
                count = int(np.searchsorted(dist, y, side="right"))
                expected.append((1 + count) / (1 + dist.size))
        got = p_trace[i * per_test_point : (i + 1) * per_test_point].tolist()
        checks.check(got == expected, f"monitor p-values at t={t}: {got} != {expected}")

    detections = 0
    for report in reports:
        rep = json.loads(report.read_text())
        checks.check(rep.get("blocks") == w.simulate_blocks,
                     f"simulate report blocks {rep.get('blocks')} != {w.simulate_blocks}")
        detections += rep["detections"]
    r.info["detection_fraction"] = detections / (w.simulate_blocks * len(reports))


def layer_metrics(
    tracer: Tracer, r: Round, untraced: Round, w: Workload, speed: SpeedLog
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    t, c = tracer.total, tracer.counters
    m: dict[str, tuple[float, str]] = {}
    m["rng.substream_calls"] = (t("rng.substream", 0), "count")
    m["rng.substream_s"] = (t("rng.substream", 1), "s")
    m["individual.resample_indices_calls"] = (t("individual.resample_indices", 0), "count")
    m["individual.resample_indices_s"] = (t("individual.resample_indices", 1), "s")
    rows = c["individual.index_rows_drawn"]
    m["individual.index_rows_drawn"] = (rows, "count")
    m["individual.index_reuse_ratio"] = (w.B_inner * (w.h_max + 1) / rows if rows else 0.0, "ratio")
    m["individual.store_build_s"] = (t("individual.store_build", 1), "s")
    m["individual.store_entries"] = (r.info["store_entries"], "count")
    m["individual.store_bytes"] = (r.info["store_bytes"], "bytes")
    for kind in KINDS:
        m[f"stats.batch_calls.{kind}"] = (t(f"stats.batch.{kind}", 0), "count")
        m[f"stats.batch_self_s.{kind}"] = (t(f"stats.batch.{kind}", 2), "s")
    m["stats.batch_rows"] = (c["stats.batch_rows"], "count")
    m["stats.batch_gather_bytes"] = (c["stats.batch_gather_bytes"], "bytes")
    for kind in KINDS:
        m[f"stats.scalar_calls.{kind}"] = (t(f"stats.scalar.{kind}", 0), "count")
        m[f"stats.scalar_self_s.{kind}"] = (t(f"stats.scalar.{kind}", 2), "s")
    m["bfar.tune_s"] = (t("bfar.tune", 1), "s")
    m["bfar.replay_s"] = (t("bfar.replay", 1), "s")
    m["bfar.stream_indices_calls"] = (t("bfar.stream_indices", 0), "count")
    m["bfar.load_bundle_s"] = (t("bfar.load_bundle", 1), "s")
    m["bfar.floor_share"] = (r.info["floor_share"], "ratio")
    m["bfar.floor_headroom"] = (r.info["floor_headroom"], "ratio")
    m["sequential.step_calls"] = (t("sequential.step", 0), "count")
    m["sequential.test_points"] = (c["sequential.test_points"], "count")
    m["sequential.step_self_s"] = (t("sequential.step", 2), "s")
    m["sequential.monitor_inits"] = (t("sequential.init", 0), "count")
    m["synthetic.generate_calls"] = (t("synthetic.generate", 0), "count")
    m["synthetic.generate_s"] = (t("synthetic.generate", 1), "s")
    m["episodic.load_csv_s"] = (t("episodic.load_csv", 1), "s")
    m["episodic.estimate_s"] = (t("episodic.estimate", 1), "s")
    m["cli.tune_self_s"] = (t("cli.tune", 2), "s")
    m["cli.simulate_self_s"] = (t("cli.simulate", 2), "s")
    wall = [sum(speed.ref_s(*i) for i in rr.intervals()) for rr in (r, untraced)]
    m["trace.overhead_ratio"] = (wall[0] / wall[1], "ratio")
    return m


def tune_breakdown(tracer: Tracer) -> list[tuple[str, float]]:
    """Self time of every span under the ``cli.tune`` root, largest first."""
    rows = [(name, rec[2]) for (phase, name), rec in tracer.spans.items() if phase == "tune"]
    return sorted(rows, key=lambda item: -item[1])

