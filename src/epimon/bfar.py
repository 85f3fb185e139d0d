"""BFAR: bootstrap calibration of the sequential test's p-value threshold.

A sequential monitor runs a battery of individual tests (one per statistic
and lookback horizon) at every test-point and fires when any p-value drops
below a single threshold. To make the family-wise false-alarm rate equal
alpha0 per h_tilde episodes, whole sequential runs are simulated under the
null model: each outer repetition resamples h_max + h_tilde episodes from the
reference data, replays every test-point after the warm-up prefix, and
records the minimal p-value seen. The alpha0-quantile of those minima is the
threshold.

Every replay shares two steps. The evaluation (:func:`_base_values`)
takes each base statistic (a plan statistic or a mixed one's component,
each once) at every window of a chunk of runs, as one
:meth:`BatchEvaluator.offset_values` call over all H horizons and F test
offsets, shaped (H, F, runs, E). That call gathers each run's episode
pieces once and sums every horizon's windows from a sliding view of that
one gather, bitwise as a gather per window would. The reduction
(:func:`_min_pvalues`) takes values of any trailing shape to the minimal
p-value over statistics and horizons, against the store rows of one
table, :meth:`MonitorPlan.store_rows`, resolved once per call before any
evaluation, so a store that lacks a row fails first. Mixed kinds go
through :func:`~epimon.stats.mixed_values`, the one copy of their rule.

:func:`replay_pvalues` reduces whole values: the minimal p-value at every
test-point of the runs. :func:`bfar_min_p` needs only each resampled
run's minimum, so it first takes each base statistic's minimum over the
run's E episodes at every (horizon, offset) and reduces E times fewer
values. That is exact, ties included: a p-value is non-decreasing in the
statistic value, and a mixed value (the minimum of its components'
p-values) is non-decreasing in each component's value, so the smallest
p-value over a run's test-points at one (horizon, offset, statistic) is
the p-value of the run's smallest value.

:func:`detection_steps`, for :func:`far_verify` and ``epimon simulate``,
needs only each generated run's first test-point below the threshold, so
it reduces nothing. It turns each store row into one critical value,
once per call: against a sorted row S of B values, p(y) < threshold
exactly when y < S[c*], c* the largest count whose p-value
(1 + c*) / (1 + B) is below the threshold (:func:`critical_count`). A
mixed kind's row gives a critical p-value q, and each component row its
critical value at threshold q. Each chunk then compares each base
statistic's values with its critical values as the evaluation yields
them, exactly as the p-values would have decided, ties included.

:func:`bfar_min_p` and :func:`detection_steps` replay
:func:`~epimon.stats.runs_per_chunk` runs of E tested episodes at a
time, the chunk of :meth:`BatchEvaluator.offset_values`, so memory stays
flat in the number of runs. The live
:class:`~epimon.sequential.Monitor` computes the same p-values from the
same table, which :func:`load_bundle` also resolves to check the store.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .episodic import (
    EpisodeParams,
    ReferenceDataset,
    check_format_version,
    json_int,
    json_number,
    json_numbers,
    json_object,
    params_from_dict,
    params_to_dict,
    sibling_path,
    write_atomic,
)
from .errors import InvalidDataError, ResolutionError
from .individual import BootstrapStore, empirical_quantile_index
from .rng import substream
from .stats import (
    BatchEvaluator,
    StatisticKind,
    base_statistics,
    bootstrap_pvalues,
    mixed_values,
    parse_statistic,
    pvalue_grid,
    runs_per_chunk,
)

BUNDLE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class MonitorPlan:
    """Everything needed to tune and run a sequential monitor.

    ``test_every`` is the spacing of test-points in (downsampled) steps; the
    test frequency per episode is F = T / test_every and test-points fall at
    within-episode offsets {test_every, 2*test_every, ..., T}. A horizon-h
    test at offset tau spans h whole past episodes plus the tau-step partial
    one, so the full set of window lengths the monitor will ever request is
    {h*T + j*test_every : h in horizons, j in 1..F} -- precomputed at tuning
    time so the monitor is wait-free.
    """

    statistics: tuple[StatisticKind, ...]
    horizons: tuple[int, ...]
    h_tilde: int
    alpha0: float
    B_inner: int
    B_outer: int
    seed: int
    test_every: int = 1

    def __post_init__(self):
        stats = tuple(self.statistics)
        horizons = tuple(int(h) for h in self.horizons)
        object.__setattr__(self, "statistics", stats)
        object.__setattr__(self, "horizons", horizons)
        if not stats:
            raise ValueError("plan requires at least one statistic")
        specs = [kind.spec for kind in stats]
        twice = sorted({spec for spec in specs if specs.count(spec) > 1})
        if twice:
            raise ValueError(f"plan lists statistic {', '.join(twice)} twice")
        if not horizons or any(h < 1 for h in horizons):
            raise ValueError("horizons must be positive integers")
        if list(horizons) != sorted(set(horizons)):
            raise ValueError("horizons must be strictly increasing")
        if not 0.0 < self.alpha0 < 1.0:
            raise ValueError(f"alpha0 must be in (0, 1), got {self.alpha0}")
        if self.h_tilde < 1 or self.B_inner < 1 or self.B_outer < 1:
            raise ValueError("h_tilde, B_inner and B_outer must be positive")
        if self.B_outer > sys.float_info.max:  # alpha0 * B_outer would overflow
            raise ValueError("B_outer must be within float range")
        if self.alpha0 * self.B_outer < 1.0 - 1e-9:
            raise ValueError("alpha0 * B_outer must be at least 1")
        if self.test_every < 1:
            raise ValueError("test_every must be positive")
        # BFAR's stream table and the store's index table hold int64 entries.
        limit, too_big = np.iinfo(np.intp).max // 8, "entries exceed numpy's array size"
        if self.B_outer * (self.h_max + self.h_tilde) > limit:
            raise ValueError(f"plan B_outer x (max(horizons) + h_tilde) {too_big}")
        if self.B_inner * (self.h_max + 1) > limit:
            raise ValueError(f"plan B_inner x (max(horizons) + 1) {too_big}")

    @property
    def h_max(self) -> int:
        return self.horizons[-1]

    def test_offsets(self, T: int) -> range:
        """Within-episode offsets of test-points: every ``test_every`` steps."""
        if T % self.test_every != 0:
            raise ValueError(
                f"test_every={self.test_every} does not divide T={T}"
            )
        return range(self.test_every, T + 1, self.test_every)

    def window_lengths(self, T: int) -> list[int]:
        lengths = {
            h * T + tau for h in self.horizons for tau in self.test_offsets(T)
        }
        return sorted(lengths)

    def store_rows(self, store: BootstrapStore, T: int) -> dict:
        """Sorted store rows of each test, per (horizon, offset): a list of
        (kind, spec, rows, components) in plan order, components being
        :meth:`BootstrapStore.component_rows` (empty for a base statistic).
        A missing entry raises :class:`NotTunedError`."""
        return {
            (h, tau): [
                (kind, kind.spec, store.values_for(kind, h * T + tau),
                 store.component_rows(kind, h * T + tau))
                for kind in self.statistics
            ]
            for h in self.horizons
            for tau in self.test_offsets(T)
        }

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(statistics=[s.spec for s in self.statistics],
                    horizons=list(self.horizons))
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MonitorPlan":
        """Plan from its JSON object; ``test_every`` may be omitted. A value
        that is not a JSON object, any key that is not a field or a missing
        one (:func:`~epimon.episodic.json_object`), ``statistics`` or
        ``horizons`` that is not a JSON list, an integer field (each horizon
        too) that is not a JSON integer, and an ``alpha0`` that is not a
        finite JSON number raise :class:`ValueError` naming the field."""
        required = [f.name for f in fields(cls) if f.default is MISSING]
        json_object(data, "plan", required, known=[f.name for f in fields(cls)])
        for key in ("statistics", "horizons"):
            if not isinstance(data[key], list):
                raise ValueError(f"plan {key} must be a list, got {data[key]!r}")
        return cls(
            statistics=tuple(parse_statistic(s) for s in data["statistics"]),
            horizons=tuple(json_int(h, "plan horizons") for h in data["horizons"]),
            h_tilde=json_int(data["h_tilde"], "plan h_tilde"),
            alpha0=json_number(data["alpha0"], "plan alpha0"),
            B_inner=json_int(data["B_inner"], "plan B_inner"),
            B_outer=json_int(data["B_outer"], "plan B_outer"),
            seed=json_int(data["seed"], "plan seed"),
            test_every=json_int(data.get("test_every", 1), "plan test_every"),
        )


@dataclass(frozen=True)
class TunedMonitor:
    """A calibrated monitor: plan, threshold, shared store, and the
    min-p-value distribution the threshold was cut from (diagnostic)."""

    plan: MonitorPlan
    p_threshold: float
    store: BootstrapStore
    min_p_distribution: np.ndarray

    @property
    def params(self) -> EpisodeParams:
        return self.store.params

    def with_threshold(self, p_threshold: float) -> "TunedMonitor":
        """Copy with a hand-set threshold (for diagnostics/verification)."""
        return replace(self, p_threshold=float(p_threshold))


def h0_stream_indices(plan: MonitorPlan, num_episodes: int) -> np.ndarray:
    """Episode-row indices of every outer repetition's simulated stream:
    (B_outer, h_max + h_tilde), row b for repetition b, drawn row by row
    from the one (plan.seed, "bfar") substream, so the first rows do not
    change when B_outer grows."""
    size = (plan.B_outer, plan.h_max + plan.h_tilde)
    return substream(plan.seed, "bfar").integers(0, num_episodes, size=size)


def replay_pvalues(
    evaluator: BatchEvaluator,
    streams: np.ndarray,
    plan: MonitorPlan,
    store: BootstrapStore,
) -> np.ndarray:
    """Minimal p-value over statistics and horizons at every test-point.

    Row r of ``streams`` holds the evaluator's episode rows of run r: h_max
    warm-up episodes, then E tested ones. Returns (runs, E*F) p-values in
    time order, episode first, then offset: column c is (c + 1) * test_every
    steps after the warm-up, whose episodes the long horizons look back into.
    """
    runs, E = streams.shape[0], streams.shape[1] - plan.h_max
    tests = plan.store_rows(store, evaluator.params.T)
    min_p = _min_pvalues(dict(_base_values(evaluator, streams, plan)), tests)
    return min_p.transpose(1, 2, 0).reshape(runs, E * min_p.shape[0])


def _base_values(evaluator: BatchEvaluator, streams: np.ndarray, plan: MonitorPlan):
    """Each base statistic of the plan (:func:`base_statistics`) with its
    values on every window of the runs ``streams``, one at a time: (spec,
    (H, F, runs, E) values) from :meth:`BatchEvaluator.offset_values`."""
    taus = plan.test_offsets(evaluator.params.T)
    for spec, base in base_statistics(plan.statistics).items():
        yield spec, evaluator.offset_values(base, streams, plan.horizons, taus)


def _min_pvalues(values: dict, tests: dict) -> np.ndarray:
    """Minimal p-value over statistics and horizons, (F, ...), of each base
    statistic's (H, F, ...) values by spec against ``tests``, the plan's
    :meth:`MonitorPlan.store_rows`; mixed kinds through :func:`mixed_values`."""
    shape = next(iter(values.values())).shape
    min_p = np.ones(shape[1:])
    for (i, j), point in zip(np.ndindex(shape[:2]), tests.values()):  # horizon-major
        at = {spec: vals[i, j] for spec, vals in values.items()}
        for _, spec, rows, components in point:
            y = mixed_values(components, at) if components else at[spec]
            np.minimum(min_p[j], bootstrap_pvalues(rows, y), out=min_p[j])
    return min_p


def bfar_min_p(
    ref: ReferenceDataset,
    params: EpisodeParams,
    plan: MonitorPlan,
    store: BootstrapStore,
) -> np.ndarray:
    """Minimal p-value of each simulated sequential run (unsorted, by rep):
    repetition b replays the h_tilde episodes after the warm-up of row b of
    :func:`h0_stream_indices`. The table is drawn once, before any run is
    replayed, and replayed :func:`~epimon.stats.runs_per_chunk` (h_tilde)
    rows at a time.

    The result is ``replay_pvalues(...).min(axis=1)``, bit for bit, but
    each base statistic's values are reduced to the run's minimum over its
    h_tilde episodes, at each (horizon, offset), before the reduction to
    p-values, so h_tilde times fewer values are looked up. This is exact,
    ties included: a p-value is non-decreasing in the statistic value, and
    a mixed value, the minimum of its components' p-values, is
    non-decreasing in each component's value; so the smallest p-value of a
    run's test-points at one (horizon, offset, statistic) is the p-value of
    its smallest value.
    """
    evaluator = BatchEvaluator(ref.episodes, params)
    tests = plan.store_rows(store, params.T)
    streams = h0_stream_indices(plan, ref.num_episodes)
    min_p = np.empty(plan.B_outer)
    chunk = runs_per_chunk(plan.h_tilde)
    for lo in range(0, plan.B_outer, chunk):
        values = _base_values(evaluator, streams[lo : lo + chunk], plan)
        run_min = {spec: vals.min(axis=3) for spec, vals in values}
        min_p[lo : lo + chunk] = _min_pvalues(run_min, tests).min(axis=0)
    return min_p


def bfar_tune(
    ref: ReferenceDataset, params: EpisodeParams, plan: MonitorPlan
) -> TunedMonitor:
    """Calibrate the per-test p-value threshold for family-wise FAR alpha0.

    Raises :class:`ResolutionError` when the threshold lands on the inner
    bootstrap's resolution floor 1/(B_inner+1): such a monitor could never
    reject, so either increase B or reduce significance requirements. Its
    message gives the share of BFAR runs whose minimum sits at the floor
    and the number of tests per h_tilde, h_tilde x F x horizons x
    statistics, which B_inner has to outgrow.
    """
    T = params.T
    if ref.episode_length != T:
        raise ValueError(
            f"reference episode length {ref.episode_length} != params T {T}"
        )
    lengths = plan.window_lengths(T)
    store = BootstrapStore(params, plan.B_inner, plan.seed)
    store.ensure(ref, plan.statistics, lengths)

    min_p = bfar_min_p(ref, params, plan, store)
    distribution = np.sort(min_p)
    distribution.setflags(write=False)
    threshold = float(
        distribution[empirical_quantile_index(plan.alpha0, plan.B_outer) - 1]
    )
    floor = 1.0 / (plan.B_inner + 1)
    if threshold <= floor:
        at_floor = np.count_nonzero(distribution <= floor) / plan.B_outer
        F = len(plan.test_offsets(T))
        H, S = len(plan.horizons), len(plan.statistics)
        raise ResolutionError(
            f"tuned p-value threshold {threshold:.3g} hit the bootstrap "
            f"resolution floor 1/(B_inner+1) = {floor:.3g}; the monitor could "
            f"never reject. {at_floor:.1%} of the {plan.B_outer} BFAR runs "
            f"have their minimal p-value at the floor, over "
            f"{plan.h_tilde * F * H * S} tests per h_tilde (h_tilde "
            f"{plan.h_tilde} x {F} test-points per episode x {H} horizons x "
            f"{S} statistics). Either increase B or reduce significance "
            "requirements."
        )
    return TunedMonitor(
        plan=plan,
        p_threshold=threshold,
        store=store,
        min_p_distribution=distribution,
    )


def detection_steps(tuned: TunedMonitor, runs, episodes_per_run: int) -> np.ndarray:
    """First detection step of each run after its warm-up, 0 if it never
    fires: column c of :func:`replay_pvalues` is step (c + 1) * test_every.
    Each run is (h_max + episodes_per_run) * T finite downsampled samples;
    runs are read and replayed :func:`~epimon.stats.runs_per_chunk`
    (episodes_per_run) at a time.

    No value is looked up: the store rows are resolved into critical
    values once per call (:func:`_critical_values`), and each chunk
    evaluates one base statistic at a time and compares its values with
    them, which fires exactly where :func:`replay_pvalues` falls below
    ``p_threshold``.
    """
    plan, params = tuned.plan, tuned.params
    critical = _critical_values(plan, tuned.store, params.T, tuned.p_threshold)
    F = len(plan.test_offsets(params.T))
    length = plan.h_max + episodes_per_run
    n = length * params.T
    chunk = runs_per_chunk(episodes_per_run)
    runs = iter(runs)
    steps = np.zeros(0, dtype=int)
    while samples := list(itertools.islice(runs, chunk)):
        block = _stacked_runs(samples, n, steps.size)
        evaluator = BatchEvaluator(block.reshape(-1, params.T), params)
        streams = np.arange(len(samples) * length).reshape(-1, length)
        fired = np.zeros((F, len(samples), episodes_per_run), dtype=bool)
        for spec, vals in _base_values(evaluator, streams, plan):
            fired |= (vals < critical[spec]).any(axis=0)
        below = fired.transpose(1, 2, 0).reshape(len(samples), -1)
        first = (below.argmax(axis=1) + 1) * plan.test_every
        steps = np.concatenate([steps, np.where(below.any(axis=1), first, 0)])
    return steps


def critical_count(B: int, threshold: float) -> int:
    """Largest count c in [-1, B] whose p-value, the
    :func:`~epimon.stats.pvalue_grid` entry at c, is below ``threshold``: a
    value y against a sorted row S of B values has p(y) < threshold exactly
    when #{b : S_b <= y} <= c. No count is below a NaN threshold, as no
    p-value is."""
    return int(np.count_nonzero(pvalue_grid(B) < threshold)) - 1


def _critical_value(rows: np.ndarray, threshold: float) -> float:
    """Critical value of the sorted ``rows`` at ``threshold``: a value's
    p-value against them is below ``threshold`` exactly when the value is
    below S[c], c = :func:`critical_count`; -inf when no value's is
    (c = -1), +inf when every value's is (c = B)."""
    c = critical_count(rows.size, threshold)
    if c < 0:
        return -np.inf
    return np.inf if c == rows.size else float(rows[c])


def _critical_values(
    plan: MonitorPlan, store: BootstrapStore, T: int, threshold: float
) -> dict[str, np.ndarray]:
    """Critical value of each base statistic at every (horizon, offset),
    (H, F, 1, 1) to broadcast against :meth:`BatchEvaluator.offset_values`:
    a test-point fires exactly when some base statistic's value there is
    below its critical value, for finite values, ties included.

    A mixed kind fires when its value, the minimum of its components'
    p-values, is below its own row's critical value q, so when some
    component's p-value is below q: each component takes its critical
    value at threshold q. A base statistic tested more than once (a plan
    statistic and a mixed one's component) fires when its value is below
    any of its critical values, so below their maximum.
    """
    shape = (len(plan.horizons), len(plan.test_offsets(T)))
    critical = {
        spec: np.full(shape, -np.inf) for spec in base_statistics(plan.statistics)
    }
    tests = plan.store_rows(store, T).values()  # horizon-major, as offset_values
    for at, point in zip(np.ndindex(shape), tests):
        for _, spec, rows, components in point:
            q = _critical_value(rows, threshold)
            pairs = [(c, _critical_value(c_rows, q)) for c, c_rows in components]
            for name, value in pairs or [(spec, q)]:
                critical[name][at] = max(critical[name][at], value)
    return {spec: c.reshape(shape + (1, 1)) for spec, c in critical.items()}


def _stacked_runs(runs: list, n: int, first: int) -> np.ndarray:
    """The runs as one (len(runs), n) float array, checked in one pass; on
    a bad chunk, the error names its first run that is not n finite
    samples, counting from ``first``."""
    try:
        block = np.array(runs, dtype=float)
    except ValueError:  # runs of different shapes, or not numbers
        block = None
    if block is None or block.shape != (len(runs), n) or not np.isfinite(block).all():
        for i, run in enumerate(runs):
            run = np.asarray(run, float)
            if run.shape != (n,) or not np.isfinite(run).all():
                raise ValueError(f"stream {first + i} is not {n} finite samples")
    return block


def far_verify(tuned: TunedMonitor, h0_generator, runs: int) -> float:
    """Empirical false-alarm rate of the tuned sequential monitor.

    ``h0_generator(i)`` must return the i-th independent null stream of
    exactly (h_max + h_tilde) * T finite downsampled samples; the fraction
    of runs in which the monitor fires within the h_tilde post-warm-up
    episodes is returned. The runs are replayed by :func:`detection_steps`,
    which compares values with the threshold's critical values and so
    fires exactly where the p-values fall below it.
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    steps = detection_steps(tuned, map(h0_generator, range(runs)), tuned.plan.h_tilde)
    return np.count_nonzero(steps) / runs


# ---------------------------------------------------------------------------
# Bundle file format
# ---------------------------------------------------------------------------


def save_bundle(tuned: TunedMonitor, path) -> None:
    """Write a tuned monitor, each file atomically: the store's rows and index
    (:meth:`BootstrapStore.save`) as ``<path>.store.npy`` and
    ``<path>.store.json``, then the bundle at ``path``, which names them."""
    store_path = os.fspath(path) + ".store.json"
    tuned.store.save(store_path)
    bundle = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "params": params_to_dict(tuned.params),
        "plan": tuned.plan.to_dict(),
        "p_threshold": tuned.p_threshold,
        "min_p_distribution": tuned.min_p_distribution.tolist(),
        "store_file": os.path.basename(store_path),
    }
    text = json.dumps(bundle, sort_keys=True, indent=2, allow_nan=False)
    write_atomic(path, text + "\n")


def load_bundle(path) -> TunedMonitor:
    """Load a tuned monitor; the store file is resolved relative to the bundle.

    Everything the monitor will read is checked here, so a bad bundle fails
    at load with :class:`ValueError` rather than at the first test-point
    that needs it: the bundle, its params and the store must have the
    format versions this code writes, none of the bundle, its params, its
    plan and the store index may have a key their writers do not write,
    ``p_threshold`` must be a number in (0, 1] and ``min_p_distribution``
    a list of B_outer non-decreasing numbers in [1/(B_inner+1), 1]
    (:class:`InvalidDataError` otherwise), ``store_file`` must be a bare
    file name, and the store must have the plan's B_inner and seed. The
    store must also hold every row that the monitor reads
    (:meth:`MonitorPlan.store_rows`): a missing entry raises
    :class:`NotTunedError` naming its spec and length.
    """
    with open(path) as fh:
        data = json.load(fh)
    keys = ("params", "plan", "p_threshold", "min_p_distribution", "store_file")
    known = ("format_version", *keys)  # the keys save_bundle writes
    check_format_version(data, BUNDLE_FORMAT_VERSION, "bundle", keys, known=known)
    params = params_from_dict(data["params"])
    plan = MonitorPlan.from_dict(data["plan"])
    threshold = data["p_threshold"]
    if (
        isinstance(threshold, bool)
        or not isinstance(threshold, (int, float))
        or not 0.0 < threshold <= 1.0  # also false for NaN
    ):
        raise InvalidDataError(
            f"p_threshold must be a finite number in (0, 1], got {threshold!r}"
        )
    store_path = sibling_path(path, data["store_file"], "store_file")
    store = BootstrapStore.load(store_path, params)
    if store.B != plan.B_inner:
        raise ValueError(f"store has B={store.B}, plan has B_inner={plan.B_inner}")
    if store.seed != plan.seed:
        raise ValueError(f"store has seed={store.seed}, plan has seed={plan.seed}")
    plan.store_rows(store, params.T)  # every row the monitor will read
    distribution = _min_p_distribution(data["min_p_distribution"], plan)
    return TunedMonitor(
        plan=plan,
        p_threshold=float(threshold),
        store=store,
        min_p_distribution=distribution,
    )


def _min_p_distribution(values, plan: MonitorPlan) -> np.ndarray:
    """Read-only array of a bundle's ``min_p_distribution``: B_outer sorted
    minimal p-values, each in [1/(B_inner+1), 1]; :class:`InvalidDataError`
    otherwise."""
    distribution = json_numbers(values, "min_p_distribution")
    if distribution.size != plan.B_outer:
        raise InvalidDataError(
            f"min_p_distribution holds {distribution.size} values, "
            f"expected B_outer={plan.B_outer}"
        )
    floor = 1.0 / (plan.B_inner + 1)
    if not np.all((distribution >= floor) & (distribution <= 1.0)):  # also for NaN
        raise InvalidDataError(
            f"min_p_distribution has values outside [1/(B_inner+1), 1] = "
            f"[{floor:.3g}, 1]"
        )
    if np.any(distribution[1:] < distribution[:-1]):
        raise InvalidDataError("min_p_distribution is not sorted")
    distribution.setflags(write=False)
    return distribution
