"""BFAR tuning: threshold calibration, determinism, monotonicity, guard."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import epimon as em
from epimon import bfar, stats
from epimon.bfar import detection_steps
from epimon.errors import NotTunedError, ResolutionError
from epimon.stats import (
    base_statistics,
    bootstrap_pvalues,
    episode_piece,
    finish,
    mixed_values,
    whole_part,
)

from conftest import make_params, make_reference, resealed_store

MEAN = em.StatisticKind.mean()
UDT = em.StatisticKind.udt()


def make_plan(**overrides):
    base = dict(
        statistics=(UDT,),
        horizons=(2, 4),
        h_tilde=4,
        alpha0=0.05,
        B_inner=1000,
        B_outer=200,
        seed=42,
        test_every=1,
    )
    base.update(overrides)
    return em.MonitorPlan(**base)


def test_plan_validation():
    with pytest.raises(ValueError):
        make_plan(horizons=())
    with pytest.raises(ValueError):
        make_plan(horizons=(3, 2))
    with pytest.raises(ValueError):
        make_plan(alpha0=0.0)
    with pytest.raises(ValueError):
        make_plan(alpha0=0.001, B_outer=10)  # alpha0 * B_outer < 1
    with pytest.raises(ValueError):
        make_plan(statistics=())


@pytest.mark.parametrize("key, value", [
    ("horizons", [1.9, 3]), ("h_tilde", True), ("B_inner", 100.5),
    ("B_outer", 200.0), ("seed", 42.7), ("test_every", 1.5),
])
def test_plan_from_dict_rejects_non_integer_fields(key, value):
    # int() would truncate each of these to a plan other than the one written.
    data = make_plan().to_dict()
    assert em.MonitorPlan.from_dict(data) == make_plan()
    data[key] = value
    with pytest.raises(ValueError, match=f"plan {key} must be an integer"):
        em.MonitorPlan.from_dict(data)


@pytest.mark.parametrize("value", ["0.05", True, float("nan"), float("inf"), None])
def test_plan_from_dict_rejects_non_numeric_alpha0(value):
    # float() would read "0.05" as 0.05; NaN fails only the range check.
    data = make_plan().to_dict()
    data["alpha0"] = value
    with pytest.raises(ValueError, match="plan alpha0 must be a finite number"):
        em.MonitorPlan.from_dict(json.loads(json.dumps(data)))


@pytest.mark.parametrize("specs", [
    ["pdt:0.9", "pdt:0.90"], ["udt", "mdt", "UDT"],
    ["mdt", "mixed:mean+hotelling+pdt:0.9"],
])
def test_plan_rejects_a_statistic_listed_twice(specs):
    # Kept, the test would run and count twice per test-point.
    data = {**make_plan().to_dict(), "statistics": specs}
    with pytest.raises(ValueError, match="twice"):
        em.MonitorPlan.from_dict(data)


def test_window_lengths_enumeration():
    plan = make_plan(horizons=(2, 3), test_every=2)
    T = 6
    assert plan.test_offsets(T) == range(2, 7, 2)
    expected = sorted({h * T + tau for h in (2, 3) for tau in (2, 4, 6)})
    assert plan.window_lengths(T) == expected
    with pytest.raises(ValueError):
        plan.window_lengths(7)  # test_every does not divide T


def test_single_test_threshold_close_to_alpha0():
    # One statistic, one horizon, one test-point per run: each repetition's
    # minimal p is a single p-value, sub-uniform under the null, so the
    # alpha0-quantile of the distribution sits near alpha0 itself.
    params = make_params(T=4, seed=21, condition=10)
    ref = make_reference(params, 500, seed=31)
    plan = make_plan(
        statistics=(MEAN,),
        horizons=(2,),
        h_tilde=1,
        test_every=4,  # F = 1
        B_inner=2000,
        B_outer=2000,
        alpha0=0.05,
    )
    tuned = em.bfar_tune(ref, params, plan)
    assert abs(tuned.p_threshold - 0.05) <= 0.02
    assert tuned.min_p_distribution.size == 2000


def test_degenerate_reference_constant_threshold():
    params = make_params(T=3, seed=22)
    ref = em.ReferenceDataset(params.mu0[None, :] + 0.5)
    plan = make_plan(statistics=(MEAN,), horizons=(1,), h_tilde=2,
                     B_inner=50, B_outer=40, alpha0=0.1)
    tuned = em.bfar_tune(ref, params, plan)
    # every resample is identical, so every p-value is the constant 1
    assert tuned.p_threshold == 1.0
    assert np.all(tuned.min_p_distribution == 1.0)


def test_tuning_deterministic():
    params = make_params(T=4, seed=23)
    ref = make_reference(params, 100, seed=33)
    plan = make_plan(B_inner=400, B_outer=60, alpha0=0.1, h_tilde=2)
    a = em.bfar_tune(ref, params, plan)
    b = em.bfar_tune(ref, params, plan)
    assert a.p_threshold == b.p_threshold
    assert np.array_equal(a.min_p_distribution, b.min_p_distribution)
    for key in a.store.entries:
        assert np.array_equal(a.store.entries[key], b.store.entries[key])


def test_threshold_monotone_in_statistics_horizons_and_frequency():
    params = make_params(T=4, seed=24)
    ref = make_reference(params, 150, seed=34)
    kw = dict(B_inner=500, B_outer=100, alpha0=0.1, h_tilde=2, seed=7)
    base = em.bfar_tune(ref, params, make_plan(statistics=(UDT,), horizons=(2,),
                                               test_every=2, **kw))
    more_stats = em.bfar_tune(ref, params, make_plan(statistics=(UDT, MEAN),
                                                     horizons=(2,), test_every=2, **kw))
    more_horizons = em.bfar_tune(ref, params, make_plan(statistics=(UDT,),
                                                        horizons=(2, 3), test_every=2, **kw))
    more_points = em.bfar_tune(ref, params, make_plan(statistics=(UDT,),
                                                      horizons=(2,), test_every=1, **kw))
    assert more_stats.p_threshold <= base.p_threshold
    assert more_horizons.p_threshold <= base.p_threshold
    assert more_points.p_threshold <= base.p_threshold


def test_min_p_distribution_within_bounds():
    params = make_params(T=3, seed=25)
    ref = make_reference(params, 80, seed=35)
    plan = make_plan(B_inner=300, B_outer=50, alpha0=0.1, h_tilde=2, horizons=(1, 2))
    tuned = em.bfar_tune(ref, params, plan)
    floor = 1 / (plan.B_inner + 1)
    assert np.all(tuned.min_p_distribution >= floor)
    assert np.all(tuned.min_p_distribution <= 1.0)
    assert tuned.p_threshold > floor


def _store(ref, params, plan):
    """The bootstrap store that ``bfar_tune`` builds for ``plan``."""
    store = em.BootstrapStore(params, plan.B_inner, plan.seed)
    store.ensure(ref, plan.statistics, plan.window_lengths(params.T))
    return store


def test_resolution_guard_raises():
    # Tiny inner bootstrap + many test-points: the minimal p hits the floor in
    # most repetitions, the threshold lands on 1/(B_inner+1), and tuning must
    # refuse with the remedial message rather than hand back a dead monitor.
    params = make_params(T=4, seed=26)
    ref = make_reference(params, 100, seed=36)
    plan = make_plan(statistics=(UDT,), horizons=(1, 2), h_tilde=4,
                     B_inner=9, B_outer=100, alpha0=0.05)
    with pytest.raises(
        ResolutionError, match="increase B or reduce significance"
    ) as err:
        em.bfar_tune(ref, params, plan)
    # The message says how far below the floor tuning is: the share of runs
    # at the floor, and the h_tilde x F x horizons x statistics tests.
    store = _store(ref, params, plan)
    min_p = em.bfar_min_p(ref, params, plan, store)
    at_floor = np.count_nonzero(min_p == 1 / (plan.B_inner + 1)) / plan.B_outer
    assert 0.05 < at_floor <= 1.0
    message = str(err.value)
    assert f"{at_floor:.1%} of the 100 BFAR runs have their minimal p-value" in message
    assert "over 32 tests per h_tilde (h_tilde 4 x 4 test-points" in message


def test_reference_params_length_mismatch():
    params = make_params(T=4, seed=27)
    ref = make_reference(make_params(T=5, seed=28), 20, seed=37)
    with pytest.raises(ValueError):
        em.bfar_tune(ref, params, make_plan(B_inner=20, B_outer=20))


def test_regression_config_shape_reduced_b():
    # Canonical regression fixture: downsampled T=40, h_tilde=50,
    # horizons {5, 50}, F=40 -- run at sharply reduced sizes.
    params = make_params(T=40, seed=29, condition=100)
    ref = make_reference(params, 60, seed=38)
    # alpha0 kept high and B_inner moderate so the reduced-size run stays
    # above the 1/(B_inner+1) resolution floor despite 4000 tests per rep.
    plan = make_plan(statistics=(UDT,), horizons=(5, 50), h_tilde=50,
                     B_inner=400, B_outer=12, alpha0=0.5, seed=3)
    tuned = em.bfar_tune(ref, params, plan)
    assert len(plan.window_lengths(40)) == 80
    assert tuned.min_p_distribution.size == 12
    again = em.bfar_tune(ref, params, plan)
    assert tuned.p_threshold == again.p_threshold


@pytest.fixture(scope="module")
def mean_monitor():
    """A small tuned mean monitor and its generator of null streams."""
    params = make_params(T=3, seed=30)
    ref = make_reference(params, 60, seed=39)
    plan = make_plan(statistics=(MEAN,), horizons=(1,), h_tilde=2,
                     B_inner=200, B_outer=50, alpha0=0.1)
    tuned = em.bfar_tune(ref, params, plan)

    def gen(i):
        scenario = em.Scenario(params=params, kind="h0", seed=500 + i)
        return em.generate_episodes(scenario, plan.h_max + plan.h_tilde).ravel()

    return tuned, gen


def test_far_verify_forced_thresholds(mean_monitor):
    tuned, gen = mean_monitor
    assert em.far_verify(tuned.with_threshold(0.0), gen, runs=20) == 0.0
    assert em.far_verify(tuned.with_threshold(1.0 + 1e-9), gen, runs=20) == 1.0
    # At the tuned threshold, which is one of the discrete p-values, the
    # batched replay fires on exactly the runs the live monitor fires on.
    fired = 0
    for i in range(300):
        monitor = em.Monitor(tuned)
        fired += any(monitor.step(x) is not None for x in gen(i))
    assert em.far_verify(tuned, gen, runs=300) == fired / 300


def test_far_verify_tuned_within_band():
    # Properly tuned monitor: empirical FAR within a binomial band around
    # alpha0 (the acceptance suite runs the full-size version).
    params = make_params(T=5, seed=31, condition=30)
    ref = make_reference(params, 400, seed=40)
    plan = make_plan(statistics=(UDT,), horizons=(2, 4), h_tilde=4,
                     B_inner=1500, B_outer=400, alpha0=0.05, seed=11)
    tuned = em.bfar_tune(ref, params, plan)

    def gen(i):
        scenario = em.Scenario(params=params, kind="h0", seed=900 + i)
        return em.generate_episodes(scenario, plan.h_max + plan.h_tilde).ravel()

    far = em.far_verify(tuned, gen, runs=200)
    assert 0.01 <= far <= 0.10


def test_far_verify_rejects_streams_of_the_wrong_length(mean_monitor):
    # A longer stream would be tested past the h_tilde stretch and a shorter
    # one would count as "no alarm"; both, and non-finite samples, are errors.
    tuned, gen = mean_monitor
    T = tuned.params.T
    n = (tuned.plan.h_max + tuned.plan.h_tilde) * T
    for bad in (
        lambda i: np.concatenate([gen(i), gen(i)[:T]]),
        lambda i: gen(i)[: n - 1],
        lambda i: gen(i).reshape(-1, T),
        lambda i: np.where(np.arange(n) == 4, np.nan, gen(i)),
    ):
        with pytest.raises(ValueError, match=f"not {n} finite samples"):
            em.far_verify(tuned, bad, runs=3)
    assert 0.0 <= em.far_verify(tuned, gen, runs=3) <= 1.0


def test_detection_steps_names_the_first_bad_stream(mean_monitor, monkeypatch):
    # Each chunk of runs is stacked and checked at once; the error still
    # names the first stream that is not n finite samples, whichever way it
    # is bad, counting across chunks.
    tuned, gen = mean_monitor
    plan = tuned.plan
    n = (plan.h_max + plan.h_tilde) * tuned.params.T
    monkeypatch.setattr(stats, "_BATCH_CHUNK", 100)  # chunks of 50 runs
    chunk = stats.runs_per_chunk(plan.h_tilde)
    assert chunk == 50
    nan, short = np.full(n, np.nan), np.zeros(n - 1)
    good = [gen(i) for i in range(chunk)]
    for runs, bad in (
        ([good[0], nan, short], 1),
        ([good[0], short, nan], 1),
        ([good[0], good[1], nan], 2),
        ([short, short], 0),
        (good + [good[0], nan], chunk + 1),
    ):
        message = f"^stream {bad} is not {n} finite samples$"
        with pytest.raises(ValueError, match=message):
            detection_steps(tuned, runs, plan.h_tilde)


def _first_below(p, threshold, test_every):
    """Each run's first test-point whose p-value is below ``threshold``, as a
    step after the warm-up, 0 if none is: the p-value route of
    :func:`detection_steps`."""
    below = p < threshold
    return np.where(below.any(axis=1), (below.argmax(axis=1) + 1) * test_every, 0)


@pytest.mark.parametrize(
    "specs",
    [("mean",), ("udt",), ("pdt:0.5",), ("hotelling",), ("cusum:0.5",),
     ("mdt",), ("udt", "mixed:mean+udt")],
    ids=",".join,
)
def test_detection_steps_equal_the_first_p_value_below_the_threshold(
    monkeypatch, specs
):
    # Six reference episodes, repeated verbatim in the runs, so the runs'
    # values tie the store's values, some of them exactly at a critical
    # value. Thresholds: the p-values the runs take, each on the grid
    # (1 + c) / (1 + B), one ulp either side of each, the floor, 0, 1,
    # just above 1 and NaN. 45 runs in chunks of 20.
    monkeypatch.setattr(stats, "_BATCH_CHUNK", 60)  # 60 // h_tilde = 20 runs
    params = make_params(T=4, seed=41, condition=10)
    ref = make_reference(params, 6, seed=42)
    plan = make_plan(statistics=tuple(em.parse_statistic(s) for s in specs),
                     horizons=(1, 2), h_tilde=3, B_inner=200, B_outer=20,
                     alpha0=0.1, test_every=2)
    store = _store(ref, params, plan)
    length, T = plan.h_max + plan.h_tilde, params.T
    idx = np.random.default_rng(43).integers(0, ref.num_episodes, size=(45, length))
    runs = ref.episodes[idx].reshape(45, length * T)
    assert stats.runs_per_chunk(plan.h_tilde) == 20
    evaluator = em.BatchEvaluator(runs.reshape(-1, T), params)
    streams = np.arange(45 * length).reshape(45, length)
    p = em.replay_pvalues(evaluator, streams, plan, store)
    taken = np.unique(p)
    on_grid = taken[:: max(1, taken.size // 8)]
    thresholds = [0.0, 1.0 / (plan.B_inner + 1), 1.0, 1.0 + 1e-9, np.nan]
    for t in on_grid:
        thresholds += [t, np.nextafter(t, 0.0), np.nextafter(t, 2.0)]
    values = {
        spec: evaluator.offset_values(base, streams, plan.horizons,
                                      plan.test_offsets(T))
        for spec, base in base_statistics(plan.statistics).items()
    }
    ties, fired = 0, set()
    for t in thresholds:
        tuned = em.TunedMonitor(plan, float(t), store, np.empty(0))
        steps = detection_steps(tuned, list(runs), plan.h_tilde)
        assert np.array_equal(steps, _first_below(p, t, plan.test_every)), t
        fired.add(np.count_nonzero(steps))
        critical = bfar._critical_values(plan, store, T, float(t))
        ties += sum(np.count_nonzero(v == critical[s]) for s, v in values.items())
    assert ties > 0
    assert {0, 45} < fired  # some thresholds fire on some runs only


def test_detection_steps_compare_with_critical_values_resolved_once(monkeypatch):
    # Three chunks; no p-value is looked up and the store rows are
    # resolved once, before the first chunk.
    params = make_params(T=4, seed=43)
    ref = make_reference(params, 40, seed=44)
    plan = make_plan(statistics=(UDT, em.parse_statistic("mixed:mean+udt")),
                     horizons=(1, 2), h_tilde=2, B_inner=200, B_outer=20,
                     alpha0=0.1)
    tuned = em.TunedMonitor(plan, 0.05, _store(ref, params, plan), np.empty(0))

    def refuse(*args, **kwargs):
        raise AssertionError("detection_steps looked up a p-value")

    for name in ("replay_pvalues", "bootstrap_pvalues", "mixed_values"):
        monkeypatch.setattr(bfar, name, refuse)
    monkeypatch.setattr(stats, "bootstrap_pvalues", refuse)
    resolved = []
    store_rows = em.MonitorPlan.store_rows

    def counting(self, *args):
        resolved.append(args)
        return store_rows(self, *args)

    monkeypatch.setattr(em.MonitorPlan, "store_rows", counting)
    runs = ref.episodes[np.arange(50 * 4) % 40].reshape(50, -1)
    steps = detection_steps(tuned, runs, plan.h_tilde)
    assert steps.shape == (50,)
    assert len(resolved) == 1


@pytest.mark.parametrize("specs", [("udt",), ("udt", "mdt", "mixed:mean+udt")])
def test_critical_counts_are_taken_once_per_threshold(monkeypatch, specs):
    # Every store row holds B values, so each distinct threshold, the
    # plan's and each mixed row's critical p-value, has one critical count
    # per call, however many rows share it.
    params = make_params(T=4, seed=43)
    ref = make_reference(params, 40, seed=44)
    plan = make_plan(statistics=tuple(em.parse_statistic(s) for s in specs),
                     horizons=(1, 2), h_tilde=2, B_inner=200, B_outer=20,
                     alpha0=0.1)
    store = _store(ref, params, plan)
    calls = []
    real = bfar.critical_count

    def counting(B, threshold):
        calls.append(threshold)
        return real(B, threshold)

    monkeypatch.setattr(bfar, "critical_count", counting)
    bfar._critical_values(plan, store, params.T, 0.05)
    assert len(calls) == len(set(calls))
    if len(specs) == 1:
        assert calls == [0.05]  # 8 store rows, one threshold


@pytest.mark.parametrize("B", [1, 2, 3, 10, 199, 200, 1000])
def test_critical_count_is_the_largest_count_whose_p_value_is_below(B):
    grid = [(1.0 + c) / (1.0 + B) for c in range(B + 1)]
    thresholds = [-1.0, 0.0, 5e-324, 1.0, 1.0 + 1e-9, np.inf, -np.inf, np.nan]
    for g in grid[:: max(1, B // 40)] + grid[-2:]:
        thresholds += [g, np.nextafter(g, 0.0), np.nextafter(g, 2.0), g * 0.999]
    for t in thresholds:
        want = -1
        for c in range(B + 1):
            if (1.0 + c) / (1.0 + B) < t:
                want = c
        assert bfar.critical_count(B, t) == want, t


@pytest.mark.parametrize("num_episodes", [1, 7, 2**33])
def test_h0_stream_indices_is_one_table_with_a_row_per_repetition(num_episodes):
    plan = make_plan(horizons=(1, 3), h_tilde=4, B_outer=30, alpha0=0.1)
    table = em.h0_stream_indices(plan, num_episodes)
    assert table.shape == (30, 3 + 4)
    assert table.min() >= 0 and table.max() < num_episodes


def test_h0_stream_indices_rows_do_not_depend_on_b_outer():
    # Growing B_outer appends rows: the runs already simulated stay the same.
    plan = make_plan(horizons=(1, 3), h_tilde=4, B_outer=30, alpha0=0.1)
    table = em.h0_stream_indices(plan, 40)
    for B_outer in (10, 29):
        smaller = em.h0_stream_indices(replace(plan, B_outer=B_outer), 40)
        assert np.array_equal(smaller, table[:B_outer]), B_outer
    assert len({tuple(row) for row in table}) == 30


def _replay_min_p(ref, params, plan, store):
    """``replay_pvalues(...).min(axis=1)`` over bfar_min_p's streams, in its
    chunks of ``stats.runs_per_chunk(h_tilde)`` runs."""
    evaluator = em.BatchEvaluator(ref.episodes, params)
    streams = em.h0_stream_indices(plan, ref.num_episodes)
    chunk = stats.runs_per_chunk(plan.h_tilde)
    return np.concatenate([
        em.replay_pvalues(evaluator, streams[lo : lo + chunk], plan, store)
        for lo in range(0, plan.B_outer, chunk)
    ])


@pytest.mark.parametrize(
    "specs",
    [("mean",), ("udt",), ("pdt:0.5",), ("hotelling",), ("cusum:0.5",),
     ("mdt",), ("udt", "mixed:mean+udt")],
    ids=",".join,
)
@pytest.mark.parametrize("h_tilde, B_outer", [(1, 90), (3, 1400)])
def test_bfar_min_p_is_the_minimum_of_every_test_point(specs, h_tilde, B_outer):
    # Six reference episodes: the resampled streams repeat them, so a run's
    # windows tie one another and the store's bootstrap windows. At h_tilde 3
    # the 1400 runs are one chunk of 1365 and one of 35.
    params = make_params(T=4, seed=41, condition=10)
    ref = make_reference(params, 6, seed=42)
    plan = make_plan(statistics=tuple(em.parse_statistic(s) for s in specs),
                     horizons=(1, 2), h_tilde=h_tilde, B_inner=200,
                     B_outer=B_outer, alpha0=0.1, test_every=2)
    assert B_outer % stats.runs_per_chunk(h_tilde) != 0 or h_tilde == 1
    store = _store(ref, params, plan)
    min_p = em.bfar_min_p(ref, params, plan, store)
    every = _replay_min_p(ref, params, plan, store)
    assert every.shape == (B_outer, h_tilde * 2)
    assert np.array_equal(min_p, every.min(axis=1))
    if h_tilde > 1:  # some run's minimum at an offset ties across episodes
        by_offset = every.reshape(B_outer, h_tilde, -1)
        ties = (by_offset == by_offset.min(axis=1, keepdims=True)).sum(axis=1)
        assert np.any(ties > 1)


def test_replay_evaluates_each_base_statistic_once_per_chunk(monkeypatch):
    # udt is a plan statistic and a component of the mixed one: the replay
    # evaluates it once per chunk, for every horizon in the one call, not
    # once for each use or each horizon.
    params = make_params(T=4, seed=43)
    ref = make_reference(params, 40, seed=44)
    plan = make_plan(statistics=(UDT, em.parse_statistic("mixed:mean+udt")),
                     horizons=(1, 2), h_tilde=3, B_inner=200, B_outer=1400,
                     alpha0=0.1)
    store = _store(ref, params, plan)
    calls = []
    offset_values = em.BatchEvaluator.offset_values

    def counting(self, kind, streams, horizons, *args, **kwargs):
        calls.append((kind.spec, tuple(horizons)))
        return offset_values(self, kind, streams, horizons, *args, **kwargs)

    monkeypatch.setattr(em.BatchEvaluator, "offset_values", counting)
    em.bfar_min_p(ref, params, plan, store)
    chunks = -(-plan.B_outer // stats.runs_per_chunk(plan.h_tilde))
    assert chunks == 2
    assert sorted(calls) == [("mean", (1, 2))] * 2 + [("udt", (1, 2))] * 2
    calls.clear()
    evaluator = em.BatchEvaluator(ref.episodes, params)
    streams = em.h0_stream_indices(plan, 40)[:5]
    em.replay_pvalues(evaluator, streams, plan, store)
    assert sorted(calls) == [("mean", (1, 2)), ("udt", (1, 2))]


def _gathered_values(ref, params, base, streams, horizons, taus):
    """Reference values, (H, F, runs, E) as ``offset_values`` returns
    them, with a gather per window: every (horizon, tested episode) window
    gathers its own whole pieces ``piece[whole_idx]``."""
    P = max(horizons)
    runs, E = streams.shape[0], streams.shape[1] - P
    windows = np.lib.stride_tricks.sliding_window_view(streams, P + 1, axis=1)
    piece = episode_piece(base.name, ref.episodes, params)
    tails = [episode_piece(base.name, ref.episodes[:, :tau], params) for tau in taus]
    tail_idx = streams[:, P:].reshape(-1)
    out = np.empty((len(horizons), len(taus), runs, E))
    for i, h in enumerate(horizons):
        pieces = piece[windows[:, :, P - h : P].reshape(-1, h)]
        whole = whole_part(base, np.moveaxis(pieces, 1, -1))
        for j, tau in enumerate(taus):
            y = finish(base, params, whole, tails[j][tail_idx], (h,), tau)
            out[i, j] = y.reshape(runs, E)
    return out


def _gathered_replay(values, plan, tests, taus, run_minimum):
    """Reference replay over ``values[spec]``, the (H, F, runs, E) values of
    each base statistic: the minimal p-value at each (offset, run, tested
    episode), or with ``run_minimum`` of each base statistic's minimum over
    the run's episodes, (F, runs)."""
    values = {spec: v.min(axis=3) if run_minimum else v for spec, v in values.items()}
    min_p = np.ones(next(iter(values.values())).shape[1:])
    for i, h in enumerate(plan.horizons):
        for j, tau in enumerate(taus):
            at = {spec: vals[i, j] for spec, vals in values.items()}
            for _, spec, rows, components in tests[h, tau]:
                y = mixed_values(components, at) if components else at[spec]
                np.minimum(min_p[j], bootstrap_pvalues(rows, y), out=min_p[j])
    return min_p


@pytest.mark.parametrize("run_minimum", [False, True])
@pytest.mark.parametrize(
    "spec", ["mean", "udt", "pdt:0.6", "hotelling", "cusum:0.5", "mdt"]
)
def test_replay_equals_a_gather_per_window(monkeypatch, spec, run_minimum):
    # Horizons 1 and 11 (over 8 episodes, where a scalar piece's sum turns
    # pairwise), an odd T, and chunks of 6 runs, so 17 runs end in a short
    # chunk: the sliding-view sums are bitwise the per-window gather's,
    # and so are the p-values looked up from them, by replay_pvalues over
    # whole values and by bfar_min_p over each run's minimum.
    monkeypatch.setattr(stats, "_BATCH_CHUNK", 20)  # 20 // E = 6 runs a chunk
    params = make_params(T=5, seed=47, condition=40)
    ref = make_reference(params, 30, seed=48)
    plan = make_plan(statistics=(em.parse_statistic(spec),), horizons=(1, 11),
                     h_tilde=3, B_inner=150, B_outer=17, alpha0=0.1)
    store = _store(ref, params, plan)
    tests = plan.store_rows(store, params.T)
    streams = em.h0_stream_indices(plan, ref.num_episodes)
    taus = plan.test_offsets(params.T)
    evaluator = em.BatchEvaluator(ref.episodes, params)
    values = {}
    for base_spec, base in base_statistics(plan.statistics).items():
        got = evaluator.offset_values(base, streams, plan.horizons, taus)
        values[base_spec] = _gathered_values(ref, params, base, streams, plan.horizons, taus)
        assert got.tobytes() == values[base_spec].tobytes(), base_spec
    want = _gathered_replay(values, plan, tests, taus, run_minimum)
    if run_minimum:
        got, want = em.bfar_min_p(ref, params, plan, store), want.min(axis=0)
    else:
        got = em.replay_pvalues(evaluator, streams, plan, store)
        want = want.transpose(1, 2, 0).reshape(plan.B_outer, -1)  # time order
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_bfar_min_p_allocates_less_than_one_gather_per_window():
    # mdt_te4's shape, scaled down: the per-window gather of one chunk,
    # (runs * E, h_max, T) floats, was the replay's largest allocation.
    params = make_params(T=24, seed=49, condition=40)
    ref = make_reference(params, 60, seed=50)
    plan = make_plan(statistics=(em.parse_statistic("mdt"),), horizons=(2, 24),
                     h_tilde=4, B_inner=100, B_outer=256, alpha0=0.1, test_every=4)
    store = _store(ref, params, plan)
    runs = plan.B_outer
    assert stats.runs_per_chunk(plan.h_tilde) >= runs  # one chunk
    gather_bytes = runs * plan.h_tilde * plan.h_max * params.T * 8
    tracemalloc.start()
    try:
        em.bfar_min_p(ref, params, plan, store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < gather_bytes, (peak, gather_bytes)


def test_cusum_replay_bounds_its_drift_by_the_gather_budget():
    # cusum's whole part builds the drift of every window's whole steps,
    # (runs, E, h_max, T) floats, here five times the gather budget and
    # six times the gather of the chunk's pieces; blocks of runs keep it
    # within the budget.
    params = make_params(T=20, seed=94, condition=40)
    ref = make_reference(params, 60, seed=95)
    plan = make_plan(statistics=(em.StatisticKind.cusum(0.5),), horizons=(1, 32),
                     h_tilde=8, B_inner=100, B_outer=512, alpha0=0.1,
                     test_every=20)
    store = _store(ref, params, plan)
    runs = plan.B_outer
    assert stats.runs_per_chunk(plan.h_tilde) >= runs  # one chunk
    drift_bytes = runs * plan.h_tilde * plan.h_max * params.T * 8
    assert drift_bytes >= 4 * 8 * stats._GATHER_ITEMS
    tracemalloc.start()
    try:
        em.bfar_min_p(ref, params, plan, store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < drift_bytes / 2, (peak, drift_bytes)


def test_replay_rejects_a_missing_component_row_before_evaluating(
    monkeypatch, tmp_path
):
    # Both replays resolve every store row of the plan first, so a store
    # that lacks one fails before any statistic is evaluated. Only a store
    # file can hold a mixed row without its component's row.
    params = make_params(T=4, seed=45)
    ref = make_reference(params, 40, seed=46)
    plan = make_plan(statistics=(em.parse_statistic("mixed:mean+udt"),),
                     horizons=(1, 2), h_tilde=2, B_inner=100, B_outer=20,
                     alpha0=0.1)
    n = plan.window_lengths(params.T)[-1]
    path = resealed_store(_store(ref, params, plan), tmp_path / "store.json",
                          keep=lambda key: key != ("udt", n))
    store = em.BootstrapStore.load(path, params)
    assert ("mixed:mean+udt", n) in store.entries
    calls = []
    offset_values = em.BatchEvaluator.offset_values

    def counting(self, kind, *args, **kwargs):
        calls.append(kind.spec)
        return offset_values(self, kind, *args, **kwargs)

    monkeypatch.setattr(em.BatchEvaluator, "offset_values", counting)
    with pytest.raises(NotTunedError, match=f"'udt' at length {n}"):
        em.bfar_min_p(ref, params, plan, store)
    evaluator = em.BatchEvaluator(ref.episodes, params)
    streams = em.h0_stream_indices(plan, 40)[:3]
    with pytest.raises(NotTunedError, match=f"'udt' at length {n}"):
        em.replay_pvalues(evaluator, streams, plan, store)
    assert calls == []
