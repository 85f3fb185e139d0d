"""Online monitor behavior: warm-up, firing, one-shot semantics, traces, and
agreement with the batched replay of whole runs."""

import bisect
import dataclasses
import fractions
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epimon as em
from epimon import sequential
from epimon.bfar import detection_steps
from epimon.errors import InvalidDataError, NotTunedError, TerminalStateError
from epimon.stats import bootstrap_pvalues, pvalue_grid

from conftest import make_params, make_reference, resealed_store

MEAN = em.StatisticKind.mean()
UDT = em.StatisticKind.udt()


PARAMS = make_params(T=6, seed=51, condition=20)


@pytest.fixture(scope="module")
def ref():
    return make_reference(PARAMS, 300, seed=52)


@pytest.fixture(scope="module")
def tuned(ref):
    plan = em.MonitorPlan(
        statistics=(UDT, MEAN),
        horizons=(2, 4),
        h_tilde=5,
        alpha0=0.05,
        B_inner=1200,
        B_outer=300,
        seed=53,
    )
    return em.bfar_tune(ref, PARAMS, plan)


def h0_stream(tuned, episodes, seed):
    scenario = em.Scenario(params=tuned.params, kind="h0", seed=seed)
    return em.generate_episodes(scenario, episodes).ravel()


def feed(monitor, samples):
    """Step samples until the first detection; return the detection (or
    None) and the (t, evaluations) trace of every test-point."""
    trace = []
    for sample in samples:
        record = monitor.step(sample)
        if monitor.last_test_point == monitor.t:
            trace.append((monitor.t, monitor.last_evaluations))
        if record is not None:
            return record, trace
    return None, trace


def own_evaluations(plan, store, stream, t):
    """Each test's (kind, horizon, p) at the test-point ending at step t of
    ``stream``, in plan order within horizons in order: the store p-value of
    statistic_value on the window of the last h*T + tau samples."""
    params = store.params
    T = params.T
    tau = em.decompose_index(t, T).tau
    expected = []
    for h in plan.horizons:
        window = em.SignalWindow(stream[t - h * T - tau : t], params)
        for kind in plan.statistics:
            y = em.statistic_value(kind, window, store)
            p = bootstrap_pvalues(store.values_for(kind, window.n), y)
            expected.append((kind, h, p))
    return expected


def test_reference_mean_stream_never_fires(tuned):
    plan = tuned.plan
    stream = np.tile(tuned.params.mu0, plan.h_max + plan.h_tilde)
    detection, trace = feed(em.Monitor(tuned), stream)
    assert detection is None
    # every statistic sits at its null center, so no p-value can be extreme
    assert all(ev.p > tuned.p_threshold for _, evs in trace for ev in evs)


def test_catastrophic_fires_at_first_test_point(tuned):
    plan = tuned.plan
    params = tuned.params
    warm = h0_stream(tuned, plan.h_max, seed=99)
    degraded = np.tile(params.mu0 - 20 * params.step_std, 2)
    rec, _ = feed(em.Monitor(tuned), np.concatenate([warm, degraded]))
    assert rec is not None
    assert rec.t == plan.h_max * params.T + 1  # first test-point after warm-up
    assert rec.offset == 1 and rec.offset < params.T  # mid-episode detection
    assert rec.p == pytest.approx(1 / (plan.B_inner + 1))


def test_detection_time_is_a_test_point_after_warmup(tuned):
    plan = tuned.plan
    params = tuned.params
    warm = h0_stream(tuned, plan.h_max, seed=100)
    degraded = np.tile(params.mu0 - 6 * params.step_std, 3)
    rec, _ = feed(em.Monitor(tuned), np.concatenate([warm, degraded]))
    assert rec is not None
    assert rec.t > plan.h_max * params.T
    assert rec.t % plan.test_every == 0
    assert rec.raw_t == rec.t * params.downsample_factor
    dec = em.decompose_index(rec.t, params.T)
    assert (rec.episode, rec.offset) == (dec.k, dec.tau)


def test_one_shot_then_reset(tuned):
    plan = tuned.plan
    params = tuned.params
    warm = h0_stream(tuned, plan.h_max, seed=101)
    degraded = np.tile(params.mu0 - 20 * params.step_std, 2)
    monitor = em.Monitor(tuned)
    detection, _ = feed(monitor, np.concatenate([warm, degraded]))
    assert detection is not None
    with pytest.raises(TerminalStateError):
        monitor.step(0.0)
    monitor.reset()
    assert monitor.t == 0 and monitor.fired is None
    # after reset a fresh warm-up is required before any test fires
    detection, trace = feed(monitor, h0_stream(tuned, plan.h_max, seed=102))
    assert detection is None and len(trace) == 0


def test_rejects_bad_samples(tuned):
    monitor = em.Monitor(tuned)
    with pytest.raises(InvalidDataError):
        monitor.step(float("nan"))
    with pytest.raises(InvalidDataError):
        monitor.step(np.array([1.0, 2.0]))


@pytest.mark.parametrize("sample", [
    True, np.True_, "1.5", b"2", "abc", 1 + 2j, np.complex128(1.0), None,
    np.array(True), np.array("1.5"), np.array([1.0, 2.0]), [1.0],
    pytest.param(10**400, id="int-beyond-float"),
], ids=repr)
def test_step_rejects_samples_that_are_not_finite_reals(tuned, sample):
    monitor = em.Monitor(tuned)
    monitor.step(1.0)
    with pytest.raises(InvalidDataError, match="at step 2"):
        monitor.step(sample)
    assert monitor.t == 1


@pytest.mark.parametrize("sample", [
    1.5, np.float64(1.5), np.float32(1.5), 2, np.int64(2), np.array(1.5),
    fractions.Fraction(3, 2),
], ids=repr)
def test_step_takes_real_scalars_as_floats(tuned, sample):
    monitor = em.Monitor(tuned)
    monitor.step(sample)
    assert monitor.t == 1 and monitor._partial[0] == float(sample)


def test_trace_counts_test_points(tuned):
    plan = tuned.plan
    params = tuned.params
    stream = h0_stream(tuned, plan.h_max + 2, seed=103)
    detection, trace = feed(em.Monitor(tuned), stream)
    if detection is None:  # a false alarm would shorten the trace
        assert len(trace) == 2 * (params.T // plan.test_every)
    for t, evals in trace:
        assert t > plan.h_max * params.T
        assert len(evals) == len(plan.statistics) * len(plan.horizons)


def test_evaluations_are_named_tuples(tuned):
    monitor = em.Monitor(tuned)
    feed(monitor, h0_stream(tuned, tuned.plan.h_max + 1, seed=104))
    ev = monitor.last_evaluations[0]
    statistic, horizon, p = ev
    assert (statistic, horizon, p) == (ev.statistic, ev.horizon, ev.p)
    assert ev == (UDT, 2, p) and hash(ev) == hash((UDT, 2, p))
    assert type(p) is float and type(horizon) is int
    with pytest.raises(AttributeError):
        ev.p = 0.0


STATISTICS = ("mean", "udt", "pdt:0.5", "hotelling", "cusum:0.5", "mdt",
              "mixed:mean+udt")


def test_equivalence_with_tuning_simulation(tuned, ref):
    # The batched replay of whole runs that tuning, far_verify and simulate
    # use must give, at every test-point of generated streams, exactly the
    # minimal p-value the live monitor computes there.
    params = tuned.params
    kinds = [em.parse_statistic(spec) for spec in STATISTICS]
    store = em.BootstrapStore(params, 400, seed=54)
    lengths = [h * params.T + tau for h in (1, 3) for tau in range(1, 7)]
    store.ensure(ref, kinds, lengths)
    runs, checked, smallest = 12, 0, 1.0
    for kind in kinds:
        for test_every in (1, 2, 3):
            plan = em.MonitorPlan(
                statistics=(kind,), horizons=(1, 3), h_tilde=3, alpha0=0.5,
                B_inner=400, B_outer=2, seed=54, test_every=test_every,
            )
            live = em.TunedMonitor(plan, 0.0, store, np.zeros(1))  # never fires
            length = plan.h_max + plan.h_tilde
            episodes = em.generate_episodes(
                em.Scenario(params=params, kind="uniform", seed=55 + test_every,
                            epsilon=0.3 * params.mean_step_std),
                runs * length,
            )
            evaluator = em.BatchEvaluator(episodes, params)
            streams = np.arange(runs * length).reshape(runs, length)
            replay = em.replay_pvalues(evaluator, streams, plan, store)
            for run, row in zip(episodes.reshape(runs, -1), replay):
                _, trace = feed(em.Monitor(live), run)
                got = [min(ev.p for ev in evals) for _, evals in trace]
                assert got == row.tolist(), (kind.spec, test_every)
                checked += len(got)
                smallest = min(smallest, *got)
    assert checked == len(kinds) * runs * 3 * (6 + 3 + 2)
    assert smallest < 0.05  # the checked p-values reach into the tail


def test_reference_streams_decide_like_tuning_simulation(tuned, ref):
    # Feeding the monitor a stream assembled exactly like outer repetition b
    # of the tuning simulation must fire iff that repetition's minimal
    # p-value is below the threshold. Such streams repeat reference
    # episodes, so their windows can tie the store's values exactly; the
    # decisions must agree all the same.
    plan = tuned.plan
    params = tuned.params
    min_p = em.bfar_min_p(ref, params, plan, tuned.store)
    fired_flags = []
    for rows in em.h0_stream_indices(plan, ref.num_episodes)[:40]:
        detection, _ = feed(em.Monitor(tuned), ref.episodes[rows].ravel())
        fired_flags.append(detection is not None)
    expected = (min_p[:40] < tuned.p_threshold).tolist()
    assert fired_flags == expected


def test_reference_streams_tie_the_replay_exactly_for_mean_and_cusum():
    # Streams that repeat reference episodes verbatim have windows that tie
    # stored values exactly, where a value one bit off moves its p-value by
    # a rank. For mean and cusum the monitor's minimal p must still be the
    # replay's at every test-point; horizon 9 sums more than 8 pieces, past
    # the length where numpy's pairwise summation stops adding in order.
    params = make_params(T=6, seed=61, condition=20)
    plan = em.MonitorPlan(
        statistics=(MEAN, em.StatisticKind.cusum(0.5)), horizons=(2, 9),
        h_tilde=12, alpha0=0.5, B_inner=200, B_outer=15, seed=63,
    )
    taus = plan.test_offsets(params.T)
    tied = set()  # (spec, horizon) pairs with a non-zero value that ties
    for N in (3, 20, 80):  # 3 reference episodes make horizon 9 tie too
        ref = make_reference(params, N, seed=62)
        store = em.BootstrapStore(params, plan.B_inner, plan.seed)
        store.ensure(ref, plan.statistics, plan.window_lengths(params.T))
        streams = em.h0_stream_indices(plan, N)
        evaluator = em.BatchEvaluator(ref.episodes, params)
        for kind in plan.statistics:
            values = evaluator.offset_values(kind, streams, plan.horizons, taus)
            for (i, h), (j, tau) in itertools.product(
                    enumerate(plan.horizons), enumerate(taus)):
                vals = values[i, j][values[i, j] != 0]
                if np.isin(vals, store.values_for(kind, h * params.T + tau)).any():
                    tied.add((kind.spec, h))
        replay = em.replay_pvalues(evaluator, streams, plan, store)
        monitor = em.Monitor(em.TunedMonitor(plan, 0.0, store, np.zeros(1)))
        for rows, want in zip(streams, replay):
            _, trace = feed(monitor, ref.episodes[rows].ravel())
            got = [min(ev.p for ev in evals) for _, evals in trace]
            assert got == want.tolist(), (N, rows)
            monitor.reset()
    assert len(tied) == 4  # every (statistic, horizon) met a tie


def test_bisect_over_a_row_counts_as_searchsorted_does():
    # The monitor counts with bisect_right over a memoryview of each store
    # row: the count searchsorted(side="right") gives, for every float.
    row = np.array([-np.inf, -1.0, -0.0, 0.0, 0.0, 2.5, 2.5, np.inf])
    row.setflags(write=False)
    view = memoryview(row)
    for y in (-np.inf, -2.0, -1.0, -0.0, 0.0, 1e-300, 2.5, 3.0, np.inf, np.nan):
        assert bisect.bisect_right(view, y) == row.searchsorted(y, side="right")


def test_pvalues_count_stored_values_that_tie_the_window():
    # A stored value equal to the window's counts towards its p-value
    # (side="right"). Streams that repeat reference episodes verbatim make
    # mean, cusum and mixed windows tie stored values; every evaluation's p
    # must be the count of stored values <= the one-window value.
    params = make_params(T=6, seed=61, condition=20)
    T = params.T
    ref = make_reference(params, 20, seed=62)
    plan = em.MonitorPlan(
        statistics=tuple(em.parse_statistic(spec) for spec in
                         ("mean", "cusum:0.5", "mixed:mean+cusum:0.5")),
        horizons=(1, 3), h_tilde=3, alpha0=0.5, B_inner=300, B_outer=8, seed=64,
    )
    store = em.BootstrapStore(params, plan.B_inner, plan.seed)
    store.ensure(ref, plan.statistics, plan.window_lengths(T))
    monitor = em.Monitor(em.TunedMonitor(plan, 0.0, store, np.zeros(1)))
    tied = set()
    for rows in em.h0_stream_indices(plan, ref.num_episodes):
        stream = ref.episodes[rows].ravel()
        _, trace = feed(monitor, stream)
        for t, evals in trace:
            tau = em.decompose_index(t, T).tau
            for ev in evals:
                window = em.SignalWindow(stream[t - ev.horizon * T - tau : t], params)
                y = em.statistic_value(ev.statistic, window, store)
                row = store.values_for(ev.statistic, window.n)
                assert ev.p == (1 + row.searchsorted(y, side="right")) / (1 + store.B)
                if y in row:
                    tied.add(ev.statistic.spec)
        monitor.reset()
    assert tied == {kind.spec for kind in plan.statistics}


def test_pvalues_match_statistic_value_on_explicit_windows():
    # udt runs on its running sum, mdt and cusum on rings of episode pieces.
    # Every p at every test-point, before and after a mid-episode reset, must
    # be the store p-value of statistic_value on the window the test covers.
    params = make_params(T=6, seed=71, condition=20)
    T = params.T
    ref = make_reference(params, 80, seed=72)
    plan = em.MonitorPlan(
        statistics=(UDT, em.parse_statistic("mdt"), em.StatisticKind.cusum(0.5)),
        horizons=(1, 3), h_tilde=2, alpha0=0.5, B_inner=300, B_outer=2,
        seed=73, test_every=2,
    )
    store = em.BootstrapStore(params, plan.B_inner, plan.seed)
    store.ensure(ref, plan.statistics, plan.window_lengths(T))
    tuned = em.TunedMonitor(plan, 0.0, store, np.zeros(1))  # never fires

    def test_points(monitor, stream):
        checked = 0
        for t, sample in enumerate(stream, start=1):
            monitor.step(sample)
            if monitor.last_test_point != t:
                continue
            got = [(ev.statistic, ev.horizon, ev.p)
                   for ev in monitor.last_evaluations]
            assert got == own_evaluations(plan, store, stream, t), t
            checked += 1
        return checked

    drop = 0.5 * params.mean_step_std
    streams = [
        em.generate_episodes(
            em.Scenario(params=params, kind="uniform", epsilon=drop, seed=seed), 6
        ).ravel()
        for seed in (74, 75)
    ]
    monitor = em.Monitor(tuned)
    assert test_points(monitor, streams[0][: 5 * T + 3]) == 7
    monitor.reset()
    assert test_points(monitor, streams[1]) == 9


def test_udt_running_sums_stay_bounded(tuned):
    # A long run without detections keeps only the h_max + 1 running sums a
    # test can read, through a reset too.
    plan, T = tuned.plan, tuned.params.T
    monitor = em.Monitor(tuned.with_threshold(0.0))
    stream = h0_stream(tuned, 5000, seed=98)
    for sample in stream:
        monitor.step(sample)
    assert monitor.t == 5000 * T
    assert len(monitor._udt_cum) <= plan.h_max + 1
    monitor.reset()
    for sample in stream[: 3 * T]:
        monitor.step(sample)
    # the third episode's sum waits for the fourth episode's first sample
    assert list(monitor._udt_cum)[0] == 0.0 and len(monitor._udt_cum) == 3
    monitor.step(stream[3 * T])
    assert len(monitor._udt_cum) == 4


def test_udt_beats_mean_on_uniform_degradation():
    # Heteroscedastic covariance, uniform drop of 2 small-step sigmas: the
    # weighted test must detect at least as often as the plain mean test.
    T = 8
    variances = np.concatenate([np.full(4, 1.0), np.full(4, 400.0)])
    params = em.EpisodeParams(np.zeros(T), np.diag(variances))
    ref = make_reference(params, 300, seed=61)
    common = dict(horizons=(2, 4), h_tilde=4, alpha0=0.05,
                  B_inner=800, B_outer=200, seed=62)
    tuned_udt = em.bfar_tune(ref, params, em.MonitorPlan(statistics=(UDT,), **common))
    tuned_mean = em.bfar_tune(ref, params, em.MonitorPlan(statistics=(MEAN,), **common))
    eps = 2.0  # = 2 sigma of the quiet steps, negligible vs the loud ones
    blocks = 60
    wins = {"udt": 0, "mean": 0}
    for i in range(blocks):
        warm = em.generate_episodes(
            em.Scenario(params=params, kind="h0", seed=700 + i), 4
        ).ravel()
        bad = em.generate_episodes(
            em.Scenario(params=params, kind="uniform", epsilon=eps, seed=800 + i), 4
        ).ravel()
        stream = np.concatenate([warm, bad])
        for name, tm in (("udt", tuned_udt), ("mean", tuned_mean)):
            if feed(em.Monitor(tm), stream)[0] is not None:
                wins[name] += 1
    assert wins["udt"] >= wins["mean"]
    assert wins["udt"] >= blocks // 3  # the weighted test actually detects


def test_shared_rings_match_the_replay_across_a_reset():
    # cusum whole parts differ per reference value and pdt fractions share
    # one ring; every test-point of the monitor, before and after a
    # mid-episode reset, must give the replay's minimal p exactly.
    params = make_params(T=6, seed=91, condition=30)
    T = params.T
    ref = make_reference(params, 80, seed=92)
    kinds = tuple(em.parse_statistic(spec) for spec in
                  ("cusum:0.5", "cusum:1", "pdt:0.5", "pdt:0.9", "mdt"))
    store = em.BootstrapStore(params, 300, seed=93)
    store.ensure(ref, kinds, [h * T + tau for h in (1, 3) for tau in range(1, T + 1)])
    runs, checked = 4, 0
    for test_every in (1, 2):
        plan = em.MonitorPlan(
            statistics=kinds, horizons=(1, 3), h_tilde=3, alpha0=0.5,
            B_inner=300, B_outer=2, seed=93, test_every=test_every,
        )
        length = plan.h_max + plan.h_tilde
        episodes = em.generate_episodes(
            em.Scenario(params=params, kind="uniform", seed=94 + test_every,
                        epsilon=0.3 * params.mean_step_std),
            runs * length,
        )
        streams = np.arange(runs * length).reshape(runs, length)
        evaluator = em.BatchEvaluator(episodes, params)
        replay = em.replay_pvalues(evaluator, streams, plan, store)
        # each statistic alone too, so a wrong p cannot hide behind another
        alone = {
            kind: em.replay_pvalues(
                evaluator, streams, dataclasses.replace(plan, statistics=(kind,)), store)
            for kind in kinds
        }
        monitor = em.Monitor(em.TunedMonitor(plan, 0.0, store, np.zeros(1)))
        for i, run in enumerate(episodes.reshape(runs, -1)):
            # every other run is cut mid-episode, then the monitor is reset
            cut = run[: (plan.h_max + 1) * T + 3] if i % 2 == 0 else run
            _, trace = feed(monitor, cut)
            got = [min(ev.p for ev in evals) for _, evals in trace]
            assert got == replay[i, : len(got)].tolist(), (test_every, i)
            assert len(got) == (replay.shape[1] if i % 2 else (T + 3) // test_every)
            for kind in kinds:
                mine = [min(ev.p for ev in evals if ev.statistic == kind)
                        for _, evals in trace]
                assert mine == alone[kind][i, : len(got)].tolist(), (kind.spec, i)
            checked += len(got)
            monitor.reset()
    assert checked == 2 * (6 * 3 + 9) + 2 * (3 * 3 + 4)


CUSUM_CHAIN_KINDS = tuple(em.parse_statistic(spec) for spec in
                          ("cusum:0.5", "cusum:1", "mixed:mean+cusum:0.5"))


def _cusum_chain_case(N, test_every):
    """Params, reference of N episodes, plan of CUSUM_CHAIN_KINDS at
    horizons 2 and 9 with 15 runs of 21 episodes, its store, and a monitor
    that never fires."""
    params = make_params(T=6, seed=111, condition=20)
    ref = make_reference(params, N, seed=112)
    plan = em.MonitorPlan(
        statistics=CUSUM_CHAIN_KINDS, horizons=(2, 9), h_tilde=12, alpha0=0.5,
        B_inner=200, B_outer=15, seed=113, test_every=test_every,
    )
    store = em.BootstrapStore(params, plan.B_inner, plan.seed)
    store.ensure(ref, plan.statistics, plan.window_lengths(params.T))
    monitor = em.Monitor(em.TunedMonitor(plan, 0.0, store, np.zeros(1)))
    return params, ref, plan, store, monitor


@pytest.mark.parametrize("test_every", [1, 3])
def test_cusum_chains_match_the_replay_on_generated_streams(test_every):
    # Each cusum carries a chain of drift prefixes through the stream. Two
    # cusums and a mixed kind with a cusum component: every test-point's
    # minimal p, and each kind's alone, must be the replay's, every other
    # run cut mid-episode and the monitor then reset.
    params, _, plan, store, monitor = _cusum_chain_case(60, test_every)
    T, runs = params.T, 4
    length = plan.h_max + plan.h_tilde
    episodes = em.generate_episodes(
        em.Scenario(params=params, kind="uniform", seed=114 + test_every,
                    epsilon=0.1 * params.mean_step_std),
        runs * length,
    )
    evaluator = em.BatchEvaluator(episodes, params)
    streams = np.arange(runs * length).reshape(runs, length)
    replay = em.replay_pvalues(evaluator, streams, plan, store)
    alone = {kind: em.replay_pvalues(evaluator, streams, dataclasses.replace(
        plan, statistics=(kind,)), store) for kind in CUSUM_CHAIN_KINDS}
    seen = set()
    for i, run in enumerate(episodes.reshape(runs, -1)):
        cut = run[: (plan.h_max + 1) * T + 4] if i % 2 == 0 else run
        _, trace = feed(monitor, cut)
        got = [min(ev.p for ev in evals) for _, evals in trace]
        assert len(got) == (replay.shape[1] if i % 2 else (T + 4) // test_every)
        assert got == replay[i, : len(got)].tolist(), i
        for kind in CUSUM_CHAIN_KINDS:
            mine = [min(ev.p for ev in evals if ev.statistic == kind)
                    for _, evals in trace]
            assert mine == alone[kind][i, : len(got)].tolist(), (kind.spec, i)
            seen.update(mine)
        monitor.reset()
    assert len(seen) > 20  # not all at the resolution floor


@pytest.mark.parametrize("test_every", [1, 3])
def test_cusum_chains_tie_the_replay_on_reference_streams(test_every):
    # Streams that repeat reference episodes verbatim have windows that tie
    # stored values exactly, where a value one bit off moves its p by a
    # rank. Every test-point of each cusum alone, and of the whole plan,
    # must still be the replay's.
    params, ref, plan, store, monitor = _cusum_chain_case(20, test_every)
    T, taus = params.T, plan.test_offsets(params.T)
    cusums = CUSUM_CHAIN_KINDS[:2]
    evaluator = em.BatchEvaluator(ref.episodes, params)
    streams = em.h0_stream_indices(plan, ref.num_episodes)
    replay = em.replay_pvalues(evaluator, streams, plan, store)
    alone = {kind: em.replay_pvalues(evaluator, streams, dataclasses.replace(
        plan, statistics=(kind,)), store) for kind in cusums}
    tied = set()  # (spec, horizon) pairs with a non-zero value that ties
    for kind in cusums:
        values = evaluator.offset_values(kind, streams, plan.horizons, taus)
        for (i, h), (j, tau) in itertools.product(
                enumerate(plan.horizons), enumerate(taus)):
            vals = values[i, j][values[i, j] != 0]
            if np.isin(vals, store.values_for(kind, h * T + tau)).any():
                tied.add((kind.spec, h))
    assert tied == {(kind.spec, h) for kind in cusums for h in plan.horizons}
    for i, rows in enumerate(streams):
        _, trace = feed(monitor, ref.episodes[rows].ravel())
        got = [min(ev.p for ev in evals) for _, evals in trace]
        assert got == replay[i].tolist(), i
        for kind in cusums:
            mine = [min(ev.p for ev in evals if ev.statistic == kind)
                    for _, evals in trace]
            assert mine == alone[kind][i].tolist(), (kind.spec, i)
        monitor.reset()


def test_cusum_chains_stay_bounded():
    # A long run keeps h_max + 1 prefix states per cusum, one per number of
    # whole episodes a test can read, through a reset too.
    params = make_params(T=4, seed=121, condition=20)
    ref = make_reference(params, 40, seed=122)
    plan = em.MonitorPlan(
        statistics=CUSUM_CHAIN_KINDS, horizons=(2, 5), h_tilde=2,
        alpha0=0.5, B_inner=100, B_outer=2, seed=123,
    )
    store = em.BootstrapStore(params, plan.B_inner, plan.seed)
    store.ensure(ref, plan.statistics, plan.window_lengths(params.T))
    monitor = em.Monitor(em.TunedMonitor(plan, 0.0, store, np.zeros(1)))
    stream = em.generate_episodes(
        em.Scenario(params=params, kind="h0", seed=124), 3000).ravel()
    for sample in stream:
        monitor.step(sample)
    assert monitor.t == stream.size
    specs = ["cusum:0.5", "cusum:1"]
    assert list(monitor._chains) == specs
    assert all(len(monitor._chains[spec]) == plan.h_max + 1 for spec in specs)
    monitor.reset()
    for sample in stream[: 3 * params.T + 1]:
        monitor.step(sample)
    for spec in specs:
        chain = monitor._chains[spec]
        assert len(chain) == plan.h_max + 1
        # one sample into the fourth episode: entries 4 and 5 are as empty
        # as entry 3 was when the stream started, so all three agree
        assert chain[3] == chain[4] == chain[5]


def _mixed_cusum_udt_monitor(specs=("mdt", "cusum:0.5", "cusum:1", "udt"),
                             test_every=1):
    """A monitor of ``specs`` (by default mdt, two cusums and udt), horizons
    1 and 3, and a stream of six H0 episodes for it."""
    params = make_params(T=4, seed=95, condition=20)
    ref = make_reference(params, 60, seed=96)
    plan = em.MonitorPlan(
        statistics=tuple(em.parse_statistic(spec) for spec in specs),
        horizons=(1, 3), h_tilde=2, alpha0=0.5, B_inner=100, B_outer=2, seed=97,
        test_every=test_every,
    )
    store = em.BootstrapStore(params, plan.B_inner, plan.seed)
    store.ensure(ref, plan.statistics, plan.window_lengths(params.T))
    monitor = em.Monitor(em.TunedMonitor(plan, 0.0, store, np.zeros(1)))
    stream = em.generate_episodes(
        em.Scenario(params=params, kind="h0", seed=98), 6).ravel()
    return monitor, stream


def _same(a, b):
    """Equal by value, arrays by dtype, shape and contents, recursively."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and np.array_equal(a, b))
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(
            _same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(_same, a, b)))
    return type(a) is type(b) and a == b


def test_reset_gives_the_state_of_a_fresh_monitor():
    # reset() is the one place that sets the stream state, so a monitor
    # that ran and fired equals a new one, rings, whole parts and udt sums
    # included; only the work buffer of the partial episode may differ.
    monitor, stream = _mixed_cusum_udt_monitor()
    monitor = em.Monitor(monitor.tuned.with_threshold(1.0))  # fires at once
    detection, _ = feed(monitor, stream)
    assert detection is not None and monitor._wholes
    monitor.reset()
    fresh = vars(em.Monitor(monitor.tuned))
    state = vars(monitor)
    assert state.keys() == fresh.keys()
    for name in state.keys() - {"_partial"}:
        assert _same(state[name], fresh[name]), name


def _count_cusum_pieces(monkeypatch):
    """Patch the monitor's episode_piece to record every cusum call."""
    cusum_pieces = []
    real = sequential.episode_piece

    def counting(name, rows, params):
        if name == "cusum":
            cusum_pieces.append(rows.shape)
        return real(name, rows, params)

    monkeypatch.setattr(sequential, "episode_piece", counting)
    return cusum_pieces


def test_whole_parts_are_built_only_when_an_episode_completes(monkeypatch):
    calls = []
    real = sequential.whole_part

    def counting(kind, pieces):
        calls.append(kind.spec)
        return real(kind, pieces)

    monkeypatch.setattr(sequential, "whole_part", counting)
    cusum_pieces = _count_cusum_pieces(monkeypatch)
    monitor, stream = _mixed_cusum_udt_monitor()
    T, plan = monitor.params.T, monitor.plan
    assert calls == []
    # mean, hotelling and pdt, once per horizon, in plan order, when the
    # next episode's first sample arrives; the cusums carry their chains and
    # udt its running sum
    per_episode = [spec for spec in ("mean", "hotelling", "pdt:0.9")
                   for _ in plan.horizons]
    test_points = 0
    for t, sample in enumerate(stream, start=1):
        before = len(calls)
        monitor.step(sample)
        test_points += monitor.last_test_point == t
        rolls = t > T and t % T == 1
        assert calls[before:] == (per_episode if rolls else []), t
        assert cusum_pieces == [], t
    assert test_points == 3 * T
    # six episodes, the last still waiting for a next one to roll it
    assert len(calls) == 5 * len(per_episode)


def test_each_test_point_finishes_each_family_once_over_all_horizons(monkeypatch):
    calls = []
    real = sequential.finish

    def counting(kind, params, whole, tail, K, tau):
        calls.append((kind.spec, K))
        return real(kind, params, whole, tail, K, tau)

    monkeypatch.setattr(sequential, "finish", counting)
    cusum_pieces = _count_cusum_pieces(monkeypatch)
    monitor, stream = _mixed_cusum_udt_monitor()
    horizons = monitor.plan.horizons
    # mean, hotelling and pdt, each once with every horizon; the cusums read
    # their chains and udt its running sum
    per_test_point = sorted((spec, horizons) for spec in (
        "mean", "hotelling", "pdt:0.9"))
    test_points = 0
    for t, sample in enumerate(stream, start=1):
        before = len(calls)
        monitor.step(sample)
        if monitor.last_test_point == t:
            test_points += 1
            assert sorted(calls[before:]) == per_test_point, t
        else:
            assert len(calls) == before, t
        assert cusum_pieces == [], t
    assert test_points == 3 * monitor.params.T


def _count_calls(monkeypatch):
    """Patch the monitor's whole_part and episode_piece to record each call:
    ("whole", spec) and ("piece", family, width of the rows)."""
    calls = []
    real_whole, real_piece = sequential.whole_part, sequential.episode_piece

    def whole(kind, pieces):
        calls.append(("whole", kind.spec))
        return real_whole(kind, pieces)

    def piece(name, rows, params):
        calls.append(("piece", name, rows.shape[1]))
        return real_piece(name, rows, params)

    monkeypatch.setattr(sequential, "whole_part", whole)
    monkeypatch.setattr(sequential, "episode_piece", piece)
    return calls


def test_episodes_roll_on_steps_that_test_nothing(monkeypatch):
    # With test_every 2 the finished episode rolls at the next one's first
    # sample, which is no test-point: a test-point builds only its tails,
    # one piece per ring family of its tau samples, and no whole part.
    calls = _count_calls(monkeypatch)
    monitor, stream = _mixed_cusum_udt_monitor(test_every=2)
    T, horizons = monitor.params.T, monitor.plan.horizons
    families = ("mean", "hotelling", "pdt")
    rolls = test_points = 0
    for t, sample in enumerate(stream, start=1):
        before = len(calls)
        monitor.step(sample)
        made, tau = calls[before:], (t - 1) % T + 1
        if monitor.last_test_point == t:
            test_points += 1
            assert made == [("piece", name, tau) for name in families], t
        elif t > T and tau == 1:
            rolls += 1
            wholes = [("whole", spec) for spec in ("mean", "hotelling", "pdt:0.9")
                      for _ in horizons]
            assert sorted(made) == sorted(
                [("piece", name, T) for name in families] + wholes), t
        else:
            assert made == [], t
    assert test_points == 3 * T // 2 and rolls == 5


def test_pdt_fractions_share_one_whole_part_per_horizon(monkeypatch):
    # whole_part of a row family is a plain sum, the same for every pdt
    # fraction, so two fractions build one whole part per horizon.
    calls = _count_calls(monkeypatch)
    monitor, stream = _mixed_cusum_udt_monitor(specs=("pdt:0.5", "pdt:0.9"))
    T, horizons = monitor.params.T, monitor.plan.horizons
    for t, sample in enumerate(stream, start=1):
        before = len(calls)
        monitor.step(sample)
        wholes = [call for call in calls[before:] if call[0] == "whole"]
        rolls = t > T and t % T == 1
        assert len(wholes) == (len(horizons) if rolls else 0), t
        assert {spec for _, spec in wholes} <= {"pdt:0.5", "pdt:0.9"}
    assert list(monitor._wholes) == ["pdt"]
    assert monitor._wholes["pdt"].shape == (len(horizons), T)


def _mixed_tables(monitor):
    """Each mixed test's (h, tau, spec) with its table of p-values."""
    return {(h, tau, spec): rows
            for (h, tau), tests in monitor._tests.items()
            for _, spec, rows, components in tests if components}


def test_mixed_count_tables_are_the_store_rows_pvalues_bit_for_bit():
    # A small reference makes mixed rows with many ties. At every count c
    # the table's p-value must be bootstrap_pvalues of the grid value
    # (1 + c) / (1 + B) against the mixed row, compared bit for bit.
    monitor, _ = _mixed_cusum_udt_monitor(specs=("mdt", "mixed:udt+cusum:0.5"))
    store, T = monitor.tuned.store, monitor.params.T
    B = store.B
    grid = pvalue_grid(B)
    tables = _mixed_tables(monitor)
    assert len(tables) == 2 * 2 * T
    tied = 0
    for (h, tau, spec), table in tables.items():
        row = store.values_for(em.parse_statistic(spec), h * T + tau)
        tied += np.unique(row).size < row.size
        assert table.dtype == np.float64 and table.shape == (B + 1,)
        want = np.array([bootstrap_pvalues(row, float(g)) for g in grid])
        assert table.view(np.int64).tolist() == want.view(np.int64).tolist(), spec
    assert tied == len(tables)


def test_monitor_rejects_a_store_row_of_other_than_B_values(tmp_path):
    # A component row of fewer values would put the mixed value off the
    # mixed row's p-value grid, where its p-value table reads it. Such a row
    # cannot reach a monitor: the store's entries are read-only, and a
    # store file of shorter rows fails at load.
    monitor, _ = _mixed_cusum_udt_monitor(specs=("mixed:mean+udt",))
    store, T = monitor.tuned.store, monitor.params.T
    key = ("mean", T + 2)
    with pytest.raises(TypeError):
        store.entries[key] = store.entries[key][::2]
    assert store.entries[key].size == store.B == 100
    path = resealed_store(store, tmp_path / "store.json",
                          edit_rows=lambda rows: rows[:, ::2])
    with pytest.raises(InvalidDataError, match=r"expected '<f8' of shape \(\d+, 100\)"):
        em.BootstrapStore.load(path, monitor.params)


def test_mixed_count_tables_stay_at_B_plus_1_entries():
    monitor, _ = _mixed_cusum_udt_monitor(specs=("mdt", "mixed:udt+cusum:0.5"))
    B = monitor.tuned.store.B
    before = {key: table.copy() for key, table in _mixed_tables(monitor).items()}
    stream = em.generate_episodes(
        em.Scenario(params=monitor.params, kind="h0", seed=131), 2000).ravel()
    for sample in stream:
        monitor.step(sample)
    after = _mixed_tables(monitor)
    assert after.keys() == before.keys()
    for key, table in after.items():
        assert table.shape == (B + 1,) and np.array_equal(table, before[key]), key


# A base statistic's spec: pdt fractions drawn from (0, 1], cusum reference
# values from a small range.
PROPERTY_BASES = st.one_of(
    st.sampled_from(["mean", "udt", "hotelling"]),
    st.floats(0.0, 1.0, exclude_min=True).map(lambda p: em.StatisticKind.pdt(p).spec),
    st.floats(-0.5, 1.5).map(lambda k: em.StatisticKind.cusum(k).spec),
)


@functools.lru_cache(maxsize=None)
def _property_params(T, N=12):
    params = make_params(T=T, seed=140 + T, condition=20)
    return params, make_reference(params, N, seed=150 + T)


@st.composite
def _plan_shapes(draw):
    T = draw(st.integers(2, 8))
    test_every = draw(st.sampled_from([d for d in range(1, T + 1) if T % d == 0]))
    horizons = sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=3)))
    specs = draw(st.lists(PROPERTY_BASES, unique=True, max_size=4))
    for parts in draw(st.lists(st.lists(PROPERTY_BASES, unique=True,
                                        min_size=2, max_size=3),
                               max_size=2)):
        spec = "mixed:" + "+".join(parts)
        if spec not in specs:
            specs.append(spec)
    if not specs:
        specs.append(draw(PROPERTY_BASES))
    cuts = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4))
    return T, test_every, tuple(horizons), tuple(specs), cuts, draw(st.integers(0, 99))


def _property_case(shape, repeat=False):
    """The plan of a drawn shape (B 40), its tuned store, one run per cut
    (h_max + 3 episodes) and the replay's p-value columns of those runs.
    The runs are generated with a small drift from the model of a
    12-episode reference, or with ``repeat`` drawn verbatim from the
    episodes of a 3-episode reference, so that their windows tie stored
    values."""
    T, test_every, horizons, specs, cuts, seed = shape
    N = 3 if repeat else 12
    params, ref = _property_params(T, N)
    plan = em.MonitorPlan(
        statistics=tuple(em.parse_statistic(spec) for spec in specs),
        horizons=horizons, h_tilde=3, alpha0=0.5, B_inner=40, B_outer=2,
        seed=seed, test_every=test_every,
    )
    store = em.BootstrapStore(params, plan.B_inner, plan.seed)
    store.ensure(ref, plan.statistics, plan.window_lengths(T))
    runs, length = len(cuts), plan.h_max + plan.h_tilde
    if repeat:
        rows = np.random.default_rng(seed).integers(0, N, size=runs * length)
        episodes = ref.episodes[rows]
    else:
        episodes = em.generate_episodes(
            em.Scenario(params=params, kind="uniform", seed=seed,
                        epsilon=0.2 * params.mean_step_std),
            runs * length,
        )
    streams = np.arange(runs * length).reshape(runs, length)
    replay = em.replay_pvalues(em.BatchEvaluator(episodes, params), streams, plan, store)
    return plan, store, episodes, replay


def _first_below(replay, threshold, test_every):
    """Step of each run's first replay column below ``threshold``, 0 if none."""
    below = replay < threshold
    return np.where(below.any(axis=1), (below.argmax(axis=1) + 1) * test_every, 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_plan_shapes())
def test_monitor_matches_the_replay_over_plan_shapes(shape):
    # Over drawn plan shapes, at every test-point of generated streams cut
    # anywhere and followed by a reset, the monitor's minimal p is the
    # replay's column, bit for bit, and its evaluations are every test's
    # own p-value: the store p-value of statistic_value on the window of
    # the test, plan statistics in plan order within horizons in order.
    T, test_every, _, _, cuts, _ = shape
    plan, store, episodes, replay = _property_case(shape)
    runs = len(cuts)
    monitor = em.Monitor(em.TunedMonitor(plan, 0.0, store, np.zeros(1)))
    warmup = plan.h_max * T
    for run, column, cut in zip(episodes.reshape(runs, -1), replay, cuts):
        n = warmup + round(cut * (run.size - warmup))  # a cut after the warm-up
        _, trace = feed(monitor, run[:n])
        got = [min(ev.p for ev in evals) for _, evals in trace]
        assert len(got) == (n - warmup) // test_every
        assert got == column[: len(got)].tolist()
        for t, evals in trace:
            got = [(ev.statistic, ev.horizon, ev.p) for ev in evals]
            assert got == own_evaluations(plan, store, run, t), t
        monitor.reset()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_plan_shapes())
def test_replays_and_store_agree_over_plan_shapes(shape):
    # Over the same drawn plan shapes, bit for bit: (a) bfar_min_p is the
    # minimum of the replay's columns of the H0 streams; (b) detection_steps
    # at a threshold t, taken from the p-values the runs realise and one
    # ulp either side, fires at the first column below t, step
    # (c + 1) * test_every, and 0 when none is; (c) each base store entry
    # is its standalone bootstrap_distribution.
    T, test_every = shape[:2]
    params, ref = _property_params(T)
    plan, store, episodes, replay = _property_case(shape)
    streams = em.h0_stream_indices(plan, ref.num_episodes)
    h0 = em.replay_pvalues(em.BatchEvaluator(ref.episodes, params), streams,
                           plan, store)
    assert np.array_equal(em.bfar_min_p(ref, params, plan, store), h0.min(axis=1))
    runs = episodes.reshape(len(replay), -1)
    taken = np.unique(replay)
    for t in taken[:: max(1, taken.size // 3)]:
        for threshold in (t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)):
            tuned = em.TunedMonitor(plan, float(threshold), store, np.zeros(1))
            want = _first_below(replay, threshold, test_every)
            assert np.array_equal(detection_steps(tuned, runs, plan.h_tilde),
                                  want), threshold
    for (spec, n), entry in store.entries.items():
        if not spec.startswith("mixed"):
            oracle = em.bootstrap_distribution(ref, params, em.parse_statistic(spec),
                                               n, store.B, store.seed)
            assert entry.tobytes() == oracle.tobytes(), (spec, n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_plan_shapes())
def test_detection_steps_tie_the_replay_over_plan_shapes(shape):
    # Over the same drawn plan shapes, on runs that repeat the episodes of
    # a three-episode reference verbatim, so that windows tie stored
    # values: at every p-value the runs realise, detection_steps fires at
    # the replay's first column below it. A tied window's p-value is the
    # threshold itself, so a comparison that fires on ties fails here.
    plan, store, episodes, replay = _property_case(shape, repeat=True)
    runs = episodes.reshape(len(replay), -1)
    for t in np.unique(replay):
        tuned = em.TunedMonitor(plan, float(t), store, np.zeros(1))
        assert np.array_equal(detection_steps(tuned, runs, plan.h_tilde),
                              _first_below(replay, t, plan.test_every)), t


def test_monitor_rejects_a_store_missing_an_entry(tmp_path):
    # A store file that lacks one component row of a mixed test.
    params = make_params(T=4, seed=99, condition=20)
    ref = make_reference(params, 40, seed=100)
    plan = em.MonitorPlan(
        statistics=(em.parse_statistic("mdt"),), horizons=(1, 2), h_tilde=2,
        alpha0=0.5, B_inner=100, B_outer=2, seed=101, test_every=2,
    )
    store = em.BootstrapStore(params, plan.B_inner, plan.seed)
    store.ensure(ref, plan.statistics, plan.window_lengths(params.T))
    em.Monitor(em.TunedMonitor(plan, 0.0, store, np.zeros(1)))  # complete
    n = 2 * params.T + 2
    path = resealed_store(store, tmp_path / "store.json",
                          keep=lambda key: key != ("pdt:0.9", n))
    store = em.BootstrapStore.load(path, params)
    assert (em.parse_statistic("mdt").spec, n) in store.entries
    with pytest.raises(NotTunedError, match=f"'pdt:0.9' at length {n}"):
        em.Monitor(em.TunedMonitor(plan, 0.0, store, np.zeros(1)))
