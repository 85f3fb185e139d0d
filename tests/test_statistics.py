"""Statistic-layer tests: hand values, Monte-Carlo moments, invariances."""

import numpy as np
import pytest

import epimon as em
from epimon import stats
from epimon.errors import InvalidDataError, NotTunedError
from epimon.stats import (
    BatchEvaluator,
    bootstrap_pvalues,
    ceil_fraction,
    episode_piece,
    finish,
    mixed_values,
    pvalue_grid,
    runs_per_chunk,
    whole_part,
)

from conftest import make_params, make_reference


def window(values, params):
    return em.SignalWindow(np.asarray(values, dtype=float), params)


MEAN = em.StatisticKind.mean()
UDT = em.StatisticKind.udt()
HOTELLING = em.StatisticKind.hotelling()
CUSUM = em.StatisticKind.cusum(0.5)


# ---------------------------------------------------------------------------
# mean
# ---------------------------------------------------------------------------


def test_mean_basic(small_params):
    assert em.statistic_value(MEAN, window([1, 2, 3], small_params)) == 2.0
    assert em.statistic_value(MEAN, window([0, 0, 0, 0], small_params)) == 0.0


def test_mean_h0_expectation():
    params = make_params(T=4, seed=7, condition=10)
    K, draws = 2, 10000
    eps = em.generate_episodes(
        em.Scenario(params=params, kind="h0", seed=21), draws * K
    )
    values = eps.reshape(draws, K * params.T).mean(axis=1)
    expected = params.mu0.sum() / params.T
    ones = np.ones(params.T)
    var_per_draw = (ones @ params.sigma0 @ ones) / (K * params.T**2)
    se = np.sqrt(var_per_draw / draws)
    assert abs(values.mean() - expected) <= 3 * se


# ---------------------------------------------------------------------------
# udt (covariance-weighted mean)
# ---------------------------------------------------------------------------


def test_udt_identity_covariance_equals_sum():
    params = em.EpisodeParams(np.zeros(3), np.eye(3))
    w = window([1.0, -2.0, 0.5, 4.0], params)
    assert em.statistic_value(UDT, w) == pytest.approx(3.5)
    assert em.statistic_value(UDT, w) == pytest.approx(
        w.n * em.statistic_value(MEAN, w)
    )


def test_udt_h0_moments():
    params = make_params(T=5, seed=13, condition=30)
    K, draws = 3, 10000
    ones = np.ones(params.T)
    eps = em.generate_episodes(
        em.Scenario(params=params, kind="h0", seed=31), draws * K
    )
    w_full = em.window_weights(params, K * params.T)
    values = eps.reshape(draws, K * params.T) @ w_full
    exact_var = K * float(ones @ params.sigma0_inv @ ones)
    exact_mean = K * float(params.full_weights @ params.mu0)
    assert abs(values.var(ddof=1) - exact_var) <= 0.05 * exact_var
    assert abs(values.mean() - exact_mean) <= 3 * np.sqrt(exact_var / draws)


# ---------------------------------------------------------------------------
# pdt (partial-degradation mean)
# ---------------------------------------------------------------------------


def test_pdt_full_fraction_is_udt_minus_constant():
    params = make_params(T=4, seed=17)
    rng = np.random.default_rng(3)
    for n in [3, 4, 7, 8, 11]:
        w = window(rng.standard_normal(n), params)
        full = em.statistic_value(em.StatisticKind.pdt(1.0), w)
        udt = em.statistic_value(UDT, w)
        const = em.window_weights(params, n) @ np.tile(params.mu0, 3)[:n]
        assert full == pytest.approx(udt - const, rel=1e-9, abs=1e-9)


def test_pdt_hand_example():
    params = em.EpisodeParams(np.zeros(2), np.eye(2))
    w = window([-5.0, 1.0, -5.0, 1.0], params)
    # per-offset aggregates are (-10, 2); keeping the smallest half gives -10
    assert em.statistic_value(em.StatisticKind.pdt(0.5), w) == -10.0


def test_pdt_centered_input_is_zero(small_params):
    mu = small_params.mu0
    for n in [3, small_params.T, 2 * small_params.T + 2]:
        vals = np.tile(mu, 3)[:n]
        for p in [0.2, 0.5, 1.0]:
            v = em.statistic_value(em.StatisticKind.pdt(p), window(vals, small_params))
            assert v == pytest.approx(0.0, abs=1e-10)


def test_pdt_short_window_caps_subset_size():
    # Window shorter than one episode: only tau offsets exist.
    params = em.EpisodeParams(np.zeros(4), np.eye(4))
    w = window([-3.0, -1.0], params)
    # aggregates are (-3, -1); ceil(0.9*4)=4 capped to 2 -> sum of both
    assert em.statistic_value(em.StatisticKind.pdt(0.9), w) == -4.0


def test_pdt_tiny_fraction_keeps_one_offset():
    # p*T below the 1e-9 slack of ceil_fraction still keeps the smallest
    # per-offset sum, as any p <= 1/T does, rather than none (a constant 0).
    params = make_params(T=8, seed=17)
    w = window(np.random.default_rng(4).standard_normal(2 * 8 + 3), params)
    tiny = em.statistic_value(em.StatisticKind.pdt(1e-12), w)
    tenth = em.statistic_value(em.StatisticKind.pdt(0.1), w)
    assert tiny != 0.0
    assert np.float64(tiny).tobytes() == np.float64(tenth).tobytes()


def test_pdt_rejects_bad_fraction():
    with pytest.raises(ValueError):
        em.StatisticKind.pdt(0.0)
    with pytest.raises(ValueError):
        em.StatisticKind.pdt(1.5)


def test_pdt_subset_size_rounding():
    # ceil(0.9*40) must be 36 despite 0.9*40 -> 36.000000000000007 in floats.
    from epimon.stats import ceil_fraction

    assert ceil_fraction(0.9 * 40) == 36
    assert ceil_fraction(1.0 * 7) == 7
    assert ceil_fraction(0.5 * 2) == 1


# ---------------------------------------------------------------------------
# hotelling
# ---------------------------------------------------------------------------


def test_hotelling_zero_at_reference_mean(small_params):
    vals = np.tile(small_params.mu0, 2)
    assert em.statistic_value(HOTELLING, window(vals, small_params)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_hotelling_identity_reduction():
    params = em.EpisodeParams(np.zeros(3), np.eye(3))
    rng = np.random.default_rng(8)
    K = 4
    eps = rng.standard_normal((K, 3))
    w = window(eps.ravel(), params)
    delta = eps.mean(axis=0)
    assert em.statistic_value(HOTELLING, w) == pytest.approx(-K * (delta**2).sum())


def test_hotelling_chi_square_mean():
    # Under the null with K whole episodes, the quadratic has T degrees of
    # freedom, so its Monte-Carlo mean must be close to T.
    params = make_params(T=6, seed=23, condition=40)
    K, draws = 2, 10000
    eps = em.generate_episodes(
        em.Scenario(params=params, kind="h0", seed=77), draws * K
    )
    blocks = eps.reshape(draws, K, params.T)
    delta = blocks.mean(axis=1) - params.mu0
    g = delta * np.sqrt(K)
    q = np.einsum("ij,jk,ik->i", g, params.sigma0_inv, g)
    assert abs(q.mean() - params.T) <= 0.05 * params.T
    # and the scalar evaluator agrees with the direct quadratic
    w = window(blocks[0].ravel(), params)
    assert em.statistic_value(HOTELLING, w) == pytest.approx(-q[0])


def test_hotelling_subepisode_window():
    params = make_params(T=5, seed=29)
    vals = params.mu0[:3] + np.array([1.0, -2.0, 0.5])
    w = window(vals, params)
    delta = vals - params.mu0[:3]
    expected = -float(delta @ params.tail_inverse(3) @ delta)
    assert em.statistic_value(HOTELLING, w) == pytest.approx(expected)


def test_count_scaling_is_cached_read_only_and_per_offset():
    # hotelling scales by the table's counts; the live monitor asks for the
    # same (horizons, tau) at every test-point.
    params = make_params(T=7, seed=31)
    for K, tau in [(1, 1), (1, 7), (3, 4)]:
        table = params.count_scaling((K,), tau)
        assert params.count_scaling((K,), tau) is table
        counts = np.where(np.arange(params.T) < tau, K + 1.0, float(K))
        for vec, want in ((table.offset, counts * params.mu0),
                          (table.scale, 1 / np.sqrt(counts))):
            assert vec.shape == (1, params.T)
            assert not vec.flags.writeable
            np.testing.assert_array_equal(vec[0], want)
    # A tuple of K gives the per-K vectors stacked, bit for bit.
    for Ks, tau in [((1,), 7), ((2, 5, 9), 3), ((4, 1), 1)]:
        stacked = params.count_scaling(Ks, tau)
        assert params.count_scaling(Ks, tau) is stacked
        assert stacked._fields == ("offset", "scale", "length")
        for i, vec in enumerate(stacked):
            want = np.concatenate([params.count_scaling((K,), tau)[i] for K in Ks])
            assert not vec.flags.writeable
            assert vec.shape == want.shape and vec.tobytes() == want.tobytes()
    for K in ((0,), (3, 0), (2, -1, 4)):
        with pytest.raises(ValueError):
            params.count_scaling(K, 3)


def test_window_length_is_cached_and_read_only():
    # mean's finish divides by the window lengths, the count table's
    # ``length`` field; the live monitor asks for the same (horizons, tau)
    # at every test-point.
    params = make_params(T=7, seed=31)
    for K, tau in [((1,), 3), ((5,), 7), ((1,), 2), ((3, 30), 4)]:
        length = params.count_scaling(K, tau).length
        assert params.count_scaling(K, tau).length is length
        want = np.multiply(K, params.T) + tau
        assert np.asarray(length).tobytes() == np.asarray(want).tobytes()
        assert length.shape == np.shape(K) and not length.flags.writeable


@pytest.mark.parametrize("spec", ["mean", "udt", "pdt:0.6", "cusum:0.5", "hotelling"])
@pytest.mark.parametrize("tau", [1, 4, 7])
def test_finish_over_stacked_horizons_matches_one_row_calls(spec, tau):
    # The live monitor stacks the whole parts of its horizons and finishes
    # them with one tail in one call; each row must be the one-row call.
    kind = em.parse_statistic(spec)
    params = make_params(T=7, seed=36, condition=60)
    rows = em.generate_episodes(em.Scenario(params=params, kind="h0", seed=37), 12)
    pieces = np.moveaxis(episode_piece(kind.name, rows[:-1], params), 0, -1)[np.newaxis]
    tail = episode_piece(kind.name, rows[-1:, :tau], params)
    horizons = (1, 2, 5, 11)
    wholes = [whole_part(kind, pieces[..., -h:]) for h in horizons]
    stacked = np.concatenate(wholes)
    kept = stacked.tobytes(), tail.tobytes()
    got = finish(kind, params, stacked, tail, horizons, tau)
    want = np.concatenate([
        finish(kind, params, whole, tail, (h,), tau) for whole, h in zip(wholes, horizons)
    ])
    assert (stacked.tobytes(), tail.tobytes()) == kept  # left unchanged
    assert got.shape == (len(horizons),)
    if kind.name == "hotelling":
        # Its quadratic is one matrix product, and BLAS may round an
        # (H, T) @ S product's row differently from a (1, T) @ S product.
        np.testing.assert_allclose(got, want, rtol=1e-12)
    else:
        assert got.tobytes() == want.tobytes()


def test_batch_hotelling_agrees_with_one_row_values():
    # A batch rounds through a matrix-matrix product and one window through
    # a vector-matrix product, so they agree to rounding, not bitwise.
    params = make_params(T=12, seed=33, condition=80)
    episodes = em.generate_episodes(em.Scenario(params=params, kind="h0", seed=34), 60)
    ev = BatchEvaluator(episodes, params)
    rng = np.random.default_rng(35)
    R = 4096
    for K, tau in [(0, 5), (2, 5), (1, 12)]:
        whole_idx = rng.integers(0, 60, size=(R, K))
        tail_idx = rng.integers(0, 60, size=R)
        batch = ev.values(HOTELLING, whole_idx, tail_idx, tau)
        one_row = [
            em.statistic_value(HOTELLING, window(np.concatenate(
                [*episodes[whole_idx[r]], episodes[tail_idx[r], :tau]]), params))
            for r in range(R)
        ]
        np.testing.assert_allclose(batch, one_row, rtol=1e-12)


# ---------------------------------------------------------------------------
# cusum
# ---------------------------------------------------------------------------


def test_cusum_zero_at_reference_mean(small_params):
    vals = np.tile(small_params.mu0, 2)
    assert em.statistic_value(CUSUM, window(vals, small_params)) == 0.0


def test_cusum_hand_recursion():
    params = em.EpisodeParams(np.zeros(1), np.eye(1))
    w = window([-2.0, -2.0], params)
    # drift 1.5 per step: C = 1.5 then 3.0
    assert em.statistic_value(CUSUM, w) == -3.0


def test_cusum_one_sided():
    params = make_params(T=4, seed=31)
    vals = np.tile(params.mu0 + 10 * params.step_std, 3)
    assert em.statistic_value(CUSUM, window(vals, params)) == 0.0


def test_cusum_matches_literal_recursion():
    params = make_params(T=5, seed=37)
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(13) + np.tile(params.mu0, 3)[:13]
    c = 0.0
    std = params.step_std
    for t, x in enumerate(vals, start=1):
        tau = em.decompose_index(t, 5).tau
        c = max(0.0, c + (params.mu0[tau - 1] - x) / std[tau - 1] - 0.5)
    w = window(vals, params)
    assert em.statistic_value(CUSUM, w) == pytest.approx(-c, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# mixed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x", [0.9, 1.0, 0.5, 0.25, 1e-7, 0.1234567, 0.1234568, 1 / 3])
def test_spec_parses_back_to_its_kind(x):
    # A spec is the store key and the bundle's spelling of a plan: it must
    # parse back to the same parameter, or the monitor would read another
    # statistic than the one tuned (pdt:0.1234567 at T = 81 takes m = 10).
    pdt = em.StatisticKind.pdt(x)
    for kind in (pdt, em.StatisticKind.cusum(x), em.StatisticKind.cusum(-x),
                 em.StatisticKind.mixed(MEAN, pdt)):
        assert em.parse_statistic(kind.spec) == kind, kind.spec


def test_spec_keeps_short_spellings_and_distinct_keys():
    # Values that :g spells exactly keep that spelling (golden store keys);
    # values it would round get a store key of their own.
    specs = ["pdt:0.9", "pdt:1", "cusum:0.5", "mixed:mean+pdt:0.9"]
    assert [em.parse_statistic(spec).spec for spec in specs] == specs
    assert em.StatisticKind.pdt(0.1234567).spec == "pdt:0.1234567"
    assert em.StatisticKind.pdt(0.1234568).spec == "pdt:0.1234568"


def test_mixed_requires_two_components():
    with pytest.raises(ValueError):
        em.StatisticKind.mixed(MEAN)
    with pytest.raises(ValueError):
        em.StatisticKind.mixed(MEAN, em.MIXED_MEAN_PDT_PRESET)


def test_mixed_requires_store(small_params):
    with pytest.raises(NotTunedError):
        em.statistic_value(
            em.MIXED_MEAN_PDT_PRESET, window(np.zeros(6), small_params)
        )


def test_mixed_takes_min_component_pvalue():
    params = make_params(T=4, seed=43)
    ref = make_reference(params, 60, seed=1)
    store = em.BootstrapStore(params, B=200, seed=5)
    kind = em.StatisticKind.mixed(MEAN, UDT)
    store.ensure(ref, [kind], [params.T])
    # catastrophic window: both component p-values at the floor -> min = floor
    w = window(params.mu0 - 50 * params.step_std, params)
    assert em.statistic_value(kind, w, store) == pytest.approx(1 / 201)
    # ordinary window: value equals the smaller of the component p-values
    w2 = window(em.generate_episodes(em.Scenario(params=params, seed=9), 1)[0], params)
    ps = []
    for comp in (MEAN, UDT):
        dist = store.values_for(comp, w2.n)
        y = em.statistic_value(comp, w2)
        ps.append((1 + np.searchsorted(dist, y, side="right")) / 201)
    assert em.statistic_value(kind, w2, store) == pytest.approx(min(ps))


@pytest.mark.parametrize("K", [0, 2])
@pytest.mark.parametrize("spec", ["mdt", "mixed:mean+udt"])
def test_mixed_statistic_value_is_mixed_values_of_component_rows(spec, K):
    # Windows from fresh episodes, and from the reference itself, whose
    # component values tie with stored ones.
    params = make_params(T=6, seed=59, condition=80)
    ref = make_reference(params, 40, seed=3)
    kind = em.parse_statistic(spec)
    taus = (1, 3, 6)
    store = em.BootstrapStore(params, B=150, seed=8)
    store.ensure(ref, [kind], [K * params.T + tau for tau in taus])
    fresh = em.generate_episodes(em.Scenario(params=params, seed=61), K + 1)
    for episodes in (fresh, ref.episodes[: K + 1], ref.episodes[-K - 1 :]):
        for tau in taus:
            n = K * params.T + tau
            w = window(episodes.reshape(-1)[:n], params)
            values = {c.spec: em.statistic_value(c, w) for c in kind.components}
            want = mixed_values(store.component_rows(kind, n), values)
            got = em.statistic_value(kind, w, store)
            assert got.hex() == want.hex(), (tau, got, want)


def test_evaluator_and_bootstrap_distribution_reject_mixed_kinds():
    params = make_params(T=4, seed=43)
    ref = make_reference(params, 20, seed=1)
    ev = BatchEvaluator(ref.episodes, params)
    for kind in (em.parse_statistic("mdt"), em.MIXED_MEAN_PDT_PRESET):
        with pytest.raises(ValueError, match="components of the mixed"):
            ev.values(kind, np.zeros((2, 1), dtype=int), np.zeros(2, dtype=int), 2)
        with pytest.raises(ValueError, match="components of the mixed"):
            ev.offset_values(kind, np.zeros((2, 3), dtype=int), (0, 1), (2, 4))
        with pytest.raises(ValueError, match="components of the mixed"):
            em.bootstrap_distribution(ref, params, kind, n=6, B=10, seed=0)


def test_mixed_values_of_floats_equal_those_of_length_one_arrays():
    # The monitor passes Python floats, the replay and the store arrays;
    # both must be the same mixed rule, bit for bit.
    rng = np.random.default_rng(3)
    rows = [(spec, np.sort(rng.normal(size=50))) for spec in ("mean", "udt")]
    ties = [row[::7] for _, row in rows]  # values equal to stored ones
    ys = np.concatenate([rng.normal(size=40), *ties, [-9.0, 9.0]])
    for a, b in zip(ys, ys[::-1]):
        from_floats = mixed_values(rows, {"mean": float(a), "udt": float(b)})
        from_arrays = mixed_values(rows, {"mean": np.array([a]), "udt": np.array([b])})
        assert from_floats == from_arrays[0]
        assert from_floats.hex() == float(from_arrays[0]).hex()


@pytest.mark.parametrize("B", [1, 2, 3, 7, 2000, 4097])
def test_pvalue_grid_is_the_rule_bit_for_bit_read_only_and_cached(B):
    grid = pvalue_grid(B)
    assert grid.dtype == np.float64 and grid.shape == (B + 1,)
    assert [g.hex() for g in grid.tolist()] == [
        ((1.0 + c) / (1.0 + B)).hex() for c in range(B + 1)
    ]
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 0.5
    assert pvalue_grid(B) is grid


def test_bootstrap_pvalues_of_a_float_equal_those_of_a_one_element_array():
    # Rounded draws tie each other and the probe values taken from the row.
    rng = np.random.default_rng(11)
    row = np.sort(rng.normal(size=60).round(1))
    ys = np.concatenate([row[::4], rng.normal(size=30), [-9.0, 9.0, -0.0, 0.0]])
    for y in ys:
        from_float = bootstrap_pvalues(row, float(y))
        from_array = bootstrap_pvalues(row, np.array([y]))
        want = (1.0 + np.count_nonzero(row <= y)) / (1.0 + row.size)
        assert from_float.hex() == float(from_array[0]).hex() == want.hex(), y


def test_mixed_h0_distribution_subuniform_and_recalibrated():
    # The min of dependent p-values is stochastically smaller than U(0,1);
    # its own bootstrap restores the intended rejection rate.
    params = make_params(T=3, seed=47)
    ref = make_reference(params, 400, seed=2)
    store = em.BootstrapStore(params, B=800, seed=6)
    kind = em.MIXED_MEAN_PDT_PRESET
    n = 2 * params.T
    store.ensure(ref, [kind], [n])
    draws = 4000
    fresh = em.generate_episodes(em.Scenario(params=params, kind="h0", seed=99), 2 * draws)
    windows = fresh.reshape(draws, n)
    values = np.array(
        [em.statistic_value(kind, window(v, params), store) for v in windows]
    )
    # stochastic dominance at a few grid points
    for q in [0.1, 0.25, 0.5]:
        assert (values <= q).mean() >= q - 0.02
    rejected = 0
    for v in windows[:2000]:
        reject, _ = em.individual_test(window(v, params), kind, store, alpha=0.05)
        rejected += reject
    assert 0.03 <= rejected / 2000 <= 0.07


# ---------------------------------------------------------------------------
# cross-statistic invariants
# ---------------------------------------------------------------------------


def test_rank_order_udt_equals_mean_under_scaled_identity():
    params = em.EpisodeParams(np.zeros(4), 2.5 * np.eye(4))
    rng = np.random.default_rng(11)
    windows = rng.standard_normal((20, 10))
    means = [em.statistic_value(MEAN, window(v, params)) for v in windows]
    udts = [em.statistic_value(UDT, window(v, params)) for v in windows]
    assert np.argsort(means).tolist() == np.argsort(udts).tolist()


def test_translation_covariance():
    params = make_params(T=4, seed=53)
    shifted = em.EpisodeParams(params.mu0 + 7.0, params.sigma0)
    rng = np.random.default_rng(12)
    vals = rng.standard_normal(11) + np.tile(params.mu0, 3)[:11]
    w, ws = window(vals, params), window(vals + 7.0, shifted)
    weights_sum = em.window_weights(params, 11).sum()
    assert em.statistic_value(MEAN, ws) == pytest.approx(
        em.statistic_value(MEAN, w) + 7.0
    )
    assert em.statistic_value(UDT, ws) == pytest.approx(
        em.statistic_value(UDT, w) + 7.0 * weights_sum
    )
    for kind in [em.StatisticKind.pdt(0.7), HOTELLING, CUSUM]:
        assert em.statistic_value(kind, ws) == pytest.approx(
            em.statistic_value(kind, w), rel=1e-9, abs=1e-9
        )


def test_window_rejects_nan(small_params):
    with pytest.raises(InvalidDataError):
        window([1.0, np.nan], small_params)


def test_all_statistics_finite(small_params):
    rng = np.random.default_rng(13)
    w = window(rng.standard_normal(2 * small_params.T + 3) * 100, small_params)
    for kind in [MEAN, UDT, em.StatisticKind.pdt(0.9), HOTELLING, CUSUM]:
        assert np.isfinite(em.statistic_value(kind, w))


# ---------------------------------------------------------------------------
# independent dense oracle
# ---------------------------------------------------------------------------


def dense_oracle(kind, values, params, store=None):
    """Value of ``kind`` on one window, computed from its definition on the
    explicit n x n block-diagonal window covariance with ``np.linalg.solve``,
    explicit per-offset means and a literal cusum loop."""
    T, n = params.T, values.size
    dec = em.decompose_index(n, T)
    K, tau = dec.k, dec.tau
    offsets = np.arange(n) % T
    present = T if K else tau
    if kind.name == "mean":
        return values.sum() / n
    if kind.name in ("udt", "pdt"):
        sigma = np.zeros((n, n))
        for k in range(K + 1):
            size = T if k < K else tau
            block = slice(k * T, k * T + size)
            sigma[block, block] = params.sigma0[:size, :size]
        if kind.name == "udt":
            return np.ones(n) @ np.linalg.solve(sigma, values)
        solved = np.linalg.solve(sigma, values - params.mu0[offsets])
        sums = np.array([solved[offsets == j].sum() for j in range(present)])
        m = min(ceil_fraction(kind.p * T), present)
        return np.sort(sums)[:m].sum()
    if kind.name == "hotelling":
        counts = np.array([(offsets == j).sum() for j in range(present)])
        means = np.array([values[offsets == j].mean() for j in range(present)])
        g = (means - params.mu0[:present]) * np.sqrt(counts)
        return -(g @ np.linalg.solve(params.sigma0[:present, :present], g))
    if kind.name == "cusum":
        std = np.sqrt(np.diag(params.sigma0))
        c = 0.0
        for x, j in zip(values, offsets):
            c = max(0.0, c + (params.mu0[j] - x) / std[j] - kind.k_ref)
        return -c
    ps = []
    for comp in kind.components:
        dist = store.values_for(comp, n)
        y = dense_oracle(comp, values, params)
        ps.append((1 + np.count_nonzero(dist <= y)) / (1 + dist.size))
    return min(ps)


ORACLE_KINDS = [MEAN, UDT, em.StatisticKind.pdt(0.5), em.StatisticKind.pdt(1.0),
                HOTELLING, CUSUM, em.StatisticKind.mixed(MEAN, UDT),
                em.parse_statistic("mdt")]


@pytest.mark.parametrize("K", [0, 1, 3])
def test_statistic_value_matches_dense_oracle(K):
    params = make_params(T=6, seed=59, condition=80)
    ref = make_reference(params, 40, seed=3)
    store = em.BootstrapStore(params, B=150, seed=8)
    store.ensure(ref, ORACLE_KINDS, [K * params.T + tau for tau in (1, 2, 5, 6)])
    rng = np.random.default_rng(16)
    for tau in (1, 2, 5, 6):
        n = K * params.T + tau
        mu = np.tile(params.mu0, K + 1)[:n]
        sd = 3 * np.tile(np.sqrt(np.diag(params.sigma0)), K + 1)[:n]
        for _ in range(3):
            vals = mu + sd * rng.standard_normal(n)
            for kind in ORACLE_KINDS:
                got = em.statistic_value(kind, window(vals, params), store)
                want = dense_oracle(kind, vals, params, store)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12), (kind.spec, tau)


@pytest.mark.parametrize("K", [0, 1, 4])
def test_hotelling_matches_dense_oracle(K):
    params = make_params(T=9, seed=63, condition=80)
    rng = np.random.default_rng(64)
    for tau in (1, params.T // 2, params.T):
        n = K * params.T + tau
        mu = np.tile(params.mu0, K + 1)[:n]
        for _ in range(5):
            vals = mu + 2 * rng.standard_normal(n)
            got = em.statistic_value(HOTELLING, window(vals, params))
            want = dense_oracle(HOTELLING, vals, params)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12), tau


def test_dense_oracle_hand_values():
    # Checks of the oracle itself, by hand on an identity covariance.
    params = em.EpisodeParams(np.zeros(2), np.eye(2))
    vals = np.array([-5.0, 1.0, -5.0, 1.0, 3.0])
    assert dense_oracle(UDT, vals, params) == pytest.approx(-5.0)
    # per-offset sums (-7, 2); the smallest half keeps -7
    assert dense_oracle(em.StatisticKind.pdt(0.5), vals, params) == pytest.approx(-7.0)
    # offset means (-7/3, 1) with counts (3, 2): -(3 * 49/9 + 2 * 1)
    assert dense_oracle(HOTELLING, vals, params) == pytest.approx(-(49 / 3 + 2))
    # drifts 4.5, -1.5, 4.5, -1.5, -3.5: C = 4.5, 3, 7.5, 6, 2.5
    assert dense_oracle(CUSUM, vals, params) == pytest.approx(-2.5)


# ---------------------------------------------------------------------------
# batch evaluator agrees with the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("K,tau", [(0, 1), (0, 4), (1, 2), (2, 6), (3, 3)])
def test_batch_matches_scalar(K, tau):
    # The evaluator takes base statistics only; statistic_value's mixed
    # values are checked against the dense oracle above.
    params = make_params(T=6, seed=59, condition=80)
    fresh = em.generate_episodes(em.Scenario(params=params, kind="h0", seed=61), 40)
    ev = BatchEvaluator(fresh, params)
    rng = np.random.default_rng(14)
    R = 25
    whole_idx = rng.integers(0, 40, size=(R, K))
    tail_idx = rng.integers(0, 40, size=R)
    kinds = [MEAN, UDT, em.StatisticKind.pdt(0.6), HOTELLING, CUSUM]
    for kind in kinds:
        batch = ev.values(kind, whole_idx, tail_idx, tau)
        for r in range(R):
            parts = [fresh[j] for j in whole_idx[r]]
            parts.append(fresh[tail_idx[r], :tau])
            oracle = dense_oracle(kind, np.concatenate(parts), params)
            assert batch[r] == pytest.approx(oracle, rel=1e-10, abs=1e-12), kind.spec


OFFSET_KINDS = [MEAN, UDT, em.StatisticKind.pdt(0.5), em.StatisticKind.pdt(1.0),
                HOTELLING, CUSUM]


@pytest.mark.parametrize("K", [0, 2])
@pytest.mark.parametrize("kind", OFFSET_KINDS, ids=lambda k: k.spec)
def test_offset_values_keep_offsets_independent(kind, K):
    # Runs of K + 3 rows test 3 windows each; more runs than one chunk, so
    # the shared whole-episode parts are built in two chunks, and every
    # offset of the episode is evaluated in one call. Each entry is the
    # one-window, one-offset values call.
    params = make_params(T=6, seed=59, condition=80)
    fresh = em.generate_episodes(em.Scenario(params=params, kind="h0", seed=61), 40)
    ev = BatchEvaluator(fresh, params)
    rng = np.random.default_rng(15)
    E = 3
    chunk = runs_per_chunk(E)
    runs = chunk + 100
    streams = rng.integers(0, 40, size=(runs, K + E))
    taus = range(1, params.T + 1)

    multi = ev.offset_values(kind, streams, (K,), taus)
    assert multi.shape == (1, len(taus), runs, E)
    assert np.array_equal(ev.offset_values(kind, streams, (K,), taus), multi)
    picks = sorted({0, chunk - 1, chunk, runs - 1, *range(0, runs, 131)})
    for e in range(E):
        whole_idx, tail_idx = streams[:, e : e + K], streams[:, K + e]
        for i, tau in enumerate(taus):
            one = ev.values(kind, whole_idx, tail_idx, tau)
            assert np.array_equal(multi[0, i, :, e], one), (e, tau)
            oracle = [
                dense_oracle(kind, np.concatenate(
                    [*fresh[whole_idx[r]], fresh[tail_idx[r], :tau]]), params)
                for r in picks
            ]
            np.testing.assert_allclose(multi[0, i, picks, e], oracle, rtol=1e-12)


@pytest.mark.parametrize("E", [1, 3])
@pytest.mark.parametrize("kind", OFFSET_KINDS, ids=lambda k: k.spec)
def test_offset_values_are_bitwise_the_same_gathered_in_blocks(monkeypatch, kind, E):
    # 11 runs in chunks of 9 and 2. With a budget of one run's pieces
    # (cusum: its drift) the chunks gather 1-run blocks; with four runs'
    # budget the chunk of 9 gathers blocks of 4, 4 and 1 and the chunk of
    # 2 one block. Every value is that of the whole chunk in one block.
    params = make_params(T=6, seed=86, condition=40)
    fresh = em.generate_episodes(em.Scenario(params=params, kind="h0", seed=87), 30)
    ev = BatchEvaluator(fresh, params)
    horizons, P, runs = (0, 1, 3), 3, 11
    streams = np.random.default_rng(88).integers(0, 30, size=(runs, P + E))
    taus = range(1, params.T + 1)
    one_block = ev.offset_values(kind, streams, horizons, taus)
    width = 1 if kind.name in ("mean", "udt") else params.T
    per_run = (E * P if kind.name == "cusum" else P + E - 1) * width
    monkeypatch.setattr(stats, "_BATCH_CHUNK", 9 * E)
    calls = []
    real = stats.whole_part

    def counting(kind, pieces):
        calls.append(pieces.shape[0])
        return real(kind, pieces)

    monkeypatch.setattr(stats, "whole_part", counting)
    for block, sizes in ((1, [1] * runs), (4, [4, 4, 1, 2])):
        monkeypatch.setattr(stats, "_GATHER_ITEMS", block * per_run)
        calls.clear()
        blocked = ev.offset_values(kind, streams, horizons, taus)
        assert calls == [n for n in sizes for _ in (1, 3)], block
        assert blocked.tobytes() == one_block.tobytes(), block


def _concatenated_cusum(kind, params, episodes, whole_idx, tail_idx, tau):
    """Reference cusum: the whole window's raw rows concatenated, drifts
    from tiled mu0/std, one cumsum over all K*T + tau columns."""
    T = params.T
    K = whole_idx.shape[1]
    windows = np.concatenate(
        [episodes[whole_idx].reshape(len(tail_idx), -1), episodes[tail_idx, :tau]],
        axis=1,
    )
    n = K * T + tau
    mu = np.tile(params.mu0, K + 1)[:n]
    std = np.tile(np.sqrt(np.diag(params.sigma0)), K + 1)[:n]
    prefix = np.cumsum((mu - windows) / std - kind.k_ref, axis=1)
    return -(prefix[:, -1] - np.minimum(0.0, prefix.min(axis=1)))


@pytest.mark.parametrize("K", [0, 1, 3])
def test_cusum_offset_values_bitwise_match_one_cumsum_over_the_window(K):
    # The whole part keeps (last value, minimum) of the drift prefix and the
    # finish continues it over the tail; that must be bitwise one cumsum
    # over the concatenated window, at each of a run's two tested episodes
    # and in both chunks of the batch.
    params = make_params(T=7, seed=81, condition=60)
    episodes = em.generate_episodes(em.Scenario(params=params, kind="h0", seed=82), 50)
    ev = BatchEvaluator(episodes, params)
    rng = np.random.default_rng(83)
    E = 2
    runs = runs_per_chunk(E) + 75
    streams = rng.integers(0, 50, size=(runs, K + E))
    taus = range(1, params.T + 1)
    for k_ref in (0.0, 0.5, 1.0):
        kind = em.StatisticKind.cusum(k_ref)
        got = ev.offset_values(kind, streams, (K,), taus)
        for e in range(E):
            whole_idx, tail_idx = streams[:, e : e + K], streams[:, K + e]
            for i, tau in enumerate(taus):
                oracle = _concatenated_cusum(
                    kind, params, episodes, whole_idx, tail_idx, tau)
                assert np.array_equal(got[0, i, :, e], oracle), (k_ref, e, tau)


def test_mean_piece_of_cropped_rows_is_their_row_sum():
    # Whole and cropped rows share one piece formula. From 8 columns on a
    # running cumsum differs from numpy's pairwise row sum in the last bit,
    # so a tail piece taken from the cumsum would not be the whole piece's
    # arithmetic. The tau = T tail shares the whole-episode piece.
    T, R = 40, 400
    params = make_params(T=T, seed=84)
    rows = np.random.default_rng(85).normal(3.0, 10.0, size=(R, T))
    ev = BatchEvaluator(rows, params)
    no_whole = np.empty((R, 0), dtype=int)
    for m in range(8, T + 1):
        expected = rows[:, :m].sum(axis=1)
        assert np.array_equal(episode_piece("mean", rows[:, :m], params), expected), m
        assert np.array_equal(ev.values(MEAN, no_whole, np.arange(R), m), expected / m), m
    whole = BatchEvaluator(rows, params)
    whole.values(MEAN, np.arange(R)[:, np.newaxis], np.arange(R), T)
    assert list(whole._pieces) == [("mean", T)]


def test_step_std_is_cached_and_read_only(small_params):
    std = small_params.step_std
    assert small_params.step_std is std
    assert not std.flags.writeable
    np.testing.assert_array_equal(std, np.sqrt(np.diag(small_params.sigma0)))
