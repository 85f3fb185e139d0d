"""Generator moments, closed-form oracles, and their cross-checks."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epimon as em
from epimon import synthetic
from epimon.synthetic import generate_runs

from conftest import SRC, make_params


def test_generator_single_offset_moments():
    params = em.EpisodeParams(np.array([2.0, -1.0]), np.eye(2))
    draws = 100000
    eps = em.generate_episodes(em.Scenario(params=params, kind="h0", seed=5), draws)
    assert abs(eps[:, 0].mean() - 2.0) <= 3 / np.sqrt(draws)
    assert abs(eps[:, 0].var(ddof=1) - 1.0) <= 0.05


def test_generator_uniform_shift():
    params = make_params(T=4, seed=1)
    sc = em.Scenario(params=params, kind="uniform", epsilon=0.7, seed=6)
    eps = em.generate_episodes(sc, 20000)
    se = np.sqrt(np.diag(params.sigma0) / 20000)
    assert np.all(np.abs(eps.mean(axis=0) - (params.mu0 - 0.7)) <= 4 * se)


def test_generator_partial_shift_preserves_covariance():
    params = make_params(T=4, seed=2, condition=10)
    sc = em.Scenario(params=params, kind="partial", epsilon=1.5, offsets=(1,), seed=7)
    draws = 40000
    eps = em.generate_episodes(sc, draws)
    mean = eps.mean(axis=0)
    se = np.sqrt(np.diag(params.sigma0) / draws)
    assert abs(mean[0] - (params.mu0[0] - 1.5)) <= 4 * se[0]
    assert np.all(np.abs(mean[1:] - params.mu0[1:]) <= 4 * se[1:])
    S = params.sigma0
    cov_sd = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S**2) / (draws - 1))
    assert np.all(np.abs(np.cov(eps, rowvar=False) - S) <= 5 * cov_sd)


def test_generated_runs_put_each_mean_on_its_rows():
    # Warm-up rows follow mu0 and tested rows the partial scenario's mean;
    # both keep sigma0. Six-sample episodes, 2 + 3 rows per run.
    params = make_params(T=6, seed=4, condition=10)
    sc = em.Scenario(params=params, kind="partial", offsets=(2, 5),
                     epsilon=params.mean_step_std, seed=8)
    warmup, episodes, runs = 2, 3, 3000
    table = np.array(list(generate_runs(sc, warmup, episodes, runs)))
    assert table.shape == (runs, (warmup + episodes) * params.T)
    rows = table.reshape(runs, warmup + episodes, params.T)
    S = params.sigma0
    # The drop spans dozens of standard errors, so swapped means would fail.
    assert np.all(sc.mean[[1, 4]] < params.mu0[[1, 4]] - 20 * np.sqrt(
        np.diag(S)[[1, 4]] / (runs * warmup)))
    for part, mean in ((rows[:, :warmup], params.mu0),
                       (rows[:, warmup:], sc.mean)):
        part = part.reshape(-1, params.T)
        n = len(part)
        se = np.sqrt(np.diag(S) / n)
        assert np.all(np.abs(part.mean(axis=0) - mean) <= 4 * se)
        cov_sd = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S**2) / (n - 1))
        assert np.all(np.abs(np.cov(part, rowvar=False) - S) <= 5 * cov_sd)


def test_generator_scaled_uniform_shift():
    params = make_params(T=3, seed=3)
    sc = em.Scenario(params=params, kind="scaled_uniform", epsilon=2.0, K=16, seed=8)
    np.testing.assert_allclose(sc.mean, params.mu0 - 0.5)


def test_generator_deterministic_per_seed_and_stream():
    params = make_params(T=3, seed=4)
    sc = em.Scenario(params=params, kind="h0", seed=9)
    a = em.generate_episodes(sc, 5)
    b = em.generate_episodes(sc, 5)
    assert np.array_equal(a, b)
    c = em.generate_episodes(sc, 5, stream=1)
    assert not np.array_equal(a, c)


def test_scenario_validation():
    params = make_params(T=3, seed=5)
    with pytest.raises(ValueError):
        em.Scenario(params=params, kind="partial", epsilon=1.0)  # no offsets
    with pytest.raises(ValueError):
        em.Scenario(params=params, kind="partial", epsilon=1.0, offsets=(4,))
    with pytest.raises(ValueError):
        em.Scenario(params=params, kind="uniform", epsilon=-1.0)
    for epsilon in (float("nan"), float("inf")):  # NaN would fail late, in streams
        with pytest.raises(ValueError, match="epsilon must be finite"):
            em.Scenario(params=params, kind="uniform", epsilon=epsilon)
    with pytest.raises(ValueError):
        em.Scenario(params=params, kind="bogus")


@pytest.mark.parametrize("fields", [
    {"kind": "h0", "epsilon": 5.0},
    {"kind": "uniform", "epsilon": 1.0, "offsets": (1, 2)},
    {"kind": "scaled_uniform", "epsilon": 1.0, "K": 4, "offsets": (1,)},
    {"kind": "uniform", "epsilon": 0.1, "K": 7},
    {"kind": "partial", "epsilon": 1.0, "offsets": (1,), "K": 2},
], ids=["h0-epsilon", "uniform-offsets", "scaled-offsets", "uniform-K", "partial-K"])
def test_scenario_rejects_fields_its_kind_ignores(fields):
    with pytest.raises(ValueError, match="takes no"):
        em.Scenario(params=make_params(T=3, seed=5), **fields)


# ---------------------------------------------------------------------------
# power gain
# ---------------------------------------------------------------------------


def test_power_gain_flat_spectrum_is_one():
    params = em.EpisodeParams(np.zeros(5), 3.0 * np.eye(5))
    direct, spectral = em.power_gain(params)
    assert direct == pytest.approx(1.0, abs=1e-12)
    assert spectral == pytest.approx(1.0, abs=1e-12)


def test_power_gain_hand_value():
    params = em.EpisodeParams(np.zeros(2), np.diag([1.0, 4.0]))
    direct, spectral = em.power_gain(params)
    assert direct == pytest.approx(1.5625, rel=1e-12)
    assert spectral == pytest.approx(1.5625, rel=1e-9)


def test_power_gain_dual_formula_and_lower_bound():
    rng = np.random.default_rng(17)
    for _ in range(200):
        T = int(rng.integers(2, 51))
        sigma = em.random_spd(T, rng, condition=10 ** rng.uniform(0, 4))
        params = em.EpisodeParams(np.zeros(T), sigma)
        direct, spectral = em.power_gain(params)
        assert abs(direct - spectral) <= 1e-9 * direct
        assert direct >= 1.0 - 1e-12  # Cauchy-Schwarz bound


# ---------------------------------------------------------------------------
# asymptotic power
# ---------------------------------------------------------------------------


def test_power_at_zero_epsilon_equals_alpha(small_params):
    for alpha in (0.01, 0.05, 0.2):
        pm, pu = em.asymptotic_power(small_params, 0.0, alpha)
        assert pm == pytest.approx(alpha, abs=1e-12)
        assert pu == pytest.approx(alpha, abs=1e-12)


def test_power_equal_under_identity_covariance():
    params = em.EpisodeParams(np.zeros(7), np.eye(7))
    pm, pu = em.asymptotic_power(params, 0.4, 0.05)
    assert pm == pytest.approx(pu, rel=1e-12)


def test_power_matches_scipy_normal_functions(small_params):
    special = pytest.importorskip("scipy.special")
    from statistics import NormalDist

    ones = np.ones(small_params.T)
    shift_mean = small_params.T / np.sqrt(ones @ small_params.sigma0 @ ones)
    shift_udt = np.sqrt(ones @ small_params.sigma0_inv @ ones)
    for alpha in np.geomspace(1e-12, 0.5, 40):
        q = special.ndtri(alpha)
        assert NormalDist().inv_cdf(alpha) == pytest.approx(q, rel=1e-12)
        for x in (q, q + 0.5, q + 3.0, -q):
            assert synthetic._normal_cdf(x) == pytest.approx(
                special.ndtr(x), rel=1e-12
            )
        for epsilon in (0.0, 0.3, 2.0):
            expected = (special.ndtr(q + epsilon * shift_mean),
                        special.ndtr(q + epsilon * shift_udt))
            got = em.asymptotic_power(small_params, epsilon, alpha)
            assert got == pytest.approx(expected, rel=1e-12)


def test_the_cli_runs_every_command_without_scipy(tmp_path):
    raw = make_params(T=4, seed=31, condition=20)
    episodes = em.generate_episodes(em.Scenario(params=raw, kind="h0", seed=32), 80)
    dropped = em.Scenario(params=raw, kind="uniform", epsilon=5.0, seed=33)
    stream = em.generate_episodes(dropped, 6)
    (tmp_path / "ref.csv").write_text(
        "\n".join(",".join(map(repr, row)) for row in episodes.tolist()) + "\n"
    )
    (tmp_path / "stream.txt").write_text(
        "\n".join(map(repr, stream.ravel().tolist())) + "\n"
    )
    (tmp_path / "plan.json").write_text(json.dumps({
        "statistics": ["udt", "mixed:mean+pdt:0.5"], "horizons": [1, 2],
        "h_tilde": 2, "alpha0": 0.3, "B_inner": 100, "B_outer": 20,
        "seed": 34, "test_every": 2,
    }))
    (tmp_path / "scenario.json").write_text(json.dumps({"kind": "h0"}))
    commands = [
        ["estimate", "ref.csv", "--episode-length", "4", "--downsample", "2",
         "--out", "params.json"],
        ["tune", "ref.csv", "--params", "params.json", "--plan", "plan.json",
         "--out", "bundle.json"],
        ["simulate", "--bundle", "bundle.json", "--scenario", "scenario.json",
         "--blocks", "3", "--seed", "35", "--out", "report.json"],
        ["monitor", "stream.txt", "--bundle", "bundle.json"],
        ["power", "--params", "params.json", "--epsilon-sigma", "0.5",
         "--out", "power.json"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from epimon.cli import main\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                               if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    codes, scipy_modules = json.loads(res.stdout)
    assert codes == [0, 0, 0, 3, 0], res.stderr  # the dropped stream fires
    assert scipy_modules == []


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.floats(0.05, 3.0), st.integers(0, 10**6))
def test_power_udt_dominates_mean(T, epsilon, seed):
    rng = np.random.default_rng(seed)
    sigma = em.random_spd(T, rng, condition=10 ** rng.uniform(0, 3))
    params = em.EpisodeParams(np.zeros(T), sigma)
    pm, pu = em.asymptotic_power(params, epsilon, 0.05)
    assert pu >= pm - 1e-12


# ---------------------------------------------------------------------------
# moment oracle
# ---------------------------------------------------------------------------


def test_moment_oracle_identities():
    params = make_params(T=10, seed=6, condition=1000)
    report = em.moment_oracle(params, K=5, draws=10000, seed=13)
    for key in ("var_sum", "var_weighted"):
        assert report[key]["rel_error"] <= 0.05
    # means checked against 3 standard errors of the Monte-Carlo average
    for key, var_key in (("mean_sum", "var_sum"), ("mean_weighted", "var_weighted")):
        se = np.sqrt(report[var_key]["exact"] / report["draws"])
        err = abs(report[key]["estimate"] - report[key]["exact"])
        assert err <= 3 * se


def test_moment_oracle_degraded_mean_shift():
    params = make_params(T=6, seed=7)
    K, eps = 4, 0.8
    clean = em.moment_oracle(params, K=K, draws=8000, epsilon=0.0, seed=14)
    shifted = em.moment_oracle(params, K=K, draws=8000, epsilon=eps, seed=14)
    w_sum = params.full_weights.sum()
    predicted_drop = eps * K * w_sum
    actual_drop = clean["mean_weighted"]["exact"] - shifted["mean_weighted"]["exact"]
    assert actual_drop == pytest.approx(predicted_drop, rel=1e-12)
    se = np.sqrt(clean["var_weighted"]["exact"] / 8000)
    est_drop = clean["mean_weighted"]["estimate"] - shifted["mean_weighted"]["estimate"]
    assert abs(est_drop - predicted_drop) <= 6 * se


def test_moment_oracle_identity_case():
    params = em.EpisodeParams(np.zeros(5), np.eye(5))
    report = em.moment_oracle(params, K=1, draws=5000, seed=15)
    assert report["var_sum"]["exact"] == 5.0
    assert report["var_weighted"]["exact"] == 5.0


# ---------------------------------------------------------------------------
# random SPD generator
# ---------------------------------------------------------------------------


def test_random_spd_condition_pinned():
    rng = np.random.default_rng(19)
    for T in (2, 5, 20):
        sigma = em.random_spd(T, rng, condition=1e3)
        eig = np.linalg.eigvalsh(sigma)
        assert eig.min() == pytest.approx(1.0, rel=1e-8)
        assert eig.max() == pytest.approx(1e3, rel=1e-8)
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-10)
