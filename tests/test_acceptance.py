"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. The whole suite is seed-pinned and finishes in a few minutes on
one core.
"""

import hashlib
import json

import numpy as np
import pytest
from scipy.special import ndtri

import epimon as em
from epimon.errors import ResolutionError

from conftest import run_cli

MEAN = em.StatisticKind.mean()
UDT = em.StatisticKind.udt()


def report(line):
    print(f"\n[PASS] {line}")


# ---------------------------------------------------------------------------
# criterion 1: sequential FAR calibration at the stated sizes
# ---------------------------------------------------------------------------


def test_criterion_1_far_calibration():
    T = 40
    rng = np.random.default_rng(202)
    sigma = em.random_spd(T, rng, condition=100)
    params = em.EpisodeParams(rng.uniform(1.0, 2.0, T), sigma)
    ref = em.ReferenceDataset(
        em.generate_episodes(em.Scenario(params=params, kind="h0", seed=301), 1000)
    )
    plan = em.MonitorPlan(
        statistics=(UDT,),
        horizons=(3, 30),
        h_tilde=30,
        alpha0=0.05,
        B_inner=2000,
        B_outer=1000,
        seed=302,
        test_every=1,  # F = T/d = 40 test-points per episode
    )
    tuned = em.bfar_tune(ref, params, plan)
    assert tuned.p_threshold > 1.0 / (plan.B_inner + 1)

    h0 = em.Scenario(params=params, kind="h0", seed=305)

    def stream(i):
        return em.generate_episodes(h0, plan.h_max + plan.h_tilde, stream=i).ravel()

    far = em.far_verify(tuned, stream, runs=2000)
    assert 0.03 <= far <= 0.08, f"empirical FAR {far} outside [0.03, 0.08]"
    report(
        f"criterion 1: sequential FAR {far:.4f} in [0.03, 0.08] "
        f"(alpha0=0.05, threshold {tuned.p_threshold:.4g}, 2000 runs)"
    )


# ---------------------------------------------------------------------------
# criterion 2: moment identities of the sum and weighted-sum statistics
# ---------------------------------------------------------------------------


def test_criterion_2_moment_identities():
    rng = np.random.default_rng(401)
    sigma = em.random_spd(10, rng, condition=1e3)
    params = em.EpisodeParams(rng.uniform(1.0, 2.0, 10), sigma)
    rep = em.moment_oracle(params, K=5, draws=10000, seed=402)
    for key in ("var_sum", "var_weighted"):
        assert rep[key]["rel_error"] <= 0.05, (key, rep[key])
    for mean_key, var_key in (
        ("mean_sum", "var_sum"),
        ("mean_weighted", "var_weighted"),
    ):
        se = np.sqrt(rep[var_key]["exact"] / rep["draws"])
        err = abs(rep[mean_key]["estimate"] - rep[mean_key]["exact"])
        assert err <= 3 * se, (mean_key, err, se)
        assert rep[mean_key]["rel_error"] <= 0.05
    report(
        "criterion 2: four moment identities hold (K=5, T=10, cond 1e3, "
        f"10k draws; worst var rel err "
        f"{max(rep['var_sum']['rel_error'], rep['var_weighted']['rel_error']):.4f})"
    )


# ---------------------------------------------------------------------------
# criterion 3: asymptotic power closure at K = 100
# ---------------------------------------------------------------------------


def test_criterion_3_power_closure():
    T, K, trials, B, alpha = 10, 100, 2000, 4000, 0.05
    rng = np.random.default_rng(501)
    sigma = em.random_spd(T, rng, condition=100)
    params = em.EpisodeParams(rng.uniform(1.0, 2.0, T), sigma)
    ones = np.ones(T)
    # epsilon chosen so the predicted weighted-test power is 0.8
    eps = (ndtri(0.8) - ndtri(alpha)) / np.sqrt(ones @ params.sigma0_inv @ ones)
    predicted_mean, predicted_udt = em.asymptotic_power(params, eps, alpha)
    assert predicted_udt == pytest.approx(0.8, abs=1e-12)

    # The bootstrap threshold inherits the reference-mean estimation error
    # amplified by sqrt(K/N) on the test's z-scale, so K=100 windows need a
    # deep reference set for the asymptotic formulas to close within 0.05.
    ref = em.ReferenceDataset(
        em.generate_episodes(em.Scenario(params=params, kind="h0", seed=502), 20000)
    )
    n = K * T
    degraded = em.Scenario(
        params=params, kind="scaled_uniform", epsilon=eps, K=K, seed=503
    )
    windows = em.generate_episodes(degraded, trials * K).reshape(trials, n)

    idx = em.empirical_quantile_index(alpha, B)
    powers = {}
    for kind, values in (
        (UDT, windows @ em.window_weights(params, n)),
        (MEAN, windows.mean(axis=1)),
    ):
        dist = em.bootstrap_distribution(ref, params, kind, n, B, seed=504)
        kappa = dist[idx - 1]
        powers[kind.spec] = float((values < kappa).mean())

    assert abs(powers["udt"] - predicted_udt) <= 0.05, powers
    assert abs(powers["mean"] - predicted_mean) <= 0.05, powers
    if predicted_udt - predicted_mean >= 0.1:
        assert powers["udt"] >= powers["mean"]
    report(
        f"criterion 3: empirical powers udt={powers['udt']:.3f} "
        f"(predicted {predicted_udt:.3f}), mean={powers['mean']:.3f} "
        f"(predicted {predicted_mean:.3f}) within +/-0.05 at K=100"
    )


# ---------------------------------------------------------------------------
# criterion 4: dual-formula power-gain oracle
# ---------------------------------------------------------------------------


def test_criterion_4_power_gain_dual_formula():
    rng = np.random.default_rng(601)
    worst = 0.0
    for _ in range(200):
        T = int(rng.integers(2, 51))
        sigma = em.random_spd(T, rng, condition=10 ** rng.uniform(0, 4))
        params = em.EpisodeParams(np.zeros(T), sigma)
        direct, spectral = em.power_gain(params)
        rel = abs(direct - spectral) / direct
        worst = max(worst, rel)
        assert rel <= 1e-9
        assert spectral >= 1.0  # exact in floating point: 1 + non-negative sum
        assert direct >= 1.0 - 1e-12
    report(
        f"criterion 4: 200 random SPD matrices, dual G^2 formulas agree "
        f"(worst rel gap {worst:.2e}), bound G^2 >= 1 never violated"
    )


# ---------------------------------------------------------------------------
# criterion 5: full-fraction partial test is decision-identical to the
# weighted-mean test
# ---------------------------------------------------------------------------


def test_criterion_5_pdt_full_equals_udt():
    pdt_full = em.StatisticKind.pdt(1.0)
    agree = 0
    trials = 500
    for trial in range(trials):
        rng = np.random.default_rng(700 + trial)
        T = int(rng.integers(2, 9))
        sigma = em.random_spd(T, rng, condition=10 ** rng.uniform(0, 3))
        params = em.EpisodeParams(rng.normal(0, 2, T), sigma)
        N = int(rng.integers(30, 120))
        ref = em.ReferenceDataset(
            em.generate_episodes(
                em.Scenario(params=params, kind="h0", seed=7000 + trial), N
            )
        )
        store = em.BootstrapStore(params, B=int(rng.integers(100, 400)), seed=trial)
        n = int(rng.integers(1, 3 * T + 1))
        store.ensure(ref, [UDT, pdt_full], [n])
        eps = float(rng.uniform(0, 2)) * params.mean_step_std
        scenario = em.Scenario(
            params=params, kind="uniform", epsilon=eps, seed=8000 + trial
        )
        values = em.generate_episodes(scenario, (n - 1) // T + 1).ravel()[:n]
        window = em.SignalWindow(values, params)
        alpha = float(rng.uniform(0.02, 0.3))
        reject_udt, _ = em.individual_test(window, UDT, store, alpha)
        reject_pdt, _ = em.individual_test(window, pdt_full, store, alpha)
        agree += reject_udt == reject_pdt
    assert agree == trials, f"decisions agreed in {agree}/{trials} cases"
    report(f"criterion 5: pdt(1.0) and udt decisions identical in {agree}/500 tests")


# ---------------------------------------------------------------------------
# criterion 6: heteroscedastic sequential advantage at matched FAR
# ---------------------------------------------------------------------------


def test_criterion_6_heteroscedastic_advantage():
    T = 16
    variances = np.concatenate([np.full(T // 2, 1.0), np.full(T // 2, 1e4)])
    params = em.EpisodeParams(np.zeros(T), np.diag(variances))
    eps = 0.5 * np.sqrt(variances.min())  # half a sigma of the quietest steps
    ref = em.ReferenceDataset(
        em.generate_episodes(em.Scenario(params=params, kind="h0", seed=801), 500)
    )
    common = dict(
        horizons=(2, 6), h_tilde=8, alpha0=0.05, B_inner=1500, B_outer=400, seed=802
    )
    tuned = {
        "udt": em.bfar_tune(ref, params, em.MonitorPlan(statistics=(UDT,), **common)),
        "mean": em.bfar_tune(ref, params, em.MonitorPlan(statistics=(MEAN,), **common)),
    }
    blocks = 100
    episodes = []
    for i in range(blocks):
        warm = em.Scenario(params=params, kind="h0", seed=900 + i)
        bad = em.Scenario(params=params, kind="uniform", epsilon=eps, seed=1900 + i)
        episodes += [
            em.generate_episodes(warm, common["horizons"][-1]),
            em.generate_episodes(bad, common["h_tilde"]),
        ]
    episodes = np.concatenate(episodes)
    # Block i is run i of the batched replay, as in ``epimon simulate``.
    evaluator = em.BatchEvaluator(episodes, params)
    streams = np.arange(len(episodes)).reshape(blocks, -1)
    detected = {}
    for name, tm in tuned.items():
        p = em.replay_pvalues(evaluator, streams, tm.plan, tm.store)
        detected[name] = int(np.count_nonzero(p.min(axis=1) < tm.p_threshold))
    gap = (detected["udt"] - detected["mean"]) / blocks
    assert gap >= 0.20, detected
    report(
        f"criterion 6: detection fraction udt={detected['udt']}% vs "
        f"mean={detected['mean']}% over 100 blocks (gap {100 * gap:.0f}pp >= 20pp)"
    )


# ---------------------------------------------------------------------------
# criterion 7: individual-test calibration for all six statistics
# ---------------------------------------------------------------------------


def test_criterion_7_individual_calibration():
    T, K, trials, alpha = 8, 3, 5000, 0.05
    rng = np.random.default_rng(2001)
    sigma = em.random_spd(T, rng, condition=50)
    params = em.EpisodeParams(rng.uniform(1.0, 2.0, T), sigma)
    ref = em.ReferenceDataset(
        em.generate_episodes(em.Scenario(params=params, kind="h0", seed=2002), 4000)
    )
    store = em.BootstrapStore(params, B=8000, seed=2003)
    kinds = [
        MEAN,
        UDT,
        em.StatisticKind.pdt(0.9),
        em.StatisticKind.hotelling(),
        em.StatisticKind.cusum(0.5),
        em.MDT_PRESET,
    ]
    n = K * T
    store.ensure(ref, kinds, [n])
    fresh = em.generate_episodes(
        em.Scenario(params=params, kind="h0", seed=2004), trials * K
    ).reshape(trials, n)
    rates = {}
    for kind in kinds:
        dist = store.values_for(kind, n)
        rejected = 0
        for row in fresh:
            window = em.SignalWindow(row, params)
            y = em.statistic_value(kind, window, store)
            reject, _ = em.threshold_decision(dist, y, alpha)
            rejected += reject
        rates[kind.spec] = rejected / trials
        assert 0.04 <= rates[kind.spec] <= 0.06, (kind.spec, rates[kind.spec])
    summary = ", ".join(f"{k}={v:.4f}" for k, v in rates.items())
    report(f"criterion 7: per-statistic rejection rates at alpha=0.05: {summary}")


# ---------------------------------------------------------------------------
# criterion 8: CLI determinism (byte-identical reruns)
# ---------------------------------------------------------------------------


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_8_cli_determinism(tmp_path):
    T_raw, d = 8, 2
    rng = np.random.default_rng(1101)
    raw_sigma = em.random_spd(T_raw, rng, condition=10)
    raw_params = em.EpisodeParams(rng.uniform(1.0, 2.0, T_raw), raw_sigma)
    episodes = em.generate_episodes(
        em.Scenario(params=raw_params, kind="h0", seed=1102), 120
    )
    csv = tmp_path / "ref.csv"
    csv.write_text(
        "\n".join(",".join(repr(float(x)) for x in row) for row in episodes) + "\n"
    )
    (tmp_path / "plan.json").write_text(
        json.dumps(
            {
                "statistics": ["udt"],
                "horizons": [1, 2],
                "h_tilde": 2,
                "alpha0": 0.1,
                "B_inner": 400,
                "B_outer": 80,
                "seed": 1103,
            }
        )
    )
    (tmp_path / "scenario.json").write_text(
        json.dumps({"kind": "uniform", "epsilon_sigma": 0.4})
    )
    stream = tmp_path / "stream.txt"
    stream_samples = em.generate_episodes(
        em.Scenario(params=raw_params, kind="h0", seed=1104), 6
    ).ravel()
    stream.write_text("\n".join(repr(float(x)) for x in stream_samples) + "\n")

    hashes = {}
    monitor_out = []
    for round_ in ("a", "b"):
        p = tmp_path / round_
        p.mkdir()
        r = run_cli("estimate", csv, "--episode-length", T_raw, "--downsample", d,
                    "--out", p / "params.json")
        assert r.returncode == 0, r.stderr
        r = run_cli("tune", csv, "--params", p / "params.json",
                    "--plan", tmp_path / "plan.json", "--out", p / "bundle.json")
        assert r.returncode == 0, r.stderr
        r = run_cli("simulate", "--bundle", p / "bundle.json",
                    "--scenario", tmp_path / "scenario.json",
                    "--blocks", 5, "--seed", 1105, "--out", p / "report.json")
        assert r.returncode == 0, r.stderr
        r = run_cli("power", "--params", p / "params.json",
                    "--epsilon-sigma", 0.3, "--out", p / "power.json")
        assert r.returncode == 0, r.stderr
        r = run_cli("monitor", stream, "--bundle", p / "bundle.json")
        assert r.returncode in (0, 3)
        monitor_out.append(r.stdout)
        hashes[round_] = [
            sha(p / name)
            for name in ("params.json", "bundle.json", "bundle.json.store.json",
                         "bundle.json.store.npy", "report.json", "power.json")
        ]
    assert hashes["a"] == hashes["b"]
    assert monitor_out[0] == monitor_out[1]
    report("criterion 8: estimate/tune/simulate/power/monitor reruns byte-identical")


# ---------------------------------------------------------------------------
# criterion 9: resolution guard
# ---------------------------------------------------------------------------


def test_criterion_9_resolution_guard():
    T = 8
    rng = np.random.default_rng(1201)
    params = em.EpisodeParams(rng.uniform(1.0, 2.0, T), em.random_spd(T, rng, 20))
    ref = em.ReferenceDataset(
        em.generate_episodes(em.Scenario(params=params, kind="h0", seed=1202), 200)
    )
    plan = em.MonitorPlan(
        statistics=(UDT,),
        horizons=(1, 2),
        h_tilde=4,
        alpha0=0.05,
        B_inner=9,  # p-value floor 0.1 >= any sane threshold
        B_outer=100,
        seed=1203,
    )
    with pytest.raises(ResolutionError, match="increase B or reduce significance"):
        em.bfar_tune(ref, params, plan)
    report(
        "criterion 9: threshold at the 1/(B_inner+1) floor raises the explicit "
        "resolution error instead of returning a dead monitor"
    )
