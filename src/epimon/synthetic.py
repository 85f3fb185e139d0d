"""Synthetic episodic signals and closed-form oracles.

Generates multivariate-normal episodic signals with controlled (mu0, sigma0)
and injects degradation scenarios: ``generate_episodes`` draws one block of
episodes from its own (seed, "episodes", stream) generator, and
``generate_runs`` draws every monitoring run of ``epimon simulate`` (H0
warm-up, then the scenario's episodes) from one (seed, "simulate") stream, in
run order. It also evaluates the closed forms that the statistics are built
on:

* asymptotic detection power of the covariance-weighted mean vs the plain
  mean, for a uniform per-step drop scaled as epsilon/sqrt(K);
* the squared power gain G^2 = (1' S^-1 1)(1' S 1) / T^2, computed both
  directly and through the eigendecomposition (dual-formula cross-check), with
  G^2 = 1 exactly when the spectrum is flat and G^2 >= 1 always
  (Cauchy-Schwarz);
* the first two moments of the sum and weighted-sum statistics over K whole
  episodes, estimated by Monte Carlo against their exact values.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .episodic import EpisodeParams
from .rng import substream

SCENARIO_KINDS = ("h0", "uniform", "partial", "scaled_uniform")


@dataclass(frozen=True)
class Scenario:
    """A generation recipe: base null model plus an optional mean drop.

    ``epsilon`` is the per-step drop in raw units. ``uniform`` lowers every
    offset by epsilon; ``partial`` lowers only ``offsets`` (1-based);
    ``scaled_uniform`` lowers every offset by epsilon/sqrt(K) -- the scaling
    regime in which detection power has a finite limit as horizons grow.
    Fields the kind does not use must keep their defaults (``epsilon`` 0
    for ``h0``, no ``offsets`` but for ``partial``, ``K`` 1 but for
    ``scaled_uniform``). The covariance is never altered: degradation moves
    means only.
    """

    params: EpisodeParams
    kind: str = "h0"
    epsilon: float = 0.0
    offsets: tuple[int, ...] = ()
    K: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(
                f"epsilon must be finite and non-negative, got {self.epsilon}"
            )
        if self.kind == "partial":
            if not self.offsets:
                raise ValueError("partial scenario requires offsets")
            if any(not 1 <= o <= self.params.T for o in self.offsets):
                raise ValueError(f"offsets must be within [1, {self.params.T}]")
        if self.kind == "scaled_uniform" and self.K < 1:
            raise ValueError("scaled_uniform requires K >= 1")
        # A field the kind ignores would generate a scenario other than the
        # one written, so it is rejected.
        if self.kind == "h0" and self.epsilon != 0:
            raise ValueError("h0 scenario takes no epsilon")
        if self.kind != "partial" and self.offsets:
            raise ValueError(f"{self.kind} scenario takes no offsets")
        if self.kind != "scaled_uniform" and self.K != 1:
            raise ValueError(f"{self.kind} scenario takes no K")

    @property
    def mean(self) -> np.ndarray:
        """Per-episode mean vector under this scenario."""
        mu = self.params.mu0.copy()
        if self.kind == "uniform":
            mu -= self.epsilon
        elif self.kind == "scaled_uniform":
            mu -= self.epsilon / np.sqrt(self.K)
        elif self.kind == "partial":
            idx = np.asarray(self.offsets, dtype=int) - 1
            mu[idx] -= self.epsilon
        return mu


def generate_episodes(scenario: Scenario, count: int, stream: int = 0) -> np.ndarray:
    """Draw ``count`` i.i.d. episodes (rows) from the scenario's normal model.

    Deterministic for a given (scenario.seed, stream); pass distinct
    ``stream`` values for independent blocks of the same scenario.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = substream(scenario.seed, "episodes", stream)
    z = rng.standard_normal((count, scenario.params.T))
    return scenario.mean + z @ scenario.params.cholesky_lower.T


# Standard normals per draw of generate_runs: one draw serves many runs
# (a draw per run made ``epimon simulate`` about 11% slower on 64-sample
# runs, 2-vCPU host) while the samples held stay bounded.
_DRAW_SAMPLES = 1 << 16


def generate_runs(
    scenario: Scenario, warmup: int, episodes: int, runs: int
) -> Iterator[np.ndarray]:
    """Yield ``runs`` monitoring runs, each ``warmup`` H0 episodes then
    ``episodes`` of the scenario's, flattened to (warmup + episodes) * T
    samples.

    Every run comes from the one (scenario.seed, "simulate") stream, drawn
    in run order, as many whole runs at a time as fit in ``_DRAW_SAMPLES``.
    ``standard_normal`` fills in order and a stacked matmul evaluates one
    run at a time, so run i's samples do not depend on ``runs`` or on that
    batch size.
    """
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    if episodes < 1 or runs < 1:
        raise ValueError("episodes and runs must be positive")
    params = scenario.params
    means = np.concatenate([
        np.broadcast_to(params.mu0, (warmup, params.T)),
        np.broadcast_to(scenario.mean, (episodes, params.T)),
    ])
    rng = substream(scenario.seed, "simulate")
    batch = max(1, _DRAW_SAMPLES // means.size)
    for start in range(0, runs, batch):
        count = min(batch, runs - start)
        z = rng.standard_normal((count, warmup + episodes, params.T))
        samples = z @ params.cholesky_lower.T
        samples += means
        yield from samples.reshape(count, -1)


def random_spd(
    dim: int, rng: np.random.Generator, condition: float = 1e4
) -> np.ndarray:
    """Random symmetric positive-definite matrix with a pinned spectrum span.

    Eigenvalues are log-uniform in [1, condition] with the extremes pinned to
    1 and ``condition`` (for dim >= 2), so the condition number is exact; the
    eigenbasis comes from the QR factorization of a Gaussian matrix.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    if condition < 1:
        raise ValueError("condition must be >= 1")
    eigvals = 10.0 ** rng.uniform(0.0, np.log10(condition), size=dim)
    if dim >= 2:
        eigvals[0] = 1.0
        eigvals[-1] = condition
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))  # fix the sign convention for determinism
    return (q * eigvals) @ q.T


def power_gain(params: EpisodeParams) -> tuple[float, float]:
    """Squared asymptotic power gain of the weighted mean over the plain mean.

    Returns the value computed two independent ways: directly from the
    quadratic forms, and from the spectrum as 1 + sum_ij w_ij (l_i - l_j)^2
    with w_ij = (u_i u_j)^2 / (2 T^2 l_i l_j), where u collects the
    eigenvector coordinate sums. Both equal 1 exactly for a flat spectrum and
    are always >= 1.
    """
    T = params.T
    ones = np.ones(T)
    direct = float(
        (ones @ params.sigma0_inv @ ones) * (ones @ params.sigma0 @ ones) / T**2
    )
    eigvals, eigvecs = np.linalg.eigh(params.sigma0)
    if eigvals.min() <= 0:
        raise ValueError("sigma0 must be positive definite")
    u = eigvecs.T @ ones
    weights = np.outer(u**2, u**2) / (2 * T**2 * np.outer(eigvals, eigvals))
    gaps = np.subtract.outer(eigvals, eigvals) ** 2
    spectral = float(1.0 + (weights * gaps).sum())
    return direct, spectral


def asymptotic_power(
    params: EpisodeParams, epsilon: float, alpha: float
) -> tuple[float, float]:
    """Limiting detection power of the mean test and the weighted-mean test.

    For a uniform per-step drop of epsilon/sqrt(K) over K -> infinity
    episodes, with both tests tuned to significance alpha:

        power_mean = Phi(q_alpha + epsilon * T / sqrt(1' S 1))
        power_udt  = Phi(q_alpha + epsilon * sqrt(1' S^-1 1))

    and power_udt >= power_mean for every SPD covariance.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    # Imported here: only ``epimon power`` needs it.
    from statistics import NormalDist

    T = params.T
    ones = np.ones(T)
    q = NormalDist().inv_cdf(alpha)
    power_mean = _normal_cdf(q + epsilon * T / math.sqrt(ones @ params.sigma0 @ ones))
    power_udt = _normal_cdf(q + epsilon * math.sqrt(ones @ params.sigma0_inv @ ones))
    return power_mean, power_udt


def _normal_cdf(x: float) -> float:
    """Standard normal Phi(x) as ``0.5 * erfc(-x / sqrt(2))``, which keeps
    its relative accuracy in the lower tail, where ``1 + erf`` cancels."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def moment_oracle(
    params: EpisodeParams,
    K: int,
    draws: int,
    epsilon: float = 0.0,
    seed: int = 0,
) -> dict:
    """Monte-Carlo check of the four moment identities over K whole episodes.

    For a signal of K episodes with a uniform per-step drop epsilon, the sum
    statistic s_sum = sum(x) and the weighted sum s_w = W.x satisfy

        E[s_sum] = K (1'mu0 - T eps)     Var[s_sum] = K 1' S 1
        E[s_w]   = K (W0 mu0 - eps W0 1) Var[s_w]   = K 1' S^-1 1

    Returns estimates, exact values, and relative errors.
    """
    if K < 1 or draws < 1:
        raise ValueError("K and draws must be positive")
    T = params.T
    ones = np.ones(T)
    w0 = params.full_weights
    scenario = Scenario(params=params, kind="uniform", epsilon=epsilon, seed=seed)
    episodes = generate_episodes(scenario, count=draws * K)
    per_episode_sum = episodes.sum(axis=1).reshape(draws, K)
    per_episode_w = (episodes @ w0).reshape(draws, K)
    s_sum = per_episode_sum.sum(axis=1)
    s_w = per_episode_w.sum(axis=1)

    exact = {
        "mean_sum": K * float(ones @ params.mu0 - T * epsilon),
        "mean_weighted": K * float(w0 @ params.mu0 - epsilon * w0.sum()),
        "var_sum": K * float(ones @ params.sigma0 @ ones),
        "var_weighted": K * float(ones @ params.sigma0_inv @ ones),
    }
    estimate = {
        "mean_sum": float(s_sum.mean()),
        "mean_weighted": float(s_w.mean()),
        "var_sum": float(s_sum.var(ddof=1)),
        "var_weighted": float(s_w.var(ddof=1)),
    }
    report = {"K": K, "draws": draws, "epsilon": epsilon}
    for key in exact:
        denom = abs(exact[key])
        rel = abs(estimate[key] - exact[key]) / denom if denom > 0 else float("nan")
        report[key] = {
            "estimate": estimate[key],
            "exact": exact[key],
            "rel_error": rel,
        }
    return report
