"""Workload definitions and seed-driven input generation.

Inputs are made with plain numpy from the workload seed, never with the
package's own generators, so a change to ``epimon.synthetic`` cannot change
what the benchmark feeds the program. The program sees only the files
written here (reference CSV, plan JSON, scenario JSON) and the monitor
stream samples.
"""

from __future__ import annotations

import json
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Condition number of every workload's episode covariance.
CONDITION = 100.0


@dataclass(frozen=True)
class Workload:
    name: str
    T_raw: int
    downsample: int
    N: int  # reference episodes
    statistics: tuple[str, ...]
    horizons: tuple[int, ...]
    h_tilde: int
    alpha0: float
    B_inner: int
    B_outer: int
    test_every: int
    monitor_episodes: int  # H0 episodes after the h_max warm-up
    simulate_blocks: int  # per simulate call

    @property
    def T(self) -> int:
        return self.T_raw // self.downsample

    @property
    def h_max(self) -> int:
        return self.horizons[-1]

    @property
    def test_points(self) -> int:
        return self.monitor_episodes * (self.T // self.test_every)


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-1 shape: the store build (160k seeded generators)
        # dominates tune; the monitor takes the O(1) udt path. h_tilde 10:
        # at 30 most seeds raise ResolutionError with estimated parameters.
        Workload(
            name="udt_c1",
            T_raw=40, downsample=1, N=1000,
            statistics=("udt",), horizons=(3, 30), h_tilde=10, alpha0=0.05,
            B_inner=2000, B_outer=1000, test_every=1,
            monitor_episodes=2000, simulate_blocks=30,
        ),
        # Batch pdt/hotelling/mixed replay in tune, scalar statistic_value
        # in the monitor. alpha0 0.1: at 0.05 the mixed-tail defect raises
        # ResolutionError.
        Workload(
            name="mdt_te4",
            T_raw=160, downsample=4, N=1000,
            statistics=("mdt",), horizons=(3, 30), h_tilde=5, alpha0=0.1,
            B_inner=2000, B_outer=1000, test_every=4,
            monitor_episodes=1000, simulate_blocks=30,
        ),
        # Many short simulate blocks: Monitor construction, episode
        # generation and the cusum scalar path; store and rng work is small.
        Workload(
            name="sim_small",
            T_raw=16, downsample=2, N=200,
            statistics=("udt", "cusum:0.5"), horizons=(1, 4), h_tilde=4,
            alpha0=0.1, B_inner=1000, B_outer=400, test_every=1,
            monitor_episodes=1500, simulate_blocks=500,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    csv: Path
    plan: Path
    scenario: Path
    stream: array  # downsampled H0 samples fed to Monitor.step, as doubles
    simulate_seed: int


def _random_spd(dim: int, rng: np.random.Generator, condition: float) -> np.ndarray:
    """SPD matrix with log-uniform eigenvalues pinned to [1, condition]."""
    eigvals = 10.0 ** rng.uniform(0.0, np.log10(condition), size=dim)
    eigvals[0], eigvals[-1] = 1.0, condition
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    return (q * eigvals) @ q.T


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's input files for ``seed`` into ``workdir``."""
    root = np.random.SeedSequence([int(seed), zlib.crc32(w.name.encode())])
    model_ss, ref_ss, stream_ss, plan_ss = root.spawn(4)

    model_rng = np.random.default_rng(model_ss)
    sigma = _random_spd(w.T_raw, model_rng, CONDITION)
    mu = model_rng.uniform(1.0, 2.0, size=w.T_raw)
    chol = np.linalg.cholesky(sigma)

    def episodes(ss, count):
        z = np.random.default_rng(ss).standard_normal((count, w.T_raw))
        return mu + z @ chol.T

    csv = workdir / "reference.csv"
    np.savetxt(csv, episodes(ref_ss, w.N), fmt="%.17g", delimiter=",")

    plan_seed, simulate_seed = (int(x) for x in plan_ss.generate_state(2))
    plan_dict = {
        "statistics": list(w.statistics),
        "horizons": list(w.horizons),
        "h_tilde": w.h_tilde,
        "alpha0": w.alpha0,
        "B_inner": w.B_inner,
        "B_outer": w.B_outer,
        "seed": plan_seed,
        "test_every": w.test_every,
    }
    plan = workdir / "plan.json"
    plan.write_text(json.dumps(plan_dict))
    scenario = workdir / "scenario.json"
    scenario.write_text(json.dumps({"kind": "h0"}))

    raw = episodes(stream_ss, w.h_max + w.monitor_episodes)
    down = raw.reshape(raw.shape[0], w.T, w.downsample).mean(axis=2)
    return Inputs(
        csv=csv,
        plan=plan,
        scenario=scenario,
        stream=array("d", down.ravel().tobytes()),
        simulate_seed=simulate_seed,
    )
