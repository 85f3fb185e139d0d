import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epimon import EpisodeParams, ReferenceDataset, Scenario, generate_episodes, random_spd


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, stdin=None):
    """Run ``python -m epimon`` in a subprocess that imports the package from
    this checkout's ``src``; pytest's ``pythonpath`` setting reaches only the
    test process itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "epimon", *map(str, args)],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
    )


def make_params(T, seed=0, condition=50.0, mu_range=(1.0, 2.0)):
    rng = np.random.default_rng(seed)
    sigma = random_spd(T, rng, condition=condition)
    mu = rng.uniform(*mu_range, size=T)
    return EpisodeParams(mu, sigma)


def make_reference(params, n_episodes, seed=0):
    episodes = generate_episodes(
        Scenario(params=params, kind="h0", seed=seed), n_episodes
    )
    return ReferenceDataset(episodes)


@pytest.fixture
def small_params():
    return make_params(T=6, seed=3)
