import hashlib
import io
import json
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


def resealed_store(store, path, keep=lambda key: True, edit_rows=lambda rows: rows):
    """Save ``store`` at ``path`` and rewrite its files: only the entries
    whose (spec, n) key ``keep`` accepts stay, with their rows renumbered in
    entry order and then passed through ``edit_rows``, and ``rows_sha256``
    is sealed over the rows written, so :meth:`BootstrapStore.load` reaches
    every check after the hash. Returns ``path``."""
    store.save(path)
    index = json.loads(path.read_text())
    rows_path = path.parent / index["rows_file"]
    entries = [e for e in index["entries"] if keep((e["kind"], e["n"]))]
    rows = edit_rows(np.load(rows_path)[[e["row"] for e in entries]])
    for row, entry in enumerate(entries):
        entry["row"] = row
    buf = io.BytesIO()
    np.save(buf, rows, allow_pickle=False)
    rows_path.write_bytes(buf.getvalue())
    index.update(entries=entries, rows_sha256=hashlib.sha256(buf.getvalue()).hexdigest())
    path.write_text(json.dumps(index))
    return path


@pytest.fixture
def small_params():
    return make_params(T=6, seed=3)
