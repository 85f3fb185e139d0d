"""Golden outputs: the sha256 of every file the CLI pipeline writes.

A tiny reference CSV (``data/golden_reference.csv``, 60 episodes of 8 raw
samples) and two fixed plans run through estimate -> tune -> simulate ->
monitor. The first plan covers ``udt`` and a mixed ``mean+pdt:0.5``; the
second covers ``mdt`` (``mean``, ``hotelling``, ``pdt:0.9``) and
``cusum:0.5``, both with two horizons and test-points every second step.
The hashes pin the outputs across changes to the engine, not only across
reruns of one version. ``store entries`` hashes the store as the reader
decodes it, so it also pins the stored values across changes to the store
file's encoding. numpy does not promise stable ``Generator``
streams across releases (NEP 19); the constants were captured under numpy
2.4.6. A change that moves any of them must say why.

Regenerate the constants with ``PYTHONPATH=src python tests/test_golden.py``,
which runs both plans in a temporary directory and prints both dicts.

Moved so far: the ``mdt`` plan's ``bundle.json.store.json`` and ``store
entries`` when the ``hotelling`` quadratic became one matrix product
``((delta @ S) * delta).sum(axis=1)`` in place of a three-operand
``np.einsum``, which rounds some stored values differently in the last bit;
its bundle, report and monitor output kept their hashes.
"""

import contextlib
import hashlib
import io
import json
import pprint
import tempfile
from pathlib import Path

import numpy as np

from epimon.cli import main
from epimon.episodic import load_params_json
from epimon.individual import BootstrapStore

DATA = Path(__file__).parent / "data"

PLAN = {
    "statistics": ["udt", "mixed:mean+pdt:0.5"],
    "horizons": [1, 3],
    "h_tilde": 2,
    "alpha0": 0.2,
    "B_inner": 200,
    "B_outer": 50,
    "seed": 5,
    "test_every": 2,
}

PLAN_MDT_CUSUM = {
    **PLAN,
    "statistics": ["mdt", "cusum:0.5"],
}

FILES = (
    "params.json",
    "bundle.json",
    "bundle.json.store.json",
    "report.json",
    "monitor.ndjson",
)

GOLDEN = {
    "params.json": (
        "b205624550704bc0248ca2faa857a585bfdc1b6e0786bad988c4dca2a7a53860"
    ),
    "bundle.json": (
        "681afc80b83d2591f6a433af83f47d31e411ffb4b71050d68e91dd6bd1151ccb"
    ),
    "bundle.json.store.json": (
        "5355d2c14b54c4d4a7cb673e6557671241f08748114cfc5ebc8bbd902020a80a"
    ),
    "report.json": (
        "3fd650a01472ac44bb0ca5e5838e1389187550ade777986dbe5ed9830ae8091c"
    ),
    "monitor.ndjson": (
        "01541324dabcb56a88900bc51ee807662520e5c77cf79322994f2107f6e888b6"
    ),
    "store entries": (
        "996584938ed23141970e5573d3bdf0891488f82e008779ffefb775266bcc8216"
    ),
}

GOLDEN_MDT_CUSUM = {
    "params.json": GOLDEN["params.json"],
    "bundle.json": (
        "bd2300fce674e1561c6cfc727524cea5b1bbff80fd15615c2bd1b64616ea5fee"
    ),
    "bundle.json.store.json": (
        "6f57387f465a54dda111a6199c6531a8a5576f5278ef00137b61e14083381268"
    ),
    "report.json": (
        "af60888e72334037f91cfefe320de5af1015c38005fb4b946bf056f247f75a8c"
    ),
    "monitor.ndjson": (
        "4bd0a9321fc78d79e378d112b450fa0e7b4c815c69e01460439062ab0b2ea321"
    ),
    "store entries": (
        "92d008bde5b45c30b4c68274ae8703aaf0a8fa2c14277c6b8e64d013720d8066"
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _store_entries_digest(store_path, params_path) -> str:
    """sha256 of the store as the reader decodes it: for each key in sorted
    order, the spec, the window length and the little-endian float64 bytes.
    It does not depend on how the file encodes the values."""
    store = BootstrapStore.load(store_path, load_params_json(params_path))
    digest = hashlib.sha256()
    for (spec, n), values in sorted(store.entries.items()):
        digest.update(f"{spec}\0{n}\0".encode())
        digest.update(np.asarray(values, dtype="<f8").tobytes())
    return digest.hexdigest()


def _stream_text() -> str:
    """Six reference episodes, then two dropped by 4 so the monitor fires."""
    rows = np.loadtxt(DATA / "golden_reference.csv", delimiter=",")
    samples = np.concatenate([rows[:6].ravel(), rows[6:8].ravel() - 4.0])
    return "\n".join(repr(float(x)) for x in samples) + "\n"


def _pipeline_digests(tmp_path, plan):
    """Run the pipeline under ``plan``; return the monitor's exit code and
    the sha256 of every output file."""
    csv = DATA / "golden_reference.csv"
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    (tmp_path / "scenario.json").write_text(
        json.dumps({"kind": "uniform", "epsilon_sigma": 1.0})
    )
    (tmp_path / "stream.txt").write_text(_stream_text())

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([str(a) for a in argv])
        return code, out.getvalue()

    assert run("estimate", csv, "--episode-length", 8, "--downsample", 2,
               "--out", tmp_path / "params.json")[0] == 0
    assert run("tune", csv, "--params", tmp_path / "params.json",
               "--plan", tmp_path / "plan.json",
               "--out", tmp_path / "bundle.json")[0] == 0
    assert run("simulate", "--bundle", tmp_path / "bundle.json",
               "--scenario", tmp_path / "scenario.json", "--blocks", 4,
               "--seed", 9, "--out", tmp_path / "report.json")[0] == 0
    code, events = run("monitor", tmp_path / "stream.txt",
                       "--bundle", tmp_path / "bundle.json")
    (tmp_path / "monitor.ndjson").write_text(events)
    digests = {name: _sha256((tmp_path / name).read_bytes()) for name in FILES}
    digests["store entries"] = _store_entries_digest(
        tmp_path / "bundle.json.store.json", tmp_path / "params.json"
    )
    return code, digests


def test_pipeline_outputs_match_golden_hashes(tmp_path):
    assert _pipeline_digests(tmp_path, PLAN) == (3, GOLDEN)


def test_mdt_cusum_pipeline_outputs_match_golden_hashes(tmp_path):
    assert _pipeline_digests(tmp_path, PLAN_MDT_CUSUM) == (3, GOLDEN_MDT_CUSUM)


if __name__ == "__main__":
    for name, plan in (("GOLDEN", PLAN), ("GOLDEN_MDT_CUSUM", PLAN_MDT_CUSUM)):
        with tempfile.TemporaryDirectory() as tmp:
            code, digests = _pipeline_digests(Path(tmp), plan)
        print(f"# monitor exit code {code} (the tests expect 3)")
        print(f"{name} = {pprint.pformat(digests, sort_dicts=False)}")
