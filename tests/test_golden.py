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
its bundle, report and monitor output kept their hashes. Every hash of
both plans but ``params.json``, which uses no randomness, when each random
table (the bootstrap's resample indices, BFAR's simulated streams and
``simulate``'s block seeds) became one draw from one substream per table,
``("boot",)``, ``("bfar",)`` and ``("block",)``, in place of one substream
per repetition: the same distributions, different draws. Both plans'
``report.json`` when ``simulate`` drew every block's episodes from one
``("simulate",)`` table in place of two generators per block seeded from the
``("block",)`` table; every other hash kept its value. Under those draws
both plans detected all four blocks at steps 2, 2, 4 and 6, so their two
report hashes were equal. Both plans' ``report.json`` again when the
simulated drop went from ``epsilon_sigma`` 1.0 to 0.5, so that the two
reports tell the plans apart: the ``udt`` plan now detects three of the
four blocks at steps 4, 8 and 8, the ``mdt`` plan at steps 2, 8 and 8.
The live monitor finishing each statistic over all its horizons in one
call moved no hash. Both plans' ``bundle.json.store.json`` and ``store
entries`` when ``EpisodeParams`` built the inverse of sigma0 and of each
leading tau x tau block from the one inverse of its Cholesky factor, in
place of ``scipy.linalg.cho_solve`` on a factorisation per block: the
``udt``, ``pdt`` and ``hotelling`` weights, and so some stored values,
moved in the last bits; params, bundle, report and monitor output kept
their hashes. Both plans' ``bundle.json.store.json`` when the store became
format 3, an index of entries with the sha256 of a sibling
``bundle.json.store.npy`` that holds the sorted rows, in place of one JSON
file with each entry's values in base64; ``bundle.json.store.npy`` was
pinned then too. ``store entries`` and every other hash kept its value, so
every stored value is bit-identical.
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

# A drop small enough that the two plans detect different blocks at
# different steps, so each report pins its own plan's statistics.
SIMULATE_EPSILON_SIGMA = 0.5

FILES = (
    "params.json",
    "bundle.json",
    "bundle.json.store.json",
    "bundle.json.store.npy",
    "report.json",
    "monitor.ndjson",
)

GOLDEN = {
    "params.json": (
        "b205624550704bc0248ca2faa857a585bfdc1b6e0786bad988c4dca2a7a53860"
    ),
    "bundle.json": (
        "a12a6b496a9a057d84c2d08cde2a1d1bd5adbb0e99e55bde4584087393e3fd83"
    ),
    "bundle.json.store.json": (
        "b0bb951ebab84e272711d9d8504e8876551b86fd63024f466c1881e97944de5a"
    ),
    "bundle.json.store.npy": (
        "9ae9f20c88d3f1f59da63013a1538f4e60c79a5b0a8fd32670f63c25a3259026"
    ),
    "report.json": (
        "61b9c7e9d9d97e4d9296f5e538336aa8d90165592a74ca06a512a6e00367079d"
    ),
    "monitor.ndjson": (
        "6f71920d965a52b1c12530f8282ad1b4224f99659ff412cc9f4edc91c9366594"
    ),
    "store entries": (
        "bd92a4a82dd04fa64b796bc344ddeef9d96c1c27a131b52b9b67d49e6fcb5711"
    ),
}

GOLDEN_MDT_CUSUM = {
    "params.json": GOLDEN["params.json"],
    "bundle.json": (
        "a4fff43913a7930b5e6ce14ce885c15f076b250c2c8ab6298dc357741c7dc388"
    ),
    "bundle.json.store.json": (
        "b080db21792fe95b340c64cada907936654ac1e5e509a6637e9de60a866664fa"
    ),
    "bundle.json.store.npy": (
        "e71963db9eaab9806d1f41d2d52f46caf1489964af670d16a695bbb79c0ee6d6"
    ),
    "report.json": (
        "85399f32b33d30d255b6f86c42c2af9a789e123ea5737120965e93a68f1cac2b"
    ),
    "monitor.ndjson": (
        "90d0be93eef3acb2335cde205ffe0b546367933505357c6056c44ed1ecdef94b"
    ),
    "store entries": (
        "3f239500f89bffa0f09544405ee8fbcd08e91d26ac0561baccae53e81cc9f448"
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
        json.dumps({"kind": "uniform", "epsilon_sigma": SIMULATE_EPSILON_SIGMA})
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


def test_the_two_plans_simulate_reports_differ():
    # Equal report hashes would pin nothing one plan's does not already.
    assert GOLDEN["report.json"] != GOLDEN_MDT_CUSUM["report.json"]


if __name__ == "__main__":
    for name, plan in (("GOLDEN", PLAN), ("GOLDEN_MDT_CUSUM", PLAN_MDT_CUSUM)):
        with tempfile.TemporaryDirectory() as tmp:
            code, digests = _pipeline_digests(Path(tmp), plan)
        print(f"# monitor exit code {code} (the tests expect 3)")
        print(f"{name} = {pprint.pformat(digests, sort_dicts=False)}")
