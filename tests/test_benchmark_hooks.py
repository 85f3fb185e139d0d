"""The benchmark under ``perfbench/`` patches and imports epimon by name.

A rename in ``epimon`` would break ``perfbench/run.py --trace 1`` (a hook
point the tracer cannot find) or the benchmark's correctness check (an
import), and neither runs in this suite. These tests name every hook point
and import the benchmark relies on, without running the benchmark.
"""

import importlib.util
from pathlib import Path

from epimon import bfar, cli, sequential, stats

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    path = PERFBENCH / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_boundary_is_defined_where_it_is_patched():
    # The tracer reads ``owner.__dict__[attr]``: the function must be
    # defined or imported in that module or class itself.
    boundaries = _load_spans()._BOUNDARIES
    assert boundaries
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in boundaries
        if attr not in owner.__dict__
    ]
    assert not missing, missing


def test_names_the_benchmark_imports_exist():
    for name in ("SignalWindow", "statistic_value"):
        assert name in stats.__dict__, name
    assert callable(cli.main)
    assert callable(bfar.load_bundle)
    assert callable(sequential.Monitor)
