"""The benchmark under ``perfbench/`` patches and imports epimon by name.

A rename in ``epimon`` would break ``perfbench/run.py --trace 1`` (a hook
point the tracer cannot find) or the benchmark's correctness check (an
import), and neither runs in this suite. These tests name every hook point
and import the benchmark relies on, without running the benchmark.
"""

import importlib.util
from pathlib import Path

import epimon as em
from epimon import bfar, cli, sequential, stats

from conftest import make_params, make_reference

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


def test_bfar_tune_reaches_the_replay_through_module_globals(monkeypatch):
    # The tracer's bfar.replay and bfar.stream_indices spans wrap these
    # globals; a call that bypassed them would read as zero time spent.
    calls = {"bfar_min_p": 0, "h0_stream_indices": 0}

    def counting(name):
        original = getattr(bfar, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(bfar, name, counting(name))
    params = make_params(T=4, seed=51)
    ref = make_reference(params, 30, seed=52)
    plan = em.MonitorPlan(statistics=(em.StatisticKind.udt(),), horizons=(1,),
                          h_tilde=2, alpha0=0.2, B_inner=100, B_outer=20, seed=53)
    bfar.bfar_tune(ref, params, plan)
    assert calls == {"bfar_min_p": 1, "h0_stream_indices": 1}
