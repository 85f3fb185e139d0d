"""The benchmark under ``perfbench/`` patches and imports epimon by name.

A rename in ``epimon`` would break ``perfbench/run.py --trace 1`` (a hook
point the tracer cannot find) or the benchmark's correctness check (an
import). These tests name every hook point and import the benchmark relies
on, and run one untraced round of each of its workloads.
"""

import importlib.util
import json
import subprocess
import sys
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


def test_traced_mixed_statistic_value_counts_its_component_batches():
    # The tracer's batch counter unpacks BatchEvaluator.values's positional
    # (evaluator, kind, whole_idx, tail_idx, tau); a mixed statistic_value
    # makes one such call per component, one row each.
    params = make_params(T=4, seed=54)
    ref = make_reference(params, 30, seed=55)
    kind = em.parse_statistic("mdt")
    store = em.BootstrapStore(params, B=50, seed=56)
    store.ensure(ref, [kind], [6])
    window = em.SignalWindow(ref.episodes.reshape(-1)[:6], params)
    tracer = _load_spans().Tracer()
    with tracer.installed():
        stats.statistic_value(kind, window, store)
    for component in ("mean", "hotelling", "pdt"):
        assert tracer.total(f"stats.batch.{component}", 0) == 1, component
    assert tracer.total("stats.batch.mixed", 0) == 0
    assert tracer.counters["stats.batch_rows"] == 3


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


def test_one_benchmark_round_passes_its_correctness_checks():
    # One round of each workload, as the benchmark is run: every CLI call
    # and every output check of the round must pass, nothing may go to
    # stderr, and the result JSON must be the last line of stdout, with
    # nothing written after it (a message at interpreter exit, say).
    for workload in ("udt_c1", "mdt_te4", "sim_small"):
        result = subprocess.run(
            [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "0", "--trace", "0"],
            cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, (workload, result.stderr)
        assert result.stderr == "", (workload, result.stderr)
        last = json.loads(result.stdout.splitlines()[-1])
        assert last["correct"] is True and last["failed"] == 0, (workload, result.stdout)
