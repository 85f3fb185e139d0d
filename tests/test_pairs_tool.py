"""``tools/pairs.py`` fails a run whose outputs move where none should.

The decision is a plain function of the recorded ``moved_digests``, tested
here without running the benchmark, as are the verdict lines and the
choice of workloads.
"""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("epimon_pairs_tool", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads(**moved):
    return {name: {"moved_digests": digests, "metrics": {}}
            for name, digests in moved.items()}


def test_no_moved_digest_passes_with_the_default(pairs):
    assert pairs.unexpected_moves(_workloads(a=[], b=[]), []) == []


def test_by_default_any_moved_digest_is_unexpected(pairs):
    workloads = _workloads(a=["store"], b=[], c=["monitor.ndjson", "store"])
    assert pairs.unexpected_moves(workloads, []) == [
        ("a", "store"), ("c", "monitor.ndjson"), ("c", "store")]


def test_named_digests_may_move_on_any_workload(pairs):
    workloads = _workloads(a=["store"], b=["bundle", "store"])
    assert pairs.unexpected_moves(workloads, ["store"]) == [("b", "bundle")]
    assert pairs.unexpected_moves(workloads, ["bundle", "store"]) == []


def test_a_named_digest_need_not_move(pairs):
    assert pairs.unexpected_moves(_workloads(a=[]), ["store"]) == []


def _side(median, q1, q3):
    return {"median": median, "q1": q1, "q3": q3, "runs": []}


def test_verdict_lines_give_medians_iqr_change_and_wins(pairs):
    out = {"pairs": 10, "workloads": {
        "sim_small": {"moved_digests": [], "metrics": {
            "monitor_tp_us_p50": {
                "unit": "us", "better": "lower",
                "parent": _side(14.0, 13.5, 14.5), "change": _side(10.5, 10.0, 11.0),
                "change_wins": 10},
            "monitor_samples_per_s": {
                "unit": "1/s", "better": "higher",
                "parent": _side(60000.0, 59000.0, 61000.0),
                "change": _side(78000.0, 77000.0, 79000.0), "change_wins": 9},
        }},
        "udt_c1": {"moved_digests": [], "metrics": {
            "setup_s": {"unit": "s", "better": "lower",
                        "parent": _side(0.0, 0.0, 0.0), "change": _side(0.0, 0.0, 0.0),
                        "change_wins": 0}}},
    }}
    assert pairs.verdict_lines(out) == [
        "sim_small monitor_tp_us_p50: parent 14 (IQR 1) us, change 10.5 us "
        "(-25.0%), lower is better, change won 10/10 pairs",
        "sim_small monitor_samples_per_s: parent 60000 (IQR 2000) 1/s, "
        "change 78000 1/s (+30.0%), higher is better, change won 9/10 pairs",
        "udt_c1 setup_s: parent 0 (IQR 0) s, change 0 s (n/a), "
        "lower is better, change won 0/10 pairs",
    ]


BENCH_WORKLOADS = [{"name": "udt_c1"}, {"name": "mdt_te4"}, {"name": "sim_small"}]


def test_every_workload_runs_by_default(pairs):
    assert pairs.selected_workloads(BENCH_WORKLOADS, []) == BENCH_WORKLOADS


def test_named_workloads_run_in_benchmark_order(pairs):
    chosen = pairs.selected_workloads(BENCH_WORKLOADS, ["sim_small", "udt_c1"])
    assert [w["name"] for w in chosen] == ["udt_c1", "sim_small"]
    chosen = pairs.selected_workloads(BENCH_WORKLOADS, ["mdt_te4", "mdt_te4"])
    assert [w["name"] for w in chosen] == ["mdt_te4"]


def test_an_unknown_workload_is_an_error_before_any_run(pairs, capsys):
    with pytest.raises(ValueError, match="unknown workload.*mdt_te5"):
        pairs.selected_workloads(BENCH_WORKLOADS, ["mdt_te4", "mdt_te5"])
    with pytest.raises(SystemExit) as exc:
        pairs.main(["--label", "x", "--seed", "1", "--workload", "nope"])
    assert exc.value.code == 2
    assert "unknown workload(s) nope" in capsys.readouterr().err
