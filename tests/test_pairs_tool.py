"""``tools/pairs.py`` fails a run whose outputs move where none should.

The decision is a plain function of the recorded ``moved_digests``, tested
here without running the benchmark.
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

