"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

Each test runs the benchmark as its own process, the way it is run for
measurement, with one round; most use the cheapest workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def run_bench(*args, cwd):
    return subprocess.run(
        [sys.executable, str(RUN), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(stdout):
    lines = stdout.strip().splitlines()
    digests = {
        line.split()[1]: line.split()[2] for line in lines if line.startswith("sha256 ")
    }
    return json.loads(lines[-1]), digests


def test_same_seed_gives_identical_digests():
    args = ("--workload", "sim_small", "--seed", 7, "--seconds", 0, "--trace", 0)
    first = run_bench(*args, cwd=HERE.parent)
    second = run_bench(*args, cwd=HERE.parent)
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    result, digests = parse(first.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, first.stdout
    assert set(digests) == {"params", "bundle", "store", "simulate_reports", "monitor_p_trace"}
    assert parse(second.stdout)[1] == digests
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_traced_run_reports_layers_and_consistent_digests():
    proc = run_bench("--workload", "sim_small", "--seed", 7, "--seconds", 0,
                     "--trace", 1, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result, _ = parse(proc.stdout)
    assert result["correct"], proc.stdout
    metrics = result["metrics"]
    assert metrics["sequential.monitor_inits"]["value"] > 0
    assert metrics["stats.scalar_calls.cusum"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["unit"] == "ratio"


def test_traced_mixed_statistic_reports_its_components():
    proc = run_bench("--workload", "mdt_te4", "--seed", 7, "--seconds", 0,
                     "--trace", 1, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result, _ = parse(proc.stdout)
    assert result["correct"], proc.stdout
    metrics = result["metrics"]
    assert metrics["stats.scalar_calls.mixed"]["value"] > 0
    for kind in ("mean", "pdt", "hotelling"):
        assert metrics[f"stats.scalar_calls.{kind}"]["value"] > 0, kind


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "sim_small",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
