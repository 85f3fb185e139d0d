"""epimon benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload udt_c1 --seed 1 --seconds 30 --trace 0

Rounds of the workload's closed-loop pipeline (see ``bench.py``) repeat
while the next round is expected to end within ``--seconds``, at least one
round. ``--trace 0`` reports the end-to-end metrics (medians over the run,
at reference speed, see ``speed.py``); ``--trace 1`` follows every untraced
round with a traced one and reports the per-layer metrics (medians over
traced rounds). Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 whenever that line is printed, 2 on bad
arguments or missing program sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _git_sha() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _pin_blas_threads() -> None:
    """Single-threaded BLAS (never above nproc); must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="non-negative")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if not (SRC / "epimon" / "__init__.py").is_file():
        print(f"error: epimon sources not found under {SRC}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import epimon

    if Path(epimon.__file__).resolve().parent != SRC / "epimon":
        print(f"error: imported epimon from {epimon.__file__}", file=sys.stderr)
        return 2

    import bench
    from spans import Tracer
    from speed import SpeedLog
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    env = _environment()
    print(f"env {json.dumps(env, sort_keys=True)}")

    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    checks = bench.Checks()
    rounds, traced = [], []
    speed = SpeedLog()
    try:
        inputs = make_inputs(w, args.seed, work)
        begin = time.perf_counter()
        with speed:
            while True:
                round_start = time.perf_counter()
                rounds.append(bench.run_round(w, inputs, work, checks, None))
                if args.trace:
                    tracer = Tracer()
                    traced.append((tracer, bench.run_round(w, inputs, work, checks, tracer)))
                # Start another round only if it should end within --seconds.
                now = time.perf_counter()
                if now + (now - round_start) > begin + args.seconds:
                    break
    except bench.RoundFailed:
        pass  # already counted as a failed check
    except Exception as exc:  # report any other failure in the result line
        traceback.print_exc()
        checks.check(False, f"round raised {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with_others = WORK.exists() and any(WORK.iterdir())
        if WORK.exists() and not with_others:
            WORK.rmdir()

    for r in rounds[1:] + [r for _, r in traced]:
        checks.check(r.digests == rounds[0].digests, "outputs differ between rounds")

    print(f"workload {w.name} seed {args.seed} rounds {len(rounds)} "
          f"traced_rounds {len(traced)}")
    for i, r in enumerate(rounds, start=1):
        print(f"round {i} {r.summary(speed)}")
    for i, (_, r) in enumerate(traced, start=1):
        print(f"traced_round {i} {r.summary(speed)}")
    if rounds:
        first = rounds[0]
        for name, digest in sorted(first.digests.items()):
            print(f"sha256 {name} {digest}")
        print(f"info threshold {first.info['threshold']:.6g} "
              f"floor_share {first.info['floor_share']:.4f} "
              f"floor_headroom {first.info['floor_headroom']:.3f} "
              f"h0_detection_fraction {first.info['detection_fraction']:.4f} "
              f"alpha0 {w.alpha0}")

    metrics = {}
    if rounds and not checks.failures:
        e2e = bench.end_to_end(rounds, w, speed)
        for name, unit in bench.END_TO_END_UNITS.items():
            print(f"metric {name} {e2e[name]:.6g} {unit}")
        if args.trace:
            per_round = [bench.layer_metrics(tr, r, u, w, speed)
                         for (tr, r), u in zip(traced, rounds)]
            for name, (_, unit) in per_round[0].items():
                value = statistics.median(m[name][0] for m in per_round)
                metrics[name] = {"value": value, "unit": unit}
                print(f"layer {name} {value:.6g} {unit}")
            tracer, r = traced[-1]
            untraced = rounds[len(traced) - 1]
            root = tracer.total("cli.tune", 1, "tune")
            print(f"tune: traced span {root:.4f} s; at reference speed traced "
                  f"{speed.ref_s(*r.tune):.4f} s, untraced {speed.ref_s(*untraced.tune):.4f} s; "
                  f"self times under cli.tune:")
            breakdown = bench.tune_breakdown(tracer)
            for name, self_s in breakdown:
                print(f"  {name} {self_s:.4f} s ({100 * self_s / root:.1f}%)")
            print(f"  sum of self times {sum(s for _, s in breakdown):.4f} s")
        else:
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit in bench.END_TO_END_UNITS.items()}
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(f"metric fail_ratio {len(checks.failures) / max(checks.attempted, 1):.6g} -")

    print(json.dumps({
        "correct": not checks.failures and bool(rounds),
        "attempted": max(checks.attempted, 1),
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
