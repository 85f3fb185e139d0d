"""Alternating parent/change pairs of the benchmark, recorded as a file.

Run from anywhere inside the repository:

    python3 tools/pairs.py --label store-v3 --seed 2101 --pairs 10 --seconds 20

The parent revision (``--parent``, default ``HEAD``) is extracted with
``git archive`` into a temporary directory, which leaves the repository's
``.git`` untouched and is removed at exit; the change is this working
tree. For each workload of ``BENCHMARK.json``, pair ``i`` runs
``perfbench/run.py --workload W --seed (seed + i) --seconds S --trace 0``
once on each side, the parent first when ``i`` is even and the change
first when it is odd.

A run counts only if it exits 0, writes nothing to standard error, and
the last line of its standard output is the result JSON with
``"correct": true``; any other run stops the tool with its output and no
file is written. The result goes to ``BENCH_<label>.json`` at the
repository root: the parent and change revisions, the command, the
environment line of the first change run, and per workload the seeds, the
digests that differed between the two sides of any pair, and for each
end-to-end metric of ``BENCHMARK.json`` both sides' medians and quartiles
and the number of pairs the change won (ties count for neither side).

After writing the file the tool prints its verdict, one line per workload
and metric: the parent's median and interquartile range, the change's
median, the change in percent of the parent's median, and the pairs the
change won.

``--workload NAME`` (repeatable) runs only the named workloads, in the
order of ``BENCHMARK.json``, while a change is being iterated on; by
default every workload runs, as a recorded file should.

A digest may move only if ``--moved NAME`` names it (repeatable; by
default none may). A workload's ``moved_digests`` holding any other
digest is printed to standard error and the tool exits 1, after writing
the file.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _extract(revision: str, directory: Path) -> None:
    """The committed tree of ``revision``, written into ``directory``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(directory, filter="data")


def _run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """One benchmark run in ``root``: (result JSON, digests, env line)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if (
        proc.returncode != 0
        or proc.stderr
        or not isinstance(result, dict)
        or result.get("correct") is not True
    ):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(
            f"error: {workload} seed {seed} in {root} exited {proc.returncode}, "
            "wrote to stderr, or did not end on a correct result line"
        )
    digests = dict(line.split()[1:3] for line in lines if line.startswith("sha256 "))
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return result, digests, env


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def unexpected_moves(workloads: dict, expected) -> list[tuple[str, str]]:
    """(workload, digest) of every digest in a workload's ``moved_digests``
    that ``expected`` does not name, in workload then digest order."""
    allowed = set(expected)
    return [
        (name, digest)
        for name, result in workloads.items()
        for digest in result["moved_digests"]
        if digest not in allowed
    ]


def selected_workloads(workloads: list, names) -> list:
    """The workloads of ``BENCHMARK.json`` that ``names`` name, in its
    order; all of them when ``names`` is empty. An unknown name raises
    :class:`ValueError`."""
    known = [w["name"] for w in workloads]
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ValueError(f"unknown workload(s) {', '.join(unknown)}; "
                         f"known: {', '.join(known)}")
    return [w for w in workloads if not names or w["name"] in names]


def verdict_lines(out: dict) -> list[str]:
    """One line per workload and metric of a result ``out``: the parent's
    median and IQR, the change's median, its change in percent of the
    parent's median and the pairs the change won."""
    lines = []
    for name, result in out["workloads"].items():
        for metric, m in result["metrics"].items():
            parent, change = m["parent"], m["change"]
            base = parent["median"]
            percent = (f"{100 * (change['median'] - base) / base:+.1f}%"
                       if base else "n/a")
            lines.append(
                f"{name} {metric}: parent {base:.6g} "
                f"(IQR {parent['q3'] - parent['q1']:.4g}) {m['unit']}, "
                f"change {change['median']:.6g} {m['unit']} ({percent}), "
                f"{m['better']} is better, change won "
                f"{m['change_wins']}/{out['pairs']} pairs"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--parent", default="HEAD", help="parent revision")
    parser.add_argument("--moved", action="append", default=[], metavar="NAME",
                        help="a digest the change is expected to move (repeatable)")
    parser.add_argument("--workload", action="append", default=[], metavar="NAME",
                        help="run only this workload (repeatable; default all)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        workloads = selected_workloads(bench["workloads"], args.workload)
    except ValueError as exc:
        parser.error(str(exc))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parent = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    out = {
        "label": args.label,
        "parent": parent,
        "change": {"base": _git("rev-parse", "HEAD"),
                   "dirty": bool(_git("status", "--porcelain"))},
        "command": f"perfbench/run.py --seconds {args.seconds:g} --trace 0",
        "environment": None,
        "pairs": args.pairs,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="epimon-pairs-") as tmp:
        _extract(parent, Path(tmp))
        sides = {"parent": Path(tmp), "change": ROOT}
        for w in workloads:
            name = w["name"]
            seeds = [args.seed + i for i in range(args.pairs)]
            values = {side: {m: [] for m in metrics} for side in sides}
            moved: set[str] = set()
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {}
                for side in order:
                    runs[side] = _run(sides[side], name, seed, args.seconds)
                    if side == "change" and out["environment"] is None:
                        out["environment"] = runs[side][2]
                for side, (result, _, _) in runs.items():
                    for m in metrics:
                        values[side][m].append(result["metrics"][m]["value"])
                pd, cd = runs["parent"][1], runs["change"][1]
                moved |= {d for d in pd.keys() | cd.keys() if pd.get(d) != cd.get(d)}
                print(f"{name} pair {i + 1}/{args.pairs} seed {seed} done", flush=True)
            table = {}
            for m, spec in metrics.items():
                sign = 1 if spec["better"] == "lower" else -1
                p, c = values["parent"][m], values["change"][m]
                table[m] = {
                    "unit": spec["unit"],
                    "better": spec["better"],
                    "parent": _summary(p),
                    "change": _summary(c),
                    "change_wins": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
                }
            out["workloads"][name] = {
                "seeds": seeds, "moved_digests": sorted(moved), "metrics": table,
            }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}")
    for line in verdict_lines(out):
        print(line)
    unexpected = unexpected_moves(out["workloads"], args.moved)
    for name, digest in unexpected:
        print(f"error: {name}: digest {digest!r} moved and no --moved names it",
              file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
