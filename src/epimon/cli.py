"""Command-line front end.

Subcommands wire the library into estimate -> tune -> monitor / simulate
workflows over files:

* ``estimate``  reference CSV -> params JSON
* ``tune``      reference CSV + params + plan -> monitor bundle (+ store)
* ``monitor``   sample stream (file or stdin) + bundle -> NDJSON events
* ``simulate``  scenario + bundle -> detection report JSON
* ``power``     params + epsilon -> closed-form power report JSON

Every command is a pure function of its input files, flags and seed: repeat
runs produce byte-identical outputs, written atomically (temp then rename).
Exit codes: 0 ok, 2 usage or data error, 3 detection fired.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .bfar import MonitorPlan, bfar_tune, detection_steps, load_bundle, save_bundle
from .episodic import (
    ReferenceDataset,
    downsample,
    estimate_params,
    json_int,
    json_number,
    json_object,
    load_params_json,
    load_reference_csv,
    params_to_dict,
    write_atomic,
)
from .errors import EpimonError
from .rng import substream  # noqa: F401 -- perfbench's tracer patches this global
from .sequential import Monitor
from .synthetic import (
    Scenario,
    asymptotic_power,
    generate_episodes,  # noqa: F401 -- perfbench's tracer patches this global
    generate_runs,
    power_gain,
)

REPORT_FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_DETECTION = 3


def _dump_json(obj: dict) -> str:
    """``obj`` as strict JSON: NaN or an infinity raises ValueError."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def cmd_estimate(args) -> int:
    ref = load_reference_csv(args.reference, skip_header=args.header)
    if ref.episode_length != args.episode_length:
        raise ValueError(
            f"episodes have {ref.episode_length} samples, "
            f"expected --episode-length {args.episode_length}"
        )
    ref = ReferenceDataset.from_raw(ref.episodes, args.downsample)
    params = estimate_params(ref)
    write_atomic(args.out, _dump_json(params_to_dict(params)))
    cond = float(np.linalg.cond(params.sigma0))
    print(
        f"estimated T={params.T} from N={ref.num_episodes} episodes "
        f"(downsample {args.downsample}); condition number {cond:.3g}; "
        f"regularized={params.regularized} lambda={params.ridge:g}"
    )
    return EXIT_OK


def cmd_tune(args) -> int:
    params = load_params_json(args.params)
    ref = load_reference_csv(
        args.reference,
        downsample_factor=params.downsample_factor,
        skip_header=args.header,
    )
    with open(args.plan) as fh:
        plan = MonitorPlan.from_dict(json.load(fh))
    tuned = bfar_tune(ref, params, plan)
    save_bundle(tuned, args.out)
    print(
        f"tuned threshold {tuned.p_threshold:.6g} "
        f"(floor {1.0 / (plan.B_inner + 1):.3g}) over "
        f"{len(plan.window_lengths(params.T))} window lengths"
    )
    return EXIT_OK


def _iter_stream_lines(source: str):
    if source == "-":
        yield from enumerate(sys.stdin, start=1)
    else:
        with open(source) as fh:
            yield from enumerate(fh, start=1)


def cmd_monitor(args) -> int:
    tuned = load_bundle(args.bundle)
    monitor = Monitor(tuned)
    d = tuned.params.downsample_factor
    block: list[float] = []
    detected = False
    for lineno, line in _iter_stream_lines(args.stream):
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise EpimonError(f"line {lineno}: not a number: {text!r}")
        if not math.isfinite(value):
            raise EpimonError(f"line {lineno}: non-finite sample")
        block.append(value)
        if len(block) < d:
            continue
        sample = float(downsample(block, d)[0])  # ReferenceDataset's arithmetic
        block.clear()
        record = monitor.step(sample)
        if monitor.last_test_point == monitor.t:
            event = {
                "t": monitor.t,
                "raw_t": monitor.t * d,
                "tests": [
                    {"stat": ev.statistic.spec, "h": ev.horizon, "p": ev.p}
                    for ev in monitor.last_evaluations
                ],
                "fired": record is not None,
            }
            print(json.dumps(event, sort_keys=True))
        if record is not None:
            detected = True
            if not args.rearm:
                break
            monitor.reset()
    return EXIT_DETECTION if detected else EXIT_OK


def _load_scenario(path: str, params, seed: int) -> Scenario:
    with open(path) as fh:
        data = json.load(fh)
    json_object(data, "scenario", ("kind",), ("kind", "epsilon_sigma", "offsets", "K"))
    epsilon_sigma = json_number(
        data.get("epsilon_sigma", 0.0), "scenario epsilon_sigma"
    )
    return Scenario(
        params=params,
        kind=data["kind"],
        epsilon=epsilon_sigma * params.mean_step_std,
        offsets=tuple(json_int(o, "scenario offsets") for o in data.get("offsets", ())),
        K=json_int(data.get("K", 1), "scenario K"),
        seed=seed,
    )


def cmd_simulate(args) -> int:
    tuned = load_bundle(args.bundle)
    params, plan = tuned.params, tuned.plan
    episodes_per_block = args.episodes or plan.h_tilde
    scenario = _load_scenario(args.scenario, params, args.seed)
    # h_max H0 warm-up episodes, then the scenario's
    runs = generate_runs(scenario, plan.h_max, episodes_per_block, args.blocks)
    steps = detection_steps(tuned, runs, episodes_per_block)
    times = sorted(steps[steps > 0].tolist())
    out = {
        "format_version": REPORT_FORMAT_VERSION,
        "blocks": args.blocks,
        "episodes_per_block": episodes_per_block,
        "detections": len(times),
        "detection_fraction": len(times) / args.blocks,
        "detection_curve": {
            "steps_after_onset": times,
            "cumulative_fraction": [
                (i + 1) / args.blocks for i in range(len(times))
            ],
        },
    }
    write_atomic(args.out, _dump_json(out))
    print(
        f"{len(times)}/{args.blocks} blocks detected "
        f"({100.0 * len(times) / args.blocks:.1f}%)"
    )
    return EXIT_OK


def cmd_power(args) -> int:
    params = load_params_json(args.params)
    epsilon = args.epsilon_sigma * params.mean_step_std
    g2_direct, g2_spectral = power_gain(params)
    power_mean, power_udt = asymptotic_power(params, epsilon, args.alpha)
    out = {
        "format_version": REPORT_FORMAT_VERSION,
        "alpha": args.alpha,
        "epsilon_sigma": args.epsilon_sigma,
        "epsilon": epsilon,
        "g2_direct": g2_direct,
        "g2_spectral": g2_spectral,
        "g2_rel_gap": abs(g2_direct - g2_spectral) / g2_direct,
        "power_mean": power_mean,
        "power_udt": power_udt,
    }
    write_atomic(args.out, _dump_json(out))
    print(
        f"G^2 = {g2_direct:.6g}; power(mean) = {power_mean:.4f}, "
        f"power(udt) = {power_udt:.4f} at alpha = {args.alpha:g}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epimon",
        description="Degradation monitoring for episodic signals.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate episode parameters from CSV")
    p.add_argument("reference", help="reference CSV, one episode per row")
    p.add_argument("--episode-length", type=int, required=True,
                   help="raw samples per episode")
    p.add_argument("--downsample", type=int, required=True,
                   help="raw samples averaged into one engine sample")
    p.add_argument("--header", action="store_true", help="skip one header line")
    p.add_argument("--out", required=True, help="output params JSON")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("tune", help="calibrate the sequential threshold (BFAR)")
    p.add_argument("reference", help="reference CSV, one episode per row (raw)")
    p.add_argument("--params", required=True, help="params JSON from estimate")
    p.add_argument("--plan", required=True, help="monitor plan JSON")
    p.add_argument("--header", action="store_true", help="skip one header line")
    p.add_argument("--out", required=True,
                   help="output monitor bundle JSON; the bootstrap store goes "
                        "next to it as <out>.store.json (index) and "
                        "<out>.store.npy (rows)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("monitor", help="run the online monitor over a stream")
    p.add_argument("stream", help="newline-delimited raw samples, or - for stdin")
    p.add_argument("--bundle", required=True, help="tuned monitor bundle JSON")
    p.add_argument("--rearm", action="store_true",
                   help="reset and continue after a detection")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("simulate", help="run blocks of a synthetic scenario")
    p.add_argument("--bundle", required=True, help="tuned monitor bundle JSON")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--blocks", type=int, default=100, help="number of blocks")
    p.add_argument("--episodes", type=int,
                   help="scenario episodes per block (default: plan h_tilde)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("power", help="closed-form power gain and test powers")
    p.add_argument("--params", required=True, help="params JSON")
    p.add_argument("--epsilon-sigma", type=float, required=True,
                   help="uniform drop in units of sqrt(trace(sigma0)/T)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(func=cmd_power)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("blocks", "episodes"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            print(f"error: --{flag} must be positive", file=sys.stderr)
            return EXIT_ERROR
    try:
        return args.func(args)
    except (
        EpimonError, ValueError, OSError, OverflowError, KeyError, TypeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:  # a plan or a run too large for this host
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
