"""Command-line surface.

Exit codes follow one contract everywhere: 0 = criterion holds /
computation completed (a detected blow-up is an answer, not a failure),
1 = criterion fails or a verified bound is violated, 2 = input error.

Subcommands::

    riccati-cert check INSTANCE --criterion theorem3.1|cor3.1|cor3.2|theorem1.1
    riccati-cert integrate INSTANCE --method direct|radon|both|lyapunov --out CSV
    riccati-cert verify INSTANCE TRAJECTORY_CSV
    riccati-cert gen --target TARGET --n N --seed K --out FILE

TARGET is a key of ``instances.TARGETS``. A flag's rule and default belong
to the library type or rule that takes its value (``InstanceSpec``,
``IntegratorOptions``, ``GridSpec``, ``matrix_core.require_tol`` for
``--tol``); a command builds or checks it through
``exceptions.named_refusal``, which names the flag in its error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .criteria import CRITERION_NAMES, DEFAULT_GRID_POINTS, GridSpec, run_criterion
from .exceptions import InstanceFormatError, RiccatiError, named_refusal
from .instances import TARGETS, InstanceSpec, generate
from .matrix_core import DEFAULT_TOL, MAX_DIM, require_tol
from .integrate import (
    DEFAULT_SAMPLES,
    IntegratorOptions,
    Trajectory,
    integrate_both,
    integrate_linear_system,
    integrate_lyapunov_comparison,
    integrate_riccati_direct,
)
from .serialize import (
    dumps_instance,
    instance_to_obj,
    load_instance,
    read_status_sidecar,
    read_trajectory_csv,
    trajectory_status_obj,
    write_status_sidecar,
    write_trajectory_csv,
)
from .verify import DEFAULT_BOUND_TOL, MIN_RESIDUAL_SAMPLES, residual_check, verify_hermitian_bound

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riccati-cert",
        description="Certify global solvability of matrix Riccati differential "
                    "equations and verify the certified bounds along computed "
                    "trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a criterion check on an instance file")
    p_check.add_argument("instance", help="path to an instance JSON file")
    p_check.add_argument("--criterion", choices=CRITERION_NAMES, default="theorem3.1")
    p_check.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_check.add_argument("--grid", type=int, default=None,
                         help="number of uniform grid points (default: instance "
                              f"grid_points or {DEFAULT_GRID_POINTS})")

    p_int = sub.add_parser("integrate", help="integrate an instance and write a trajectory CSV")
    p_int.add_argument("instance")
    p_int.add_argument("--method", choices=("direct", "radon", "both", "lyapunov"),
                       default="direct")
    p_int.add_argument("--out", required=True, help="output CSV path")
    p_int.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_int.add_argument("--rtol", type=float, default=IntegratorOptions.rtol)
    p_int.add_argument("--atol", type=float, default=IntegratorOptions.atol)

    p_ver = sub.add_parser("verify", help="verify the Hermitian-part lower bound "
                                          "along a trajectory CSV")
    p_ver.add_argument("instance")
    p_ver.add_argument("trajectory", help="CSV produced by the integrate subcommand "
                                          "for the same instance")
    p_ver.add_argument("--tol", type=float, default=DEFAULT_BOUND_TOL)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--target", choices=TARGETS, required=True)
    p_gen.add_argument("--n", type=int, required=True, help=f"dimension, 1..{MAX_DIM}")
    p_gen.add_argument("--seed", type=int, default=0, help="non-negative integer")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--horizon", type=float, default=InstanceSpec.horizon)
    p_gen.add_argument("--t0", type=float, default=InstanceSpec.t0)
    p_gen.add_argument("--scale", type=float, default=InstanceSpec.scale)

    return parser


def _cmd_check(args) -> int:
    named_refusal("--", require_tol, args.tol)
    inst = load_instance(args.instance)
    if args.grid is not None:
        grid = named_refusal("--grid: ", GridSpec.for_set, inst.cs, args.grid)
    else:  # the file's grid_points, else the default count over its interval
        grid = inst.grid or named_refusal("fields 't0', 't_end': ", GridSpec.for_set, inst.cs)
    report = run_criterion(args.criterion, inst.cs, inst.y0, lam=inst.lam,
                           mu=inst.mu, nu=inst.nu, grid=grid, tol=args.tol)
    out = report.to_dict()
    # a witness that is not finite (an overflowing point, or none at all) is written as null
    for rec in out["conditions"]:
        for key in ("worst_value", "worst_time"):
            if not math.isfinite(rec[key]):
                rec[key] = None
    print(json.dumps(out, indent=2))
    return EXIT_OK if report.holds else EXIT_FAIL


def _cmd_integrate(args) -> int:
    opts = named_refusal("--", IntegratorOptions, rtol=args.rtol, atol=args.atol)
    inst = load_instance(args.instance)
    ts = named_refusal("--samples: ", GridSpec.for_set, inst.cs, args.samples).points
    flow, extra = None, {}
    if args.method == "direct":
        traj = integrate_riccati_direct(inst.cs, inst.y0, opts, ts)
    elif args.method == "radon":
        flow, traj = integrate_linear_system(inst.cs, inst.y0, opts, ts)
        extra["restarts"] = [float(t) for t in flow.restarts]
    elif args.method == "lyapunov":
        traj = integrate_lyapunov_comparison(inst.cs, inst.y0, opts, ts)
    else:  # both
        traj, extra = integrate_both(inst.cs, inst.y0, opts, ts)
    write_trajectory_csv(args.out, traj, inst.cs, lam=inst.lam, flow=flow)
    status = trajectory_status_obj(traj, extra)
    write_status_sidecar(args.out, status)
    print(json.dumps(status))
    return EXIT_OK


def _cmd_verify(args) -> int:
    named_refusal("--", require_tol, args.tol)
    inst = load_instance(args.instance)
    times, values = read_trajectory_csv(args.trajectory, inst.cs.n)
    t0, t_end = inst.cs.t0, inst.cs.t_end
    if times[0] < t0 - inst.cs.end_slack()[0]:
        raise InstanceFormatError(f"trajectory CSV first row, column 't': time "
                                  f"{float(times[0])!r} is before t0 = {t0!r}")
    if times[-1] > t_end + inst.cs.end_slack()[1]:
        raise InstanceFormatError(f"trajectory CSV last row, column 't': time "
                                  f"{float(times[-1])!r} is after t_end = {t_end!r}")
    side = read_status_sidecar(args.trajectory)
    # the sidecar's method picks the equation the residual judges the samples by
    traj = Trajectory(times=times, values=values, method=(side or {}).get("method", "file"),
                      status=side["status"] if side else "completed")
    report = verify_hermitian_bound(traj, inst.lam, tol=args.tol)
    out = report.to_dict()
    warnings: list[str] = []
    if times.size >= MIN_RESIDUAL_SAMPLES:
        out["max_residual"] = residual_check(traj, inst.cs)
    else:
        warnings.append(f"residual check skipped: fewer than {MIN_RESIDUAL_SAMPLES} samples")
    for key in ("min_lambda", "max_residual"):
        if key in out and not math.isfinite(out[key]):
            warnings.append(f"{key} is {out[key]!r}: the trajectory holds entries too large "
                            "for the monitor, written as null")
            out[key] = None
    if side is not None:
        out.update((key, side[key]) for key in ("status", "t_escape", "singular_times"))
        if side["status"] != "completed":
            warnings.append(f"trajectory status is {side['status']} (t_escape "
                            f"{side['t_escape']!r}, {len(side['singular_times'])} singular "
                            "times): only the stored samples are verified")
        # a CSV cut short or from another run: warned, the exit code follows the bound
        found = {"samples": int(times.size), "t_last": float(times[-1])}
        warnings += [f"status sidecar records {key} = {side[key]!r} but the trajectory "
                     f"CSV has {found[key]!r}: it may be truncated or from another run"
                     for key in found if key in side and side[key] != found[key]]
    out["warnings"] = warnings
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(json.dumps(out, indent=2))
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_gen(args) -> int:
    spec = named_refusal("--", InstanceSpec, n=args.n, seed=args.seed, horizon=args.horizon,
                         t0=args.t0, scale=args.scale, target=args.target)
    # the default count, which the criterion check below uses
    grid = named_refusal("--horizon: ", GridSpec, spec.t0, spec.t_end)
    cs, y0, gauges = generate(spec)
    obj = instance_to_obj(cs, y0, **gauges)
    report = run_criterion(TARGETS[spec.target], cs, y0, grid=grid, **gauges)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(obj))
    summary = {
        "target": spec.target,
        "out": args.out,
        "criterion": report.criterion,
        "holds": report.holds,
        "failed_conditions": [rec.name for rec in report.failed_conditions()],
    }
    print(json.dumps(summary))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "integrate": _cmd_integrate,
        "verify": _cmd_verify,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except (RiccatiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
