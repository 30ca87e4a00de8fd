"""Command-line surface.

Exit codes follow one contract everywhere: 0 = criterion holds /
computation completed (a detected blow-up is an answer, not a failure),
1 = criterion fails or a verified bound is violated, 2 = input error.

Subcommands::

    riccati-cert check INSTANCE --criterion theorem3.1|cor3.1|cor3.2|theorem1.1
    riccati-cert integrate INSTANCE --method direct|radon|both|lyapunov --out CSV
    riccati-cert verify INSTANCE TRAJECTORY_CSV
    riccati-cert gen --target satisfying|blowup|comparison --n N --seed K --out FILE

A flag's rule and default belong to the library type that takes its value
(``InstanceSpec``, ``IntegratorOptions``, ``GridSpec``); a command builds it
and names the flag in its error. Only ``--tol``'s range is checked here.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .criteria import CRITERION_NAMES, DEFAULT_GRID_POINTS, GridSpec, run_criterion
from .exceptions import InstanceFormatError, RiccatiError
from .instances import InstanceSpec, gen_blowup, gen_comparison, gen_satisfying
from .matrix_core import DEFAULT_TOL, MAX_DIM
from .integrate import (
    DEFAULT_SAMPLES,
    IntegratorOptions,
    Trajectory,
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
    p_gen.add_argument("--target", choices=("satisfying", "blowup", "comparison"),
                       required=True)
    p_gen.add_argument("--n", type=int, required=True, help=f"dimension, 1..{MAX_DIM}")
    p_gen.add_argument("--seed", type=int, default=0, help="non-negative integer")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--horizon", type=float, default=InstanceSpec.horizon)
    p_gen.add_argument("--t0", type=float, default=InstanceSpec.t0)
    p_gen.add_argument("--scale", type=float, default=InstanceSpec.scale)

    return parser


def _require_tol(tol: float) -> None:
    """--tol, of check and verify, has no library owner: finite and >= 0."""
    if not (math.isfinite(tol) and tol >= 0):
        raise RiccatiError(f"--tol must be a finite number >= 0, got {tol!r}")


def _owned(prefix: str, owner, *args, **kwargs):
    """``owner(*args, **kwargs)``, its input error prefixed with ``prefix`` (the flag)."""
    try:
        return owner(*args, **kwargs)
    except (ValueError, RiccatiError) as exc:
        raise RiccatiError(f"{prefix}{exc}") from exc


def _cmd_check(args) -> int:
    _require_tol(args.tol)
    inst = load_instance(args.instance)
    if args.grid is not None:
        grid = _owned("--grid: ", GridSpec.for_set, inst.cs, args.grid)
    else:  # the file's grid_points, else the default count over its interval
        grid = inst.grid or _owned("fields 't0', 't_end': ", GridSpec.for_set, inst.cs)
    report = run_criterion(args.criterion, inst.cs, inst.y0, lam=inst.lam,
                           mu=inst.mu, nu=inst.nu, grid=grid, tol=args.tol)
    out = report.to_dict()
    # a condition that leaves out every grid point has the witness (inf, inf)
    for rec in out["conditions"]:
        for key in ("worst_value", "worst_time"):
            if not math.isfinite(rec[key]):
                rec[key] = None
    print(json.dumps(out, indent=2))
    return EXIT_OK if report.holds else EXIT_FAIL


def _max_discrepancy(a: Trajectory, b: Trajectory) -> float:
    b_index = {float(t): k for k, t in enumerate(b.times)}
    worst = 0.0
    for k, t in enumerate(a.times):
        j = b_index.get(float(t))
        if j is None:
            continue
        diff = float(np.linalg.norm(a.values[k] - b.values[j]))
        worst = max(worst, diff / (1.0 + float(np.linalg.norm(a.values[k]))))
    return worst


def _radon_run(inst, opts: IntegratorOptions, ts) -> tuple[Trajectory, dict]:
    """The linear flow's trajectory, with its status and restarts as
    ``integrate`` prints them; the flow's samples are freed on return."""
    flow, traj = integrate_linear_system(inst.cs, inst.y0, opts, ts)
    return traj, {"radon_status": traj.status, "restarts": [float(t) for t in flow.restarts]}


def _cmd_integrate(args) -> int:
    opts = _owned("--", IntegratorOptions, rtol=args.rtol, atol=args.atol)
    inst = load_instance(args.instance)
    ts = _owned("--samples: ", GridSpec.for_set, inst.cs, args.samples).points
    extra: dict = {}

    if args.method == "direct":
        traj = integrate_riccati_direct(inst.cs, inst.y0, opts, ts)
        write_trajectory_csv(args.out, traj, inst.cs, lam=inst.lam)
    elif args.method == "radon":
        flow, traj = integrate_linear_system(inst.cs, inst.y0, opts, ts)
        write_trajectory_csv(args.out, traj, inst.cs, lam=inst.lam, flow=flow)
        extra["restarts"] = [float(t) for t in flow.restarts]
    elif args.method == "lyapunov":
        traj = integrate_lyapunov_comparison(inst.cs, inst.y0, opts, ts)
        write_trajectory_csv(args.out, traj, inst.cs, lam=inst.lam)
    else:  # both: the linear flow first, so the direct run meets only its trajectory
        radon, extra = _radon_run(inst, opts, ts)
        traj = integrate_riccati_direct(inst.cs, inst.y0, opts, ts)
        extra["max_discrepancy"] = _max_discrepancy(traj, radon)
        del radon  # freed before the CSV is written
        write_trajectory_csv(args.out, traj, inst.cs, lam=inst.lam)
        print(f"max_discrepancy {extra['max_discrepancy']:.6e}")

    status = trajectory_status_obj(traj, extra)
    write_status_sidecar(args.out, status)
    print(json.dumps(status))
    return EXIT_OK


def _cmd_verify(args) -> int:
    _require_tol(args.tol)
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
    traj = Trajectory(times=times, values=values, method="file",
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
    spec = _owned("--", InstanceSpec, n=args.n, seed=args.seed, horizon=args.horizon,
                  t0=args.t0, scale=args.scale, target=args.target)
    grid = _owned("--horizon: ", GridSpec, spec.t0, spec.t_end)  # default count, checks below
    if args.target == "satisfying":
        cs, lam, mu, y0 = gen_satisfying(spec)
        obj = instance_to_obj(cs, y0, lam=lam, mu=mu)
        report = run_criterion("theorem3.1", cs, y0, lam=lam, grid=grid)
    elif args.target == "blowup":
        cs, y0 = gen_blowup(spec)
        obj = instance_to_obj(cs, y0)
        report = run_criterion("theorem3.1", cs, y0, grid=grid)
    else:
        cs, y0 = gen_comparison(spec)
        obj = instance_to_obj(cs, y0)
        report = run_criterion("theorem1.1", cs, y0, grid=grid)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(obj))
    summary = {
        "target": args.target,
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
    except RiccatiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
