"""Command-line surface.

Exit codes follow one contract everywhere: 0 = criterion holds /
computation completed (a detected blow-up is an answer, not a failure),
1 = criterion fails or a verified bound is violated, 2 = input error.

Subcommands::

    riccati-cert check INSTANCE --criterion theorem3.1|cor3.1|cor3.2|theorem1.1
    riccati-cert integrate INSTANCE --method direct|radon|both|lyapunov --out CSV
    riccati-cert verify INSTANCE TRAJECTORY_CSV
    riccati-cert gen --target satisfying|blowup|comparison --n N --seed K --out FILE
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .criteria import (
    CRITERION_NAMES,
    DEFAULT_GRID_POINTS,
    MAX_GRID_POINTS,
    GridSpec,
    run_criterion,
)
from .exceptions import InstanceFormatError, RiccatiError
from .instances import InstanceSpec, gen_blowup, gen_comparison, gen_satisfying
from .integrate import (
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
from .verify import residual_check, verify_hermitian_bound

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
    p_check.add_argument("--tol", type=float, default=1e-9)
    p_check.add_argument("--grid", type=int, default=None,
                         help="number of uniform grid points (default: instance "
                              f"grid_points or {DEFAULT_GRID_POINTS})")

    p_int = sub.add_parser("integrate", help="integrate an instance and write a trajectory CSV")
    p_int.add_argument("instance")
    p_int.add_argument("--method", choices=("direct", "radon", "both", "lyapunov"),
                       default="direct")
    p_int.add_argument("--out", required=True, help="output CSV path")
    p_int.add_argument("--samples", type=int, default=201)
    p_int.add_argument("--rtol", type=float, default=1e-9)
    p_int.add_argument("--atol", type=float, default=1e-12)

    p_ver = sub.add_parser("verify", help="verify the Hermitian-part lower bound "
                                          "along a trajectory CSV")
    p_ver.add_argument("instance")
    p_ver.add_argument("trajectory", help="CSV produced by the integrate subcommand "
                                          "for the same instance")
    p_ver.add_argument("--tol", type=float, default=1e-6)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--target", choices=("satisfying", "blowup", "comparison"),
                       required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--horizon", type=float, default=5.0)
    p_gen.add_argument("--t0", type=float, default=0.0)
    p_gen.add_argument("--scale", type=float, default=1.0)

    return parser


def _require_finite(flag: str, value: float, bound: str = "") -> None:
    """Refuse a flag value that is not finite or misses ``bound`` ("> 0" or ">= 0")."""
    ok = {"": True, "> 0": value > 0, ">= 0": value >= 0}[bound]
    if not (math.isfinite(value) and ok):
        raise RiccatiError(f"{flag} must be a finite number{' ' + bound if bound else ''}, "
                           f"got {value!r}")


def _cmd_check(args) -> int:
    _require_finite("--tol", args.tol, ">= 0")
    inst = load_instance(args.instance)
    num = args.grid if args.grid is not None else inst.grid_points
    try:
        grid = GridSpec.for_set(inst.cs, num)
    except ValueError as exc:
        raise RiccatiError(f"--grid: {exc}") from exc
    report = run_criterion(args.criterion, inst.cs, inst.y0, lam=inst.lam,
                           mu=inst.mu, nu=inst.nu, grid=grid, tol=args.tol)
    print(json.dumps(report.to_dict(), indent=2))
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


def _cmd_integrate(args) -> int:
    _require_finite("--rtol", args.rtol, "> 0")
    _require_finite("--atol", args.atol, "> 0")
    inst = load_instance(args.instance)
    if not 2 <= args.samples <= MAX_GRID_POINTS:
        raise RiccatiError(f"--samples must be between 2 and {MAX_GRID_POINTS}, "
                           f"got {args.samples}")
    ts = np.linspace(inst.cs.t0, inst.cs.t_end, args.samples)
    opts = IntegratorOptions(rtol=args.rtol, atol=args.atol)
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
    else:  # both
        traj = integrate_riccati_direct(inst.cs, inst.y0, opts, ts)
        flow, traj_radon = integrate_linear_system(inst.cs, inst.y0, opts, ts)
        write_trajectory_csv(args.out, traj, inst.cs, lam=inst.lam)
        disc = _max_discrepancy(traj, traj_radon)
        extra["radon_status"] = traj_radon.status
        extra["restarts"] = [float(t) for t in flow.restarts]
        extra["max_discrepancy"] = disc
        print(f"max_discrepancy {disc:.6e}")

    write_status_sidecar(args.out, traj, extra)
    print(json.dumps(trajectory_status_obj(traj, extra)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    _require_finite("--tol", args.tol, ">= 0")
    inst = load_instance(args.instance)
    times, values = read_trajectory_csv(args.trajectory, inst.cs.n)
    t0, t_end = inst.cs.t0, inst.cs.t_end
    if times[0] < t0 - 1e-12 * max(1.0, abs(t0)):
        raise InstanceFormatError(f"trajectory CSV first row, column 't': time "
                                  f"{float(times[0])!r} is before t0 = {t0!r}")
    if times[-1] > t_end + 1e-12 * max(1.0, abs(t_end)):
        raise InstanceFormatError(f"trajectory CSV last row, column 't': time "
                                  f"{float(times[-1])!r} is after t_end = {t_end!r}")
    side = read_status_sidecar(args.trajectory)
    traj = Trajectory(times=times, values=values, method="file",
                      status=side["status"] if side else "completed")
    report = verify_hermitian_bound(traj, inst.lam, tol=args.tol)
    out = report.to_dict()
    warnings: list[str] = []
    if times.size >= 3:
        out["max_residual"] = residual_check(traj, inst.cs)
    else:
        warnings.append("residual check skipped: fewer than 3 samples")
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
    _require_finite("--horizon", args.horizon, "> 0")
    _require_finite("--scale", args.scale, "> 0")
    _require_finite("--t0", args.t0)
    _require_finite("--t0 + --horizon", args.t0 + args.horizon)
    spec = InstanceSpec(n=args.n, seed=args.seed, horizon=args.horizon,
                        t0=args.t0, scale=args.scale, target=args.target)
    if args.target == "satisfying":
        cs, lam, mu, y0 = gen_satisfying(spec)
        obj = instance_to_obj(cs, y0, lam=lam, mu=mu)
        report = run_criterion("theorem3.1", cs, y0, lam=lam)
    elif args.target == "blowup":
        cs, y0 = gen_blowup(spec)
        obj = instance_to_obj(cs, y0)
        report = run_criterion("theorem3.1", cs, y0)
    else:
        cs, y0 = gen_comparison(spec)
        obj = instance_to_obj(cs, y0)
        report = run_criterion("theorem1.1", cs, y0)
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
