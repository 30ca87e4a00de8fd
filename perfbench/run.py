"""riccati-cert benchmark.

    python3 perfbench/run.py --workload certify|trajectory|cli_large|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One process drives each workload as a single caller in a closed loop:
ops run back to back, and BLAS is pinned to one thread before numpy is
imported; the workload process itself is ``bench.py``. The run

1. times ``setup_s``: three fresh processes that import riccati_cert and
   generate the workload's instances (median);
2. runs one untimed warm-up pass over the workload's fixed op list, then
   timed passes until ``--seconds`` have passed (at least two). ``wall_s``
   is one pass with every op at its median time over the timed passes;
   ``check_s``, ``integrate_s``, ``verify_s`` and ``gen_s`` are the same
   sums over the ops of one phase. These times and ``setup_s`` are scaled
   to a reference host speed measured by a calibration kernel (``bench.py``);
   the raw times are printed beside them;
3. with ``--trace 1``, also runs two traced passes with span wrappers
   installed from outside the program (``layers.py``), reports the
   per-layer metrics of the second, and fails if any exact counter
   differs between the two.

Every op has a correctness gate and must reproduce its warm-up result
exactly; an op that raises or fails either counts in ``failed``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs the
three workloads one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
NAMES = ("certify", "trajectory", "cli_large")
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Seconds per call on one satisfying instance (1001-point grid, 201
#: samples), 2 cores, Python 3.11, numpy 2.4.6, from ROADMAP "Recent".
ROADMAP_BASELINE = {2: (0.46, 0.13, 0.14, 0.03), 8: (0.57, 0.14, 0.18, 0.04),
                    32: (1.57, 0.30, 0.46, 0.10)}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description="riccati-cert benchmark")
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _baseline_metrics(n: int) -> tuple[str, ...]:
    return (f"criteria.theorem3.1_ms.n{n}", f"integrate.direct_ms.n{n}",
            f"integrate.radon_ms.n{n}", f"verify.ms.n{n}")


def _print_baseline(metrics: dict) -> None:
    """Traced per-call medians beside the ROADMAP baseline table (seconds)."""
    rows = []
    for n, base in ROADMAP_BASELINE.items():
        got = [metrics[m] for m in _baseline_metrics(n)]
        if any(got):
            cells = "  ".join(f"{g / 1e3:7.3f} ({b:.2f})" if g else f"{'-':>7s} ({b:.2f})"
                              for g, b in zip(got, base))
            rows.append(f"n={n:<3d} {cells}")
    if rows:
        print("# traced per-call median s (ROADMAP)  check theorem3.1 | direct | radon | verify")
        for row in rows:
            print(f"# {row}")


def run_all(args) -> int:
    """Each workload in its own process; prints their output and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    if args.trace:
        # each per-call median is measured by one workload and reads 0 in the others
        _print_baseline({metric: max(combined["metrics"].get(f"{w}.{metric}", {"value": 0.0})
                                     ["value"] for w in NAMES)
                         for n in ROADMAP_BASELINE for metric in _baseline_metrics(n)})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "riccati_cert", "__init__.py")):
        print(f"error: no riccati_cert sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for key in BLAS_PIN:
        os.environ[key] = "1"
    sys.path.insert(0, SRC)
    import riccati_cert

    if os.path.dirname(os.path.dirname(os.path.abspath(riccati_cert.__file__))) != SRC:
        print(f"error: riccati_cert imported from {riccati_cert.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench

    return bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
