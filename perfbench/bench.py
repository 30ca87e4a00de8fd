"""The workload process of the riccati-cert benchmark.

``run.py`` pins BLAS to one thread and puts ``src/`` on the path before
importing this module, so numpy and riccati_cert load under those
settings. See ``run.py`` for what a run measures.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import numpy as np
import scipy

import layers
import workloads
from calibration import CAL_REF_S, calibrate
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
PHASES = ("check", "integrate", "verify", "gen")
SETUP_RUNS = 3
#: A run times at least this many passes, then passes until --seconds have passed.
MIN_PASSES = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
#: Printed by every run and reported with the per-layer metrics (no bound):
#: the phase sums of wall_s, failed_frac, and the raw wall time with the
#: host speed (CAL_REF_S over the run's median calibration) that scaled it.
RUN_METRICS = [("check_s", "s", "lower"), ("integrate_s", "s", "lower"),
               ("verify_s", "s", "lower"), ("gen_s", "s", "lower"),
               ("failed_frac", "ratio", "lower"), ("wall_raw_s", "s", "lower"),
               ("host.speed", "ratio", "higher")]


#: Calibrations on each side of an op that set its local speed (see calibration.py).
CAL_WINDOW = 3


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int, seconds: float) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "load": "closed loop, one caller, ops back to back",
        "twin_share": workloads.TWIN_SHARE[workload],
        "why": workloads.WHY[workload],
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Pass:
    """One pass over the op list: timings, results and gate failures.

    ``op_s`` holds the raw op times, ``scaled_s`` the same times at the
    reference speed, from the calibrations on either side of the op.
    """

    def __init__(self, wl, tracer=None):
        self.results: dict = {}
        self.errors: dict[str, str] = {}
        self.op_s: list[float] = []
        cal = [calibrate()]
        start = perf_counter()
        for op in wl.ops:
            t0 = perf_counter()
            try:
                if tracer is None:
                    res = op.run(self.results)
                else:
                    with tracer.span(f"bench.{op.phase}.n{op.n}"):
                        res = op.run(self.results)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                res = None
                self.errors[op.key] = f"raised {type(exc).__name__}: {exc}"
            self.op_s.append(perf_counter() - t0)
            self.results[op.key] = res
            cal.append(calibrate())
        self.wall_s = perf_counter() - start
        self.ops = wl.ops
        # op i ran between calibrations i and i + 1
        self.scaled_s = [
            t * CAL_REF_S / _median(cal[max(0, i + 1 - CAL_WINDOW):i + 1 + CAL_WINDOW])
            for i, t in enumerate(self.op_s)]
        self.cal_s = _median(cal)

    def judge(self, reference: dict | None) -> dict:
        """Apply every gate and the repeat check; return the op summaries."""
        summaries = {}
        for op in self.ops:
            if op.key in self.errors:
                continue
            res = self.results[op.key]
            try:
                msg = op.gate(res, self.results)
                summaries[op.key] = workloads.summary(res)
            except Exception as exc:  # a gate that cannot read the result fails the op
                msg = f"gate raised {type(exc).__name__}: {exc}"
            if msg is None and reference is not None \
                    and summaries.get(op.key) != reference.get(op.key):
                msg = "result differs from the warm-up pass"
            if msg is not None:
                self.errors[op.key] = msg
        return summaries


def median_pass(passes: list[Pass], phase: str | None = None, scaled: bool = True) -> float:
    """Sum over the ops (of one phase) of each op's median time across ``passes``."""
    ops = passes[0].ops
    times = [p.scaled_s if scaled else p.op_s for p in passes]
    return float(sum(_median([t[i] for t in times]) for i, op in enumerate(ops)
                     if phase is None or op.phase == phase))


def _setup_times(workload: str, seed: int, workdir: str) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of SETUP_RUNS fresh set-up processes.

    Each process calibrates right after its set-up, so the scale follows
    the host's speed at that moment.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    raw, scaled = [], []
    for k in range(SETUP_RUNS):
        target = os.path.join(workdir, f"setup{k}")
        os.makedirs(target)
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, probe, "--workload", workload,
                               "--seed", str(seed), "--workdir", target],
                              capture_output=True, text=True, timeout=150)
        raw.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"set-up process failed ({proc.returncode}):\n{proc.stderr}")
        scaled.append(raw[-1] * CAL_REF_S / float(proc.stdout.split()[-1]))
    return raw, scaled


def _trace(name: str, seed: int, workdir: str, reference: dict, untraced_wall: float):
    """Two traced passes, generation included; per-layer metrics of the second.

    Returns the metrics, the traced passes, and one note per exact
    counter that did not repeat between the two passes.
    """
    probe = layers.Probe(Tracer())
    outcomes = []
    for _ in range(2):
        probe.install()
        probe.reset()
        try:
            with probe.tracer.span("bench.setup.n0"):
                wl = workloads.build(name, seed, workdir)
            p = Pass(wl, probe.tracer)
        finally:
            probe.tracer.restore()
        csv_bytes = sum(os.path.getsize(f) for f in wl.csv_paths if os.path.exists(f))
        metrics = layers.compute(probe, wl.grid_points, csv_bytes)
        p.judge(reference)
        outcomes.append((p, metrics, Counter(probe.tracer.name_id)))
    (_, first, spans1), (last, metrics, spans2) = outcomes
    notes = [f"counter {key} did not repeat: {first[key]} vs {metrics[key]}"
             for key in layers.EXACT_COUNTS if first[key] != metrics[key]]
    if spans1 != spans2:
        notes.append("span counts per function did not repeat between traced passes")
    probe.tracer.save(os.path.join(OUT, f"spans-{name}.npz"))
    metrics["trace.overhead_frac"] = (sum(last.scaled_s) - untraced_wall) / untraced_wall
    metrics["coefficients.sampled_witness_gap"] = max(
        [workloads.witness_gap(last.results[a], last.results[b]) for a, b in wl.twins
         if a not in last.errors and b not in last.errors], default=0.0)
    return metrics, [o[0] for o in outcomes], notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        env = environment(name, seed, seconds)
        setup_raw, setup = ([], []) if trace else _setup_times(name, seed, workdir)
        wl = workloads.build(name, seed, workdir)
        warm = Pass(wl)
        reference = warm.judge(None)
        # judged results are not needed again; keeping them would tie
        # peak_rss_mb to the number of passes
        warm.results.clear()
        passes = []
        t0 = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - t0 < seconds:
            p = Pass(wl)
            p.judge(reference)
            p.results.clear()
            passes.append(p)
        wall = median_pass(passes)
        run = {f"{ph}_s": median_pass(passes, ph) for ph in PHASES}
        run["wall_raw_s"] = median_pass(passes, scaled=False)
        run["host.speed"] = CAL_REF_S / _median([p.cal_s for p in [warm] + passes])
        all_passes, notes = [warm] + passes, []
        if trace:
            metrics, traced, notes = _trace(name, seed, workdir, reference, wall)
            all_passes += traced
        attempted = sum(len(p.ops) for p in all_passes)
        failed = sum(len(p.errors) for p in all_passes)
        run["failed_frac"] = failed / attempted
        errors = sorted({f"{k}: {v}" for p in all_passes for k, v in p.errors.items()})

        print(f"# riccati-cert benchmark  workload={name} seed={seed} "
              f"seconds={seconds:g} trace={int(trace)} passes={len(passes)}")
        print("# env " + json.dumps(env, sort_keys=True))
        for line in errors[:20] + notes:
            print(f"FAILED {line}", file=sys.stderr)
        if trace:
            metrics.update(run)
            rows = layers.PER_LAYER + [(k, u, b, "none: untraced run figure")
                                       for k, u, b in RUN_METRICS]
            out = {}
            for key, unit, _better, moves in rows:
                out[key] = {"value": metrics[key], "unit": unit}
                print(f"{key:38s} {metrics[key]:>16.6g} {unit:6s} moves: {moves}")
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for key, unit, _better in RUN_METRICS:
                print(f"{key:12s} {run[key]:>14.6g} {unit}")
            print(f"{'setup_raw_s':12s} {_median(setup_raw):>14.6g} s")
            values = {"setup_s": _median(setup), "wall_s": wall, "peak_rss_mb": rss_mb}
            out = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            for key, entry in out.items():
                print(f"{key:12s} {entry['value']:>14.6g} {entry['unit']}")
        record = {"env": env, "metrics": out, "run": run, "errors": errors, "notes": notes,
                  "setup_raw_s": setup_raw,
                  "pass_wall_s": [p.wall_s for p in passes],
                  "pass_cal_s": [p.cal_s for p in passes]}
        with open(os.path.join(OUT, f"result-{name}-trace{int(trace)}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        print(json.dumps({"correct": failed == 0 and not notes, "attempted": attempted,
                          "failed": failed, "metrics": out}))
        return 1 if notes else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
