"""Per-layer metrics of ``riccati_cert``, measured from outside.

``Probe.install`` wraps every public function of the eight layers on
every module attribute bound to it (modules import names directly, so
``criteria.check_psd`` and ``matrix_core.check_psd`` are both rebound),
plus ``eval``/``derivative`` of the ``CoefficientFunction`` subclasses
and ``matrix_core._eigvalsh``, which ``verify`` imports. The exact
counters are taken at the same boundaries:

* ``integrate.nfev`` counts ``R.eval`` calls made while an
  ``integrate_*`` function runs; every right-hand-side closure calls
  ``R.eval`` exactly once. A change that stops doing so redefines it.
* restarts and singular samples are read from the returned
  ``LinearFlow`` / ``Trajectory``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys

import numpy as np

from tracer import Tracer, nearest, self_times

LAYERS = ("coefficients", "matrix_core", "criteria", "integrate", "verify",
          "instances", "serialize", "cli")
#: Private functions wrapped as well, because another layer imports them.
PRIVATE = {"matrix_core": ("_eigvalsh",)}
COEFFICIENT_CLASSES = {"ConstantFunction": "constant", "PolynomialFunction": "polynomial",
                       "SampledFunction": "sampled"}
INTEGRATORS = {"integrate_riccati_direct": "direct", "integrate_linear_system": "radon",
               "integrate_lyapunov_comparison": "lyapunov"}
CRITERION_ROOTS = {"check_gauge_criterion": "theorem3.1", "check_skew_gauge_criterion": "cor3.1",
                   "check_sqrt_frame_criterion": "cor3.2",
                   "check_comparison_hypotheses": "theorem1.1"}
SERIALIZE_ROOTS = {"load_instance": "load_instance", "write_trajectory_csv": "write_csv",
                   "read_trajectory_csv": "read_csv"}
CLI_PHASES = ("gen", "check", "integrate", "verify")
SIZES = (2, 8, 32)

# (name, unit, better, the end-to-end metric it should move @ workload)
PER_LAYER = [
    ("coefficients.eval_calls", "count", "lower", "check_s@certify, integrate_s@trajectory"),
    ("coefficients.polynomial_self_s", "s", "lower", "check_s@certify, integrate_s@trajectory"),
    ("coefficients.sampled_self_s", "s", "lower", "check_s@certify, integrate_s@trajectory"),
    ("coefficients.constant_self_s", "s", "lower", "check_s@certify, integrate_s@trajectory"),
    ("coefficients.sampled_witness_gap", "ratio", "lower", "diagnostic only, not gated"),
    ("matrix_core.check_psd_calls", "count", "lower", "check_s@certify, check_s@cli_large"),
    ("matrix_core.check_psd_self_s", "s", "lower", "check_s@certify, check_s@cli_large"),
    ("matrix_core.psd_band_self_s", "s", "lower", "check_s@cli_large"),
    ("matrix_core.principal_sqrt_calls", "count", "lower", "check_s@certify (cor3.2)"),
    ("matrix_core.principal_sqrt_self_s", "s", "lower", "check_s@certify (cor3.2)"),
    ("matrix_core.as_matrix_calls", "count", "lower", "check_s@certify, integrate_s@trajectory"),
    ("criteria.grid_points", "count", "higher", "none (normalizer)"),
    *[(f"criteria.{c}_self_s", "s", "lower", "check_s@certify")
      for c in ("theorem3.1", "cor3.1", "cor3.2", "theorem1.1")],
    *[(f"criteria.theorem3.1_ms.n{n}", "ms", "lower", "check_s@certify / @cli_large")
      for n in SIZES],
    ("integrate.nfev", "count", "lower", "integrate_s@trajectory"),
    ("integrate.us_per_rhs", "us", "lower", "integrate_s@trajectory, @cli_large"),
    *[(f"integrate.{m}_self_s", "s", "lower", "integrate_s@trajectory, @cli_large")
      for m in ("direct", "radon", "lyapunov")],
    ("integrate.restarts", "count", "lower", "integrate_s@trajectory"),
    ("integrate.singular_samples", "count", "lower", "integrate_s@trajectory"),
    ("integrate.liouville_self_s", "s", "lower", "verify_s@trajectory"),
    *[(f"integrate.{m}_ms.n{n}", "ms", "lower", "integrate_s@trajectory / @cli_large")
      for m in ("direct", "radon") for n in SIZES],
    *[(f"verify.{f}_self_s", "s", "lower", "verify_s@trajectory; integrate_s@cli_large")
      for f in ("eigen_monitor", "residual_series", "sandwich")],
    *[(f"verify.ms.n{n}", "ms", "lower", "verify_s@trajectory") for n in SIZES],
    ("instances.gen_self_s", "s", "lower", "setup_s@certify, @trajectory"),
    ("serialize.load_instance_self_s", "s", "lower", "check_s, integrate_s, verify_s@cli_large"),
    ("serialize.write_csv_self_s", "s", "lower", "integrate_s@cli_large"),
    ("serialize.read_csv_self_s", "s", "lower", "verify_s@cli_large"),
    ("serialize.csv_bytes", "count", "lower", "integrate_s@cli_large"),
    *[(f"cli.{p}_self_s", "s", "lower", f"{p}_s@cli_large") for p in CLI_PHASES],
    ("trace.overhead_frac", "ratio", "lower", "none: the cost of tracing"),
]

#: Counters that must repeat exactly between two traced passes of the same code.
EXACT_COUNTS = ("coefficients.eval_calls", "matrix_core.check_psd_calls",
                "matrix_core.principal_sqrt_calls", "matrix_core.as_matrix_calls",
                "criteria.grid_points", "integrate.nfev", "integrate.restarts",
                "integrate.singular_samples", "serialize.csv_bytes")


class Probe:
    """Installs the span wrappers and the exact counters on ``riccati_cert``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.nfev = 0
        self.restarts = 0
        self.singular = 0
        self._rhs_owner: list = []

    def reset(self) -> None:
        self.tracer.clear()
        self.nfev = self.restarts = self.singular = 0

    def install(self) -> None:
        modules = {name: importlib.import_module(f"riccati_cert.{name}") for name in LAYERS}
        loaded = [m for k, m in sys.modules.items()
                  if k == "riccati_cert" or k.startswith("riccati_cert.")]
        for layer, mod in modules.items():
            public = [k for k, v in vars(mod).items()
                      if inspect.isfunction(v) and v.__module__ == mod.__name__
                      and not k.startswith("_")]
            for fname in public + list(PRIVATE.get(layer, ())):
                fn = getattr(mod, fname)
                inner = self._watch_rhs(fn, fname) if fname in INTEGRATORS else fn
                wrapped = self.tracer.wrap(inner, f"{layer}.{fname}")
                for other in loaded:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            self.tracer.patch(other, attr, wrapped)
        coefficients = modules["coefficients"]
        for cls_name in COEFFICIENT_CLASSES:
            cls = getattr(coefficients, cls_name)
            for meth in ("eval", "derivative"):
                wrapped = self.tracer.wrap(vars(cls)[meth], f"coefficients.{cls_name}.{meth}")
                if meth == "eval":
                    wrapped = self._count_rhs(wrapped)
                self.tracer.patch(cls, meth, wrapped)

    def _watch_rhs(self, fn, fname: str):
        owner = self._rhs_owner

        @functools.wraps(fn)
        def watched(cs, *args, **kwargs):
            owner.append(cs.R)
            try:
                result = fn(cs, *args, **kwargs)
            finally:
                owner.pop()
            if fname == "integrate_linear_system":
                flow, traj = result
                self.restarts += len(flow.restarts)
                self.singular += int(traj.singular_times.size)
            return result
        return watched

    def _count_rhs(self, eval_fn):
        owner = self._rhs_owner

        @functools.wraps(eval_fn)
        def counted(obj, t):
            if owner and obj is owner[-1]:
                self.nfev += 1
            return eval_fn(obj, t)
        return counted


def _median_ms(durations) -> float:
    return float(np.median(durations)) * 1e3 if len(durations) else 0.0


def compute(probe: Probe, grid_points: int, csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics of the spans recorded since the last ``reset``.

    A layer the workload does not reach reads 0 (no calls, no time);
    ``trace.overhead_frac`` and the witness gap are added by the caller.
    """
    tr = probe.tracer
    cols = tr.arrays()
    nid, parent, start, end = cols["name_id"], cols["parent"], cols["start"], cols["end"]
    dur = end - start
    own = self_times(start, end, parent)

    def by_name(pred, dtype=bool) -> np.ndarray:
        """Evaluate ``pred`` once per distinct span name and spread it over the spans."""
        return np.array([pred(s) for s in tr.names], dtype=dtype)[nid]

    def named(*names) -> np.ndarray:
        return np.isin(nid, [tr.id_of(x) for x in names])

    def calls(*names) -> int:
        return int(np.count_nonzero(named(*names)))

    layer = by_name(lambda s: s.split(".", 1)[0], dtype=object)

    def self_of(mask) -> float:
        return float(own[mask].sum())

    def grouped_self(layer_name: str, roots: dict[str, str]) -> dict[str, float]:
        """Self time of ``layer_name`` spans by their nearest root function."""
        root = nearest(parent, named(*(f"{layer_name}.{r}" for r in roots)))
        root_nid = np.where(root >= 0, nid[np.maximum(root, 0)], -1)
        in_layer = layer == layer_name
        return {label: self_of(in_layer & (root_nid == tr.id_of(f"{layer_name}.{fname}")))
                for fname, label in roots.items()}

    # the benchmark's own op spans are named bench.<phase>.n<n>
    op = nearest(parent, by_name(lambda s: s.startswith("bench.")))
    op_nid = np.where(op >= 0, nid[np.maximum(op, 0)], len(tr.names))
    op_names = tr.names + [""]
    is_op = [s.startswith("bench.") for s in op_names]
    size = np.array([int(s.rsplit(".n", 1)[1]) if b else 0
                     for s, b in zip(op_names, is_op)])[op_nid]
    phase = np.array([s.split(".")[1] if b else "" for s, b in zip(op_names, is_op)],
                     dtype=object)[op_nid]

    def per_call_ms(name: str, n: int) -> float:
        return _median_ms(dur[named(name) & (size == n)])

    m: dict[str, float] = {}
    methods = [f"coefficients.{c}.{meth}" for c in COEFFICIENT_CLASSES
               for meth in ("eval", "derivative")]
    m["coefficients.eval_calls"] = calls(*methods)
    for cls_name, kind in COEFFICIENT_CLASSES.items():
        m[f"coefficients.{kind}_self_s"] = self_of(
            named(f"coefficients.{cls_name}.eval", f"coefficients.{cls_name}.derivative"))
    m["matrix_core.check_psd_calls"] = calls("matrix_core.check_psd")
    m["matrix_core.check_psd_self_s"] = self_of(named("matrix_core.check_psd"))
    m["matrix_core.psd_band_self_s"] = self_of(named("matrix_core.psd_band"))
    m["matrix_core.principal_sqrt_calls"] = calls("matrix_core.principal_sqrt")
    m["matrix_core.principal_sqrt_self_s"] = self_of(named("matrix_core.principal_sqrt"))
    m["matrix_core.as_matrix_calls"] = calls("matrix_core.as_matrix")
    m["criteria.grid_points"] = grid_points
    for label, value in grouped_self("criteria", CRITERION_ROOTS).items():
        m[f"criteria.{label}_self_s"] = value
    for n in SIZES:
        m[f"criteria.theorem3.1_ms.n{n}"] = per_call_ms("criteria.check_gauge_criterion", n)

    integrators = named(*(f"integrate.{f}" for f in INTEGRATORS))
    m["integrate.nfev"] = probe.nfev
    m["integrate.us_per_rhs"] = (float(dur[integrators].sum()) / probe.nfev * 1e6
                                 if probe.nfev else 0.0)
    for fname, label in INTEGRATORS.items():
        m[f"integrate.{label}_self_s"] = self_of(named(f"integrate.{fname}"))
    m["integrate.restarts"] = probe.restarts
    m["integrate.singular_samples"] = probe.singular
    m["integrate.liouville_self_s"] = self_of(named("integrate.liouville_check"))
    for fname, label in (("integrate_riccati_direct", "direct"),
                         ("integrate_linear_system", "radon")):
        for n in SIZES:
            m[f"integrate.{label}_ms.n{n}"] = per_call_ms(f"integrate.{fname}", n)
    m["verify.eigen_monitor_self_s"] = self_of(named("verify.eigen_monitor"))
    m["verify.residual_series_self_s"] = self_of(named("verify.residual_series"))
    m["verify.sandwich_self_s"] = self_of(named("verify.verify_sandwich"))
    for n in SIZES:
        m[f"verify.ms.n{n}"] = (per_call_ms("verify.verify_hermitian_bound", n)
                                + per_call_ms("verify.residual_check", n))
    m["instances.gen_self_s"] = self_of(layer == "instances")
    for label, value in grouped_self("serialize", SERIALIZE_ROOTS).items():
        m[f"serialize.{label}_self_s"] = value
    m["serialize.csv_bytes"] = csv_bytes
    for p in CLI_PHASES:
        m[f"cli.{p}_self_s"] = self_of((layer == "cli") & (phase == p))
    return m
