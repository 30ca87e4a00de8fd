"""Trajectory computation by three routes.

* ``integrate_riccati_direct``      -- the quadratic equation itself,
  Y' = S - Y P Y - Q Y - Y R, with finite-escape (blow-up) detection;
* ``integrate_linear_system``       -- the equivalent 2n x n linear flow
  Phi' = R Phi + P Psi, Psi' = S Phi - Q Psi with Y = Psi Phi^{-1},
  which continues through Riccati blow-up;
* ``integrate_lyapunov_comparison`` -- the linear comparison equation
  Ytilde' = S - R* Ytilde - Ytilde R used by the sandwich bound.

All three share one driver: the embedded explicit Runge-Kutta 5(4) pair
of Dormand and Prince with a PI step-size controller. The pair is FSAL
(first same as last): the last stage point is the new state, and the
right-hand side there is the first stage of the next step, so an
accepted step costs six right-hand-side calls. Requested sample times
are hit exactly by clamping steps, so no dense interpolation error
enters the stored samples. Everything is deterministic: the initial step
comes from a standard starting-step heuristic and there are no
randomized components. The driver's arithmetic is elementwise, so each
integrator keeps its natural state layout: Y as one (n, n) matrix, the
linear flow (Phi, Psi) as one (2, n, n) stack.

Each step evaluates the coefficients once, at its six stage times,
through one ``coefficients.stacked_evaluator`` call, which gives one
stack per coefficient: constants are read-only broadcasts of their
values, polynomials that share ``t_ref`` go through one Horner pass over
their stacked coefficients, and sampled functions on one grid through
one power sum over their stacked cells. Stage i reads row i of each
stack. The values equal ``eval``'s at each time bit for bit, and each
stage sums its weighted slopes one at a time in the tableau's
order, skipping the zero weights, so the trajectories do not depend on
how the coefficients are stored. The driver counts its right-hand-side
calls (``nfev``, still six per step) and steps in ``Trajectory.stats``.

The samples are written into arrays allocated once per call at their
full size; a run that stops early returns copies of the rows it reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSet, _require_matrix, stacked_evaluator
from .exceptions import IntegrationError
from .matrix_core import _scan, adjoint

# Dormand-Prince 5(4) tableau. The last row of _A is the fifth-order
# solution, which is propagated; the _ERR row (fifth- minus fourth-order
# weights) gives the error estimate.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _first_and_rest(row) -> tuple:
    """The non-zero (j, w_j) of a tableau row in its order, as the first and the rest."""
    nonzero = tuple((j, w) for j, w in enumerate(row) if w != 0.0)
    return nonzero[0], nonzero[1:]


#: The non-zero weights of each stage i = 1..6 and of the error row.
_STAGES = tuple(_first_and_rest(_A[i]) for i in range(1, 7))
_ERR_WEIGHTS = _first_and_rest(_ERR)
#: The stage nodes c_1..c_6: t + _NODES * h are the doubles t + c_i * h.
_NODES = np.array(_C[1:])
_NODES.setflags(write=False)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA = 0.04
_ALPHA = 0.2 - 0.75 * _BETA

#: Smallest step: a rejected step that would shrink below it ends the run
#: (``step_collapse``).
_H_MIN = 1e-12

#: The direct integration declares blow-up (``norm_cap``) once the
#: Frobenius norm of Y exceeds this.
_BLOWUP_NORM = 1e8

#: The linear flow is reset to (I, Y) at a sample where its condition
#: estimate or magnitude exceeds this (or Phi's own condition 0.25/rtol).
_RECONDITION_THRESHOLD = 1e8

#: Ceiling of the linear flow's rtol-aware singular cutoff (see integrate_linear_system).
_SINGULAR_COND_CEILING = 1e13

_MAX_STEPS = 1_000_000

DEFAULT_SAMPLES = 201  # uniform sample times of ``default_sample_times``


@dataclass(frozen=True)
class IntegratorOptions:
    """Error tolerances of the step-size control.

    The minimum step, the blow-up norm cap and the recondition threshold
    are fixed module constants (1e-12, 1e8 and 1e8).
    """

    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        for name, value in (("rtol", self.rtol), ("atol", self.atol)):
            if not (math.isfinite(value) and value > 0):
                raise IntegrationError(f"{name} must be a finite number > 0, got {value!r}")


@dataclass
class Trajectory:
    """Sampled solution with its termination status.

    ``status`` is one of ``completed``, ``blow_up`` (with ``t_escape`` the
    last accepted time and ``blowup_trigger`` either ``norm_cap`` or
    ``step_collapse``), or ``phi_singular`` (the linear flow crossed
    numerically singular Phi at ``singular_times``; those samples carry no
    reconstructed value). All stored values are finite.

    ``stats`` holds the driver's counters: ``nfev`` (right-hand-side
    calls), ``steps_accepted`` and ``steps_rejected``; it is empty for a
    trajectory read from a file.
    """

    times: np.ndarray
    values: np.ndarray
    status: str
    method: str
    t_escape: float | None = None
    blowup_trigger: str | None = None
    singular_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    notes: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass
class LinearFlow:
    """Samples of the linear flow (Phi, Psi) with its restart log.

    The samples are the driver's states at the sample times: post-reset
    at restart times, so Y(tau) = Psi(tau) Phi(tau)^{-1} is preserved
    across each reset by construction.
    """

    times: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    restarts: list[float] = field(default_factory=list)


def default_sample_times(cs: CoefficientSet, num: int = DEFAULT_SAMPLES) -> np.ndarray:
    return np.linspace(cs.t0, cs.t_end, num)


def _rms(x: np.ndarray) -> float:
    """Root mean square over all entries of an array of any shape, with the
    sum and the division of ``np.mean``."""
    return math.sqrt(np.add.reduce(np.abs(x) ** 2, axis=None) / x.size)


def _initial_step(f, t0: float, y0: np.ndarray, f0: np.ndarray,
                  opts: IntegratorOptions, span: float) -> float:
    """Standard starting-step heuristic for a fifth-order method."""
    sc = opts.atol + opts.rtol * np.abs(y0)
    d0 = _rms(y0 / sc)
    d1 = _rms(f0 / sc)
    h0 = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = _rms((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return max(min(100 * h0, h1, span), _H_MIN)


def _reached(count: int, *buffers: np.ndarray) -> tuple:
    """The first ``count`` rows of each buffer: the buffers themselves when
    they are full, else copies, so a short result owns its rows and does not
    keep the whole allocation alive."""
    if count == len(buffers[0]):
        return buffers
    return tuple(b[:count].copy() for b in buffers)


def _integrate_sampled(rhs, values, sample_times: np.ndarray, y0: np.ndarray,
                       opts: IntegratorOptions, after_step=None, at_sample=None):
    """Drive the RK pair through ``sample_times``, clamping steps so every
    sample is hit exactly. The states and the right-hand sides have y0's shape.

    ``values`` is a ``stacked_evaluator`` of the coefficients and
    ``rhs(vals, y)`` the right-hand side from their values at one time;
    each step evaluates them once, at its six stage times.
    ``after_step(t, y)`` may return a stop-reason string (checked on the
    initial state and after every accepted step). ``at_sample(t, y)`` may
    return a replacement state (used for flow reconditioning).

    Returns (times, states, stop_reason, t_last, stats) where the arrays
    ``times``/``states`` hold the samples actually reached (states along a
    new first axis), each as it stands after ``at_sample``, ``t_last`` is
    the last accepted time and ``stats`` counts the right-hand sides
    (``nfev``: every stage, the starting-step probe and the re-evaluation
    after a replaced state) and the accepted and rejected steps.
    """
    t = float(sample_times[0])
    y = y0.astype(np.complex128)
    f_curr = None  # f(t, y), evaluated once there is a step to take
    abs_y = None  # |y|, kept from the step that reached y
    nfev = accepted = rejected = 0
    times = np.empty(sample_times.size)
    states = np.empty((sample_times.size,) + y.shape, dtype=np.complex128)
    count = 0

    def f(t_eval: float, y_eval: np.ndarray) -> np.ndarray:
        """The right-hand side at one time."""
        return rhs([v[0] for v in values(np.array([t_eval]))], y_eval)

    def record(t_sample: float) -> None:
        """Store a reached sample; a replaced state gets its f anew."""
        nonlocal y, f_curr, abs_y, nfev, count
        if at_sample is not None:
            y_new = at_sample(t_sample, y)
            if y_new is not y:
                y, abs_y = y_new, None
                if f_curr is not None:
                    f_curr = f(t, y)
                    nfev += 1
        times[count] = t_sample
        states[count] = y
        count += 1

    def result(reason):
        stats = {"nfev": nfev, "steps_accepted": accepted, "steps_rejected": rejected}
        return (*_reached(count, times, states), reason, t, stats)

    record(t)
    reason = after_step(t, y) if after_step is not None else None
    if reason is not None or sample_times.size == 1:
        return result(reason)

    f_curr = f(t, y)
    h = _initial_step(f, t, y, f_curr, opts, float(sample_times[-1]) - t)
    nfev += 2  # f_curr and the one probe in _initial_step

    facold = 1e-4
    rejected_last = False
    next_idx = 1
    k = [None] * 7

    while next_idx < sample_times.size:
        t_target = float(sample_times[next_idx])
        tiny = 1e-13 * max(1.0, abs(t_target))
        if t_target - t <= tiny:
            # already there to rounding; record the sample without stepping
            record(t_target)
            next_idx += 1
            continue

        if accepted + rejected >= _MAX_STEPS:
            raise IntegrationError(f"step budget exceeded ({_MAX_STEPS} steps)")

        hit = h >= (t_target - t) - tiny
        h_eff = (t_target - t) if hit else h

        # stages (FSAL: k[0] is f at the current point, and the last stage
        # point is the fifth-order solution); each sum is accumulated in
        # the tableau's order, one weighted stage at a time
        k[0] = f_curr
        stacks = values(t + _NODES * h_eff)
        for i, ((j, a), rest) in enumerate(_STAGES):
            yi = y + (h_eff * a) * k[j]
            for j, a in rest:
                yi += (h_eff * a) * k[j]
            k[i + 1] = rhs([v[i] for v in stacks], yi)
        del stacks  # freed before the next step evaluates its own
        y_new = yi
        nfev += 6

        (j, e), rest = _ERR_WEIGHTS
        err_vec = (h_eff * e) * k[j]
        for j, e in rest:
            err_vec += (h_eff * e) * k[j]
        if abs_y is None:
            abs_y = np.abs(y)
        abs_new = np.abs(y_new)
        sc = opts.atol + opts.rtol * np.maximum(abs_y, abs_new)
        err = _rms(err_vec / sc)
        if not math.isfinite(err):
            err = math.inf

        if err <= 1.0:
            accepted += 1
            t = t_target if hit else t + h_eff
            y, abs_y = y_new, abs_new
            f_curr = k[6]  # FSAL
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-_ALPHA) * facold ** _BETA
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            if rejected_last:
                factor = min(factor, 1.0)
            rejected_last = False
            facold = max(err, 1e-4)
            h = max(h_eff * factor, _H_MIN)
            if hit:
                record(t)
                next_idx += 1
            if after_step is not None:
                reason = after_step(t, y)
                if reason is not None:
                    return result(reason)
        else:
            rejected += 1
            rejected_last = True
            factor = max(_MIN_FACTOR, _SAFETY * err ** (-_ALPHA)) if math.isfinite(err) else _MIN_FACTOR
            h = h_eff * min(factor, 1.0)
            if h < _H_MIN:
                return result("step_collapse")

    return result(None)


def _prologue(cs: CoefficientSet, y0, name: str, sample_times) -> tuple[np.ndarray, np.ndarray]:
    """The validated initial value ``name`` and sample times of an integrator
    call (default: ``default_sample_times(cs)``)."""
    y0 = _require_matrix(y0, cs.n, name)
    ts = np.asarray(default_sample_times(cs) if sample_times is None else sample_times,
                    dtype=np.float64)
    if ts.ndim != 1 or ts.size < 1:
        raise IntegrationError("sample_times must be a non-empty 1-D array")
    if abs(float(ts[0]) - cs.t0) > cs.end_slack()[0]:
        raise IntegrationError(f"sample_times must start at t0 = {cs.t0}")
    if ts.size > 1 and not np.all(np.diff(ts) > 0):
        raise IntegrationError("sample_times must be strictly increasing")
    if float(ts[-1]) > cs.t_end + cs.end_slack()[1]:
        raise IntegrationError(f"sample_times exceed t_end = {cs.t_end}")
    return y0, ts


def integrate_riccati_direct(cs: CoefficientSet, y0, opts: IntegratorOptions | None = None,
                             sample_times=None) -> Trajectory:
    """Integrate Y' = S(t) - Y P(t) Y - Q(t) Y - Y R(t) from Y(t0) = Y0.

    Declares blow-up when the Frobenius norm of Y exceeds 1e8 or the step
    collapses below 1e-12 after a rejection; the escape-time estimate is
    the last accepted time and the report distinguishes the two triggers
    (a step collapse can also signal stiffness).
    """
    opts = opts or IntegratorOptions()
    y0, ts = _prologue(cs, y0, "Y0", sample_times)
    pqrs = stacked_evaluator((cs.P, cs.Q, cs.R, cs.S))

    def rhs(values, y):
        p, q, r, s = values
        return s - y @ p @ y - q @ y - y @ r

    def guard(t, y):
        return "norm_cap" if np.linalg.norm(y) > _BLOWUP_NORM else None

    times, values, reason, t_last, stats = _integrate_sampled(rhs, pqrs, ts, y0, opts,
                                                              after_step=guard)
    blown = reason is not None
    return Trajectory(times=times, values=values, status="blow_up" if blown else "completed",
                      method="direct", t_escape=t_last if blown else None,
                      blowup_trigger=reason, stats=stats)


def integrate_linear_system(cs: CoefficientSet, y0, opts: IntegratorOptions | None = None,
                            sample_times=None) -> tuple[LinearFlow, Trajectory]:
    """Integrate the block-linear flow and reconstruct Y = Psi Phi^{-1}.

    From Phi(t0) = I, Psi(t0) = Y0. At every sample time two condition
    estimates decide what happens: the reconstruction's, c = (max(||Phi||,
    ||Psi||) + atol/rtol) / sigma_min(Phi), and Phi's own against I, its
    value at the last reset, c_Phi = max(1, ||Phi||_2) / sigma_min(Phi):

    * c above max(0.5/rtol, 2e8) (capped at 1e13), or c_Phi above 0.5/rtol
      (an exact zero of det Phi), marks the sample singular and skips it:
      the reconstructed value would carry an error estimate of order one
      or worse. The linear flow itself never blows up and simply continues;
    * c or the raw magnitude above the recondition threshold 1e8, or c_Phi
      above 0.25/rtol, resets the pair to (I, Y(tau)) and logs the restart;
      the reset preserves the numerical ratio Psi Phi^{-1} exactly, so it
      never adds error to the continued flow;
    * otherwise Y is reconstructed and stored (with reconstruction error
      bounded by roughly c * rtol relative to 1 + ||Y||).

    The returned ``LinearFlow`` holds the driver's states at the sample
    times, so at a restart it holds the reset pair.
    """
    opts = opts or IntegratorOptions()
    y0, ts = _prologue(cs, y0, "Y0", sample_times)
    eye = np.eye(cs.n, dtype=np.complex128)
    pqrs = stacked_evaluator((cs.P, cs.Q, cs.R, cs.S))

    def rhs(values, y):
        phi, psi = y
        p, q, r, s = values
        return np.array([r @ phi + p @ psi, s @ phi - q @ psi])

    restarts: list[float] = []
    # the reconstructed samples, written in order; singular ones are skipped
    traj_times = np.empty(ts.size)
    traj_vals = np.empty((ts.size, cs.n, cs.n), dtype=np.complex128)
    kept = 0
    singular: list[float] = []
    floor = opts.atol / opts.rtol
    singular_cutoff = min(_SINGULAR_COND_CEILING,
                          max(0.5 / opts.rtol, 2.0 * _RECONDITION_THRESHOLD))

    def at_sample(t, y):
        nonlocal kept
        phi, psi = y
        sigma = np.linalg.svd(phi, compute_uv=False)
        smin = float(sigma[-1])
        mag = max(float(np.linalg.norm(phi)), float(np.linalg.norm(psi)))
        cond_est = (mag + floor) / smin if smin > 0 else math.inf
        phi_cond = max(1.0, float(sigma[0])) / smin if smin > 0 else math.inf
        # the first sample is exact (Phi = I, Psi = Y0): never singular
        if (cond_est > singular_cutoff or phi_cond > 0.5 / opts.rtol) and kept:
            singular.append(float(t))
            return y
        ymat = np.linalg.solve(phi.T, psi.T).T
        traj_times[kept] = t
        traj_vals[kept] = ymat
        kept += 1
        if max(cond_est, mag) > _RECONDITION_THRESHOLD or phi_cond > 0.25 / opts.rtol:
            restarts.append(float(t))
            return np.array([eye, ymat])
        return y

    times, states, reason, t_last, stats = _integrate_sampled(rhs, pqrs, ts, np.array([eye, y0]),
                                                              opts, at_sample=at_sample)
    if reason is not None:
        raise IntegrationError(
            f"linear flow integration stopped at t = {t_last} ({reason}); "
            "the flow is linear and should not collapse at these scales")

    flow = LinearFlow(times=times, phi=states[:, 0], psi=states[:, 1], restarts=restarts)
    status = "phi_singular" if singular else "completed"
    traj_times, traj_vals = _reached(kept, traj_times, traj_vals)
    traj = Trajectory(times=traj_times, values=traj_vals, status=status,
                      method="radon", singular_times=np.array(singular), stats=stats)
    return flow, traj


def integrate_lyapunov_comparison(cs: CoefficientSet, ytilde0,
                                  opts: IntegratorOptions | None = None,
                                  sample_times=None) -> Trajectory:
    """Integrate the linear comparison equation Y' = S - R* Y - Y R.

    Intended under the symmetric-pair hypotheses (P >= 0, S >= 0, R = Q*),
    where the comparison coefficient is taken as A(t) := R(t). Linear,
    hence never blows up on a finite span.
    """
    opts = opts or IntegratorOptions()
    y0, ts = _prologue(cs, ytilde0, "Ytilde0", sample_times)
    rs = stacked_evaluator((cs.R, cs.S))

    def rhs(values, y):
        r, s = values
        return s - r.conj().T @ y - y @ r

    times, values, reason, t_last, stats = _integrate_sampled(rhs, rs, ts, y0, opts)
    if reason is not None:
        raise IntegrationError(
            f"linear comparison integration stopped at t = {t_last} ({reason})")
    return Trajectory(times=times, values=values,
                      status="completed", method="lyapunov", stats=stats,
                      notes=["comparison coefficient A(t) := R(t) "
                             "(symmetric-pair hypothesis R = Q*)"])


# ---------------------------------------------------------------------------
# Determinant identity along the linear flow
# ---------------------------------------------------------------------------

def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral on a uniform grid, composite Simpson scheme.

    out[0] = 0; out[1] uses the parabola through the first three points;
    out[k] = out[k-2] + Simpson over [k-2, k]. Fourth-order accurate.
    """
    m = y.shape[0]
    out = np.zeros(m, dtype=y.dtype)
    if m == 1:
        return out
    if m == 2:
        out[1] = dx * (y[0] + y[1]) / 2.0
        return out
    out[1] = dx * (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0
    # Simpson over [k-2, k]; each parity chain is one running sum, added in recurrence order
    steps = dx * (y[:-2] + 4.0 * y[1:-1] + y[2:]) / 3.0
    for first in (0, 1):
        out[first::2] = np.cumsum(np.concatenate((out[first:first + 1], steps[first::2])))
    return out


@dataclass
class LiouvilleReport:
    """Worst relative errors of the determinant identities."""

    max_rel_error: float
    det_form_error: float
    modulus_form_error: float
    spans: list[tuple[float, float]]


def liouville_check(flow: LinearFlow, cs: CoefficientSet, traj: Trajectory) -> LiouvilleReport:
    """Compare det Phi(t) against det Phi(t1) exp{int tr(R + P Y) dtau}.

    The quadrature is composite Simpson on the sample grid. Checked on
    every maximal span free of restarts and singular samples; also checks
    the squared-modulus form with integrand tr(R + R* + P (Y + Y*)).
    Returns the maximum relative error over all checked samples.
    """
    kept = np.flatnonzero(np.isin(flow.times, traj.times))
    if not kept.size:
        raise IntegrationError("no singularity-free span available")
    # a span starts after a dropped (singular) sample or at a restart
    starts = (np.diff(kept, prepend=-2) > 1) | np.isin(flow.times[kept], flow.restarts)
    spans = np.split(kept, np.flatnonzero(starts)[1:])
    rp = stacked_evaluator((cs.R, cs.P))

    def integrands(ts, y):
        """tr(R + P Y) and tr(R + R* + P (Y + Y*)) at every sample of a span."""
        r, p = rp(ts)
        return (np.trace(r + p @ y, axis1=-2, axis2=-1),
                np.trace(r + adjoint(r) + p @ (y + adjoint(y)), axis1=-2, axis2=-1).real)

    max_det = 0.0
    max_mod = 0.0
    checked: list[tuple[float, float]] = []
    tiny = np.finfo(float).tiny
    for idx in spans:
        ts = flow.times[idx]
        checked.append((float(ts[0]), float(ts[-1])))
        if idx.size == 1:
            continue  # trivial span: identity holds with error 0 by definition
        dxs = np.diff(ts)
        dx = float(dxs[0])
        if np.max(np.abs(dxs - dx)) > 1e-9 * dx:
            raise IntegrationError("liouville_check requires a uniform sample grid")
        phis = flow.phi[idx]
        dets = np.linalg.det(phis)
        ys = traj.values[np.searchsorted(traj.times, ts)]

        integrand, integrand2 = _scan(ts, cs.n, integrands, ys)

        cum = _cumulative_simpson(integrand, dx)
        rhs = dets[0] * np.exp(cum)
        rel = np.abs(dets - rhs) / np.maximum(np.maximum(np.abs(dets), np.abs(rhs)), tiny)
        max_det = max(max_det, float(np.max(rel)))

        cum2 = _cumulative_simpson(integrand2, dx)
        lhs2 = np.abs(dets) ** 2
        rhs2 = (np.abs(dets[0]) ** 2) * np.exp(cum2)
        rel2 = np.abs(lhs2 - rhs2) / np.maximum(np.maximum(lhs2, rhs2), tiny)
        max_mod = max(max_mod, float(np.max(rel2)))

    return LiouvilleReport(max_rel_error=max(max_det, max_mod),
                           det_form_error=max_det, modulus_form_error=max_mod,
                           spans=checked)
