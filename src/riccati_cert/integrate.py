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
stack. When every coefficient is constant, their values are split by
stage once per run instead. The values equal ``eval``'s at each time
bit for bit. The step's sums are slope-major: as soon as a slope is
known, one multiply weighs it for every later stage input and the error
vector, and one add folds it into them. So each stage input is still y
plus its weighted slopes in the tableau's order, the error vector its
terms in that order from the first, the zero weights are skipped, and
the trajectories do not depend on how the coefficients are stored. The
driver counts its right-hand-side calls (``nfev``, still six per step),
its steps and their size range in ``Trajectory.stats``.

The samples are written into arrays allocated once per call at their
full size; a run that stops early returns copies of the rows it reached.
The linear flow hands each reconstructed Y to a sample consumer:
``integrate_linear_system``'s stores it, with the flow's states, while
a consumer that only folds the samples (the discrepancy of
``integrate_both``) lets the flow run storing no sample at all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSet, _require_matrix, stacked_evaluator
from .exceptions import IntegrationError
from .matrix_core import _OVERFLOW_QUIET, _scan, adjoint

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


def _slope_layout() -> tuple[tuple, tuple]:
    """The weights of each slope k_1..k_7 by the accumulator rows they reach,
    flat and in slope order, and each slope's (weight slice, row slice). Rows
    0-5 are the inputs of stages 2-7 (row 5 the fifth-order solution) and
    row 6 the error vector. The rows where a slope's weight is not zero are
    contiguous in this tableau, so each slope's rows are one slice."""
    def weight(row: int, j: int) -> float:
        weights = _ERR if row == 6 else _A[row + 1]
        return weights[j] if j < len(weights) else 0.0

    flat, slopes = [], []
    for j in range(7):
        rows = [row for row in range(7) if weight(row, j) != 0.0]
        slopes.append((slice(len(flat), len(flat) + len(rows)), slice(rows[0], rows[-1] + 1)))
        flat.extend(weight(row, j) for row in rows)
    return tuple(flat), tuple(slopes)


_WEIGHTS, _SLOPES = _slope_layout()
#: The stage nodes c_2..c_7: t + _NODES * h are the doubles t + c_i * h.
_NODES = np.array(_C[1:])
_NODES.setflags(write=False)


@functools.cache
def _weight_column(ndim: int) -> np.ndarray:
    """``_WEIGHTS`` along a first axis that spans a state of ``ndim`` axes."""
    column = np.array(_WEIGHTS).reshape((-1,) + (1,) * ndim)
    column.setflags(write=False)
    return column


def _rk_stages(rhs, stage_values, y: np.ndarray, f0: np.ndarray, h: float) -> tuple:
    """One Dormand-Prince step of size ``h`` from ``y`` with ``f0`` the slope
    there: (the fifth-order solution, the right-hand side there, the error
    vector). ``stage_values[i]`` are the coefficient values at stage i + 2.

    The sums are slope-major: once a slope is known, one multiply weighs it
    by (h * w) for every row it reaches and one add folds it into those
    rows. Each stage input is y plus its terms in the tableau's order, the
    error vector its terms in that order from the first, and the zero
    weights A[6][1] and E[1] are never applied. The new state and the error
    vector are rows of a buffer the step allocates, which no later step
    writes.
    """
    hw = h * _weight_column(y.ndim)
    cols, _ = _SLOPES[0]  # k_1 reaches every row
    acc = hw[cols] * f0
    np.add(y, acc[:6], out=acc[:6])
    k = f0
    for i, (cols, rows) in enumerate(_SLOPES[1:]):
        k = rhs(stage_values[i], acc[i])
        target = acc[rows]
        target += hw[cols] * k
    return acc[5], k, acc[6]


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

DEFAULT_SAMPLES = 201  # uniform sample times on [t0, t_end] when none are given


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
    calls), ``steps_accepted`` and ``steps_rejected``, and the smallest and
    largest accepted step, ``h_min`` and ``h_max`` (None when no step was
    accepted); it is empty for a trajectory read from a file.
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


@np.errstate(**_OVERFLOW_QUIET)
def _integrate_sampled(rhs, values, sample_times: np.ndarray, y0: np.ndarray,
                       opts: IntegratorOptions, after_step=None, at_sample=None,
                       record_states: bool = True):
    """Drive the RK pair through ``sample_times``, clamping steps so every
    sample is hit exactly. The states and the right-hand sides have y0's shape.

    ``values`` is a ``stacked_evaluator`` of the coefficients and
    ``rhs(vals, y)`` the right-hand side from their values at one time;
    each step evaluates them once, at its six stage times, unless they are
    all constant: then they are evaluated and split by stage once per run.
    ``after_step(t, y)`` may return a stop-reason string (checked on the
    initial state and after every accepted step). ``at_sample(t, y)`` may
    return a replacement state (used for flow reconditioning).

    Returns (times, states, stop_reason, t_last, stats) where the arrays
    ``times``/``states`` hold the samples actually reached (states along a
    new first axis), each as it stands after ``at_sample``; ``states`` is
    None unless ``record_states``. ``t_last`` is the last accepted time and
    ``stats`` counts the right-hand sides (``nfev``: every stage, the
    starting-step probe and the re-evaluation after a replaced state) and
    the accepted and rejected steps, and gives the smallest and largest
    accepted step (``h_min``, ``h_max``; None before the first). A
    non-finite error estimate rejects its step.
    """
    t = float(sample_times[0])
    y = y0.astype(np.complex128)
    f_curr = None  # f(t, y), evaluated once there is a step to take
    abs_y = None  # |y|, kept from the step that reached y
    nfev = accepted = rejected = 0
    times = np.empty(sample_times.size)
    states = (np.empty((sample_times.size,) + y.shape, dtype=np.complex128)
              if record_states else None)
    count = 0
    h_lo, h_hi = math.inf, 0.0  # the accepted step-size range

    def by_stage(ts: np.ndarray) -> list:
        """The coefficient values at each time of ``ts``, one list per time."""
        stacks = values(ts)
        return [[v[i] for v in stacks] for i in range(ts.size)]

    # constants take the same values at every time
    fixed = by_stage(_NODES) if values.constant else None

    def f(t_eval: float, y_eval: np.ndarray) -> np.ndarray:
        """The right-hand side at one time."""
        return rhs((fixed or by_stage(np.array([t_eval])))[0], y_eval)

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
        if states is not None:
            states[count] = y
        count += 1

    def result(reason):
        stats = {"nfev": nfev, "steps_accepted": accepted, "steps_rejected": rejected,
                 "h_min": h_lo if accepted else None, "h_max": h_hi if accepted else None}
        if states is None:
            return _reached(count, times)[0], None, reason, t, stats
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

        # FSAL: the step starts from f at the current point, and its last
        # slope is f at the new state
        y_new, f_new, err_vec = _rk_stages(rhs, fixed or by_stage(t + _NODES * h_eff),
                                           y, f_curr, h_eff)
        nfev += 6
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
            y, abs_y, f_curr = y_new, abs_new, f_new
            h_lo, h_hi = min(h_lo, h_eff), max(h_hi, h_eff)
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
            factor = max(_MIN_FACTOR, _SAFETY * err ** (-_ALPHA))
            h = h_eff * min(factor, 1.0)
            if h < _H_MIN:
                return result("step_collapse")

    return result(None)


def _prologue(cs: CoefficientSet, y0, name: str, sample_times) -> tuple[np.ndarray, np.ndarray]:
    """The validated initial value ``name`` and sample times of an integrator
    call (default: ``DEFAULT_SAMPLES`` uniform times on [t0, t_end])."""
    y0 = _require_matrix(y0, cs.n, name)
    ts = np.asarray(np.linspace(cs.t0, cs.t_end, DEFAULT_SAMPLES) if sample_times is None
                    else sample_times, dtype=np.float64)
    if ts.ndim != 1 or ts.size < 1 or not np.isfinite(ts).all():
        raise IntegrationError("sample_times must be a non-empty 1-D array of finite times")
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
    # the reconstructed samples, written in order; singular ones are skipped
    traj_times = np.empty(ts.size)
    traj_vals = np.empty((ts.size, cs.n, cs.n), dtype=np.complex128)
    kept = 0

    def keep(t, ymat):
        nonlocal kept
        traj_times[kept] = t
        traj_vals[kept] = ymat
        kept += 1

    times, states, status, restarts, singular, stats = _linear_flow(cs, y0, opts, ts, keep,
                                                                    record_states=True)
    flow = LinearFlow(times=times, phi=states[:, 0], psi=states[:, 1], restarts=restarts)
    traj_times, traj_vals = _reached(kept, traj_times, traj_vals)
    traj = Trajectory(times=traj_times, values=traj_vals, status=status, method="radon",
                      singular_times=np.array(singular), stats=stats)
    return flow, traj


def integrate_both(cs: CoefficientSet, y0, opts: IntegratorOptions | None = None,
                   sample_times=None) -> tuple[Trajectory, dict]:
    """``integrate_riccati_direct``, then the flow of ``integrate_linear_system``
    folded in sample by sample, storing none. Returns (the direct trajectory,
    {"radon_status", "restarts", "max_discrepancy"}), the last the largest
    ||Y - Y_flow|| / (1 + ||Y||) over the sample times both reached."""
    opts = opts or IntegratorOptions()
    y0, ts = _prologue(cs, y0, "Y0", sample_times)
    traj = integrate_riccati_direct(cs, y0, opts, ts)
    reached = dict(zip(traj.times.tolist(), traj.values))
    ratios = [0.0]

    def keep(t, y_flow):
        if (y := reached.get(t)) is not None:
            ratios.append(float(np.linalg.norm(y - y_flow)) / (1.0 + float(np.linalg.norm(y))))

    _, _, status, restarts, _, _ = _linear_flow(cs, y0, opts, ts, keep)
    return traj, {"radon_status": status, "restarts": restarts, "max_discrepancy": max(ratios)}


def _linear_flow(cs: CoefficientSet, y0: np.ndarray, opts: IntegratorOptions, ts: np.ndarray,
                 keep, record_states: bool = False) -> tuple:
    """The linear flow of ``integrate_linear_system`` from validated ``y0``
    and sample times ``ts``, handing each reconstructed sample to
    ``keep(t, Y)`` in time order.

    Returns (times, states, status, restarts, singular, stats): the sample times,
    the driver's (Phi, Psi) states there (None unless ``record_states``), the
    run's status, the restart and singular times and the driver's counters. With
    ``record_states`` false nothing of the run is stored but these.
    """
    eye = np.eye(cs.n, dtype=np.complex128)
    pqrs = stacked_evaluator((cs.P, cs.Q, cs.R, cs.S))

    def rhs(values, y):
        phi, psi = y
        p, q, r, s = values
        return np.array([r @ phi + p @ psi, s @ phi - q @ psi])

    restarts: list[float] = []
    singular: list[float] = []
    first = True
    floor = opts.atol / opts.rtol
    singular_cutoff = min(_SINGULAR_COND_CEILING,
                          max(0.5 / opts.rtol, 2.0 * _RECONDITION_THRESHOLD))

    def at_sample(t, y):
        nonlocal first
        phi, psi = y
        sigma = np.linalg.svd(phi, compute_uv=False)
        smin = float(sigma[-1])
        mag = max(float(np.linalg.norm(phi)), float(np.linalg.norm(psi)))
        cond_est = (mag + floor) / smin if smin > 0 else math.inf
        phi_cond = max(1.0, float(sigma[0])) / smin if smin > 0 else math.inf
        # the first sample is exact (Phi = I, Psi = Y0): never singular
        if (cond_est > singular_cutoff or phi_cond > 0.5 / opts.rtol) and not first:
            singular.append(float(t))
            return y
        first = False
        ymat = np.linalg.solve(phi.T, psi.T).T
        keep(t, ymat)
        if max(cond_est, mag) > _RECONDITION_THRESHOLD or phi_cond > 0.25 / opts.rtol:
            restarts.append(float(t))
            return np.array([eye, ymat])
        return y

    times, states, reason, t_last, stats = _integrate_sampled(
        rhs, pqrs, ts, np.array([eye, y0]), opts, at_sample=at_sample,
        record_states=record_states)
    if reason is not None:
        raise IntegrationError(
            f"linear flow integration stopped at t = {t_last} ({reason}); "
            "the flow is linear and should not collapse at these scales")
    return times, states, "phi_singular" if singular else "completed", restarts, singular, stats


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


@np.errstate(**_OVERFLOW_QUIET)
def liouville_check(flow: LinearFlow, cs: CoefficientSet, traj: Trajectory) -> LiouvilleReport:
    """Compare det Phi(t) against det Phi(t1) exp{int tr(R + P Y) dtau}.

    The quadrature is composite Simpson on the sample grid. Checked on
    every maximal span free of restarts and singular samples; also checks
    the squared-modulus form with integrand tr(R + R* + P (Y + Y*)).
    Returns the maximum relative error over all checked samples (NaN on overflow).
    """
    kept = np.flatnonzero(np.isin(flow.times, traj.times))
    if not kept.size:
        raise IntegrationError("no singularity-free span available")
    # a span starts after a dropped (singular) sample or at a restart
    starts = (np.diff(kept, prepend=-2) > 1) | np.isin(flow.times[kept], flow.restarts)
    spans = np.split(kept, np.flatnonzero(starts)[1:])
    rp = stacked_evaluator((cs.R, cs.P))

    def integrands(ts, r, p, y):
        """tr(R + P Y) and tr(R + R* + P (Y + Y*)) at every sample of a span."""
        return (np.trace(r + p @ y, axis1=-2, axis2=-1),
                np.trace(r + adjoint(r) + p @ (y + adjoint(y)), axis1=-2, axis2=-1).real)

    tiny = np.finfo(float).tiny

    def worst(lhs, rhs):
        """The largest |lhs - rhs| / max(|lhs|, |rhs|, tiny) of a span, NaN if one is."""
        return np.max(np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), tiny))

    max_det = max_mod = 0.0
    checked: list[tuple[float, float]] = []
    for idx in spans:
        ts = flow.times[idx]
        checked.append((float(ts[0]), float(ts[-1])))
        if idx.size == 1:
            continue  # trivial span: identity holds with error 0 by definition
        dxs = np.diff(ts)
        dx = float(dxs[0])
        if np.max(np.abs(dxs - dx)) > 1e-9 * dx:
            raise IntegrationError("liouville_check requires a uniform sample grid")
        dets = np.linalg.det(flow.phi[idx])
        ys = traj.values[np.searchsorted(traj.times, ts)]
        integrand, integrand2 = _scan(ts, cs.n, integrands, ys, values=rp)
        det_rhs = dets[0] * np.exp(_cumulative_simpson(integrand, dx))
        mod_rhs = np.abs(dets[0]) ** 2 * np.exp(_cumulative_simpson(integrand2, dx))
        max_det = np.maximum(max_det, worst(dets, det_rhs))
        max_mod = np.maximum(max_mod, worst(np.abs(dets) ** 2, mod_rhs))

    return LiouvilleReport(max_rel_error=float(np.maximum(max_det, max_mod)),
                           det_form_error=float(max_det), modulus_form_error=float(max_mod),
                           spans=checked)
