"""Trajectory computation by two routes.

* ``integrate_riccati_direct``      -- the quadratic equation itself,
  Y' = S - Y P Y - Q Y - Y R, with finite-escape (blow-up) detection
  where P is not identically zero;
* ``integrate_linear_system``       -- the equivalent 2n x n linear flow
  Phi' = R Phi + P Psi, Psi' = S Phi - Q Psi with Y = Psi Phi^{-1},
  which continues through Riccati blow-up.

``integrate_lyapunov_comparison``, the linear comparison equation
Ytilde' = S - R* Ytilde - Ytilde R used by the sandwich bound, is the
direct run of ``CoefficientSet.comparison()``, the quadratic equation at
(P, Q) = (0, R*): one body (``_direct``), which at P = 0 takes the linear
right-hand side S - Q Y - Y R and no norm cap.

Both routes share one driver, the embedded explicit Runge-Kutta 5(4) pair
of Dormand and Prince with a PI step-size controller, except the linear
flow of constant data, which is exact (below). The pair is FSAL
(first same as last): the last stage point is the new state, and the
right-hand side there is the first stage of the next step, so an
accepted step costs six right-hand-side calls. Requested sample times
are hit exactly by clamping steps, so no dense interpolation error
enters the stored samples. Everything is deterministic: the initial step
comes from a standard starting-step heuristic and there are no
randomized components. The driver's arithmetic is elementwise, so each
integrator keeps its natural state layout: Y as one (n, n) matrix, the
linear flow (Phi, Psi) as one (2n, n) array X with Phi = X[:n] and
Psi = X[n:].

The coefficients' values at one time are one array, read from the
``stacked_evaluator`` stacks time first: (P, Q, R, S) for the direct run,
whose right-hand side is S - Q Y - Y (R + P Y) with P Y and Q Y one
broadcast product ((Q, R, S) and S - Q Y - Y R where P is the zero
constant), and for the flow the block H = [[R, P], [S, -Q]], assembled
once from the stacks of R, P, S and Q (one copy and one negation), so
that its right-hand side is the one product H X. A stage time is the
double t + c_i h, and c_6 = c_7 = 1 gives stages 6 and 7 one time, so a
step is evaluated at its five distinct times and stage 7 reads stage 6's
values. A step from sample k that hits sample k + 1 reads them from a
window of such steps evaluated in one call (170 steps at n = 2, 10 at
n = 8, 1 at n = 32: six stages a step hold at most
``matrix_core.BLOCK_ENTRIES`` entries). Other steps
evaluate their own; all-constant coefficients are evaluated once per
run. The values equal ``eval``'s bit for bit (-Q its exact negation).
The step's sums are slope-major: as soon as a slope is known, one
multiply weighs it for every later stage input and the error vector, and
one add folds it into them. So each stage input is still y plus its
weighted slopes in the tableau's order, the error vector its terms in
that order from the first, the zero weights are skipped, and the
trajectories do not depend on how the coefficients are stored. The
driver counts its right-hand-side calls (``nfev``, still six per step),
its steps and their size range in ``Trajectory.stats``; the linear flow
adds its conditioning, the least sigma_min(Phi) / ||[Phi; Psi]||_F over
the samples.

A flow whose H takes one value over the run (every coefficient a
constant or a polynomial of degree 0) is exact and takes no step:
X_{k+1} = expm(g_k H) X_k, g_k the gap to sample k + 1 (``_exact_flow``),
with one ``_expm`` (Pade-13 scaling and squaring, N. J. Higham, SIAM J.
Matrix Anal. Appl. 26, 2005) per distinct gap, 7 to 9 on a default grid.

Any other flow at n <= ``_MAPS_MAX_N`` (6) steps from sample to sample
by matrices. Its right-hand side is linear, so a step from x with slope f is
linear in z = [x; f]: ``_step_maps`` runs ``_rk_stages`` on the basis
[I 0] with slope [0 I], all steps of a window in one call, and gets each
step's G_k (z to [x_new; f_new]) and E_k (z to the error vector). Such
steps run in batches: the states from one matmul per step, the error
estimates in one pass, the one controller ``_control`` over them in
order, and the sample decisions (SVD, norms, singular and restart tests,
solve) once per batch. A batch ends at the first step that would not hit
its sample, is rejected, falls within the rounding slack of its sample,
or meets the step budget, at the window's end and at a restart (the run
continues from the reset state, its slope evaluated anew). Every
per-step value depends on the step alone, not on the batch or window
that holds it. The path is chosen by dimension, by measurement: at n = 8
a window holds 10 steps and the maps cost more than the stages.

A sample is its index k in the sample times, reached in order: a run's
times are their prefix, and no consumer matches samples by float time.
The states are written into an array allocated once per call at its full
size; a run that stops early returns a copy of the rows it reached. The
linear flow hands each reconstructed Y with its k to a sample consumer:
``integrate_linear_system``'s stores it, with the flow's states, while
the discrepancy of ``integrate_both`` pairs it with direct sample k and
lets the flow run storing no sample at all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import matrix_core
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
#: The distinct stage nodes c_2..c_6: t + _NODES * h are the doubles
#: t + c_i * h. c_7 = c_6 = 1, so stage 7 is at stage 6's double.
_NODES = np.array(_C[1:6])
_NODES.setflags(write=False)


def _by_stage(values) -> tuple:
    """The values at stages 2..7 from those at the five ``_NODES`` along
    the first axis: stage 7 reads stage 6's."""
    return (*values, values[4])


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
    writes. ``h`` may also be an array that broadcasts against the state's
    leading axes: a step size for each of a stack of steps (``_step_maps``).
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
#: Frobenius norm of Y exceeds this, unless P is the zero constant.
_BLOWUP_NORM = 1e8

#: The linear flow is reset to (I, Y) at a sample where its condition
#: estimate or magnitude exceeds this (or Phi's own condition 0.25/rtol).
_RECONDITION_THRESHOLD = 1e8

#: Ceiling of the linear flow's rtol-aware singular cutoff (see integrate_linear_system).
_SINGULAR_COND_CEILING = 1e13

_MAX_STEPS = 1_000_000

#: The linear flow steps from sample to sample by matrices, in batches (see
#: ``_integrate_sampled``), at n up to this; above it by stages.
_MAPS_MAX_N = 6

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
    calls: f at t0 and the starting-step probe, six per step and one per
    flow reset, counted so also where the flow steps by matrices; an exact
    flow, of H of one value, takes no step and counts none),
    ``steps_accepted`` and ``steps_rejected``, and the smallest and
    largest accepted step, ``h_min`` and ``h_max`` (None when no step was
    accepted). The linear flow's adds ``phi_sigma_ratio`` and
    ``phi_sigma_ratio_t`` (see ``_linear_flow``). It is empty for a
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


def _rms(x: np.ndarray) -> float:
    """Root mean square over all entries of an array of any shape: the sum
    of their squared moduli is one ``vdot``."""
    return math.sqrt(np.vdot(x, x).real / x.size)


def _norm(x: np.ndarray) -> float:
    """Frobenius norm of a complex array: ``np.linalg.norm``'s two dots and
    its bits, without its dispatch."""
    flat = x.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _rms_each(x: np.ndarray) -> list:
    """``_rms`` of each array along x's first axis, with its bits: each
    row's sum of squared moduli is the product of its conjugate with it,
    one stacked ``matmul`` for all rows (``np.vdot``'s dot for each)."""
    rows = x.reshape(len(x), 1, -1)
    sq = np.matmul(rows.conj(), rows.swapaxes(1, 2))[:, 0, 0].real
    return np.sqrt(sq / rows.shape[2]).tolist()


def _norms(x: np.ndarray) -> list:
    """``_norm`` along x's last axis, with its bits: each part's dots are
    one stacked ``matmul`` of row by column (``ndarray.dot``'s for each)."""
    re, im = x.real[..., None, :], x.imag[..., None, :]
    sq = np.matmul(re, re.swapaxes(-1, -2)) + np.matmul(im, im.swapaxes(-1, -2))
    return np.sqrt(sq[..., 0, 0]).tolist()


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


def _control(err: float, h: float, facold: float, after_rejection: bool) -> tuple:
    """The PI step-size controller on a step of size ``h`` with scaled error
    estimate ``err``: (accepted, the next step size, the next ``facold``).
    The step is accepted when err <= 1 (a non-finite err rejects it); the
    step after a rejection does not grow."""
    if not math.isfinite(err):
        err = math.inf
    if err > 1.0:
        factor = max(_MIN_FACTOR, _SAFETY * err ** (-_ALPHA))
        return False, h * min(factor, 1.0), facold
    if err == 0.0:
        factor = _MAX_FACTOR
    else:
        factor = _SAFETY * err ** (-_ALPHA) * facold ** _BETA
        factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    if after_rejection:
        factor = min(factor, 1.0)
    return True, max(h * factor, _H_MIN), max(err, 1e-4)


def _error_scale(abs_y: np.ndarray, abs_new: np.ndarray, opts: IntegratorOptions) -> np.ndarray:
    """The scale of a step's error vector: atol + rtol * max(|y|, |y_new|)."""
    return opts.atol + opts.rtol * np.maximum(abs_y, abs_new)


def _step_maps(values: np.ndarray, gaps: np.ndarray) -> tuple:
    """W Dormand-Prince steps of the linear right-hand side H x as matrices.

    ``values`` (W, 5, p, p) holds H at the stage nodes c_2..c_6 of steps of
    sizes ``gaps``. A step from x with slope f there is linear in z = [x; f],
    so ``_rk_stages`` run on the basis [I 0] with slope [0 I] (p x 2p), all
    W steps in one call, gives each step's matrices: G_k (2p x 2p) maps z to
    [x_new; f_new], f_new the FSAL slope at x_new, and E_k (p x 2p) maps z to
    the error vector. Returns (G, E) along a first axis.
    """
    p = values.shape[-1]
    basis = np.eye(p, 2 * p, dtype=np.complex128)[None]
    slope = np.eye(p, 2 * p, p, dtype=np.complex128)[None]
    x_new, f_new, err = _rk_stages(np.matmul, _by_stage(values.swapaxes(0, 1)), basis, slope,
                                   gaps[:, None, None])
    return np.concatenate((x_new, f_new), axis=1), err


def _one_value(f) -> bool:
    """Whether the coefficient ``f`` takes one value at every time: a
    constant or a polynomial of degree 0."""
    return f.kind == "constant" or (f.kind == "polynomial" and f.degree == 0)


#: The coefficients b_k = (26 - k)! / (k! (13 - k)!) of the degree-13 Pade
#: approximant of exp, and the 1-norm up to which its backward error is
#: within double rounding.
_PADE13 = tuple(float(math.factorial(26 - k) // (math.factorial(k) * math.factorial(13 - k)))
                for k in range(14))
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by Pade-13 scaling and squaring (Higham 2005): the approximant
    (V - U)^{-1} (V + U) at a 2^-s, of 1-norm at most ``_THETA13``, squared s times."""
    s = max(0, math.frexp(np.abs(a).sum(axis=0).max() / _THETA13)[1])
    a, b, eye = a * 2.0 ** -s, _PADE13, np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


@np.errstate(**_OVERFLOW_QUIET)
def _exact_flow(h: np.ndarray, sample_times: np.ndarray, x0: np.ndarray, at_samples,
                record_states: bool) -> tuple:
    """X' = H X of one value ``h`` from ``x0`` exactly: X_{k+1} = expm(g_k H) X_k,
    g_k the gap to sample k + 1. ``at_samples`` decides chunks of at most
    ``matrix_core.BLOCK_ENTRIES`` entries as ``_integrate_sampled``'s, and the
    next product starts from the state it leaves, so no bit depends on the
    chunks. Returns (those states, None unless ``record_states``; the stats)."""
    gaps, which = np.unique(np.diff(sample_times), return_inverse=True)
    maps = [_expm(g * h) for g in gaps]
    size = sample_times.size
    states = np.empty((size,) + x0.shape, dtype=np.complex128) if record_states else None
    span = max(1, matrix_core.BLOCK_ENTRIES // x0.size)
    k, x = 0, x0  # the next sample, and the state the product to it starts from
    while k < size:
        ys = np.empty((min(span, size - k),) + x0.shape, dtype=np.complex128)
        if k == 0:
            ys[0] = x0
        for j in range(k == 0, len(ys)):
            x = np.matmul(maps[which[k + j - 1]], x, out=ys[j])
        taken, reset = at_samples(k, ys)
        x = ys[taken - 1] if reset is None else reset
        if states is not None:
            states[k:k + taken] = ys[:taken]
            states[k + taken - 1] = x
        k += taken
    return states, {"nfev": 0, "steps_accepted": 0, "steps_rejected": 0,
                    "h_min": None, "h_max": None}


@np.errstate(**_OVERFLOW_QUIET)
def _integrate_sampled(rhs, functions, sample_times: np.ndarray, y0: np.ndarray,
                       opts: IntegratorOptions, assemble=None, after_step=None,
                       at_samples=None, record_states: bool = True, maps: bool = False):
    """Drive the RK pair through ``sample_times``, clamping steps so every
    sample is hit exactly. The states and the right-hand sides have y0's shape.

    ``rhs(vals, y)`` is the right-hand side from the values of ``functions``
    at one time as one array: the functions in their order, or what
    ``assemble(stacks)`` builds from the evaluated stacks (functions first,
    then times) with times first. Each window, and all-constant data once
    per run, is assembled once. A window of sample-to-sample steps holds
    the most steps (at least one) whose six stages hold at most
    ``matrix_core.BLOCK_ENTRIES`` entries; a step is evaluated at its five
    distinct times ``_NODES``, and stage 7 reads stage 6's values.
    ``after_step(t, y)`` may return a stop-reason string (checked on the
    initial state and after every accepted step). ``at_samples(k, ys)`` gets
    the states ``ys`` (along a first axis) of the samples k, k + 1, ...
    reached, and decides them in order: it returns how many it took (all,
    unless it replaces the state of one: then up to that one) and the
    replacement state or None (used for flow reconditioning).

    With ``maps`` (and no ``after_step``) the right-hand side is
    ``np.matmul(vals, y)``, linear in y, and the steps that hit their
    samples run in batches: a window holds each step's matrices
    (``_step_maps``) in place of its stage values, and a batch starts where
    a step from a sample would hit the next one. It forms the states [y; f]
    of every step to the window's end, one matmul per step, and their error
    estimates in one ``_rms_each`` call; ``_control`` then decides the steps
    in order. A batch ends at the first step that would not hit its sample,
    is rejected (that step is the batch's last), falls within the rounding
    slack of its sample (recorded without a step, as ever) or meets the step
    budget, and at the window's end. Its samples then go to ``at_samples``
    at once; where that replaces a state, the batch ends there and the run
    continues from the replacement. Every per-step value depends on the step
    alone, not on the batch that holds it.

    Returns (times, states, stop_reason, t_last, stats): a copy of the
    prefix of ``sample_times`` the run reached, the states there (along a
    new first axis) as they stand after ``at_samples`` (None unless
    ``record_states``), the stop reason; ``t_last`` is the last accepted
    time and ``stats`` counts the right-hand sides (``nfev``: f at t0, the
    starting-step probe, six per step, batched or not, and one after each
    replaced state) and the accepted and rejected steps, and gives the
    smallest and largest accepted step (``h_min``, ``h_max``; None before
    the first). A non-finite error estimate rejects its step.
    """
    t = float(sample_times[0])
    y = y0.astype(np.complex128)
    f_curr = None  # f(t, y): the last step's FSAL slope
    abs_y = None  # |y|, kept from the step that reached y
    nfev = accepted = rejected = 0
    states = (np.empty((sample_times.size,) + y.shape, dtype=np.complex128)
              if record_states else None)
    count = 0  # samples reached: the next to reach is sample_times[count]
    h_lo, h_hi = math.inf, 0.0  # the accepted step-size range

    evaluate = stacked_evaluator(functions)
    entries = len(functions) * math.prod(functions[0].shape)  # at one time
    span = max(1, matrix_core.BLOCK_ENTRIES // (6 * entries))

    def by_time(ts: np.ndarray) -> np.ndarray:
        """The values at the times ``ts``, of any shape: the stacks read time first."""
        stacks = np.asarray(evaluate(ts.ravel()))
        values = assemble(stacks) if assemble is not None else stacks.swapaxes(0, 1)
        return values.reshape(ts.shape + values.shape[1:])

    # all-constant values: one at every time
    fixed = by_time(sample_times[:1]) if evaluate.constant else None
    if fixed is not None:
        fixed = np.broadcast_to(fixed, _NODES.shape + fixed.shape[1:])
    # the steps from samples first, ..., stop - 1 to the next: their stage
    # values, or with maps their matrices
    window, first, stop = None, 0, 0

    def window_at(k: int):
        """The window that holds the step from sample k."""
        nonlocal window, first, stop
        if not first <= k < stop:
            window = None  # freed before the next is evaluated
            first, stop = k, min(k + span, sample_times.size - 1)
            ts = sample_times[first:stop + 1]
            gaps = np.diff(ts)
            values = by_time(ts[:-1, None] + _NODES * gaps[:, None])
            window = _step_maps(values, gaps) if maps else values
        return window

    def stage_values(hit: bool, h_eff: float, k: int) -> np.ndarray:
        """The values at the stage times of the step ``h_eff`` from t (to sample k + 1 if hit)."""
        if fixed is not None:
            return fixed
        if maps or not (hit and t == sample_times[k]):
            return by_time(t + _NODES * h_eff)
        return window_at(k)[k - first]

    def f(t_eval: float, y_eval: np.ndarray) -> np.ndarray:
        """The right-hand side at one time."""
        return rhs(fixed[0] if fixed is not None else by_time(np.array(t_eval)), y_eval)

    def record(ys: np.ndarray) -> tuple:
        """Store the samples reached, count, count + 1, ..., with the states
        ``ys`` as ``at_samples`` leaves them: (how many were taken, the
        replacement state of the last or None)."""
        nonlocal count
        taken, reset = (len(ys), None) if at_samples is None else at_samples(count, ys)
        if states is not None:
            states[count:count + taken] = ys[:taken]
            if reset is not None:
                states[count + taken - 1] = reset
        count += taken
        return taken, reset

    def restart(reset) -> None:
        """Continue from a replaced state, if any, with its f anew."""
        nonlocal y, abs_y, f_curr, nfev
        if reset is not None:
            y, abs_y = reset, None
            if f_curr is not None:
                f_curr = f(t, y)
                nfev += 1

    def result(reason):
        stats = {"nfev": nfev, "steps_accepted": accepted, "steps_rejected": rejected,
                 "h_min": h_lo if accepted else None, "h_max": h_hi if accepted else None}
        reached = None if states is None else _reached(count, states)[0]
        return sample_times[:count].copy(), reached, reason, t, stats

    restart(record(y[None])[1])
    reason = after_step(t, y) if after_step is not None else None
    if reason is not None or sample_times.size == 1:
        return result(reason)

    f_curr = f(t, y)
    h = _initial_step(f, t, y, f_curr, opts, float(sample_times[-1]) - t)
    nfev += 2  # f_curr and the one probe in _initial_step

    facold = 1e-4
    rejected_last = False

    def batch() -> bool:
        """Take the steps from sample count - 1 as one batch (the first hits
        its sample); returns whether the last was rejected."""
        nonlocal t, y, abs_y, f_curr, nfev, accepted, rejected, h, facold, rejected_last
        nonlocal h_lo, h_hi
        k0 = count - 1
        g, e = window_at(k0)
        g, e = g[k0 - first:], e[k0 - first:]  # the steps to the window's end
        m = len(g)
        rows = y.shape[0]
        z = np.empty((m + 1, 2 * rows) + y.shape[1:], dtype=np.complex128)
        z[0, :rows], z[0, rows:] = y, f_curr
        for j in range(m):
            np.matmul(g[j], z[j], out=z[j + 1])
        xs = z[:, :rows]
        abs_x = np.abs(xs)
        errs = _rms_each(np.matmul(e, z[:-1]) / _error_scale(abs_x[:-1], abs_x[1:], opts))
        # the controller, step by step: the step sizes and facold after each
        controls, gaps, failed = [], [], False
        after_rejection, h_next, facold_next = rejected_last, h, facold
        for j, err in enumerate(errs):
            t_from, t_to = float(sample_times[k0 + j]), float(sample_times[k0 + j + 1])
            tiny = 1e-13 * max(1.0, abs(t_to))
            gap = t_to - t_from
            if (gap <= tiny or h_next < gap - tiny
                    or accepted + rejected + j >= _MAX_STEPS):
                break
            ok, h_next, facold_next = _control(err, gap, facold_next, after_rejection)
            if not ok:
                failed = True
                break
            after_rejection = False
            controls.append((h_next, facold_next))
            gaps.append(gap)
        steps = len(controls)
        taken, reset = record(xs[1:steps + 1]) if steps else (0, None)
        if taken:
            accepted += taken
            nfev += 6 * taken
            h, facold = controls[taken - 1]
            rejected_last = False
            h_lo, h_hi = min(h_lo, *gaps[:taken]), max(h_hi, *gaps[:taken])
            t = float(sample_times[k0 + taken])
            y, abs_y, f_curr = xs[taken], abs_x[taken], z[taken, rows:]
            restart(reset)
        if failed and taken == steps and reset is None:
            rejected += 1
            nfev += 6
            h, rejected_last = h_next, True
            return True
        return False

    while count < sample_times.size:
        t_target = float(sample_times[count])
        tiny = 1e-13 * max(1.0, abs(t_target))
        if t_target - t <= tiny:
            # already there to rounding; record the sample without stepping
            restart(record(y[None])[1])
            continue

        if accepted + rejected >= _MAX_STEPS:
            raise IntegrationError(f"step budget exceeded ({_MAX_STEPS} steps)")

        hit = h >= (t_target - t) - tiny
        if maps and hit and t == sample_times[count - 1]:
            if batch() and h < _H_MIN:
                return result("step_collapse")
            continue
        h_eff = (t_target - t) if hit else h

        # FSAL: the step starts from f at the current point, and its last
        # slope is f at the new state
        y_new, f_new, err_vec = _rk_stages(rhs, _by_stage(stage_values(hit, h_eff, count - 1)),
                                           y, f_curr, h_eff)
        nfev += 6
        if abs_y is None:
            abs_y = np.abs(y)
        abs_new = np.abs(y_new)
        err = _rms(err_vec / _error_scale(abs_y, abs_new, opts))
        ok, h, facold_next = _control(err, h_eff, facold, rejected_last)
        rejected_last = not ok
        if ok:
            accepted += 1
            facold = facold_next
            t = t_target if hit else t + h_eff
            y, abs_y, f_curr = y_new, abs_new, f_new
            h_lo, h_hi = min(h_lo, h_eff), max(h_hi, h_eff)
            if hit:
                restart(record(y[None])[1])
            if after_step is not None:
                reason = after_step(t, y)
                if reason is not None:
                    return result(reason)
        else:
            rejected += 1
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
    (a step collapse can also signal stiffness). The norm cap applies only
    where P is not identically zero: with P the zero constant the equation
    is linear and cannot escape (``_direct``).
    """
    opts = opts or IntegratorOptions()
    y0, ts = _prologue(cs, y0, "Y0", sample_times)
    times, values, reason, t_last, stats = _direct(cs, y0, opts, ts)
    blown = reason is not None
    return Trajectory(times=times, values=values, status="blow_up" if blown else "completed",
                      method="direct", t_escape=t_last if blown else None,
                      blowup_trigger=reason, stats=stats)


def _direct(cs: CoefficientSet, y0: np.ndarray, opts: IntegratorOptions, ts: np.ndarray) -> tuple:
    """The direct run from validated ``y0`` over sample times ``ts``:
    ``_integrate_sampled``'s (times, states, stop reason, t_last, stats).

    Where P is the zero constant (``_one_value`` and every entry 0, decided
    once from the data) the equation is linear: its right-hand side is
    S - Q Y - Y R from the values of (Q, R, S), and the run takes no norm
    cap. Otherwise it is S - Q Y - Y (R + P Y) from those of (P, Q, R, S),
    with the norm cap ``_BLOWUP_NORM`` checked after every accepted step.
    """
    if _one_value(cs.P) and not np.any(cs.P.eval(cs.t0)):
        def rhs(values, y):
            q, r, s = values
            return s - q @ y - y @ r

        return _integrate_sampled(rhs, (cs.Q, cs.R, cs.S), ts, y0, opts)

    def rhs(values, y):
        # values (P, Q, R, S): P Y and Q Y are one broadcast product, and
        # S - Y P Y - Q Y - Y R is formed as S - Q Y - Y (R + P Y)
        py_qy = np.matmul(values[:2], y)
        return values[3] - py_qy[1] - y @ (values[2] + py_qy[0])

    def guard(t, y):
        return "norm_cap" if _norm(y) > _BLOWUP_NORM else None

    return _integrate_sampled(rhs, (cs.P, cs.Q, cs.R, cs.S), ts, y0, opts, after_step=guard)


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

    def keep(k, ymat):
        nonlocal kept
        traj_times[kept] = ts[k]
        traj_vals[kept] = ymat
        kept += 1

    times, states, status, restarts, singular, stats = _linear_flow(cs, y0, opts, ts, keep,
                                                                    record_states=True)
    flow = LinearFlow(times=times, phi=states[:, :cs.n], psi=states[:, cs.n:],
                      restarts=restarts)
    traj_times, traj_vals = _reached(kept, traj_times, traj_vals)
    traj = Trajectory(times=traj_times, values=traj_vals, status=status, method="radon",
                      singular_times=np.array(singular), stats=stats)
    return flow, traj


def integrate_both(cs: CoefficientSet, y0, opts: IntegratorOptions | None = None,
                   sample_times=None) -> tuple[Trajectory, dict]:
    """``integrate_riccati_direct``, then the flow of ``integrate_linear_system``
    folded in sample by sample, storing none. Returns (the direct trajectory,
    {"radon_status", "restarts", "max_discrepancy", "radon_stats"}):
    ``max_discrepancy`` is the largest ||Y - Y_flow|| / (1 + ||Y||) over the
    samples k both reached (the direct run's are a prefix), and ``radon_stats``
    the flow's counters, as ``Trajectory.stats``."""
    opts = opts or IntegratorOptions()
    y0, ts = _prologue(cs, y0, "Y0", sample_times)
    traj = integrate_riccati_direct(cs, y0, opts, ts)
    ratios = [0.0]

    def keep(k, y_flow):
        if k < traj.times.size:
            y = traj.values[k]
            ratios.append(_norm(y - y_flow) / (1.0 + _norm(y)))

    _, _, status, restarts, _, stats = _linear_flow(cs, y0, opts, ts, keep)
    return traj, {"radon_status": status, "restarts": restarts, "max_discrepancy": max(ratios),
                  "radon_stats": stats}


def _linear_flow(cs: CoefficientSet, y0: np.ndarray, opts: IntegratorOptions, ts: np.ndarray,
                 keep, record_states: bool = False) -> tuple:
    """The linear flow of ``integrate_linear_system`` from validated ``y0``
    and sample times ``ts``, handing each reconstructed sample to
    ``keep(k, Y)`` in time order, k its index in ``ts``.

    Returns (times, states, status, restarts, singular, stats): the sample times,
    the driver's states [Phi; Psi] there (None unless ``record_states``), the
    run's status, the restart and singular times and the driver's counters,
    with the flow's conditioning: ``phi_sigma_ratio``, the least
    sigma_min(Phi) / ||[Phi; Psi]||_F over the samples as the driver reaches
    them (before any reset; None if not finite), and ``phi_sigma_ratio_t``,
    its earliest time. With ``record_states`` false nothing of the run is
    stored but these.

    At n <= ``_MAPS_MAX_N`` the driver takes the steps that hit their
    samples by matrices, in batches (``maps``), and ``at_samples`` decides a
    batch's samples in order with one SVD, one pair of norms per sample and
    one solve for all of them, up to the first restart. The path depends on
    n alone, so no value depends on how many steps a window or batch holds.
    Where every coefficient takes one value (``_one_value``), H is evaluated
    at t0 and the flow is exact (``_exact_flow``): ``at_samples`` decides its
    samples in chunks, with the same bits whatever their size.
    """
    n = cs.n
    eye = np.eye(n, dtype=np.complex128)

    def assemble(stacks):
        """H = [[R, P], [S, -Q]] at each time from the stacks of R, P, S and Q."""
        m = stacks.shape[1]
        h = np.empty((m, 2 * n, 2 * n), dtype=np.complex128)
        blocks = stacks.reshape(2, 2, m, n, n).transpose(2, 0, 3, 1, 4)
        np.copyto(h.reshape(m, 2, n, 2, n), blocks)
        np.negative(h[:, n:, n:], out=h[:, n:, n:])
        return h

    restarts: list[float] = []
    singular: list[float] = []
    least = (math.inf, None)  # (sigma_min(Phi) / ||[Phi; Psi]||_F, its time)
    floor = opts.atol / opts.rtol
    singular_cutoff = min(_SINGULAR_COND_CEILING,
                          max(0.5 / opts.rtol, 2.0 * _RECONDITION_THRESHOLD))

    def at_samples(k, ys):
        """Decide the samples k, k + 1, ... in order, up to the first restart.
        A lone sample (a stage step's) takes the 2-D calls, which give the
        stacked calls' bits and cost about 3 us less than stacks of one."""
        nonlocal least
        one = len(ys) == 1
        phi, psi = (ys[0, :n], ys[0, n:]) if one else (ys[:, :n], ys[:, n:])
        sigmas = np.linalg.svd(phi, compute_uv=False).tolist()
        # ||Phi||_F and ||Psi||_F of each sample
        if one:
            sigmas, pairs = [sigmas], [(_norm(phi), _norm(psi))]
        else:
            pairs = _norms(ys.reshape(len(ys), 2, n * n))
        taken, solved, reset = len(ys), [], False
        for j, (sigma, norms) in enumerate(zip(sigmas, pairs)):
            t = float(ts[k + j])
            smin = sigma[-1]
            mag = max(norms)
            size = math.hypot(*norms)  # ||[Phi; Psi]||_F
            if size > 0 and smin / size < least[0]:
                least = (smin / size, t)
            cond_est = (mag + floor) / smin if smin > 0 else math.inf
            phi_cond = max(1.0, sigma[0]) / smin if smin > 0 else math.inf
            # the first sample is exact (Phi = I, Psi = Y0): never singular
            if (cond_est > singular_cutoff or phi_cond > 0.5 / opts.rtol) and k + j > 0:
                singular.append(t)
                continue
            solved.append(j)
            if max(cond_est, mag) > _RECONDITION_THRESHOLD or phi_cond > 0.25 / opts.rtol:
                restarts.append(t)
                taken, reset = j + 1, True
                break
        if not solved:
            return taken, None
        if one:
            ymats = np.linalg.solve(phi.T, psi.T).T[None]
        else:
            rows = slice(taken) if len(solved) == taken else solved  # a view unless one is singular
            ymats = np.linalg.solve(phi[rows].swapaxes(1, 2),
                                    psi[rows].swapaxes(1, 2)).swapaxes(1, 2)
        for j, ymat in zip(solved, ymats):
            keep(k + j, ymat)
        return taken, np.concatenate((eye, ymats[-1])) if reset else None

    # the right-hand side H X is (R Phi + P Psi, S Phi - Q Psi)
    functions, x0 = (cs.R, cs.P, cs.S, cs.Q), np.concatenate((eye, y0))
    if all(map(_one_value, functions)):
        h = assemble(np.asarray(stacked_evaluator(functions)(ts[:1])))[0]
        times, (states, stats) = ts.copy(), _exact_flow(h, ts, x0, at_samples, record_states)
    else:
        times, states, reason, t_last, stats = _integrate_sampled(
            np.matmul, functions, ts, x0, opts, assemble=assemble, at_samples=at_samples,
            record_states=record_states, maps=n <= _MAPS_MAX_N)
        if reason is not None:
            raise IntegrationError(
                f"linear flow integration stopped at t = {t_last} ({reason}); "
                "the flow is linear and should not collapse at these scales")
    stats["phi_sigma_ratio"] = least[0] if math.isfinite(least[0]) else None
    stats["phi_sigma_ratio_t"] = least[1]
    return times, states, "phi_singular" if singular else "completed", restarts, singular, stats


def integrate_lyapunov_comparison(cs: CoefficientSet, ytilde0,
                                  opts: IntegratorOptions | None = None,
                                  sample_times=None) -> Trajectory:
    """Integrate the linear comparison equation Y' = S - R* Y - Y R.

    Intended under the symmetric-pair hypotheses (P >= 0, S >= 0, R = Q*),
    where the comparison coefficient is taken as A(t) := R(t). The equation
    is the Riccati equation of ``cs.comparison()``, (P, Q) = (0, R*), so the
    run is the direct run there (``_direct``), which takes no norm cap at
    P = 0. Linear, hence never blows up on a finite span: a run that stops
    early (a step collapse) raises ``IntegrationError``. R must be of a kind
    with an ``adjoint()``.
    """
    opts = opts or IntegratorOptions()
    y0, ts = _prologue(cs, ytilde0, "Ytilde0", sample_times)
    times, values, reason, t_last, stats = _direct(cs.comparison(), y0, opts, ts)
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
    Every trajectory time must be one of the flow's sample times (the
    trajectory of ``integrate_linear_system`` is), else IntegrationError.
    """
    # the flow sample of each row: the trajectory's are the flow's less the singular ones
    kept = np.searchsorted(flow.times, traj.times)
    if not kept.size:
        raise IntegrationError("no singularity-free span available")
    found = kept < flow.times.size
    found[found] = flow.times[kept[found]] == traj.times[found]
    if not found.all():
        t = float(traj.times[np.argmin(found)])
        raise IntegrationError(f"trajectory time {t} is not a sample of the flow")
    # a span starts after a dropped (singular) sample or at a restart
    starts = (np.diff(kept, prepend=-2) > 1) | np.isin(traj.times, flow.restarts)
    bounds = [*np.flatnonzero(starts).tolist(), kept.size]
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
    for lo, hi in zip(bounds, bounds[1:]):
        ts = traj.times[lo:hi]
        checked.append((float(ts[0]), float(ts[-1])))
        if hi - lo == 1:
            continue  # trivial span: identity holds with error 0 by definition
        dxs = np.diff(ts)
        dx = float(dxs[0])
        if np.max(np.abs(dxs - dx)) > 1e-9 * dx:
            raise IntegrationError("liouville_check requires a uniform sample grid")
        dets = np.linalg.det(flow.phi[kept[lo:hi]])
        ys = traj.values[lo:hi]
        integrand, integrand2 = _scan(ts, cs.n, integrands, ys, values=rp)
        det_rhs = dets[0] * np.exp(_cumulative_simpson(integrand, dx))
        mod_rhs = np.abs(dets[0]) ** 2 * np.exp(_cumulative_simpson(integrand2, dx))
        max_det = np.maximum(max_det, worst(dets, det_rhs))
        max_mod = np.maximum(max_mod, worst(np.abs(dets) ** 2, mod_rhs))

    return LiouvilleReport(max_rel_error=float(np.maximum(max_det, max_mod)),
                           det_form_error=float(max_det), modulus_form_error=float(max_mod),
                           spans=checked)
