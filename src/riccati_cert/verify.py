"""Runtime verification along computed trajectories.

Tests the statements the certificates guarantee: the Hermitian-part
lower bound Y + Y* >= L + L*, the two-sided comparison 0 <= Y <= Ytilde,
and the equation residual. The residual differentiates the stored samples
through their cubic Hermite interpolant, whose slopes F(t, Y) it forms
here rather than take from the integrator, so the check is independent of
the integration code path; it is fourth order in the sample spacing. A
trajectory is judged by the equation it solves: a ``lyapunov`` run by the
comparison equation, every other by the Riccati equation.

Every series is one ``matrix_core._scan`` over the samples; the scan hands
its block the values of the gauge the series reads, and the residual's block
evaluates the coefficients itself, on the samples its cubics span. By
matrix_core's rule a monitor is NaN, and fails its bound, at a sample whose
matrix or eigenvalue is not finite, and nothing warns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coefficients as cf
from .coefficients import CoefficientFunction, CoefficientSet
from .exceptions import DimensionError
from .matrix_core import _OVERFLOW_QUIET, _fro, _hermitian_eigvals, _scan, adjoint, require_tol
from .integrate import Trajectory

DEFAULT_BOUND_TOL = 1e-6  # absolute band of the bound checks on the least eigenvalue
MIN_RESIDUAL_SAMPLES = 3  # a sample and two others: the residual's cubic


@dataclass
class BoundReport:
    """Minimum over samples of the least eigenvalue of
    G(t) = Y(t) + Y*(t) - L(t) - L*(t); passes when it stays above -tol."""

    passed: bool
    min_value: float
    t_min: float
    tol: float
    times: np.ndarray
    series: np.ndarray

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_lambda": self.min_value,
            "t_min": self.t_min,
            "tol": self.tol,
            "samples": int(self.times.size),
        }


def eigen_monitor(traj: Trajectory, lam: CoefficientFunction | None = None) -> np.ndarray:
    """Least eigenvalue of Y(t) + Y*(t) - L(t) - L*(t) at every sample.

    This is the scalar whose nonnegativity the gauge certificate
    guarantees; the series is exported as the ``lambda_min_gap`` CSV
    column.
    """
    lam = cf._require_gauge(lam, traj.n, "lambda")

    def block(ts, lam_t, y):
        g = y + adjoint(y) - lam_t - adjoint(lam_t)
        return (_hermitian_eigvals("eigen_monitor", g)[:, 0],)

    return _scan(traj.times, traj.n, block, traj.values, values=cf.stacked_evaluator((lam,)))[0]


def verify_hermitian_bound(traj: Trajectory, lam: CoefficientFunction | None = None,
                           tol: float = DEFAULT_BOUND_TOL) -> BoundReport:
    """Check Y(t) + Y*(t) >= L(t) + L*(t) along the trajectory.

    The tolerance is absolute on the least eigenvalue: the certified
    inequality is exact but computed trajectories are not, so the default
    band (``-DEFAULT_BOUND_TOL``) is matched to the integrator tolerances.
    """
    require_tol(tol)
    series = eigen_monitor(traj, lam)
    if series.size == 0:
        raise ValueError("trajectory has no samples")
    min_value, t_min = _least(series, traj.times)
    return BoundReport(passed=min_value >= -tol, min_value=min_value, t_min=t_min,
                       tol=tol, times=traj.times, series=series)


def _least(series: np.ndarray, times: np.ndarray) -> tuple[float, float]:
    """(least value, its earliest time) of a series with samples; a NaN value
    counts as least, so a monitor that broke down is the witness."""
    k = int(np.argmin(series))
    return float(series[k]), float(times[k])


@dataclass
class SandwichReport:
    """Worst witnesses for both sides of 0 <= Y(t) <= Ytilde(t)."""

    passed: bool
    lower_min: float
    lower_t: float
    upper_min: float
    upper_t: float
    tol: float


def verify_sandwich(traj: Trajectory, traj_tilde: Trajectory,
                    tol: float = DEFAULT_BOUND_TOL) -> SandwichReport:
    """Check Y(t) >= 0 and Ytilde(t) - Y(t) >= 0 at every shared sample."""
    require_tol(tol)
    if traj.times.shape != traj_tilde.times.shape or \
            not np.array_equal(traj.times, traj_tilde.times):
        raise ValueError("trajectories are sampled on different grids")
    if traj.values.shape != traj_tilde.values.shape:
        raise DimensionError("trajectory dimensions differ")
    if traj.times.size == 0:
        raise ValueError("trajectory has no samples")

    def block(_, y, y_tilde):
        # both stacks' eigenvalues from one solver call
        least = _hermitian_eigvals("verify_sandwich", y, y_tilde - y)[:, 0]
        return least[:len(y)], least[len(y):]

    lo, hi = _scan(traj.times, traj.n, block, traj.values, traj_tilde.values)
    lower, upper = _least(lo, traj.times), _least(hi, traj.times)
    return SandwichReport(passed=(lower[0] >= -tol and upper[0] >= -tol),
                          lower_min=lower[0], lower_t=lower[1],
                          upper_min=upper[0], upper_t=upper[1], tol=tol)


@np.errstate(**_OVERFLOW_QUIET)
def residual_series(traj: Trajectory, cs: CoefficientSet) -> np.ndarray:
    """Scaled equation residual at every sample.

    F is the right-hand side of the trajectory's own equation: for a
    ``lyapunov`` run the comparison equation's, F(t, Y) = S - R* Y - Y R,
    which evaluates R and S only; for every other method the Riccati
    equation's, F(t, Y) = S - Q Y - Y (R + P Y). The derivative at sample k
    is that of the cubic through samples a = clip(k - 1, 0, m - 3) and
    b = a + 2 with slopes F there: for s = (t_k - t_a) / H, H = t_b - t_a,

        Y'_k = 6 s (1 - s) (Y_b - Y_a) / H + (3 s - 1)(s - 1) F_a + s (3 s - 2) F_b,

    and the residual is ||Y'_k - F(t_k, Y_k)||_F / (1 + ||Y_k||_F^2): fourth
    order in the sample spacing on any grid. The end rows are exactly 0 (s
    is 0 or 1 there, where the cubic takes the slope F); samples 0 and m - 1
    enter rows 1 and m - 2. F is formed here from the stored samples, not
    taken from the integrator, so the check is independent of the
    integration code path. A block of the scan needs F on its rows and one
    sample on each side, and holds no derivative of the whole trajectory.
    """
    ts, ys, m = traj.times, traj.values, traj.times.size
    if m < MIN_RESIDUAL_SAMPLES:
        raise ValueError(f"residual check needs at least {MIN_RESIDUAL_SAMPLES} samples")
    if traj.method == "lyapunov":
        coefficients, slope = cf.stacked_evaluator((cs.R, cs.S)), _comparison_slope
    else:
        coefficients, slope = cf.stacked_evaluator((cs.P, cs.Q, cs.R, cs.S)), _slope
    a = np.clip(np.arange(m) - 1, 0, m - 3)
    span = ts[a + 2] - ts[a]
    s = (ts - ts[a]) / span
    # the weights of Y_b - Y_a, F_a and F_b, complex so that no product casts
    weights = np.stack((6.0 * s * (1.0 - s) / span, (3.0 * s - 1.0) * (s - 1.0),
                        s * (3.0 * s - 2.0))).astype(np.complex128)[..., None, None]

    # (first row, F there) of the rows a block shares with the next: the scan
    # runs the blocks of a sliced stack in order, so F is formed once a sample
    shared = (0, ys[:0])

    def block(_, k):
        nonlocal shared
        k0, k1 = int(k[0]), int(k[-1]) + 1
        lo, hi = int(a[k0]), int(a[k1 - 1]) + 3  # a of the first row to b of the last
        known = shared[1] if shared[0] == lo else ys[:0]
        new = slice(lo + len(known), hi)
        f = np.concatenate((known, slope(coefficients(ts[new]), ys[new])))
        nxt = int(a[min(k1, m - 1)])  # the next block's first row
        shared = (nxt, f[nxt - lo:])
        y, i, (w_y, w_a, w_b) = ys[lo:hi], a[k0:k1] - lo, weights[:, k0:k1]
        d = w_y * (y[i + 2] - y[i])
        d += w_a * f[i]
        d += w_b * f[i + 2]
        d -= f[k0 - lo:k1 - lo]
        return (_fro(d) / (1.0 + _fro(ys[k0:k1]) ** 2),)

    # a block holds P, Q, R, S, F and the products on its rows and one more on
    # each side: scanned as matrices of twice the dimension, it has a quarter
    # of the points of a one-matrix scan
    return _scan(ts, 2 * traj.n, block, np.arange(m))[0]


def _slope(values, y: np.ndarray) -> np.ndarray:
    """F = S - Q Y - Y (R + P Y) from the stacks ``values`` of (P, Q, R, S):
    P Y and Q Y are one broadcast product."""
    pq = np.matmul(values[:2], y)
    f = values[3] - pq[1]
    pq[0] += values[2]
    f -= np.matmul(y, pq[0], out=pq[1])
    return f


def _comparison_slope(values, y: np.ndarray) -> np.ndarray:
    """F = S - R* Y - Y R from the stacks ``values`` of (R, S)."""
    f = values[1] - adjoint(values[0]) @ y
    f -= y @ values[0]
    return f


def residual_check(traj: Trajectory, cs: CoefficientSet) -> float:
    """Maximum scaled residual over all samples."""
    return float(np.max(residual_series(traj, cs)))
