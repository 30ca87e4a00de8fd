"""Runtime verification along computed trajectories.

Tests the statements the certificates guarantee: the Hermitian-part
lower bound Y + Y* >= L + L*, the two-sided comparison 0 <= Y <= Ytilde,
and the equation residual. The residual uses central differences of the
stored samples rather than the integrator's internal derivative, so the
check is independent of the integration code path.

Every series is one ``matrix_core._scan`` over the samples; the scan hands
its block the values of the coefficients or the gauge the series reads. By
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
MIN_RESIDUAL_SAMPLES = 3  # of the central-difference residual


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
    lo, hi = _scan(traj.times, traj.n, lambda ts, y, y_tilde: (
        _hermitian_eigvals("verify_sandwich", y)[:, 0],
        _hermitian_eigvals("verify_sandwich", y_tilde - y)[:, 0]), traj.values, traj_tilde.values)
    lower, upper = _least(lo, traj.times), _least(hi, traj.times)
    return SandwichReport(passed=(lower[0] >= -tol and upper[0] >= -tol),
                          lower_min=lower[0], lower_t=lower[1],
                          upper_min=upper[0], upper_t=upper[1], tol=tol)


@np.errstate(**_OVERFLOW_QUIET)
def _central_differences(f: np.ndarray, times: np.ndarray):
    """``(lo, hi) -> np.gradient(f, times, axis=0, edge_order=2)[lo:hi]`` bit
    for bit, formed from rows lo - 1 to hi of ``f`` only.

    It applies numpy's formulas and weights, each computed from the full
    ``times``, and numpy's global test: the uniform forms, the central
    difference (f[k+1] - f[k-1]) / (2 dx) and its edge constants, apply
    only when every spacing is equal.
    """
    m, dx = times.size, np.diff(times)
    if (dx == dx[0]).all():
        h = dx[0]

        def inner(i, j):
            return (f[i + 1:j + 1] - f[i - 1:j - 1]) / (2. * h)
        edges = ((-1.5 / h, 2. / h, -0.5 / h), (0.5 / h, -2. / h, 1.5 / h))
    else:
        dx1, dx2 = dx[:-1], dx[1:]
        shape = (-1,) + (1,) * (f.ndim - 1)
        a = (-(dx2) / (dx1 * (dx1 + dx2))).reshape(shape)
        b = ((dx2 - dx1) / (dx1 * dx2)).reshape(shape)
        c = (dx1 / (dx2 * (dx1 + dx2))).reshape(shape)

        def inner(i, j):
            return (a[i - 1:j - 1] * f[i - 1:j - 1] + b[i - 1:j - 1] * f[i:j]
                    + c[i - 1:j - 1] * f[i + 1:j + 1])
        (d1, d2), (e1, e2) = dx[:2], dx[-2:]
        edges = ((-(2. * d1 + d2) / (d1 * (d1 + d2)), (d1 + d2) / (d1 * d2),
                  - d1 / (d2 * (d1 + d2))),
                 (e2 / (e1 * (e1 + e2)), - (e2 + e1) / (e1 * e2),
                  (2. * e2 + e1) / (e2 * (e1 + e2))))

    def rows(lo: int, hi: int) -> np.ndarray:
        out = np.empty((hi - lo,) + f.shape[1:], dtype=f.dtype)
        i, j = max(lo, 1), min(hi, m - 1)
        if i < j:
            out[i - lo:j - lo] = inner(i, j)
        # the one-sided second-order edges, on the first and the last three rows
        for k, (wa, wb, wc), first in zip((0, m - 1), edges, (0, m - 3)):
            if lo <= k < hi:
                out[k - lo] = wa * f[first] + wb * f[first + 1] + wc * f[first + 2]
        return out

    return rows


def residual_series(traj: Trajectory, cs: CoefficientSet) -> np.ndarray:
    """Scaled equation residual at every sample.

    The derivative is estimated by central differences of the stored
    samples (second-order one-sided at the ends), so the series has an
    O(h^2) floor in the sample spacing h even for exact trajectories.
    Scaling by 1 + ||Y||_F^2 keeps the measure meaningful for large
    solutions. Each block of the scan forms its own differences, so no
    derivative of the whole trajectory is held.
    """
    if traj.times.size < MIN_RESIDUAL_SAMPLES:
        raise ValueError(f"residual check needs at least {MIN_RESIDUAL_SAMPLES} samples")

    def block(ts, p, q, r, s, y, k):
        resid = deriv(int(k[0]), int(k[-1]) + 1) + y @ p @ y + q @ y + y @ r - s
        return (_fro(resid) / (1.0 + _fro(y) ** 2),)

    deriv = _central_differences(traj.values, traj.times)
    # a block holds P, Q, R, S, the differences and the products at each
    # point: scanned as matrices of twice the dimension, it has a quarter
    # of the points of a one-matrix scan
    return _scan(traj.times, 2 * traj.n, block, traj.values, np.arange(traj.times.size),
                 values=cf.stacked_evaluator((cs.P, cs.Q, cs.R, cs.S)))[0]


def residual_check(traj: Trajectory, cs: CoefficientSet) -> float:
    """Maximum scaled residual over all samples."""
    return float(np.max(residual_series(traj, cs)))
