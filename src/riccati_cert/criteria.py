"""Grid checkers for the global-solvability criteria.

Four criteria are supported, addressed by the same wire names the CLI
uses:

* ``theorem3.1``  -- the gauge criterion: P(t) >= 0, the drift mismatch
  R - Q* - P(L* - L) is a scalar multiple mu(t) of the identity, and the
  shifted source S_L + S_L* is positive semidefinite. Together with
  Y0 + Y0* >= L(t0) + L*(t0) this certifies global existence and the
  running bound Y(t) + Y*(t) >= L(t) + L*(t).
* ``cor3.1``      -- the skew-gauge variant: P(t) > 0 and the gauge is
  forced to L0 = P^{-1}(Q* - R + mu I)/2, which must be skew-Hermitian;
  the certified bound becomes Y(t) + Y*(t) >= 0.
* ``cor3.2``      -- the sqrt-frame variant: P(t) > 0, the frame term
  T = (sqrt(P)^{-1}(Q* - R)sqrt(P) + nu I)/2 must be skew-Hermitian and
  sqrt(P)(S + S*)sqrt(P) + 2T^2 + (conj(nu) - nu)T >= 0; the bound is the
  congruence sqrt(P)(Y + Y*)sqrt(P) >= 0.
* ``theorem1.1``  -- the linear-comparison baseline: P >= 0, S >= 0,
  R = Q*, which certifies 0 <= Y(t) <= Ytilde(t) for PSD initial values.

All conditions are verified pointwise on a finite uniform grid; every
report carries a note stating this declared approximation. Each condition
matrix has one builder from an array of times to the stacked matrices;
the public pointwise helpers call it at a scalar time. ``matrix_core._scan``
runs the builders over the grid and its measures judge them (the PSD band,
the Hermiticity-defect rule); this module picks the witnesses at the end.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import coefficients as cf
from .coefficients import CoefficientFunction, CoefficientSet, _shifted_source, eval_S_lambda
from .exceptions import DimensionError, NotPositiveDefiniteError
from .matrix_core import (
    DEFAULT_TOL,
    _defect_measure,
    _eigh,
    _psd_measure,
    _scan,
    _sqrt_of_eigh,
    adjoint,
    as_matrix,
    principal_sqrt,
    sqrt_derivative,
)

#: Default number of uniform grid points for criterion checks.
DEFAULT_GRID_POINTS = 1001
#: Largest accepted grid; the grid and the per-point series are held in memory.
MAX_GRID_POINTS = 10**6

GRID_NOTE = ("conditions verified pointwise on a finite uniform grid over "
             "[t0, t_end]; the certified statement requires them for every "
             "t >= t0 (declared approximation)")

CRITERION_NAMES = ("theorem3.1", "cor3.1", "cor3.2", "theorem1.1")


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid covering [t0, t_end]."""

    t0: float
    t_end: float
    num_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if not 2 <= self.num_points <= MAX_GRID_POINTS:
            raise ValueError(f"grid needs 2..{MAX_GRID_POINTS} points, got {self.num_points}")
        if not self.t0 < self.t_end:
            raise ValueError(f"need t0 < t_end, got [{self.t0}, {self.t_end}]")

    @cached_property
    def points(self) -> np.ndarray:
        return np.linspace(self.t0, self.t_end, self.num_points)

    @classmethod
    def for_set(cls, cs: CoefficientSet, num_points: int | None = None) -> "GridSpec":
        return cls(cs.t0, cs.t_end, DEFAULT_GRID_POINTS if num_points is None else num_points)


@dataclass
class ConditionRecord:
    """Verdict for one condition with its worst grid-point witness.

    ``kind`` states how to read ``worst_value``: the minimum eigenvalue
    found ("min_eigenvalue") or the largest residual/defect norm
    ("residual", "skew_defect").
    """

    name: str
    passed: bool
    kind: str
    worst_value: float
    worst_time: float
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CriterionReport:
    """Aggregate verdict: holds iff every condition passed."""

    criterion: str
    holds: bool
    conditions: list[ConditionRecord]
    notes: list[str] = field(default_factory=list)
    extracted_mu: cf.SampledFunction | None = None
    extracted_nu: cf.SampledFunction | None = None

    def condition(self, name: str) -> ConditionRecord:
        for rec in self.conditions:
            if rec.name == name:
                return rec
        raise KeyError(name)

    def failed_conditions(self) -> list[ConditionRecord]:
        return [rec for rec in self.conditions if not rec.passed]

    def to_dict(self) -> dict:
        from .serialize import function_to_obj

        out = {
            "criterion": self.criterion,
            "holds": self.holds,
            "conditions": [rec.to_dict() for rec in self.conditions],
            "notes": list(self.notes),
        }
        for key in ("extracted_mu", "extracted_nu"):
            if getattr(self, key) is not None:
                out[key] = function_to_obj(getattr(self, key))
        return out


def _imaginary_shift_note(values: np.ndarray, tol: float, name: str) -> list[str]:
    """Warn when a scalar gauge has a material imaginary part on the grid.

    A purely imaginary shift rotates solutions in the complex plane
    (y' = -i y is the model case) and defeats any lower bound on Y + Y*,
    so certificates are only sound for real shifts. The conditions above
    accept complex shifts by contract; this note records the caveat.
    """
    worst = float(np.max(np.abs(values.imag) / (1.0 + np.abs(values)), initial=0.0))
    if worst > tol:
        return [f"extracted or supplied {name}(t) has a nonzero imaginary part "
                f"(max relative magnitude {worst:.3e}); the certified lower "
                "bound is established for real shifts only and can fail "
                "otherwise"]
    return []


# ---------------------------------------------------------------------------
# Witness records
# ---------------------------------------------------------------------------

def _least(name: str, ts: np.ndarray, lo: np.ndarray, ok: np.ndarray,
           defect: np.ndarray | None = None) -> ConditionRecord:
    """Eigenvalue record: the least value, earliest on ties. Points left out
    carry +inf (all out: witness (inf, inf)); a failing scan notes the
    largest Hermiticity ``defect``."""
    k = int(np.argmin(lo))
    note = ""
    if defect is not None and not ok.all() and defect.max() > 0:
        note = f"max hermiticity defect {defect.max():.3e}"
    return ConditionRecord(name=name, passed=bool(ok.all()), kind="min_eigenvalue",
                           worst_value=float(lo[k]),
                           worst_time=float(ts[k]) if lo[k] < np.inf else np.inf,
                           note=note)


def _largest(name: str, kind: str, ts: np.ndarray, score: np.ndarray,
             value: np.ndarray, ok: np.ndarray) -> ConditionRecord:
    """Residual or defect record: the largest score, at the earliest time on ties."""
    k = int(np.argmax(score))
    return ConditionRecord(name=name, passed=bool(ok.all()), kind=kind,
                           worst_value=float(value[k]), worst_time=float(ts[k]))


def _psd_condition(grid: GridSpec, n: int, stack_at, tol: float, name: str) -> ConditionRecord:
    """PSD check of the stacks ``stack_at(ts)`` over the grid."""
    lo, ok, defect = _scan(grid.points, n, lambda ts: _psd_measure(stack_at(ts), tol))
    return _least(name, grid.points, lo, ok, defect)


def _report(criterion: str, conditions: list[ConditionRecord], notes: list[str],
            **extracted) -> CriterionReport:
    return CriterionReport(criterion=criterion, conditions=conditions, notes=notes,
                           holds=all(rec.passed for rec in conditions), **extracted)


def _initial_value(y0, n: int) -> np.ndarray:
    y0 = as_matrix(y0, "Y0")
    if y0.shape[0] != n:
        raise DimensionError(f"Y0 has dimension {y0.shape[0]}, expected {n}")
    return y0


def _initial_record(name: str, g0: np.ndarray, t0: float, tol: float) -> ConditionRecord:
    """PSD clause on one matrix at t0, by the grid's own measure."""
    lo, ok, _ = _psd_measure(g0[None], tol)
    return ConditionRecord(name=name, passed=bool(ok[0]), kind="min_eigenvalue",
                           worst_value=float(lo[0]), worst_time=t0)


def check_positivity_condition(cs: CoefficientSet, grid: GridSpec | None = None,
                               tol: float = DEFAULT_TOL) -> ConditionRecord:
    """P(t) >= 0 at every grid point (also enforces Hermiticity of P)."""
    grid = grid or GridSpec.for_set(cs)
    return _psd_condition(grid, cs.n, cs.P.eval, tol, "coefficient_psd")


def check_scalar_shift_condition(cs: CoefficientSet, lam: CoefficientFunction | None,
                                 grid: GridSpec | None = None, tol: float = DEFAULT_TOL
                                 ) -> tuple[ConditionRecord, cf.SampledFunction]:
    """R - Q* - P(L* - L) must equal mu(t) I for some scalar mu.

    The scalar is extracted as tr(M)/n rather than supplied: at each grid
    point the checker forms M(t), takes mu_hat = tr(M)/n and accepts when
    ||M - mu_hat I||_F <= tol (1 + ||M||_F). Returns the extracted mu_hat
    as a sampled scalar function on the grid.
    """
    grid = grid or GridSpec.for_set(cs)
    lam = lam or cf.zero_matrix_function(cs.n)
    cf._require_matrix_function(lam, cs.n, "lambda")
    eye = np.eye(cs.n)

    def block(ts):
        lam_t = lam.eval(ts)
        m = cs.R.eval(ts) - adjoint(cs.Q.eval(ts)) - cs.P.eval(ts) @ (adjoint(lam_t) - lam_t)
        mu_hat = np.trace(m, axis1=-2, axis2=-1) / cs.n
        return (mu_hat, *_defect_measure(m - mu_hat[:, None, None] * eye, m, tol))

    mu_hat, resid, ratio, ok = _scan(grid.points, cs.n, block)
    rec = _largest("scalar_shift", "residual", grid.points, ratio, resid, ok)
    return rec, cf.sampled(grid.points, mu_hat, order=1, scalar=True)


def check_source_condition(cs: CoefficientSet, lam: CoefficientFunction | None,
                           grid: GridSpec | None = None, tol: float = DEFAULT_TOL
                           ) -> ConditionRecord:
    """S_L(t) + S_L*(t) >= 0 at every grid point."""
    grid = grid or GridSpec.for_set(cs)
    lam = lam or cf.zero_matrix_function(cs.n)

    def shifted_source(ts):
        s = eval_S_lambda(cs, lam, ts)
        return s + adjoint(s)

    return _psd_condition(grid, cs.n, shifted_source, tol, "shifted_source_psd")


def check_gauge_criterion(cs: CoefficientSet, lam: CoefficientFunction | None,
                          y0, grid: GridSpec | None = None,
                          tol: float = DEFAULT_TOL) -> CriterionReport:
    """Full check of the gauge criterion (wire name ``theorem3.1``).

    Runs the three coefficient conditions plus the initial-value clause
    Y0 + Y0* >= L(t0) + L*(t0). When it holds, trajectories from Y0 are
    certified to exist on the whole horizon with
    Y(t) + Y*(t) >= L(t) + L*(t); ``verify.verify_hermitian_bound``
    tests that bound along computed trajectories.
    """
    grid = grid or GridSpec.for_set(cs)
    lam = lam or cf.zero_matrix_function(cs.n)
    y0 = _initial_value(y0, cs.n)
    cond_p = check_positivity_condition(cs, grid, tol)
    cond_shift, mu_fn = check_scalar_shift_condition(cs, lam, grid, tol)
    cond_src = check_source_condition(cs, lam, grid, tol)
    lam0 = lam.eval(cs.t0)
    cond_init = _initial_record("initial_lower_bound",
                                y0 + adjoint(y0) - lam0 - adjoint(lam0), cs.t0, tol)
    return _report("theorem3.1", [cond_p, cond_shift, cond_src, cond_init],
                   [GRID_NOTE, *_imaginary_shift_note(mu_fn.values, tol, "mu")],
                   extracted_mu=mu_fn)


# ---------------------------------------------------------------------------
# Frame variants (wire names cor3.1 and cor3.2)
# ---------------------------------------------------------------------------

def _frame_conditions(cs: CoefficientSet, grid: GridSpec, tol: float, frame,
                      skew_name: str, psd_name: str) -> list[ConditionRecord]:
    """coefficient_pd plus the two conditions on a frame that needs P > 0.

    ``frame(ts, p)`` returns, where P is positive definite, the matrix that
    must be skew-Hermitian and the one that must be PSD. Elsewhere both
    conditions fail and the points are left out of their witnesses.
    """
    def block(ts):
        p = cs.P.eval(ts)
        lo, pd, defect = _psd_measure(p, tol, strict=True)
        skew, skew_ok = np.zeros(ts.size), np.zeros(ts.size, dtype=bool)
        c_lo, c_ok = np.full(ts.size, np.inf), np.zeros(ts.size, dtype=bool)
        if pd.any():
            k, c = frame(ts[pd], p[pd])
            skew[pd], _, skew_ok[pd] = _defect_measure(k + adjoint(k), k, tol)
            c_lo[pd], c_ok[pd], _ = _psd_measure(c, tol)
        return lo, pd, defect, skew, skew_ok, c_lo, c_ok

    lo, pd, defect, skew, skew_ok, c_lo, c_ok = _scan(grid.points, cs.n, block)
    ts = grid.points
    return [_least("coefficient_pd", ts, lo, pd, defect),
            _largest(skew_name, "skew_defect", ts, skew, skew, skew_ok),
            _least(psd_name, ts, c_lo, c_ok)]


def _skew_gauge(cs: CoefficientSet, mu: CoefficientFunction, ts, p: np.ndarray):
    """L0 = P^{-1}(Q* - R + mu I)/2 and its exact derivative where P > 0.

    The derivative uses d(P^{-1})/dt = -P^{-1} P' P^{-1}, so no finite
    differences enter the source condition.
    """
    # scalar values get two trailing axes to scale the identity
    eye = np.eye(cs.n)
    g = adjoint(cs.Q.eval(ts)) - cs.R.eval(ts) + np.asarray(mu.eval(ts))[..., None, None] * eye
    gdot = (adjoint(cs.Q.derivative(ts)) - cs.R.derivative(ts)
            + np.asarray(mu.derivative(ts))[..., None, None] * eye)
    lam0 = np.linalg.solve(p, g) / 2.0
    lam0dot = np.linalg.solve(p, gdot / 2.0 - cs.P.derivative(ts) @ lam0)
    return lam0, lam0dot


def build_skew_gauge(cs: CoefficientSet, mu: CoefficientFunction | None = None,
                     grid: GridSpec | None = None, tol: float = DEFAULT_TOL
                     ) -> tuple[cf.SampledFunction, ConditionRecord]:
    """Construct L0(t) = P(t)^{-1}[Q*(t) - R(t) + mu(t) I]/2 on the grid.

    Returns the gauge as a sampled function (the cubic Hermite spline
    through its values and exact node derivatives) plus a record of whether it is skew-Hermitian at every
    point. When skewness passes, L0 + L0* is identically zero and the
    certified bound reduces to Y(t) + Y*(t) >= 0. Raises
    ``NotPositiveDefiniteError`` at the first grid point where P is not
    positive definite at tolerance ``tol``.
    """
    grid = grid or GridSpec.for_set(cs)
    mu = mu or cf.zero_scalar_function()

    def block(ts):
        p = cs.P.eval(ts)
        lo, pd, _ = _psd_measure(p, tol, strict=True)
        if not pd.all():
            k = int(np.argmin(pd))
            raise NotPositiveDefiniteError(
                f"P({ts[k]}) is not positive definite (min eigenvalue "
                f"{lo[k]:.6e}); the skew gauge is undefined",
                min_eigenvalue=float(lo[k]))
        lam0, lam0dot = _skew_gauge(cs, mu, ts, p)
        return (lam0, lam0dot, *_defect_measure(lam0 + adjoint(lam0), lam0, tol))

    vals, derivs, defect, _, ok = _scan(grid.points, cs.n, block)
    lam0_fn = cf.sampled(grid.points, vals, order=3, node_derivatives=derivs)
    return lam0_fn, _largest("gauge_skew", "skew_defect", grid.points, defect, defect, ok)


def check_skew_gauge_criterion(cs: CoefficientSet, mu: CoefficientFunction | None,
                               y0, grid: GridSpec | None = None,
                               tol: float = DEFAULT_TOL) -> CriterionReport:
    """Criterion with the forced skew gauge (wire name ``cor3.1``)."""
    grid = grid or GridSpec.for_set(cs)
    mu = mu or cf.zero_scalar_function()
    y0 = _initial_value(y0, cs.n)

    def frame(ts, p):
        lam0, lam0dot = _skew_gauge(cs, mu, ts, p)
        s_l = _shifted_source(cs, ts, lam0, lam0dot)
        return lam0, s_l + adjoint(s_l)

    conditions = _frame_conditions(cs, grid, tol, frame, "gauge_skew", "shifted_source_psd")
    conditions.append(_initial_record("initial_psd", y0 + adjoint(y0), cs.t0, tol))
    return _report("cor3.1", conditions,
                   [GRID_NOTE, "skew gauge cancels in the bound: the certified statement is "
                    "Y(t) + Y*(t) >= 0", *_imaginary_shift_note(mu.eval(grid.points), tol, "mu")])


def _sqrt_frame(cs: CoefficientSet, nu: CoefficientFunction, ts, sp: np.ndarray):
    """The frame term T and the condition matrix at ts, given sqrt(P) there:

        T = (sqrt(P)^{-1} [Q* - R] sqrt(P) + nu I) / 2,
        C = sqrt(P)(S + S*)sqrt(P) + 2 T^2 + (conj(nu) - nu) T.
    """
    nu_t = np.asarray(nu.eval(ts))[..., None, None]
    a = adjoint(cs.Q.eval(ts)) - cs.R.eval(ts)
    t_term = (np.linalg.solve(sp, a) @ sp + nu_t * np.eye(cs.n)) / 2.0
    s = cs.S.eval(ts)
    return t_term, sp @ (s + adjoint(s)) @ sp + 2.0 * (t_term @ t_term) \
        + (np.conj(nu_t) - nu_t) * t_term


def sqrt_frame_skew_term(cs: CoefficientSet, nu: CoefficientFunction | None,
                         t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """T(t) = (sqrt(P)^{-1} [Q*(t) - R(t)] sqrt(P) + nu(t) I) / 2."""
    sp = principal_sqrt(cs.P.eval(t), tol)
    return _sqrt_frame(cs, nu or cf.zero_scalar_function(), t, sp)[0]


def sqrt_frame_condition_matrix(cs: CoefficientSet, nu: CoefficientFunction | None,
                                t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """sqrt(P)(S + S*)sqrt(P) + 2 T^2 + (conj(nu) - nu) T at time t."""
    sp = principal_sqrt(cs.P.eval(t), tol)
    return _sqrt_frame(cs, nu or cf.zero_scalar_function(), t, sp)[1]


def check_sqrt_frame_criterion(cs: CoefficientSet, nu: CoefficientFunction | None = None,
                               y0=None, grid: GridSpec | None = None,
                               tol: float = DEFAULT_TOL) -> CriterionReport:
    """Criterion in the sqrt(P) frame (wire name ``cor3.2``).

    Passes when P(t) > 0, the frame term T is skew-Hermitian, and the
    condition matrix is PSD at every grid point. When an initial value is
    supplied, sqrt(P(t0))(Y0 + Y0*)sqrt(P(t0)) >= 0 is checked as well.
    """
    grid = grid or GridSpec.for_set(cs)
    nu = nu or cf.zero_scalar_function()

    def frame(ts, p):
        return _sqrt_frame(cs, nu, ts, _sqrt_of_eigh(*_eigh((p + adjoint(p)) / 2, "cor3.2")))

    conditions = _frame_conditions(cs, grid, tol, frame, "sqrt_frame_skew", "sqrt_frame_psd")
    if y0 is not None:
        y0 = _initial_value(y0, cs.n)
        g0 = y0 + adjoint(y0)
        if conditions[0].passed:
            sp0 = principal_sqrt(cs.P.eval(cs.t0), tol)
            g0 = sp0 @ g0 @ sp0
        conditions.append(_initial_record("initial_psd", g0, cs.t0, tol))

    nu_vals = nu.eval(grid.points)
    notes = [GRID_NOTE,
             "certified bound is the congruence "
             "sqrt(P(t))(Y(t) + Y*(t))sqrt(P(t)) >= 0, equivalent to "
             "Y(t) + Y*(t) >= 0 while P(t) > 0", *_imaginary_shift_note(nu_vals, tol, "nu")]
    return _report("cor3.2", conditions, notes,
                   extracted_nu=cf.sampled(grid.points, nu_vals, order=1, scalar=True))


def sqrt_frame_factors(cs: CoefficientSet, t: float, tol: float = DEFAULT_TOL
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The unique factors F, L with F sqrt(P) = sqrt(P) Q - sqrt(P)' and
    sqrt(P) L = R sqrt(P) - sqrt(P)'.

    Explicitly F = [sqrt(P) Q - sqrt(P)'] sqrt(P)^{-1} and
    L = sqrt(P)^{-1} [R sqrt(P) - sqrt(P)'].
    """
    p = cs.P.eval(t)
    sp = principal_sqrt(p, tol)
    spdot = sqrt_derivative(p, cs.P.derivative(t), tol)
    rhs_f = sp @ cs.Q.eval(t) - spdot
    f = np.linalg.solve(sp.T, rhs_f.T).T
    l = np.linalg.solve(sp, cs.R.eval(t) @ sp - spdot)
    return f, l


def sqrt_frame_source_term(cs: CoefficientSet, nu: CoefficientFunction | None,
                           t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Source term D(t) of the frame-shifted quadratic equation:

        D = T' + T^2 + F T + T L - sqrt(P) S sqrt(P).

    T' is exact: with A = Q* - R, sp = sqrt(P) and sp' from ``sqrt_derivative``,
    T' = (-sp^{-1} sp' sp^{-1} A sp + sp^{-1} A' sp + sp^{-1} A sp' + nu' I) / 2.
    For skew T the identity
    D + D* = -2 T^2 + (nu - conj(nu)) T - sqrt(P)(S + S*)sqrt(P) holds,
    which ties this term to the condition matrix of the checker above.
    """
    nu = nu or cf.zero_scalar_function()
    t = float(t)
    p = cs.P.eval(t)
    sp = principal_sqrt(p, tol)
    spdot = sqrt_derivative(p, cs.P.derivative(t), tol)
    a = adjoint(cs.Q.eval(t)) - cs.R.eval(t)
    adot = adjoint(cs.Q.derivative(t)) - cs.R.derivative(t)
    t_term = _sqrt_frame(cs, nu, t, sp)[0]
    tdot = (np.linalg.solve(sp, adot @ sp + a @ spdot - spdot @ np.linalg.solve(sp, a) @ sp)
            + nu.derivative(t) * np.eye(cs.n)) / 2.0
    f, l = sqrt_frame_factors(cs, t, tol)
    return tdot + t_term @ t_term + f @ t_term + t_term @ l - sp @ cs.S.eval(t) @ sp


# ---------------------------------------------------------------------------
# Linear-comparison baseline (wire name theorem1.1)
# ---------------------------------------------------------------------------

def check_comparison_hypotheses(cs: CoefficientSet, y0, grid: GridSpec | None = None,
                                tol: float = DEFAULT_TOL) -> CriterionReport:
    """P >= 0, S >= 0, R = Q*, Y0 >= 0 (wire name ``theorem1.1``)."""
    grid = grid or GridSpec.for_set(cs)
    y0 = _initial_value(y0, cs.n)
    cond_p = check_positivity_condition(cs, grid, tol)
    cond_s = _psd_condition(grid, cs.n, cs.S.eval, tol, "source_psd")

    def block(ts):
        r = cs.R.eval(ts)
        return _defect_measure(r - adjoint(cs.Q.eval(ts)), r, tol)

    resid, ratio, ok = _scan(grid.points, cs.n, block)
    cond_sym = _largest("symmetric_pair", "residual", grid.points, ratio, resid, ok)
    cond_init = _initial_record("initial_psd", y0, cs.t0, tol)
    return _report("theorem1.1", [cond_p, cond_s, cond_sym, cond_init],
                   [GRID_NOTE,
                    "certified statement: 0 <= Y(t) <= Ytilde(t) with Ytilde the "
                    "linear comparison solution (integrate_lyapunov_comparison)"])


def run_criterion(name: str, cs: CoefficientSet, y0,
                  lam: CoefficientFunction | None = None,
                  mu: CoefficientFunction | None = None,
                  nu: CoefficientFunction | None = None,
                  grid: GridSpec | None = None,
                  tol: float = DEFAULT_TOL) -> CriterionReport:
    """Dispatch a criterion check by its wire name."""
    if name == "theorem3.1":
        return check_gauge_criterion(cs, lam, y0, grid, tol)
    if name == "cor3.1":
        return check_skew_gauge_criterion(cs, mu, y0, grid, tol)
    if name == "cor3.2":
        return check_sqrt_frame_criterion(cs, nu, y0, grid, tol)
    if name == "theorem1.1":
        return check_comparison_hypotheses(cs, y0, grid, tol)
    raise ValueError(f"unknown criterion {name!r}; expected one of {CRITERION_NAMES}")
