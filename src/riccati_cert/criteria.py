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

Each criterion has one public checker, which judges Y0 too: its
``CriterionReport``, ending with the initial clause, is the only way to read
its conditions. All conditions are verified pointwise on a finite uniform
grid; every report carries a note stating this declared approximation. The
four criteria and ``build_skew_gauge`` are one ``matrix_core._scan`` each, of
a ``stacked_evaluator`` of P, Q, R, S (and the gauge or derivatives it
needs): its block takes their values and returns the per-point columns of
all its grid conditions, judged by matrix_core's measures; ``_least`` and
``_largest`` pick the witnesses, a NaN one at its time, and ``_least`` on t0
alone judges the initial clause. The conditions
are pointwise in t, so where every function a scan reads is a
``ConstantFunction`` ``_scan`` decides from its evaluator to run the block at
t0 only and repeat the columns over the grid: one point decides the interval
exactly, and the witnesses, the extracted shifts and the skew gauge's spline
are those the full grid gives. The formulas take coefficient values, and the
public pointwise helpers call them at a scalar time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import coefficients as cf
from .coefficients import CoefficientFunction, CoefficientSet, _shifted_source
from .exceptions import NotPositiveDefiniteError
from .matrix_core import (
    DEFAULT_TOL,
    _OVERFLOW_QUIET,
    _defect_measure,
    _hermitian_sqrt,
    _psd_measure,
    _psd_measures,
    _require_int,
    _scan,
    adjoint,
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
    """Uniform time grid covering [t0, t_end] with strictly increasing points."""

    t0: float
    t_end: float
    num_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        _require_int(self.num_points, "grid")
        if not 2 <= self.num_points <= MAX_GRID_POINTS:
            raise ValueError(f"grid needs 2..{MAX_GRID_POINTS} points, got {self.num_points}")
        cf._require_interval(self.t0, self.t_end)
        if not np.all(np.diff(self.points) > 0):
            raise ValueError(f"the interval [{self.t0!r}, {self.t_end!r}] must resolve the "
                             f"{self.num_points} grid points into distinct times")

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
    extracted_mu: cf.SampledFunction | None = None  # left out where not finite
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


@np.errstate(**_OVERFLOW_QUIET)
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
    noted = defect is not None and not ok.all() and defect.max() > 0
    note = f"max hermiticity defect {defect.max():.3e}" if noted else ""
    return ConditionRecord(name=name, passed=bool(ok.all()), kind="min_eigenvalue",
                           worst_value=float(lo[k]),
                           worst_time=float(ts[k]) if lo[k] != np.inf else np.inf,
                           note=note)


def _largest(name: str, kind: str, ts: np.ndarray, score: np.ndarray,
             value: np.ndarray, ok: np.ndarray) -> ConditionRecord:
    """Residual or defect record: the largest score, at the earliest time on
    ties. Points left out score -inf (all out: witness (inf, inf))."""
    k = int(np.argmax(score))
    out = score[k] == -np.inf
    return ConditionRecord(name=name, passed=bool(ok.all()), kind=kind,
                           worst_value=np.inf if out else float(value[k]),
                           worst_time=np.inf if out else float(ts[k]))


def _report(criterion: str, conditions: list[ConditionRecord], notes: list[str],
            **extracted) -> CriterionReport:
    left_out = [f"{k} left out: not finite on the grid" for k, f in extracted.items() if f is None]
    return CriterionReport(criterion=criterion, conditions=conditions, notes=notes + left_out,
                           holds=all(rec.passed for rec in conditions), **extracted)


@np.errstate(**_OVERFLOW_QUIET)
def _initial_record(name: str, g0: np.ndarray, t0: float, tol: float) -> ConditionRecord:
    """PSD clause on one matrix at t0: the grid's witness rule on one point."""
    return _least(name, np.array([t0]), *_psd_measure(g0[None], tol)[:2])


def _scalar_shift(m: np.ndarray, tol: float):
    """Per point, mu_hat = tr(M)/n and the defect measure of M - mu_hat I."""
    n = m.shape[-1]
    mu_hat = np.trace(m, axis1=-2, axis2=-1) / n
    return (mu_hat, *_defect_measure(m - mu_hat[:, None, None] * np.eye(n), m, tol))


@np.errstate(**_OVERFLOW_QUIET)  # the initial clause's matrix is formed quietly too
def check_gauge_criterion(cs: CoefficientSet, lam: CoefficientFunction | None,
                          y0, grid: GridSpec | None = None,
                          tol: float = DEFAULT_TOL) -> CriterionReport:
    """Full check of the gauge criterion (wire name ``theorem3.1``).

    One pass judges P >= 0, M = R - Q* - P(L* - L) = mu_hat I with
    mu_hat = tr(M)/n (``extracted_mu`` where finite) and S_L + S_L* >= 0;
    the clause Y0 + Y0* >= L(t0) + L*(t0) closes the report. When it holds,
    trajectories from Y0 exist on the whole horizon with
    Y(t) + Y*(t) >= L(t) + L*(t), which ``verify.verify_hermitian_bound``
    tests along computed trajectories.
    """
    lam = cf._require_gauge(lam, cs.n, "lambda")
    y0 = cf._require_matrix(y0, cs.n, "Y0")
    values = cf.stacked_evaluator((cs.P, cs.Q, cs.R, cs.S, lam), (lam,))

    def block(ts, p, q, r, s, lam_t, lam_dot):
        shift = _scalar_shift(r - adjoint(q) - p @ (adjoint(lam_t) - lam_t), tol)
        # S_L + S_L* in place: the block holds one stack less while P and it
        # are measured in one buffer
        s_l = _shifted_source(p, q, r, s, lam_t, lam_dot)
        s_l += adjoint(s_l)
        p_psd, s_psd = _psd_measures(tol, p, s_l)
        return (*p_psd, *shift, *s_psd)

    ts = (grid or GridSpec.for_set(cs)).points
    p_lo, p_ok, p_def, mu_hat, resid, ratio, mu_ok, s_lo, s_ok, s_def = _scan(
        ts, cs.n, block, values=values)
    mu_fn = cf.sampled(ts, mu_hat, order=1, scalar=True) if np.isfinite(mu_hat).all() else None
    lam0 = lam.eval(cs.t0)
    conditions = [_least("coefficient_psd", ts, p_lo, p_ok, p_def),
                  _largest("scalar_shift", "residual", ts, ratio, resid, mu_ok),
                  _least("shifted_source_psd", ts, s_lo, s_ok, s_def),
                  _initial_record("initial_lower_bound",
                                  y0 + adjoint(y0) - lam0 - adjoint(lam0), cs.t0, tol)]
    return _report("theorem3.1", conditions,
                   [GRID_NOTE, *(_imaginary_shift_note(mu_fn.values, tol, "mu") if mu_fn else [])],
                   extracted_mu=mu_fn)


# ---------------------------------------------------------------------------
# Frame variants (wire names cor3.1 and cor3.2)
# ---------------------------------------------------------------------------

def _frame_conditions(cs: CoefficientSet, shift: CoefficientFunction, grid: GridSpec | None,
                      tol: float, frame, skew_name: str, psd_name: str, derive=(),
                      split: bool = True):
    """coefficient_pd plus the two conditions on a frame that needs P > 0, and
    the scalar ``shift`` on the grid. The scan evaluates P, Q, R, S, the shift
    and the derivatives of ``derive`` once per block; ``frame(p, q, r, s, shift,
    *derivatives)`` returns from their values where P is positive definite
    the matrices that must be skew-Hermitian and PSD there. Elsewhere both
    conditions fail and the points are left out of their witnesses. ``split``
    is ``_scan``'s: whether the scan may run in two halves."""
    values = cf.stacked_evaluator((cs.P, cs.Q, cs.R, cs.S, shift), derive)

    def block(ts, p, q, r, s, shift_t, *derivatives):
        lo, pd, defect = _psd_measure(p, tol, strict=True)
        skew, skew_ok = np.full(ts.size, -np.inf), np.zeros(ts.size, dtype=bool)
        c_lo, c_ok = np.full(ts.size, np.inf), np.zeros(ts.size, dtype=bool)
        if pd.any():
            # a boolean index copies every stack: where P > 0 at every point, none is copied
            keep = slice(None) if pd.all() else pd
            k, c = frame(*(v[keep] for v in (p, q, r, s, shift_t, *derivatives)))
            skew[pd], _, skew_ok[pd] = _defect_measure(k + adjoint(k), k, tol)
            c_lo[pd], c_ok[pd], _ = _psd_measure(c, tol)
        return lo, pd, defect, skew, skew_ok, c_lo, c_ok, shift_t

    ts = (grid or GridSpec.for_set(cs)).points
    lo, pd, defect, skew, skew_ok, c_lo, c_ok, shift_t = _scan(ts, cs.n, block, values=values,
                                                                split=split)
    return ([_least("coefficient_pd", ts, lo, pd, defect),
             _largest(skew_name, "skew_defect", ts, skew, skew, skew_ok),
             _least(psd_name, ts, c_lo, c_ok)], shift_t)


def _skew_gauge(p, q, r, mu, pdot, qdot, rdot, mudot):
    """L0 = P^{-1}(Q* - R + mu I)/2 and its exact derivative, from the values
    of P, Q, R, mu and of their derivatives where P > 0.

    The derivative uses d(P^{-1})/dt = -P^{-1} P' P^{-1}, so no finite
    differences enter the source condition.
    """
    # scalar values get two trailing axes to scale the identity
    eye = np.eye(p.shape[-1])
    g = adjoint(q) - r + mu[..., None, None] * eye
    gdot = adjoint(qdot) - rdot + mudot[..., None, None] * eye
    lam0 = np.linalg.solve(p, g) / 2.0
    lam0dot = np.linalg.solve(p, gdot / 2.0 - pdot @ lam0)
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
    mu = cf._require_gauge(mu, cs.n, "mu")
    values = cf.stacked_evaluator((cs.P, cs.Q, cs.R, mu), (cs.P, cs.Q, cs.R, mu))

    def block(ts, p, *rest):
        lo, pd, _ = _psd_measure(p, tol, strict=True)
        if not pd.all():
            k = int(np.argmin(pd))
            raise NotPositiveDefiniteError(
                f"P({ts[k]}) is not positive definite (min eigenvalue "
                f"{lo[k]:.6e}); the skew gauge is undefined",
                min_eigenvalue=float(lo[k]))
        lam0, lam0dot = _skew_gauge(p, *rest)
        return (lam0, lam0dot, *_defect_measure(lam0 + adjoint(lam0), lam0, tol))

    vals, derivs, defect, _, ok = _scan(grid.points, cs.n, block, values=values)
    lam0_fn = cf.sampled(grid.points, vals, order=3, node_derivatives=derivs)
    return lam0_fn, _largest("gauge_skew", "skew_defect", grid.points, defect, defect, ok)


@np.errstate(**_OVERFLOW_QUIET)  # the initial clause's matrix is formed quietly too
def check_skew_gauge_criterion(cs: CoefficientSet, mu: CoefficientFunction | None,
                               y0, grid: GridSpec | None = None,
                               tol: float = DEFAULT_TOL) -> CriterionReport:
    """Criterion with the forced skew gauge (wire name ``cor3.1``)."""
    mu = cf._require_gauge(mu, cs.n, "mu")
    y0 = cf._require_matrix(y0, cs.n, "Y0")

    def frame(p, q, r, s, mu_t, *derivatives):
        lam0, lam0dot = _skew_gauge(p, q, r, mu_t, *derivatives)
        s_l = _shifted_source(p, q, r, s, lam0, lam0dot)
        return lam0, s_l + adjoint(s_l)

    conditions, mu_t = _frame_conditions(cs, mu, grid, tol, frame, "gauge_skew",
                                         "shifted_source_psd", derive=(cs.P, cs.Q, cs.R, mu))
    conditions.append(_initial_record("initial_psd", y0 + adjoint(y0), cs.t0, tol))
    return _report("cor3.1", conditions,
                   [GRID_NOTE, "skew gauge cancels in the bound: the certified statement is "
                    "Y(t) + Y*(t) >= 0", *_imaginary_shift_note(mu_t, tol, "mu")])


def _sqrt_frame(sp: np.ndarray, q, r, s, nu):
    """The frame term T and the condition matrix from sqrt(P) and the values
    of Q, R, S and nu (matrices or stacks of one length):

        T = (sqrt(P)^{-1} [Q* - R] sqrt(P) + nu I) / 2,
        C = sqrt(P)(S + S*)sqrt(P) + 2 T^2 + (conj(nu) - nu) T.
    """
    nu = np.asarray(nu)[..., None, None]
    t_term = (np.linalg.solve(sp, adjoint(q) - r) @ sp + nu * np.eye(sp.shape[-1])) / 2.0
    return t_term, sp @ (s + adjoint(s)) @ sp + 2.0 * (t_term @ t_term) \
        + (np.conj(nu) - nu) * t_term


def _sqrt_frame_at(cs: CoefficientSet, nu: CoefficientFunction | None, t: float, tol: float):
    p, q, r, s = (f.eval(t) for f in (cs.P, cs.Q, cs.R, cs.S))
    nu = cf._require_gauge(nu, cs.n, "nu")
    return _sqrt_frame(principal_sqrt(p, tol), q, r, s, nu.eval(t))


def sqrt_frame_skew_term(cs: CoefficientSet, nu: CoefficientFunction | None,
                         t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """T(t) = (sqrt(P)^{-1} [Q*(t) - R(t)] sqrt(P) + nu(t) I) / 2."""
    return _sqrt_frame_at(cs, nu, t, tol)[0]


def sqrt_frame_condition_matrix(cs: CoefficientSet, nu: CoefficientFunction | None,
                                t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """sqrt(P)(S + S*)sqrt(P) + 2 T^2 + (conj(nu) - nu) T at time t."""
    return _sqrt_frame_at(cs, nu, t, tol)[1]


@np.errstate(**_OVERFLOW_QUIET)  # the initial clause's matrix is formed quietly too
def check_sqrt_frame_criterion(cs: CoefficientSet, nu: CoefficientFunction | None,
                               y0, grid: GridSpec | None = None,
                               tol: float = DEFAULT_TOL) -> CriterionReport:
    """Criterion in the sqrt(P) frame (wire name ``cor3.2``).

    Passes when P(t) > 0, the frame term T is skew-Hermitian and the
    condition matrix is PSD at every grid point, and the initial clause
    holds: sqrt(P(t0))(Y0 + Y0*)sqrt(P(t0)) >= 0 where coefficient_pd
    passed on the whole grid, and Y0 + Y0* >= 0 otherwise.
    """
    grid = grid or GridSpec.for_set(cs)
    nu = cf._require_gauge(nu, cs.n, "nu")
    y0 = cf._require_matrix(y0, cs.n, "Y0")

    def frame(p, q, r, s, nu_t):
        return _sqrt_frame(_hermitian_sqrt(p, "cor3.2"), q, r, s, nu_t)

    # the frame takes the eigenvectors of P, so its scan runs in one thread
    conditions, nu_vals = _frame_conditions(cs, nu, grid, tol, frame, "sqrt_frame_skew",
                                            "sqrt_frame_psd", split=False)
    g0 = y0 + adjoint(y0)
    if conditions[0].passed:
        sp0 = _hermitian_sqrt(cs.P.eval(cs.t0), "cor3.2")
        g0 = sp0 @ g0 @ sp0
    conditions.append(_initial_record("initial_psd", g0, cs.t0, tol))

    notes = [GRID_NOTE,
             "certified bound is the congruence "
             "sqrt(P(t))(Y(t) + Y*(t))sqrt(P(t)) >= 0, equivalent to "
             "Y(t) + Y*(t) >= 0 while P(t) > 0", *_imaginary_shift_note(nu_vals, tol, "nu")]
    return _report("cor3.2", conditions, notes, extracted_nu=cf.sampled(
        grid.points, nu_vals, order=1, scalar=True) if np.isfinite(nu_vals).all() else None)


def sqrt_frame_factors(cs: CoefficientSet, t: float, tol: float = DEFAULT_TOL
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The unique factors F, L with F sqrt(P) = sqrt(P) Q - sqrt(P)' and
    sqrt(P) L = R sqrt(P) - sqrt(P)'.

    Explicitly F = [sqrt(P) Q - sqrt(P)'] sqrt(P)^{-1} and
    L = sqrt(P)^{-1} [R sqrt(P) - sqrt(P)'].
    """
    p = cs.P.eval(t)
    return _sqrt_frame_factors(principal_sqrt(p, tol), sqrt_derivative(p, cs.P.derivative(t), tol),
                               cs.Q.eval(t), cs.R.eval(t))


def _sqrt_frame_factors(sp: np.ndarray, spdot: np.ndarray, q: np.ndarray, r: np.ndarray):
    """F and L of ``sqrt_frame_factors`` from sqrt(P), sqrt(P)', Q and R."""
    f = np.linalg.solve(sp.T, (sp @ q - spdot).T).T
    return f, np.linalg.solve(sp, r @ sp - spdot)


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
    nu = cf._require_gauge(nu, cs.n, "nu")
    t = float(t)
    p, q, r, s = (f.eval(t) for f in (cs.P, cs.Q, cs.R, cs.S))
    sp = principal_sqrt(p, tol)
    spdot = sqrt_derivative(p, cs.P.derivative(t), tol)
    a = adjoint(q) - r
    adot = adjoint(cs.Q.derivative(t)) - cs.R.derivative(t)
    t_term = _sqrt_frame(sp, q, r, s, nu.eval(t))[0]
    tdot = (np.linalg.solve(sp, adot @ sp + a @ spdot - spdot @ np.linalg.solve(sp, a) @ sp)
            + nu.derivative(t) * np.eye(cs.n)) / 2.0
    f, l = _sqrt_frame_factors(sp, spdot, q, r)
    return tdot + t_term @ t_term + f @ t_term + t_term @ l - sp @ s @ sp


# ---------------------------------------------------------------------------
# Linear-comparison baseline (wire name theorem1.1)
# ---------------------------------------------------------------------------

def check_comparison_hypotheses(cs: CoefficientSet, y0, grid: GridSpec | None = None,
                                tol: float = DEFAULT_TOL) -> CriterionReport:
    """P >= 0, S >= 0, R = Q*, Y0 >= 0 (wire name ``theorem1.1``)."""
    y0 = cf._require_matrix(y0, cs.n, "Y0")

    def block(ts, p, q, r, s):
        p_psd, s_psd = _psd_measures(tol, p, s)
        return (*p_psd, *s_psd, *_defect_measure(r - adjoint(q), r, tol))

    ts = (grid or GridSpec.for_set(cs)).points
    p_lo, p_ok, p_def, s_lo, s_ok, s_def, resid, ratio, sym_ok = _scan(
        ts, cs.n, block, values=cf.stacked_evaluator((cs.P, cs.Q, cs.R, cs.S)))
    return _report("theorem1.1",
                   [_least("coefficient_psd", ts, p_lo, p_ok, p_def),
                    _least("source_psd", ts, s_lo, s_ok, s_def),
                    _largest("symmetric_pair", "residual", ts, ratio, resid, sym_ok),
                    _initial_record("initial_psd", y0, cs.t0, tol)],
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
