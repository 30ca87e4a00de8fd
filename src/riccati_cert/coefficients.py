"""Time-varying coefficient data.

The quadratic matrix equation

    Y' + Y P(t) Y + Q(t) Y + Y R(t) - S(t) = 0

is specified through four matrix-valued functions of time plus an
optional matrix gauge L(t) and scalar gauges mu(t), nu(t). Three
representations are supported, each with the exact derivative of the
function it evaluates:

* constant       -- a single value, derivative identically zero;
* polynomial     -- matrix (or scalar) coefficients of t -> sum C_k (t - t_ref)^k,
                    degree <= 8, term-by-term derivative;
* sampled        -- values on a strictly increasing grid, read through one
                    piecewise polynomial (linear, natural cubic spline, or
                    cubic Hermite given node derivatives) and its derivative.

Polynomial algebra (sum, product, derivative) lives here too, on stacks
of coefficients of shape (d+1, ...); the instance generator builds its
data with it.

``eval`` and ``derivative`` take a scalar time or a 1-D array of times;
an array of m times returns the stacked (m, n, n) matrices (or (m,)
scalars), each equal bit for bit to the scalar call. The gauge algebra
S_L, Q_L, R_L accepts both forms the same way. ``stacked_evaluator``
gives several functions' values at one scalar time in one call, equal
bit for bit to ``eval``; the integrators' right-hand sides use it.

Values are immutable after construction and evaluation is pure, so
functions are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicHermiteSpline, CubicSpline, PPoly

from .exceptions import DimensionError, DomainError, NotHermitianError
from .matrix_core import MAX_DIM, _defect_measure, adjoint, as_matrix

#: Highest degree of an input polynomial; products built with the algebra
#: below may exceed it.
MAX_DEGREE = 8


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_value(value, scalar: bool, name: str):
    """Normalize one stored value: () for scalar kind, (n, n) otherwise."""
    if scalar:
        v = np.asarray(value, dtype=np.complex128)
        if v.ndim != 0:
            raise DimensionError(f"{name}: expected a scalar value, got shape {v.shape}")
        if not np.isfinite(v.real) or not np.isfinite(v.imag):
            raise ValueError(f"{name}: non-finite scalar value")
        return v.reshape(())
    return as_matrix(value, name)


def _times(t):
    """None for a scalar time t, else t as a 1-D float64 array."""
    if isinstance(t, (float, int)) or np.ndim(t) == 0:
        return None
    return np.asarray(t, dtype=np.float64)


class CoefficientFunction:
    """Common interface: ``eval(t)``, ``derivative(t)``, ``shape``, ``kind``."""

    #: () for scalar-valued functions, (n, n) for matrix-valued ones.
    shape: tuple

    @property
    def is_scalar(self) -> bool:
        return self.shape == ()

    @property
    def dim(self) -> int | None:
        """Matrix dimension n, or None for scalar-valued functions."""
        return None if self.is_scalar else self.shape[0]

    def eval(self, t: float):
        raise NotImplementedError

    def derivative(self, t: float):
        raise NotImplementedError

    def _out(self, value: np.ndarray):
        if self.is_scalar and np.ndim(value) == 0:
            return complex(value)
        return np.asarray(value, dtype=np.complex128)


class ConstantFunction(CoefficientFunction):
    """A fixed value; derivative is identically zero."""

    kind = "constant"

    def __init__(self, value, scalar: bool = False):
        self.value = _freeze(np.array(_as_value(value, scalar, "constant value")))
        self.shape = self.value.shape

    def eval(self, t):
        ts = _times(t)
        if ts is not None:
            return self._out(np.broadcast_to(self.value, ts.shape + self.shape).copy())
        return self._out(self.value.copy())

    def derivative(self, t):
        return self._out(np.zeros_like(self.eval(t)))


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of two polynomials given as coefficient stacks of one value shape.

    The shorter stack is padded with zeros that are added, as in a sum
    term by term, so a -0.0 part beyond its end comes back as 0.0.
    """
    m = max(len(a), len(b))
    a, b = (np.concatenate([c, np.zeros((m - len(c),) + c.shape[1:], c.dtype)]) for c in (a, b))
    return a + b


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two matrix polynomials, stacks of shape (d+1, n, n).

    Coefficient j + k accumulates a_j @ b_k in increasing j, starting from
    zero; the degree may exceed ``MAX_DEGREE``.
    """
    out = np.zeros((len(a) + len(b) - 1, a.shape[1], b.shape[2]), dtype=np.result_type(a, b))
    for j, c in enumerate(a):
        out[j:j + len(b)] += c @ b
    return out


def _poly_diff(a: np.ndarray) -> np.ndarray:
    """Term-by-term derivative of a coefficient stack; that of a constant is
    one zero coefficient."""
    if len(a) == 1:
        return np.zeros_like(a)
    return a[1:] * np.arange(1.0, len(a)).reshape((-1,) + (1,) * (a.ndim - 1))


class PolynomialFunction(CoefficientFunction):
    """t -> sum_k C_k (t - t_ref)^k, evaluated by Horner's scheme."""

    kind = "polynomial"

    def __init__(self, coefficients, t_ref: float = 0.0, scalar: bool = False):
        coeffs = [_as_value(c, scalar, f"polynomial coefficient {k}")
                  for k, c in enumerate(coefficients)]
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if len(coeffs) - 1 > MAX_DEGREE:
            raise ValueError(f"polynomial degree {len(coeffs) - 1} exceeds cap {MAX_DEGREE}")
        shape = coeffs[0].shape
        for k, c in enumerate(coeffs):
            if c.shape != shape:
                raise DimensionError(f"polynomial coefficient {k} has shape {c.shape}, expected {shape}")
        self.coefficients = _freeze(np.stack(coeffs))
        self.t_ref = float(t_ref)
        self.shape = shape
        self._deriv_coefficients = _freeze(_poly_diff(self.coefficients))

    @property
    def degree(self) -> int:
        return self.coefficients.shape[0] - 1

    def _horner(self, coeffs: np.ndarray, t) -> np.ndarray:
        ts = _times(t)
        if ts is None:
            dt, acc = float(t) - self.t_ref, coeffs[-1].copy()
        else:
            # an (m, 1, 1) column of offsets scales the whole stack per step
            dt = (ts - self.t_ref).reshape(ts.shape + (1,) * len(self.shape))
            acc = np.broadcast_to(coeffs[-1], ts.shape + self.shape).copy()
        for k in range(coeffs.shape[0] - 2, -1, -1):
            acc = acc * dt + coeffs[k]
        return acc

    def eval(self, t):
        return self._out(self._horner(self.coefficients, t))

    def derivative(self, t):
        return self._out(self._horner(self._deriv_coefficients, t))


class SampledFunction(CoefficientFunction):
    """Values on a strictly increasing time grid, read through one scipy
    piecewise polynomial built at construction: straight lines for
    ``order`` 1, the natural cubic spline for ``order`` 3, or the cubic
    Hermite spline through given ``node_derivatives`` (order 3 only).
    ``derivative`` is that interpolant's derivative; for order 1 at a node,
    the slope of the cell to its right (to its left at the last node).
    """

    kind = "sampled"

    def __init__(self, times, values, order: int = 3, scalar: bool = False,
                 node_derivatives=None):
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("sampled grid needs at least 2 time points")
        if not np.all(np.diff(times) > 0):
            raise ValueError("sampled grid times must be strictly increasing")
        if order not in (1, 3):
            raise ValueError(f"interpolation order must be 1 or 3, got {order}")
        vals = np.stack([_as_value(v, scalar, f"sampled value {k}")
                         for k, v in enumerate(values)])
        if vals.shape[0] != times.size:
            raise DimensionError(
                f"sampled grid has {times.size} times but {vals.shape[0]} values")
        self.times = _freeze(times.copy())
        self.values = _freeze(vals)
        self.order = int(order)
        self.shape = vals.shape[1:]
        self.node_derivatives = None
        if node_derivatives is not None:
            if self.order != 3:
                raise ValueError("node derivatives need order 3 (cubic Hermite)")
            nd = np.stack([_as_value(v, scalar, f"node derivative {k}")
                           for k, v in enumerate(node_derivatives)])
            if nd.shape != vals.shape:
                raise DimensionError("node_derivatives shape mismatch")
            self.node_derivatives = _freeze(nd)
            pp = CubicHermiteSpline(times, vals, nd, axis=0)
        elif self.order == 3:
            pp = CubicSpline(times, vals, axis=0, bc_type="natural")
        else:
            slopes = np.diff(vals, axis=0) / np.diff(times).reshape((-1,) + (1,) * len(self.shape))
            pp = PPoly(np.stack([slopes, vals[:-1]]), times)
        self._pp, self._dpp = pp, pp.derivative()

    def _clip_t(self, t):
        lo, hi = float(self.times[0]), float(self.times[-1])
        slack = 1e-9 * max(1.0, hi - lo)
        ts = _times(t)
        if ts is None:
            t = float(t)
            outside = [t] if t < lo - slack or t > hi + slack else []
        else:
            outside = ts[(ts < lo - slack) | (ts > hi + slack)]
        if len(outside):
            raise DomainError(f"t = {outside[0]} outside sampled domain [{lo}, {hi}]")
        return min(max(t, lo), hi) if ts is None else np.clip(ts, lo, hi)

    def eval(self, t):
        return self._out(self._pp(self._clip_t(t)))

    def derivative(self, t):
        return self._out(self._dpp(self._clip_t(t)))


def stacked_evaluator(functions):
    """A callable ``t -> [f(t) for f in functions]`` at a scalar time t.

    Each value equals ``f.eval(t)`` bit for bit, at less cost per call:

    * a constant returns its stored read-only value, not a copy;
    * polynomials of one shape that share ``t_ref`` are evaluated by one
      staggered Horner pass over their stacked coefficients: sorted by
      degree, each starts at its own leading coefficient and takes the
      same multiply-add steps as ``eval``. They are never zero-padded,
      since a padded step can flip the sign of a zero;
    * any other function (sampled or scalar-valued) goes through its own
      ``eval``.
    """
    template: list = [None] * len(functions)
    groups: dict = {}
    others: list = []
    for i, f in enumerate(functions):
        kind = None if f.is_scalar else f.kind
        if kind == "constant":
            template[i] = f.value
        elif kind == "polynomial":
            groups.setdefault((f.t_ref, f.shape), []).append(i)
        else:
            others.append((i, f.eval))
    horners = []
    for (t_ref, _), slots in groups.items():
        slots.sort(key=lambda i: -functions[i].degree)
        horners.append((_staggered_horner([functions[i] for i in slots], t_ref), slots))

    def values(t) -> list:
        out = template.copy()
        for horner, slots in horners:
            for i, value in zip(slots, horner(t)):
                out[i] = value
        for i, f_eval in others:
            out[i] = f_eval(t)
        return out

    return values


def _staggered_horner(polys, t_ref: float):
    """``t -> the stacked values of polys at t``, for polys of one shape
    and ``t_ref`` sorted by degree, highest first."""
    top = polys[0].degree
    leading = _freeze(np.stack([p.coefficients[-1] for p in polys]))
    # step k: the first `active` rows (degree > k) do acc = acc * dt + C_k;
    # the row of a poly of degree k holds its leading coefficient until then
    steps = []
    for k in range(top - 1, -1, -1):
        active = sum(p.degree > k for p in polys)
        steps.append((active, _freeze(np.stack([p.coefficients[k] for p in polys[:active]]))))

    def horner(t) -> np.ndarray:
        dt = float(t) - t_ref
        acc = leading.copy()
        for active, coeffs in steps:
            head = acc[:active]
            head *= dt
            head += coeffs
        return acc

    return horner


def constant(value, scalar: bool = False) -> ConstantFunction:
    return ConstantFunction(value, scalar=scalar)


def polynomial(coefficients, t_ref: float = 0.0, scalar: bool = False) -> PolynomialFunction:
    return PolynomialFunction(coefficients, t_ref=t_ref, scalar=scalar)


def sampled(times, values, order: int = 3, scalar: bool = False,
            node_derivatives=None) -> SampledFunction:
    return SampledFunction(times, values, order=order, scalar=scalar,
                           node_derivatives=node_derivatives)


def zero_matrix_function(n: int) -> ConstantFunction:
    return ConstantFunction(np.zeros((n, n)), scalar=False)


def zero_scalar_function() -> ConstantFunction:
    return ConstantFunction(0.0, scalar=True)


def _require_matrix_function(f: CoefficientFunction, n: int, name: str) -> None:
    if f.is_scalar:
        raise DimensionError(f"{name} must be matrix-valued")
    if f.dim != n:
        raise DimensionError(f"{name} has dimension {f.dim}, expected {n}")


@dataclass(frozen=True)
class CoefficientSet:
    """The data (P, Q, R, S) of the quadratic equation on [t0, t_end].

    P must be Hermitian-valued; this is probed at construction on a few
    points and enforced pointwise by every grid check that evaluates P.
    """

    n: int
    t0: float
    t_end: float
    P: CoefficientFunction
    Q: CoefficientFunction
    R: CoefficientFunction
    S: CoefficientFunction
    notes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise DimensionError(f"dimension n = {self.n} outside supported range 1..{MAX_DIM}")
        if not self.t0 < self.t_end:
            raise ValueError(f"need t0 < t_end, got [{self.t0}, {self.t_end}]")
        for name in ("P", "Q", "R", "S"):
            _require_matrix_function(getattr(self, name), self.n, name)
        ts = np.array([self.t0, 0.5 * (self.t0 + self.t_end), self.t_end])
        p = self.P.eval(ts)
        hermitian = _defect_measure(p - adjoint(p), p, 1e-8)[2]
        if not hermitian.all():
            raise NotHermitianError(f"P({ts[np.argmin(hermitian)]}) is not Hermitian")

    @property
    def span(self) -> float:
        return self.t_end - self.t0


def _shifted_source(cs: CoefficientSet, t, lam_t: np.ndarray, lam_dot: np.ndarray) -> np.ndarray:
    """S - L' - L P L - Q L - L R from the gauge's values and derivative at t."""
    return (cs.S.eval(t) - lam_dot - lam_t @ cs.P.eval(t) @ lam_t
            - cs.Q.eval(t) @ lam_t - lam_t @ cs.R.eval(t))


def eval_S_lambda(cs: CoefficientSet, lam: CoefficientFunction, t) -> np.ndarray:
    """S(t) - L'(t) - L(t)P(t)L(t) - Q(t)L(t) - L(t)R(t) for the gauge L."""
    _require_matrix_function(lam, cs.n, "lambda")
    return _shifted_source(cs, t, lam.eval(t), lam.derivative(t))


def eval_Q_lambda(cs: CoefficientSet, lam: CoefficientFunction, t) -> np.ndarray:
    """Q(t) + L(t)P(t)."""
    _require_matrix_function(lam, cs.n, "lambda")
    return cs.Q.eval(t) + lam.eval(t) @ cs.P.eval(t)


def eval_R_lambda(cs: CoefficientSet, lam: CoefficientFunction, t) -> np.ndarray:
    """R(t) + P(t)L(t)."""
    _require_matrix_function(lam, cs.n, "lambda")
    return cs.R.eval(t) + cs.P.eval(t) @ lam.eval(t)
