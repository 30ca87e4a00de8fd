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
* sampled        -- values on a strictly increasing grid of finite times, read
                    through one scipy piecewise polynomial (linear, natural
                    cubic spline, or cubic Hermite given node derivatives) and
                    its derivative.

A function's data (its value, its polynomial coefficients, or its
sampled values and node derivatives) is one complex128 stack, checked once
at construction by ``matrix_core``'s stack rule; an error names the first
bad value. Polynomial algebra (sum, product, derivative) lives here too,
on stacks of coefficients of shape (d+1, ...); the instance generator
builds its data with it.

``eval`` and ``derivative`` take a scalar time or a 1-D array of times;
an array of m times returns the stacked (m, n, n) matrices (or (m,)
scalars), each equal bit for bit to the scalar call. The gauge algebra
S_L, Q_L, R_L accepts both forms the same way. One Horner,
``_staggered_horner``, evaluates polynomials: each ``PolynomialFunction``
runs it over its own stacks, and ``stacked_evaluator`` over the grouped
stacks of several functions: it takes a 1-D array of times and gives one
list of values per time, each equal bit for bit to ``eval`` at that
time, with constants shared and read-only. The integrators evaluate
each step's stage times with it in one call.

scipy is imported only where sampled data need it: a cubic function
builds its spline at construction, so scipy's own refusals stay
construction errors, and a linear one builds its piecewise polynomial on
its first ``eval`` or ``derivative``. Importing the package, and using
constant or polynomial data, never loads scipy.

Values are immutable after construction and evaluation is pure, so
functions are safe to share across threads; a race on a linear function's
first evaluation only builds the same piecewise polynomial twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, DomainError, NotHermitianError
from .matrix_core import _as_stack, _defect_measure, _require_dim, adjoint, as_matrix

#: Highest degree of an input polynomial; products built with the algebra
#: below may exceed it.
MAX_DEGREE = 8


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
        return complex(value) if self.is_scalar and np.ndim(value) == 0 else value


class ConstantFunction(CoefficientFunction):
    """A fixed value; derivative is identically zero."""

    kind = "constant"

    def __init__(self, value, scalar: bool = False):
        self.value = _freeze(_as_stack([value], "constant value".format, scalar).squeeze(0))
        self.shape = self.value.shape

    def eval(self, t):
        return self._out(np.full(np.asarray(t).shape + self.shape, self.value))

    def derivative(self, t):
        return self._out(np.zeros(np.asarray(t).shape + self.shape, dtype=np.complex128))


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
    """t -> sum_k C_k (t - t_ref)^k, evaluated by Horner's scheme (``_staggered_horner``)."""

    kind = "polynomial"

    def __init__(self, coefficients, t_ref: float = 0.0, scalar: bool = False):
        coeffs = _as_stack(coefficients, "polynomial coefficient {}".format, scalar)
        if not len(coeffs):
            raise ValueError("polynomial needs at least one coefficient")
        if len(coeffs) - 1 > MAX_DEGREE:
            raise ValueError(f"polynomial degree {len(coeffs) - 1} exceeds cap {MAX_DEGREE}")
        self.coefficients = _freeze(coeffs)
        self.t_ref = float(t_ref)
        self.shape = coeffs.shape[1:]
        self._values = _staggered_horner([self.coefficients], self.t_ref)
        self._slopes = _staggered_horner([_poly_diff(self.coefficients)], self.t_ref)

    @property
    def degree(self) -> int:
        return self.coefficients.shape[0] - 1

    def eval(self, t):
        return self._out(self._values(t)[0])

    def derivative(self, t):
        return self._out(self._slopes(t)[0])


class SampledFunction(CoefficientFunction):
    """Values on a strictly increasing grid of finite times, read through one
    scipy piecewise polynomial: straight lines for ``order`` 1, the natural
    cubic spline for ``order`` 3, or the cubic Hermite spline through given
    ``node_derivatives`` (order 3 only). A cubic spline is built at
    construction; the lines are built on the first ``eval`` or
    ``derivative``. ``derivative`` is that interpolant's derivative; for
    order 1 at a node, the slope of the cell to its right (to its left at
    the last node).
    """

    kind = "sampled"

    def __init__(self, times, values, order: int = 3, scalar: bool = False,
                 node_derivatives=None):
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("sampled grid needs at least 2 time points")
        bad = np.flatnonzero(~np.isfinite(times))
        if bad.size:
            raise ValueError(f"sampled time {bad[0]} must be finite, got {float(times[bad[0]])!r}")
        if not np.all(np.diff(times) > 0):
            raise ValueError("sampled grid times must be strictly increasing")
        if order not in (1, 3):
            raise ValueError(f"interpolation order must be 1 or 3, got {order}")
        vals = _as_stack(values, "sampled value {}".format, scalar)
        if vals.shape[0] != times.size:
            raise DimensionError(
                f"sampled grid has {times.size} times but {vals.shape[0]} values")
        self.times = _freeze(times.copy())
        self.values = _freeze(vals)
        self.order = int(order)
        self.shape = vals.shape[1:]
        self.node_derivatives = nd = None
        if node_derivatives is not None:
            if self.order != 3:
                raise ValueError("node derivatives need order 3 (cubic Hermite)")
            nd = _as_stack(node_derivatives, "node derivative {}".format, scalar)
            if nd.shape != vals.shape:
                raise DimensionError("node_derivatives shape mismatch")
            self.node_derivatives = _freeze(nd)
        self._pps = None
        if self.order == 3:
            from scipy.interpolate import CubicHermiteSpline, CubicSpline

            pp = (CubicSpline(times, vals, axis=0, bc_type="natural") if nd is None
                  else CubicHermiteSpline(times, vals, nd, axis=0))
            self._pps = (pp, pp.derivative())

    def _interpolant(self) -> tuple:
        """The piecewise polynomial and its derivative; order 1 builds them here once.

        Its slopes are divided here, at first use, with numpy's warnings off:
        on subnormal spacings they overflow to inf or NaN without printing
        to stderr, and a caller that never evaluates the function (such as
        a gauge extracted by ``check``) never divides at all.
        """
        if self._pps is None:
            from scipy.interpolate import PPoly

            spacings = np.diff(self.times).reshape((-1,) + (1,) * len(self.shape))
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                slopes = np.diff(self.values, axis=0) / spacings
            pp = PPoly(np.stack([slopes, self.values[:-1]]), self.times)
            self._pps = (pp, pp.derivative())
        return self._pps

    def _clip_t(self, t):
        lo, hi = float(self.times[0]), float(self.times[-1])
        slack = 1e-9 * max(1.0, hi - lo)
        ts = np.asarray(t, dtype=np.float64)
        outside = ts[(ts < lo - slack) | (ts > hi + slack)]
        if outside.size:
            raise DomainError(f"t = {outside[0]} outside sampled domain [{lo}, {hi}]")
        return np.minimum(np.maximum(ts, lo), hi)

    def eval(self, t):
        return self._out(self._interpolant()[0](self._clip_t(t)))

    def derivative(self, t):
        return self._out(self._interpolant()[1](self._clip_t(t)))


def stacked_evaluator(functions):
    """A callable ``ts -> [[f(t) for f in functions] for t in ts]`` on a 1-D
    array of times: one list of values per time.

    Each value equals ``f.eval(t)`` at that scalar time bit for bit, at
    less cost per time:

    * a constant gives its stored read-only value at every time, shared
      and not copied;
    * polynomials of one shape that share ``t_ref`` are evaluated at all
      the times by one staggered Horner pass over their stacked
      coefficients: sorted by degree, each starts at its own leading
      coefficient and takes the same multiply-add steps as ``eval``. They
      are never zero-padded, since a padded step can flip the sign of a
      zero;
    * any other function (sampled or scalar-valued) goes through one call
      of its own ``eval`` on the array; a scalar-valued one gives Python
      complex numbers, as its scalar ``eval`` does.
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
            others.append((i, f.eval, f.is_scalar))
    horners = []
    for (t_ref, _), slots in groups.items():
        slots.sort(key=lambda i: -functions[i].degree)
        horners.append((_staggered_horner([functions[i].coefficients for i in slots], t_ref),
                        slots))

    def values(ts) -> list:
        out = [template.copy() for _ in range(len(ts))]
        for horner, slots in horners:
            for i, stack in zip(slots, horner(ts)):
                for row, value in zip(out, stack):
                    row[i] = value
        for i, f_eval, scalar in others:
            stack = f_eval(ts)
            for row, value in zip(out, stack.tolist() if scalar else stack):
                row[i] = value
        return out

    return values


def _staggered_horner(stacks, t_ref: float):
    """``t -> the stacked values at t`` of polynomials about ``t_ref`` given
    as coefficient stacks of one value shape, sorted by length, longest
    first. At a scalar t the result has shape (p,) + value shape; at a 1-D
    array of m times, (p, m) + value shape, each value equal bit for bit to
    the one at the scalar time."""
    # rows of one polynomial are views of its stack (no second copy); several are stacked
    leading = _freeze(stacks[0][-1:] if len(stacks) == 1 else np.stack([c[-1] for c in stacks]))
    # step k: the first `active` rows (degree > k) do acc = acc * dt + C_k;
    # the row of a poly of degree k holds its leading coefficient until then
    steps = []
    for k in range(len(stacks[0]) - 2, -1, -1):
        active = sum(len(c) - 1 > k for c in stacks)
        rows = stacks[0][k:k + 1] if active == 1 else np.stack([c[k] for c in stacks[:active]])
        steps.append((active, _freeze(rows)))
    # on a time grid each coefficient row spans the time axis after it
    grid_steps = [(active, coeffs[:, None]) for active, coeffs in steps]

    def horner(t) -> np.ndarray:
        # a float offset and no broadcasting keep a scalar call cheap
        if isinstance(t, float) or np.ndim(t) == 0:
            dt, acc, todo = float(t) - t_ref, leading.copy(), steps
        else:
            ts = np.asarray(t, dtype=np.float64)
            dt = (ts - t_ref).reshape(ts.shape + (1,) * (leading.ndim - 1))
            acc, todo = np.repeat(leading[:, None], ts.size, axis=1), grid_steps
        for active, coeffs in todo:
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


def _require_matrix(value, n: int, name: str) -> np.ndarray:
    """``value`` (an initial value such as Y0) as an n x n matrix by ``as_matrix``'s rule."""
    m = as_matrix(value, name)
    if m.shape[0] != n:
        raise DimensionError(f"{name} has dimension {m.shape[0]}, expected {n}")
    return m


def _require_interval(t0: float, t_end: float, name: str = "t_end - t0") -> None:
    """The rule for a time interval [t0, t_end]: t_end - t0 is finite and
    positive, so t0 < t_end and both are finite. The error starts with
    ``name``, the caller's name for that difference."""
    if not 0.0 < t_end - t0 < math.inf:
        raise ValueError(f"{name} must be a finite positive number, "
                         f"got t0 = {t0!r} and t_end = {t_end!r}")


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

    def __post_init__(self):
        _require_dim(self.n)
        _require_interval(self.t0, self.t_end)
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

    def end_slack(self) -> tuple[float, float]:
        """How far a computed or stored time may pass t0 and t_end: 1e-12 max(1, |t|)."""
        return tuple(1e-12 * max(1.0, abs(t)) for t in (self.t0, self.t_end))


def _shifted_source(p, q, r, s, lam_t: np.ndarray, lam_dot: np.ndarray) -> np.ndarray:
    """S - L' - L P L - Q L - L R from values of P, Q, R, S, L and L'."""
    return s - lam_dot - lam_t @ p @ lam_t - q @ lam_t - lam_t @ r


def eval_S_lambda(cs: CoefficientSet, lam: CoefficientFunction, t) -> np.ndarray:
    """S(t) - L'(t) - L(t)P(t)L(t) - Q(t)L(t) - L(t)R(t) for the gauge L."""
    _require_matrix_function(lam, cs.n, "lambda")
    return _shifted_source(*(f.eval(t) for f in (cs.P, cs.Q, cs.R, cs.S, lam)), lam.derivative(t))


def eval_Q_lambda(cs: CoefficientSet, lam: CoefficientFunction, t) -> np.ndarray:
    """Q(t) + L(t)P(t)."""
    _require_matrix_function(lam, cs.n, "lambda")
    return cs.Q.eval(t) + lam.eval(t) @ cs.P.eval(t)


def eval_R_lambda(cs: CoefficientSet, lam: CoefficientFunction, t) -> np.ndarray:
    """R(t) + P(t)L(t)."""
    _require_matrix_function(lam, cs.n, "lambda")
    return cs.R.eval(t) + cs.P.eval(t) @ lam.eval(t)
