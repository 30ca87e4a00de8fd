"""Time-varying coefficient data.

The quadratic matrix equation

    Y' + Y P(t) Y + Q(t) Y + Y R(t) - S(t) = 0

is specified through four matrix-valued functions of time plus an
optional matrix gauge L(t) and scalar gauges mu(t), nu(t). One gauge rule,
``_require_gauge`` over the table ``GAUGES``, gives every gauge its zero
default and refuses, by name, a lambda that is not an n x n matrix function
or a mu or nu that is not scalar-valued. Three
representations are supported, each with the exact derivative of the
function it evaluates:

* constant       -- a single value, derivative identically zero;
* polynomial     -- matrix (or scalar) coefficients of t -> sum C_k (t - t_ref)^k,
                    degree <= 8, term-by-term derivative;
* sampled        -- values on a strictly increasing grid of finite times, read
                    through piecewise-polynomial cells built at construction
                    (linear, natural cubic spline, or cubic Hermite given node
                    derivatives), each a power-form polynomial about its left
                    node, and the cells of their derivative.

A function's data (its value, its polynomial coefficients, or its
sampled values and node derivatives) is one complex128 stack, checked once
at construction by ``matrix_core``'s stack rule; an error names the first
bad value. Polynomial algebra (sum, product, derivative) lives here too,
on stacks of coefficients of shape (d+1, ...); the instance generator
builds its data with it.

``eval`` and ``derivative`` take a scalar time or a 1-D array of times;
an array of m times returns the stacked (m, n, n) matrices (or (m,)
scalars), each equal bit for bit to the scalar call. One Horner,
``_staggered_horner``, evaluates polynomials, and one power sum,
``_cell_sum``, evaluates sampled cells; each function runs them over its
own stacks, and ``stacked_evaluator`` over the grouped stacks of several
functions and derivatives: built once, it takes a 1-D array of times and
gives one stack per function and per requested derivative, each equal bit
for bit to ``eval`` or ``derivative`` on the array, constants as read-only
views of their values. Every grid caller (the criteria blocks, the
monitors, the residual and each RK step) evaluates its coefficients with
it, one call per block or step.

A sampled function's cells follow scipy's interpolators operation for
operation (``PPoly``, ``CubicSpline`` with natural ends, whose tridiagonal
system ``_gtsv`` solves as LAPACK ``zgtsv`` does, and
``CubicHermiteSpline``), and ``_cell_sum`` follows scipy's piecewise
polynomial evaluation, so values and derivatives equal scipy's bit for bit
without importing it. The package never loads scipy.

Values are immutable after construction and evaluation is pure, so
functions are safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, DomainError, NotHermitianError
from .matrix_core import (HERMITIAN_PROBE_TOL, _OVERFLOW_QUIET, _as_stack, _defect_measure,
                          _require_dim, adjoint, as_matrix)

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
        if not math.isfinite(self.t_ref):
            raise ValueError(f"polynomial t_ref must be finite, got {self.t_ref!r}")
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
    """Values on a strictly increasing grid of finite times, read through
    piecewise-polynomial cells: straight lines for ``order`` 1, the natural
    cubic spline for ``order`` 3, or the cubic Hermite spline through given
    ``node_derivatives`` (order 3 only).

    ``cells`` is one complex128 stack of shape (order + 1, len(times) - 1)
    + value shape: ``cells[:, i]`` holds the power-form coefficients, highest
    power first, of the polynomial in t - times[i] on [times[i], times[i+1]].
    They are built at construction by scipy's own formulas, operation for
    operation (``PPoly``, ``CubicSpline`` with ``bc_type="natural"`` and
    ``CubicHermiteSpline``), so every value and derivative equals scipy's bit
    for bit, non-finite results included. ``derivative`` evaluates
    ``slope_cells``, the cells of the derivative: the coefficients times
    (order, ..., 1). For order 1 at a node it is the slope of the cell to its
    right (to its left at the last node).
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
        _require_order(order)
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
        # tiny or huge spacings overflow to inf or NaN here, as in scipy, but
        # without printing numpy warnings to stderr; every divisor is a positive
        # spacing or a pivot that _gtsv has checked is non-zero
        with np.errstate(**_OVERFLOW_QUIET):
            if self.order == 1:
                cells = _linear_cells(self.times, vals)
            else:
                cells = _hermite_cells(self.times, vals, _natural_slopes(self.times, vals)
                                       if nd is None else nd)
            factors = np.arange(self.order, 0, -1.0).reshape((-1,) + (1,) * (cells.ndim - 1))
            slopes = cells[:-1] * factors
        self.cells = _freeze(cells)
        self.slope_cells = _freeze(slopes)
        lo, hi = float(times[0]), float(times[-1])
        slack = 1e-9 * max(1.0, hi - lo)
        self._domain = (lo, hi, lo - slack, hi + slack)
        self._values = _cell_sum(self.cells, self.times)
        self._slopes = _cell_sum(self.slope_cells, self.times)

    def _clip_t(self, t):
        """``t`` (a time or an array of times) clipped into the grid; a time
        more than 1e-9 max(1, span) outside it raises ``DomainError``."""
        lo, hi, below, above = self._domain
        ts = np.asarray(t, dtype=np.float64)
        outside = (ts < below) | (ts > above)
        if outside.any():
            raise DomainError(f"t = {ts[outside][0]} outside sampled domain [{lo}, {hi}]")
        return np.minimum(np.maximum(ts, lo), hi)

    def eval(self, t):
        return self._out(self._values(self._clip_t(t)))

    def derivative(self, t):
        return self._out(self._slopes(self._clip_t(t)))


def _linear_cells(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Order-1 cells: each cell's slope over its left value."""
    spacings = np.diff(times).reshape((-1,) + (1,) * (values.ndim - 1))
    return np.stack([np.diff(values, axis=0) / spacings, values[:-1]])


def _hermite_cells(times: np.ndarray, values: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Cubic cells through ``values`` with the node ``slopes``: the formula
    of scipy's ``CubicHermiteSpline``, operation for operation."""
    dxr = np.diff(times).reshape((-1,) + (1,) * (values.ndim - 1))
    slope = np.diff(values, axis=0) / dxr
    t = (slopes[:-1] + slopes[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - slopes[:-1]) / dxr - t, slopes[:-1], values[:-1]))


def _natural_slopes(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Node slopes of the natural cubic spline: the tridiagonal system of
    scipy's ``CubicSpline(..., bc_type="natural")``, row for row, solved by
    ``_gtsv``. Non-finite slopes are refused, as scipy refuses them."""
    dx = np.diff(times)
    dxr = dx.reshape((-1,) + (1,) * (values.ndim - 1))
    slope = np.diff(values, axis=0) / dxr
    zero = np.zeros(values.shape[1:])        # the natural end condition y'' = 0
    b = np.empty(values.shape, dtype=values.dtype)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    b[0] = -0.5 * zero * dx[0] ** 2 + 3 * (values[1] - values[0])
    b[-1] = 0.5 * zero * dx[-1] ** 2 + 3 * (values[-1] - values[-2])
    diag = np.concatenate([2 * dx[:1], 2 * (dx[:-1] + dx[1:]), 2 * dx[-1:]])
    slopes = _gtsv(np.concatenate([dx[1:], dx[-1:]]), diag, np.concatenate([dx[:1], dx[:-1]]),
                   b.reshape(len(b), -1)).reshape(values.shape)
    if not np.isfinite(slopes).all():
        raise ValueError("natural cubic spline: the node slopes are not finite")
    return slopes


def _gtsv(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the real tridiagonal system (``lower``, ``diag``, ``upper``) for
    the complex right-hand sides ``b`` of shape (n, k) as LAPACK ``zgtsv``
    does: Gaussian elimination with partial pivoting, then back substitution.

    Every complex value is a (real, imaginary) pair: a matrix entry as two
    floats, a right-hand-side row as one (2, k) float array. Every complex
    operation is the real arithmetic gfortran compiles ``zgtsv``'s to
    (``_mul`` and ``_div`` on entries, ``_times`` and ``_over`` on rows), so
    signed zeros and non-finite values come out as LAPACK's do.

    The matrix is real, so every pivot's imaginary part is a signed zero, or
    NaN after an overflow: ``_div`` and ``_over`` need only the branch of
    Smith's algorithm for |re| >= |im|, the one such a divisor takes.
    """
    n, zero = len(diag), np.float64(0.0)
    dl, d, du = ([(v, zero) for v in row] for row in (lower, diag, upper))
    rows = list(np.stack([b.real, b.imag], axis=1))
    for k in range(n - 1):
        if _is_zero(dl[k]):
            if _is_zero(d[k]):
                raise np.linalg.LinAlgError("singular matrix")
        elif abs(d[k][0]) + abs(d[k][1]) >= abs(dl[k][0]) + abs(dl[k][1]):
            mult = _div(dl[k], d[k])
            d[k + 1] = _sub(d[k + 1], _mul(mult, du[k]))
            rows[k + 1] = rows[k + 1] - _times(mult, rows[k])
            if k < n - 2:
                dl[k] = (zero, zero)
        else:
            # interchange rows k and k + 1
            mult = _div(d[k], dl[k])
            d[k], temp = dl[k], d[k + 1]
            d[k + 1] = _sub(du[k], _mul(mult, temp))
            if k < n - 2:
                dl[k] = du[k + 1]
                du[k + 1] = _neg(_mul(mult, dl[k]))
            du[k] = temp
            rows[k], rows[k + 1] = rows[k + 1], rows[k] - _times(mult, rows[k + 1])
    if _is_zero(d[-1]):
        raise np.linalg.LinAlgError("singular matrix")
    rows[-1] = _over(rows[-1], d[-1])
    rows[-2] = _over(rows[-2] - _times(du[-1], rows[-1]), d[-2])
    for k in range(n - 3, -1, -1):
        rows[k] = _over(rows[k] - _times(du[k], rows[k + 1]) - _times(dl[k], rows[k + 2]), d[k])
    parts = np.stack(rows)
    x = np.empty(b.shape, dtype=np.complex128)
    x.real, x.imag = parts[:, 0], parts[:, 1]
    return x


def _times(a, row: np.ndarray) -> np.ndarray:
    """``_mul(a, row)`` for a (2, k) array ``row`` of (real, imaginary) parts:
    a[0] row + a[1] (i row), where i row = (-imaginary, real), each part one
    operation on the whole row."""
    return row * a[0] + row[::-1] * np.array([[-a[1]], [a[1]]])


def _over(row: np.ndarray, b) -> np.ndarray:
    """``_div(row, b)`` for a (2, k) array ``row``: Smith's algorithm as the
    product by (1, -ratio), exact in its factor of one, over the real divisor."""
    ratio = b[1] / b[0]
    return _times((1.0, -ratio), row) / (b[1] * ratio + b[0])


def _is_zero(a) -> bool:
    return a[0] == 0 and a[1] == 0


def _neg(a):
    return -a[0], -a[1]


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _mul(a, b):
    """Complex product of two (real, imaginary) pairs, term by term."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _div(a, b):
    """Complex quotient of two (real, imaginary) pairs by Smith's algorithm,
    in the form gfortran expands a complex division to, for a divisor whose
    imaginary part is a signed zero or NaN (``_gtsv``'s pivots)."""
    ratio = b[1] / b[0]
    div = b[1] * ratio + b[0]
    return (a[1] * ratio + a[0]) / div, (a[1] - a[0] * ratio) / div


def _cell_sum(cells: np.ndarray, times: np.ndarray):
    """``t -> the values at t`` of the piecewise polynomial whose cells are
    ``cells`` (highest power first) about the nodes ``times``, for times
    already in [times[0], times[-1]]; a scalar t gives cells.shape[2:], a
    1-D array of m times (m,) + cells.shape[2:]. Several functions on one
    grid are one stack whose axis 2 is the function.

    It follows scipy's ``_ppoly.evaluate`` exactly: the cell is the one whose
    left node is the last node <= t, the last cell closed; s = t - times[i];
    the sum starts from the constant term on a +0.0 start, each term c_k s^k
    is a complex product times a complex 1.0, and s^k is formed by repeated
    complex multiplication. So values and non-finite results equal scipy's
    bit for bit, and numpy prints no warning where scipy's loop prints none.
    """
    # the cell of t is the number of inner nodes <= t
    inner = times[1:-1]
    # the constant term's contribution does not depend on t
    head = _freeze(0.0 + cells[-1] * 1.0 * 1.0)
    powers = cells[-2::-1]
    one = np.complex128(1.0)

    def values(t) -> np.ndarray:
        ts = np.asarray(t, dtype=np.float64)
        flat = ts.reshape(-1)
        i = np.searchsorted(inner, flat, side="right")
        s = (flat - times.take(i)).reshape((-1,) + (1,) * (cells.ndim - 2))
        # take copies whole cells, faster than fancy indexing
        acc, z = head.take(i, axis=0), one
        # overflow gives inf or NaN as in scipy, without numpy warnings
        with np.errstate(**_OVERFLOW_QUIET):
            for c in powers:
                z = z * s
                term = c.take(i, axis=0)
                term *= z
                term *= 1.0
                acc += term
        return acc.reshape(ts.shape + acc.shape[1:])

    return values


def stacked_evaluator(functions, derivatives=()):
    """A callable ``ts -> [f.eval(ts) for f in functions] + [f.derivative(ts)
    for f in derivatives]`` on a 1-D array of times: one stack per function,
    then one per requested derivative, each equal bit for bit to that call.
    Built once, it runs the grouped work in ``evaluate_passes``:

    * polynomials of one shape that share ``t_ref``, derivatives included,
      go through one staggered Horner pass over their coefficient stacks:
      sorted by degree, each starts at its own leading coefficient and takes
      the same multiply-add steps as ``eval``. They are never zero-padded,
      since a padded step can flip the sign of a zero;
    * sampled functions of one shape and order on one grid go through one
      domain clip and one ``_cell_sum`` over their stacked ``cells`` (their
      derivatives, over their ``slope_cells``);
    * constants give read-only stride-0 views of their stored values (of zero
      for a derivative), broadcast over the times;
    * a function of another kind goes through its own ``eval`` or ``derivative``.

    Its ``constant`` attribute says whether every function is a constant:
    then its stacks depend on the number of times only.
    """
    requests = [(f, False) for f in functions] + [(f, True) for f in derivatives]
    groups: dict = {}
    for i, (f, slope) in enumerate(requests):
        if f.kind == "polynomial":
            key = (f.kind, f.shape, f.t_ref)
            stack = _poly_diff(f.coefficients) if slope else f.coefficients
        elif f.kind == "sampled":
            key = (f.kind, f.shape, f.order, slope, f.times.tobytes())
            stack = f.slope_cells if slope else f.cells
        elif f.kind == "constant":
            key, stack = (f.kind,), _freeze(np.zeros_like(f.value)) if slope else f.value
        else:
            key, stack = i, None
        groups.setdefault(key, []).append((i, stack))
    passes = []
    for members in groups.values():
        f, slope = requests[members[0][0]]
        if f.kind == "polynomial":
            members.sort(key=lambda member: -len(member[1]))
            run = _staggered_horner([c for _, c in members], f.t_ref)
        elif f.kind == "sampled":
            cell_sum = _cell_sum(np.stack([c for _, c in members], axis=2), f.times)
            run = lambda ts, cell_sum=cell_sum, clip=f._clip_t: cell_sum(clip(ts)).swapaxes(0, 1)
        elif f.kind == "constant":
            run = lambda ts, values=[c for _, c in members]: [
                np.broadcast_to(v, ts.shape + v.shape) for v in values]
        else:
            run = lambda ts, g=f.derivative if slope else f.eval: (g(ts),)
        passes.append((run, [i for i, _ in members]))
    evaluate = lambda ts: evaluate_passes(passes, len(requests), ts)
    evaluate.constant = all(f.kind == "constant" for f, _ in requests)
    return evaluate


def evaluate_passes(passes, count: int, ts: np.ndarray) -> list:
    """The ``count`` stacks at the times ``ts`` of a ``stacked_evaluator``'s ``passes``, called
    by its global name so that perfbench's tracer counts it in the coefficients layer."""
    out = [None] * count
    for run, slots in passes:
        for i, stack in zip(slots, run(ts)):
            out[i] = stack
    return out


def _staggered_horner(stacks, t_ref: float):
    """``t -> the stacked values at t`` of polynomials about ``t_ref`` given
    as coefficient stacks of one value shape, sorted by length, longest
    first. The result has shape (p,) + the shape of t + value shape, and a
    scalar t is evaluated as an array of one time."""
    leading = _freeze(np.stack([c[-1] for c in stacks]))
    # step k: the first `active` rows (degree > k) do acc = acc * dt + C_k;
    # the row of a poly of degree k holds its leading coefficient until then
    steps = []
    for k in range(len(stacks[0]) - 2, -1, -1):
        active = sum(len(c) - 1 > k for c in stacks)
        rows = np.stack([c[k] for c in stacks[:active]])
        # each coefficient row spans the time axis after it
        steps.append((active, _freeze(rows[:, None])))

    def horner(t) -> np.ndarray:
        ts = np.asarray(t, dtype=np.float64).reshape(-1)
        dt = (ts - t_ref).reshape(ts.shape + (1,) * (leading.ndim - 1))
        acc = np.repeat(leading[:, None], ts.size, axis=1)
        for active, coeffs in steps:
            head = acc[:active]
            head *= dt
            head += coeffs
        return acc.reshape(leading.shape[:1] + np.shape(t) + leading.shape[1:])

    return horner


def constant(value, scalar: bool = False) -> ConstantFunction:
    return ConstantFunction(value, scalar=scalar)


def polynomial(coefficients, t_ref: float = 0.0, scalar: bool = False) -> PolynomialFunction:
    return PolynomialFunction(coefficients, t_ref=t_ref, scalar=scalar)


def sampled(times, values, order: int = 3, scalar: bool = False,
            node_derivatives=None) -> SampledFunction:
    return SampledFunction(times, values, order=order, scalar=scalar,
                           node_derivatives=node_derivatives)


def _require_matrix_function(f: CoefficientFunction, n: int, name: str) -> None:
    if f.is_scalar:
        raise DimensionError(f"{name} must be matrix-valued")
    if f.dim != n:
        raise DimensionError(f"{name} has dimension {f.dim}, expected {n}")


#: The optional gauges by wire name, each with whether it is scalar-valued:
#: the matrix gauge L ("lambda") and the scalar shifts mu and nu.
GAUGES = {"lambda": False, "mu": True, "nu": True}


def _require_gauge(f: CoefficientFunction | None, n: int, name: str) -> CoefficientFunction:
    """The gauge rule: the gauge ``name`` of ``GAUGES`` for n x n data is ``f``,
    or zero for None. lambda must be an n x n matrix function; mu and nu must
    be scalar functions. The error, a ``DimensionError``, names the gauge."""
    scalar = GAUGES[name]
    if f is None:
        return ConstantFunction(0.0 if scalar else np.zeros((n, n)), scalar=scalar)
    if not scalar:
        _require_matrix_function(f, n, name)
    elif not f.is_scalar:
        raise DimensionError(f"{name} must be scalar-valued")
    return f


def _require_matrix(value, n: int, name: str) -> np.ndarray:
    """``value`` (an initial value such as Y0) as an n x n matrix by ``as_matrix``'s rule."""
    m = as_matrix(value, name)
    if m.shape[0] != n:
        raise DimensionError(f"{name} has dimension {m.shape[0]}, expected {n}")
    return m


def _require_order(order, name: str = "interpolation order") -> None:
    """The rule for a sampled function's interpolation order: the integer 1 or
    3, not a bool or a float. The error starts with ``name``."""
    if isinstance(order, bool) or not isinstance(order, numbers.Integral) or order not in (1, 3):
        raise ValueError(f"{name} must be the integer 1 or 3")


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
        with np.errstate(**_OVERFLOW_QUIET):
            p = self.P.eval(ts)
            hermitian = _defect_measure(p - adjoint(p), p, HERMITIAN_PROBE_TOL)[2]
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

