"""Dense complex matrix primitives and the numerical policy of the package.

This module alone knows the rule for input values (finite, square;
``_as_stack``), the integer and dimension rules (an int, not a bool;
1 <= n <= MAX_DIM), the tolerance rule (``require_tol``: a finite number
>= 0, checked where a tolerance enters the measures, so every criterion,
the square root, its derivative and the trajectory bounds refuse nan, inf
and negative values by name), the PSD band (a Hermitian H is >= 0 when its least
eigenvalue is at least -(tol + tol ||H||_2), > 0 when it is above the band),
the Hermiticity-defect rule (||M - M*||_F <= tol (1 + ||M||_F)), the rule
that nothing non-finite passes (NaN eigenvalues; a residual norm that is not
finite fails, so the defect rule is conservative above about 1.3e154, where
norms overflow) and the block size of stacked scans. Every criterion,
monitor and predicate applies them through ``_psd_measure``,
``_defect_measure`` and ``_scan``, under ``_OVERFLOW_QUIET``. The P > 0 verdict
is made once, by ``_psd_measure`` (strict), for the frame masks, ``build_skew_gauge``,
``principal_sqrt`` and ``sqrt_derivative``. Also: trace identities and the principal
square root (``_hermitian_sqrt``) with its time derivative. All functions are
pure; inputs are never mutated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionError,
    EigenSolverError,
    NotHermitianError,
    NotPositiveDefiniteError,
)

#: Largest supported matrix dimension. Dense algorithms stay adequate and
#: desk-scale tests stay honest below this cap.
MAX_DIM = 64

#: Default absolute and relative tolerance used by the PSD band and by
#: Hermiticity/skewness checks.
DEFAULT_TOL = 1e-9

#: Tolerance of ``CoefficientSet``'s Hermiticity probe of P. Looser than
#: DEFAULT_TOL: the probe runs at construction on three points, before any
#: check's tolerance is known, and refuses only a P that is plainly not
#: Hermitian; each grid check judges P at its own tolerance.
HERMITIAN_PROBE_TOL = 1e-8

#: Most entries of one n x n stack in a block of a grid scan: a block holds
#: max(1, BLOCK_ENTRIES // n**2) time points. That bounds each stack, not the
#: block, which holds several (six for theorem3.1), so ``verify.residual_series``
#: scans at 2n (ROADMAP item 13).
BLOCK_ENTRIES = 2 ** 14

#: numpy's error state wherever arithmetic may overflow: the measures fail the inf or NaN.
_OVERFLOW_QUIET = {"over": "ignore", "invalid": "ignore"}


def _require_int(value, name: str, error=ValueError) -> None:
    """The integer rule: an int or a numpy integer, not a bool. The error starts with ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")


def require_tol(tol) -> None:
    """The tolerance rule: ``tol`` is a finite real number >= 0."""
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def _require_dim(n: int, name: str = "n") -> None:
    """The dimension rule: an n x n value has 1 <= n <= MAX_DIM. The error,
    a ``DimensionError`` (also a ``ValueError``), starts with ``name``."""
    _require_int(n, name, DimensionError)
    if not 1 <= n <= MAX_DIM:
        raise DimensionError(f"{name} must be in 1..{MAX_DIM}, got {n!r}")


def _as_stack(values, label, scalar: bool = False) -> np.ndarray:
    """Validate and normalize a sequence of values into one C-contiguous
    complex128 stack: (k,) finite scalars with ``scalar``, else (k, n, n)
    finite square matrices with n by ``_require_dim``, a scalar read as a 1 x 1
    matrix. ``label(i)`` names value i in the error, raised at the first bad
    value: ``DimensionError`` for a shape, ``ValueError`` for NaN/Inf."""
    values = values if isinstance(values, np.ndarray) else list(values)
    try:
        stack = np.array(values, dtype=np.complex128, order="C")
    except ValueError:
        shapes = [np.shape(v) for v in values]
        k = next((k for k, shape in enumerate(shapes) if shape != shapes[0]), None)
        if k is None:
            raise
        raise DimensionError(f"{label(k)} has shape {shapes[k]}, expected {shapes[0]}") from None
    if not scalar and stack.ndim == 1:
        stack = stack.reshape(-1, 1, 1)
    shape = stack.shape[1:]
    if scalar and shape:
        raise DimensionError(f"{label(0)}: expected a scalar value, got shape {shape}")
    if not scalar:
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionError(f"{label(0)} must be square; got shape {shape}")
        _require_dim(shape[0], f"{label(0)} dimension")
    finite = np.isfinite(stack.view(np.float64)).reshape(stack.shape + (2,))
    finite = finite.all(axis=tuple(range(1, finite.ndim)))
    if not finite.all():
        raise ValueError(f"{label(int(np.argmin(finite)))} contains non-finite entries")
    return stack


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Validate and normalize a square complex matrix by the rule of ``_as_stack``.

    Returns a C-contiguous complex128 copy. Raises ``DimensionError`` for
    non-square or over-cap inputs and ``ValueError`` for NaN/Inf entries.
    """
    return _as_stack([value], lambda _: name)[0]


def _require_same_dim(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{what}: dimension mismatch {a.shape} vs {b.shape}")


def hermitian_part(m) -> np.ndarray:
    """Return (M + M*)/2.

    The remainder M - hermitian_part(M) is skew-Hermitian, so this splits
    any square matrix into its Hermitian and skew-Hermitian parts.
    """
    m = as_matrix(m, "M")
    return (m + m.conj().T) / 2


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return m.swapaxes(-1, -2).conj()


def block_slices(count: int, n: int) -> list[slice]:
    """Consecutive slices over ``count`` stacked n x n matrices, each block
    holding at most ``BLOCK_ENTRIES`` entries and at least one matrix; an
    empty stack gets one empty block."""
    step = max(1, BLOCK_ENTRIES // (n * n))
    return [slice(k, k + step) for k in range(0, max(count, 1), step)]


def _eigvalsh(h: np.ndarray, context: str) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"{context}: eigenvalue solver failed: {exc}") from exc


def _hermitian_eigvals(h: np.ndarray, context: str) -> np.ndarray:
    """Ascending eigenvalues of (H + H*)/2 for each matrix of a stack; NaN for one
    whose entries (zeroed for the solver) or eigenvalues are not all finite."""
    herm = (h + adjoint(h)) / 2
    bad = ~np.isfinite(herm).all(axis=(-2, -1))
    herm[bad] = 0
    eigs = _eigvalsh(herm, context)
    eigs[bad | ~np.isfinite(eigs).all(axis=-1)] = np.nan
    return eigs


def _eigh(h: np.ndarray, context: str):
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"{context}: eigenvalue solver failed: {exc}") from exc


# ---------------------------------------------------------------------------
# The PSD band, the Hermiticity-defect rule and the blocked scan
# ---------------------------------------------------------------------------

def _fro(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of every matrix in a stack."""
    return np.linalg.norm(m, axis=(-2, -1))


def _defect_measure(resid: np.ndarray, ref: np.ndarray, tol: float):
    """Per-point (||resid||_F, its ratio to 1 + ||ref||_F, verdict ratio <= tol).

    With resid = M - M* and ref = M this is the Hermiticity-defect rule;
    with resid = M + M* it measures skew-Hermiticity. A norm of resid that is
    not finite fails; one of ref that overflows counts as the largest double.
    """
    require_tol(tol)
    norm = _fro(resid)
    scale = np.minimum(1.0 + _fro(ref), np.finfo(np.float64).max)
    return norm, norm / scale, np.isfinite(norm) & (norm <= tol * scale)


def _psd_measure(h: np.ndarray, tol: float, strict: bool = False):
    """Per-point (least eigenvalue of the Hermitian part, verdict, Hermiticity
    defect) of a stack. The verdict asks for the Hermiticity-defect rule and
    for the least eigenvalue at or above -band; ``strict`` asks for it above
    +band instead (positive definiteness)."""
    # the defect first: its measure refuses a bad tol before any eigenvalue is taken
    defect, _, hermitian = _defect_measure(h - adjoint(h), h, tol)
    eigs = _hermitian_eigvals(h, "criteria")
    # the band tol + tol ||H||_2, with ||H||_2 read off the ascending eigenvalues
    lo, band = eigs[:, 0], tol + tol * np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1]))
    return lo, hermitian & ((lo > band) if strict else (lo >= -band)), defect


@np.errstate(**_OVERFLOW_QUIET)
def _scan(ts: np.ndarray, n: int, block, *stacks, values=None) -> list[np.ndarray]:
    """Run ``block(ts[s], *values(ts[s]), *(a[s] for a in stacks))`` over
    blocks of at most BLOCK_ENTRIES entries per n x n stack and join the
    per-point arrays it returns; ``values`` is the scan's ``stacked_evaluator``, if any.
    Where it is ``constant`` (every function it reads is a ``ConstantFunction``)
    and no per-point stack is sliced, one point decides the interval: the block
    runs once, on ``ts[:1]``, and each array it returns is repeated to
    ``ts.size`` points, so a witness picked earliest on ties still names t0."""
    def run(s: slice):
        return block(ts[s], *(values(ts[s]) if values else ()), *(a[s] for a in stacks))

    if values and values.constant and not stacks:
        return [np.repeat(col, ts.size, axis=0) for col in run(slice(1))]
    return [np.concatenate(col) for col in zip(*map(run, block_slices(ts.size, n)))]


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive-semidefiniteness test.

    ``is_psd`` is true exactly when the Hermiticity defect is within its
    tolerance and the least eigenvalue of the Hermitian part is above the
    negative tolerance band.
    """

    is_psd: bool
    min_eigenvalue: float
    hermiticity_defect: float


@np.errstate(**_OVERFLOW_QUIET)
def check_psd(h) -> PsdVerdict:
    """Test whether a matrix is positive semidefinite: the verdict of
    ``_psd_measure`` at ``DEFAULT_TOL`` on one matrix, as on a criterion grid."""
    lo, ok, defect = _psd_measure(as_matrix(h, "H")[None], DEFAULT_TOL)
    return PsdVerdict(is_psd=bool(ok[0]), min_eigenvalue=float(lo[0]),
                      hermiticity_defect=float(defect[0]))


def trace_product(a, b) -> complex:
    """tr(AB) computed as sum_{j,k} a_jk b_kj without forming AB."""
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    _require_same_dim(a, b, "trace_product")
    return complex(np.einsum("jk,kj->", a, b))


def _require_hpd(p: np.ndarray, tol: float, context: str) -> None:
    """Refuse a matrix that is not Hermitian, or not positive definite by the
    grid's own verdict (``_psd_measure``, strict)."""
    defect, _, hermitian = _defect_measure(p - adjoint(p), p, tol)
    if not hermitian:
        raise NotHermitianError(f"{context}: matrix is not Hermitian (defect {defect:.3e})")
    lo, pd, _ = _psd_measure(p[None], tol, strict=True)
    if not pd[0]:
        raise NotPositiveDefiniteError(f"{context}: matrix is not positive definite "
                                       f"(min eigenvalue {lo[0]:.6e})", min_eigenvalue=float(lo[0]))


def principal_sqrt(p, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a Hermitian positive definite matrix.

    Computed by eigendecomposition with square roots of the eigenvalues.
    The result is Hermitian positive definite and satisfies
    ``||S @ S - P||_F <= tol * ||P||_F`` at the supported scales.
    """
    p = as_matrix(p, "P")
    _require_hpd(p, tol, "principal_sqrt")
    return _hermitian_sqrt(p, "principal_sqrt")


def _hermitian_sqrt(p: np.ndarray, context: str) -> np.ndarray:
    """V diag(sqrt(w)) V*, symmetrized, from the eigendecomposition (w, V) of the
    Hermitian part of a matrix or a stack, where ``_psd_measure`` found P > 0."""
    w, v = _eigh((p + adjoint(p)) / 2, context)
    s = (v * np.sqrt(w)[..., None, :]) @ adjoint(v)
    return (s + adjoint(s)) / 2


def sqrt_derivative(p, pdot, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Time derivative of t -> sqrt(P(t)) from P and P'.

    Solves X sqrt(P) + sqrt(P) X = P' entrywise in the eigenbasis of P:
    with eigenvalues s_i of sqrt(P), Xtilde_ij = Pdot_tilde_ij / (s_i + s_j).
    Requires P Hermitian positive definite (so the denominators are
    bounded away from zero) and P' Hermitian.
    """
    p = as_matrix(p, "P")
    pdot = as_matrix(pdot, "Pdot")
    _require_same_dim(p, pdot, "sqrt_derivative")
    if not _defect_measure(pdot - adjoint(pdot), pdot, tol)[2]:
        raise NotHermitianError("sqrt_derivative: Pdot is not Hermitian")
    _require_hpd(p, tol, "sqrt_derivative")
    w, v = _eigh((p + adjoint(p)) / 2, "sqrt_derivative")
    s = np.sqrt(w)
    pdot_tilde = v.conj().T @ pdot @ v
    x_tilde = pdot_tilde / (s[:, None] + s[None, :])
    x = v @ x_tilde @ v.conj().T
    return hermitian_part(x)
