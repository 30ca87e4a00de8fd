"""Dense complex matrix primitives and the numerical policy of the package.

This module alone knows the rule for input values (finite, square,
1 <= n <= MAX_DIM; ``_as_stack``), the PSD band (a Hermitian H is >= 0 when
its least eigenvalue is at least -(tol + tol ||H||_2), > 0 when it is above
the band), the Hermiticity-defect rule (||M - M*||_F <= tol (1 + ||M||_F))
and the block size of stacked scans. Every criterion, monitor and predicate
of the package applies them through ``_psd_measure``, ``_defect_measure``
and ``_scan``. Also: trace identities and the principal matrix square root
with its time derivative. All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

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

#: Most matrix entries in one stacked block of a grid scan. A block of
#: n x n matrices holds max(1, BLOCK_ENTRIES // n**2) time points, which
#: bounds the scan's temporaries at every n while keeping numpy calls few.
BLOCK_ENTRIES = 2 ** 14


def _as_stack(values, label, scalar: bool = False) -> np.ndarray:
    """Validate and normalize a sequence of values into one C-contiguous
    complex128 stack: (k,) finite scalars with ``scalar``, else (k, n, n)
    finite square matrices with 1 <= n <= MAX_DIM, a scalar read as a 1 x 1
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
    square = len(shape) == 2 and shape[0] == shape[1] and 1 <= shape[0] <= MAX_DIM
    if not scalar and not square:
        raise DimensionError(f"{label(0)} must be square, n in 1..{MAX_DIM}; got shape {shape}")
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
    """Ascending eigenvalues of (H + H*)/2 for a matrix or each matrix of a stack."""
    return _eigvalsh((h + adjoint(h)) / 2, context)


def _least_eigvals(h: np.ndarray, context: str) -> np.ndarray:
    """Least eigenvalue of each Hermitian part of a stack; NaN where it is not finite."""
    herm = (h + adjoint(h)) / 2
    finite = np.isfinite(herm).all(axis=(-2, -1))
    lo = np.full(herm.shape[0], np.nan)
    lo[finite] = _eigvalsh(herm[finite], context)[:, 0]
    return lo


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


def _band(eigs: np.ndarray, tol: float) -> np.ndarray:
    """The PSD band tol + tol ||H||_2, ||H||_2 read off ascending eigenvalues."""
    return tol + tol * np.maximum(np.abs(eigs[..., 0]), np.abs(eigs[..., -1]))


def _defect_measure(resid: np.ndarray, ref: np.ndarray, tol: float):
    """Per-point (||resid||_F, its ratio to 1 + ||ref||_F, verdict ratio <= tol).

    With resid = M - M* and ref = M this is the Hermiticity-defect rule;
    with resid = M + M* it measures skew-Hermiticity.
    """
    norm = _fro(resid)
    scale = 1.0 + _fro(ref)
    return norm, norm / scale, norm <= tol * scale


def _psd_measure(h: np.ndarray, tol: float, strict: bool = False):
    """Per-point (least eigenvalue of the Hermitian part, verdict, Hermiticity
    defect) of a stack. The verdict asks for the Hermiticity-defect rule and
    for the least eigenvalue at or above -band; ``strict`` asks for it above
    +band instead (positive definiteness)."""
    eigs = _hermitian_eigvals(h, "criteria")
    lo, band = eigs[:, 0], _band(eigs, tol)
    defect, _, hermitian = _defect_measure(h - adjoint(h), h, tol)
    return lo, hermitian & ((lo > band) if strict else (lo >= -band)), defect


def _scan(ts: np.ndarray, n: int, block, *stacks) -> list[np.ndarray]:
    """Run ``block(ts[s], *(a[s] for a in stacks))`` over blocks of at most
    BLOCK_ENTRIES matrix entries and join the per-point arrays it returns."""
    parts = [block(ts[s], *(a[s] for a in stacks)) for s in block_slices(ts.size, n)]
    return [np.concatenate(col) for col in zip(*parts)]


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


def check_psd(h, tol_psd: float | None = None, tol_herm: float | None = None) -> PsdVerdict:
    """Test whether a matrix is positive semidefinite.

    Left to their defaults, the tolerances give the verdict of ``_psd_measure``
    at ``DEFAULT_TOL``, as on a criterion grid. ``tol_psd`` replaces the PSD
    band below zero accepted for the least eigenvalue of the Hermitian part;
    ``tol_herm`` replaces the defect rule by a bound on ``hermiticity_defect``.
    """
    h = as_matrix(h, "H")[None]
    eigs = _hermitian_eigvals(h, "check_psd")[0]
    defect, _, hermitian = (x[0] for x in _defect_measure(h - adjoint(h), h, DEFAULT_TOL))
    if tol_herm is not None:
        hermitian = defect <= tol_herm
    if tol_psd is None:
        tol_psd = _band(eigs, DEFAULT_TOL)
    return PsdVerdict(is_psd=bool(hermitian and eigs[0] >= -tol_psd),
                      min_eigenvalue=float(eigs[0]), hermiticity_defect=float(defect))


def trace_product(a, b) -> complex:
    """tr(AB) computed as sum_{j,k} a_jk b_kj without forming AB."""
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    _require_same_dim(a, b, "trace_product")
    return complex(np.einsum("jk,kj->", a, b))


def _require_hpd(p: np.ndarray, tol: float, context: str):
    """Validate Hermitian positive definiteness; return (eigvals, eigvecs)."""
    defect, _, hermitian = _defect_measure(p - adjoint(p), p, tol)
    if not hermitian:
        raise NotHermitianError(f"{context}: matrix is not Hermitian (defect {defect:.3e})")
    w, v = _eigh(hermitian_part(p), context)
    min_eig = float(w[0])
    if not min_eig > _band(w, tol):
        raise NotPositiveDefiniteError(f"{context}: matrix is not positive definite "
                                       f"(min eigenvalue {min_eig:.6e})", min_eigenvalue=min_eig)
    return w, v


def principal_sqrt(p, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a Hermitian positive definite matrix.

    Computed by eigendecomposition with square roots of the eigenvalues.
    The result is Hermitian positive definite and satisfies
    ``||S @ S - P||_F <= tol * ||P||_F`` at the supported scales.
    """
    p = as_matrix(p, "P")
    return _sqrt_of_eigh(*_require_hpd(p, tol, "principal_sqrt"))


def _sqrt_of_eigh(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(sqrt(w)) V*, symmetrized; (w, v) may be a stack of eigendecompositions."""
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
    w, v = _require_hpd(p, tol, "sqrt_derivative")
    s = np.sqrt(w)
    pdot_tilde = v.conj().T @ pdot @ v
    x_tilde = pdot_tilde / (s[:, None] + s[None, :])
    x = v @ x_tilde @ v.conj().T
    return hermitian_part(x)
