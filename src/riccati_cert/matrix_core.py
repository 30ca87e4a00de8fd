"""Dense complex matrix primitives.

Hermitian/positive-semidefinite predicates with an explicit tolerance
policy, trace identities, and the principal matrix square root together
with its time derivative. Grid scans work on stacks of matrices, cut
into blocks of at most ``BLOCK_ENTRIES`` entries by ``block_slices``.
All functions are pure; inputs are never mutated.
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


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Validate and normalize a square complex matrix.

    Returns a C-contiguous complex128 copy. Raises ``DimensionError`` for
    non-square or over-cap inputs and ``ValueError`` for NaN/Inf entries.
    """
    m = np.array(value, dtype=np.complex128, copy=True, order="C")
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    n = m.shape[0]
    if not 1 <= n <= MAX_DIM:
        raise DimensionError(f"{name} dimension {n} outside supported range 1..{MAX_DIM}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_same_dim(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{what}: dimension mismatch {a.shape} vs {b.shape}")


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def hermitian_part(m) -> np.ndarray:
    """Return (M + M*)/2.

    The remainder M - hermitian_part(M) is skew-Hermitian, so this splits
    any square matrix into its Hermitian and skew-Hermitian parts.
    """
    m = as_matrix(m, "M")
    return (m + m.conj().T) / 2


def hermiticity_defect(m) -> float:
    """Frobenius norm of M - M*, zero iff M is exactly Hermitian."""
    m = as_matrix(m, "M")
    return float(np.linalg.norm(m - m.conj().T))


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return m.swapaxes(-1, -2).conj()


def block_slices(count: int, n: int) -> list[slice]:
    """Consecutive slices over ``count`` stacked n x n matrices, each block
    holding at most ``BLOCK_ENTRIES`` entries (and at least one matrix)."""
    step = max(1, BLOCK_ENTRIES // (n * n))
    return [slice(k, k + step) for k in range(0, count, step)]


def _eigvalsh(h: np.ndarray, context: str) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"{context}: eigenvalue solver failed: {exc}") from exc


def _hermitian_eigvals(h: np.ndarray, context: str) -> np.ndarray:
    """Ascending eigenvalues of (H + H*)/2 for a matrix or each matrix of a stack."""
    return _eigvalsh((h + adjoint(h)) / 2, context)


def _eigh(h: np.ndarray, context: str):
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"{context}: eigenvalue solver failed: {exc}") from exc


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


def psd_band(h: np.ndarray, tol_abs: float = DEFAULT_TOL, tol_rel: float = DEFAULT_TOL) -> float:
    """Width of the negative eigenvalue band treated as zero.

    A Hermitian matrix counts as >= 0 when its least eigenvalue is at
    least -(tol_abs + tol_rel * ||H||_2). Exact inequalities need a band
    in floating point.
    """
    h = np.asarray(h)
    # ||H||_2 of the Hermitian part; cheap at the supported dimensions.
    norm2 = float(np.linalg.norm(hermitian_part(h), 2)) if h.size else 0.0
    return tol_abs + tol_rel * norm2


def check_psd(h, tol_psd: float | None = None, tol_herm: float | None = None) -> PsdVerdict:
    """Test whether a matrix is positive semidefinite.

    The matrix is symmetrized first so roundoff asymmetry cannot flip the
    verdict; the asymmetry itself is reported as ``hermiticity_defect``
    and compared against ``tol_herm``.

    Parameters
    ----------
    h : array_like
        Square complex matrix.
    tol_psd : float, optional
        Band below zero accepted for the least eigenvalue. Defaults to
        ``psd_band(h)``.
    tol_herm : float, optional
        Largest accepted Hermiticity defect. Defaults to
        ``DEFAULT_TOL * (1 + ||H||_F)``.
    """
    h = as_matrix(h, "H")
    defect = float(np.linalg.norm(h - h.conj().T))
    if tol_herm is None:
        tol_herm = DEFAULT_TOL * (1.0 + frobenius(h))
    if tol_psd is None:
        tol_psd = psd_band(h)
    eigs = _eigvalsh(hermitian_part(h), "check_psd")
    min_eig = float(eigs[0])
    return PsdVerdict(
        is_psd=(defect <= tol_herm) and (min_eig >= -tol_psd),
        min_eigenvalue=min_eig,
        hermiticity_defect=defect,
    )


def trace_product(a, b) -> complex:
    """tr(AB) computed as sum_{j,k} a_jk b_kj without forming AB."""
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    _require_same_dim(a, b, "trace_product")
    return complex(np.einsum("jk,kj->", a, b))


def _require_hpd(p: np.ndarray, tol: float, context: str):
    """Validate Hermitian positive definiteness; return (eigvals, eigvecs)."""
    defect = float(np.linalg.norm(p - p.conj().T))
    if defect > tol * (1.0 + frobenius(p)):
        raise NotHermitianError(
            f"{context}: matrix is not Hermitian (defect {defect:.3e})"
        )
    w, v = _eigh(hermitian_part(p), context)
    min_eig = float(w[0])
    if min_eig <= tol * (1.0 + float(w[-1])):
        raise NotPositiveDefiniteError(
            f"{context}: matrix is not positive definite (min eigenvalue {min_eig:.6e})",
            min_eigenvalue=min_eig,
        )
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
    if hermiticity_defect(pdot) > tol * (1.0 + frobenius(pdot)):
        raise NotHermitianError("sqrt_derivative: Pdot is not Hermitian")
    w, v = _require_hpd(p, tol, "sqrt_derivative")
    s = np.sqrt(w)
    pdot_tilde = v.conj().T @ pdot @ v
    x_tilde = pdot_tilde / (s[:, None] + s[None, :])
    x = v @ x_tilde @ v.conj().T
    return hermitian_part(x)
