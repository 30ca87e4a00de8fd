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

The grid points of a scan do not depend on each other, so a scan may run in
two halves at once (``_scan_blocks``): where the process may run on at least
two CPUs, the scan slices no per-point stack (the criterion scans and
``build_skew_gauge``, not the trajectory monitors or cor3.2, whose block
takes eigenvectors) and a block of ``BLOCK_ENTRIES // 2`` entries per stack
holds ``SPLIT_MIN_POINTS`` to ``SPLIT_MAX_POINTS`` time points
(16 <= n <= 32), the caller scans the first half of those blocks and one
helper thread the second. The per-point results are the same bits in
either partition, the two blocks in flight hold what one serial block holds,
the earliest block's exception wins, and the scan returns only once the
helper is done.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os
import threading
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
#: scans at 2n (ROADMAP item 15). A scan that splits in two halves runs two
#: blocks at once, each of BLOCK_ENTRIES // 2 entries per stack, so the two in
#: flight hold what one block of a serial scan holds.
BLOCK_ENTRIES = 2 ** 14

#: Fewest and most time points in a block of a scan that splits (16 <= n <= 32
#: at BLOCK_ENTRIES // 2). Shorter blocks gain nothing from running beside each
#: other; longer ones hold small matrices, whose many short numpy calls keep
#: the GIL, so the two threads take turns and lose.
SPLIT_MIN_POINTS, SPLIT_MAX_POINTS = 8, 32

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


def block_slices(count: int, n: int, parts: int = 1) -> list[slice]:
    """Consecutive slices over ``count`` stacked n x n matrices, each block
    holding at most ``BLOCK_ENTRIES // parts`` entries and at least one
    matrix; an empty stack gets one empty block."""
    step = max(1, BLOCK_ENTRIES // parts // (n * n))
    return [slice(k, k + step) for k in range(0, max(count, 1), step)]


def _cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask where the
    platform has one: ``taskset -c 0`` gives 1)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else (os.cpu_count() or 1)


def _scan_blocks(count: int, n: int, split: bool) -> tuple[list[slice], list[slice]]:
    """The blocks of a scan over ``count`` points of n x n stacks: (the caller's,
    the helper's). The scan splits where it may (``split``), the process may
    run on two CPUs and a block of ``BLOCK_ENTRIES // 2`` entries holds
    ``SPLIT_MIN_POINTS`` to ``SPLIT_MAX_POINTS`` points: the caller takes the
    first half of those blocks, the helper the rest. Otherwise the caller
    takes every block of ``block_slices`` and the helper none."""
    points = (BLOCK_ENTRIES // 2) // (n * n)
    if not split or not SPLIT_MIN_POINTS <= points <= SPLIT_MAX_POINTS or _cpus() < 2:
        return block_slices(count, n), []
    blocks = block_slices(count, n, parts=2)
    half = (len(blocks) + 1) // 2
    return blocks[:half], blocks[half:]


_helper = None
_helper_lock = threading.Lock()


def _helper_pool():
    """The one helper thread of the split scans, started on first use."""
    global _helper
    with _helper_lock:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor

            _helper = ThreadPoolExecutor(1, thread_name_prefix="riccati-scan")
        return _helper


def _forget_helper_pool() -> None:
    """In a forked child the parent's helper thread does not exist, while its
    pool still counts it idle and would queue work for it forever."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper_pool)


def _eigvalsh(h: np.ndarray, context: str) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"{context}: eigenvalue solver failed: {exc}") from exc


def _hermitian_eigvals(context: str, *hs: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of (H + H*)/2 for each matrix of the stacks ``hs``
    (of one n), joined in their order and taken in one solver call over one
    buffer; NaN for a matrix whose entries (zeroed for the solver) or
    eigenvalues are not all finite."""
    herm = np.empty((sum(len(h) for h in hs),) + hs[0].shape[1:], dtype=np.result_type(*hs))
    k = 0
    for h in hs:
        # H* + H, the bits of H + H*: each part of a complex sum is one
        # commutative addition
        part = herm[k:k + len(h)]
        np.conjugate(h.swapaxes(-1, -2), out=part)
        part += h
        k += len(h)
    herm /= 2
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
    return _psd_measures(tol, h, strict=strict)[0]


def _psd_measures(tol: float, *hs: np.ndarray, strict: bool = False) -> list[tuple]:
    """``_psd_measure`` of each stack of ``hs`` (of one n), from one eigenvalue
    call: a split scan's half block is then long enough for the solver to
    run beside the other half."""
    # the defects first: their measure refuses a bad tol before any eigenvalue is taken
    defects = [_defect_measure(h - adjoint(h), h, tol) for h in hs]
    eigs = _hermitian_eigvals("criteria", *hs)
    out, k = [], 0
    for h, (defect, _, hermitian) in zip(hs, defects):
        e, k = eigs[k:k + len(h)], k + len(h)
        # the band tol + tol ||H||_2, with ||H||_2 read off the ascending eigenvalues
        lo, band = e[:, 0], tol + tol * np.maximum(np.abs(e[:, 0]), np.abs(e[:, -1]))
        out.append((lo, hermitian & ((lo > band) if strict else (lo >= -band)), defect))
    return out


@np.errstate(**_OVERFLOW_QUIET)
def _scan(ts: np.ndarray, n: int, block, *stacks, values=None, split: bool = True
          ) -> list[np.ndarray]:
    """Run ``block(ts[s], *values(ts[s]), *(a[s] for a in stacks))`` over
    blocks of at most BLOCK_ENTRIES entries per n x n stack and join the
    per-point arrays it returns; ``values`` is the scan's ``stacked_evaluator``, if any.
    Where it is ``constant`` (every function it reads is a ``ConstantFunction``)
    and no per-point stack is sliced, one point decides the interval: the block
    runs once, on ``ts[:1]``, and each array it returns is repeated to
    ``ts.size`` points, so a witness picked earliest on ties still names t0.
    Otherwise the blocks are ``_scan_blocks``'s, which split only a scan that
    slices no per-point stack and whose caller allows it (``split``; a block
    that takes eigenvectors does not: LAPACK's solver for them leaves a BLAS
    worker thread spinning on the CPU the helper would use). The helper's half
    runs in a copy of this context (numpy's error state) while the caller runs
    its own, and the caller waits for it before it returns or raises. The
    caller's exception comes first in grid order, so it wins over the helper's."""
    def run(s: slice):
        return block(ts[s], *(values(ts[s]) if values else ()), *(a[s] for a in stacks))

    if values and values.constant and not stacks:
        return [np.repeat(col, ts.size, axis=0) for col in run(slice(1))]
    mine, theirs = _scan_blocks(ts.size, n, split and not stacks)
    helper = _helper_pool().submit(contextvars.copy_context().run,
                                   lambda: list(map(run, theirs))) if theirs else None
    try:
        cols = list(map(run, mine))
        if helper:
            cols += helper.result()
    except BaseException:
        if helper:
            helper.exception()  # the scan ends with the helper; a later block's error is dropped
        raise
    return [np.concatenate(col) for col in zip(*cols)]


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
