"""Dense complex linear algebra at desk scale.

Solves, inverses and null spaces go to LAPACK through ``numpy.linalg``;
``solve`` takes one square matrix or a stack of them in a single call.
Before it solves, ``solve`` proves every matrix nonsingular with a
shifted Cholesky factorisation of its Gram matrix, a rigorous lower
bound on the smallest singular value (``_certified``), about 1 MiB of
matrices at a time.  The singular values, which decide and name a
refusal, are computed only for the chunks the certificate cannot clear.
Eigenvalues go through the
characteristic polynomial (Faddeev-LeVerrier recursion) and the
simultaneous root finder, which caps the supported dimension; both take
one matrix or a stack.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL, Tolerances, blocks
from .errors import AlgebraOverflow, DimensionTooLarge, SingularMatrix
from .polynomials import Polynomial, _roots_rows, roots

__all__ = [
    "EIG_DIM_CAP",
    "as_square",
    "solve",
    "inverse",
    "mat_poly_eval",
    "char_poly",
    "eigenvalues",
    "nullspace",
]

EIG_DIM_CAP = 16


def as_square(a) -> np.ndarray:
    """Coerce to a square 2-D complex array with finite entries."""
    return _as_squares(a, (2,))


def _as_squares(a, ndims) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in ndims or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def solve(a, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Solve a x = b for one (n, n) matrix or an (m, n, n) stack at once.

    b holds one right hand side vector per matrix, or one matrix of
    stacked right hand sides per matrix.  Raises SingularMatrix when the
    smallest singular value of some matrix is at most eq_tol times its
    scale max(1, max|a|), or when LAPACK finds a matrix singular; its
    ``index`` is the position of the first such matrix in the stack (0
    for a single matrix).

    The stack is screened in chunks of about 1 MiB of matrices.  A chunk
    that passes the Gram-Cholesky certificate (``_certified``: every
    smallest singular value provably above eq_tol times the scale) needs
    no singular values; any other chunk gets them.  With no refusal among
    them the stack goes to LAPACK, and when LAPACK still refuses, the
    singular values of the whole stack name the matrix, so the matrices
    refused, the ``index`` and the message do not depend on the
    certificate.
    """
    a = _as_squares(a, (2, 3))
    b = np.asarray(b, dtype=np.complex128)
    vec = b.ndim == a.ndim - 1
    x = b[..., None] if vec else b
    if x.shape[:-1] != a.shape[:-1]:
        raise ValueError("right hand side shape does not match the matrix")
    stack = a.reshape((-1,) + a.shape[-2:])
    scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2), initial=0.0))
    limit = tol.eq_tol * scale
    smin = _screen(stack, scale, tol.eq_tol)
    if not (smin <= limit).any():
        try:
            x = np.linalg.solve(a, x)
            return x[..., 0] if vec else x
        except np.linalg.LinAlgError:
            smin = _smallest_sv(stack)
    bad = np.flatnonzero(smin <= limit)
    k = int(bad[0]) if bad.size else int(np.argmin(smin / scale))
    raise SingularMatrix(
        f"matrix {k} is singular (smallest singular value {smin[k]:.3e}, "
        f"scale {scale[k]:.3e})",
        index=k,
    )


def _smallest_sv(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False).min(axis=1, initial=np.inf)


def _screen(stack: np.ndarray, scale: np.ndarray, eq_tol: float) -> np.ndarray:
    """Smallest singular value of each matrix in a chunk that the
    certificate does not clear, and inf for every certified matrix
    (which clears the refusal rule)."""
    smin = np.full(stack.shape[0], np.inf)
    # About 1 MiB of matrices per chunk, so the scaled copy, its Gram
    # matrix and the factor stay small beside the stack.
    for part in blocks(stack.shape[0], 16 * stack.shape[-1] ** 2):
        if not _certified(stack[part], scale[part], eq_tol):
            smin[part] = _smallest_sv(stack[part])
    return smin


def _certified(stack: np.ndarray, scale: np.ndarray, eq_tol: float) -> bool:
    """True only if every matrix B of the stack has sigma_min > eq_tol * scale.

    Each matrix is multiplied by the power of two 2^-e that brings its
    ``scale`` into [1, 2) (exact, apart from entries it pushes below the
    normal range), so that G = B^H B cannot overflow.  With t = eq_tol *
    scale * 2^-e and ||B||_F^2 = Re trace G, the shifted matrices

        G - (t^2 + 8 (n + 2) eps ||B||_F^2 + (n + 2)^2 tiny) I

    go through one batched Cholesky factorisation.  If it completes with
    finite entries, then sigma_min(B)^2 = lambda_min(B^H B) > t^2 (Rump,
    "Verification of positive definiteness", BIT 46, 2006): the rounding
    errors of forming G in complex arithmetic (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, Lemma 3.5) and of the
    factorisation (ibid., Thm 10.3) add up to about
    sqrt(2) (n + 3) eps ||B||_F^2 in the 2-norm, which the eps term
    covers more than four times over, and the ``tiny`` term covers
    gradual underflow.  False says nothing about the matrices: one
    breakdown fails the whole stack.
    """
    n = stack.shape[-1]      # n >= 1: solve cannot reshape an empty matrix
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    diag = np.arange(n)
    down = np.ldexp(1.0, 1 - np.frexp(scale)[1])
    bs = stack * down[:, None, None]
    gram = np.matmul(bs.conj().transpose(0, 2, 1), bs)
    fro2 = gram[:, diag, diag].real.sum(axis=1)
    t = eq_tol * (scale * down)
    gram[:, diag, diag] -= (t * t + 8 * (n + 2) * eps * fro2
                            + (n + 2) ** 2 * tiny)[:, None]
    try:
        return bool(np.isfinite(np.linalg.cholesky(gram)).all())
    except np.linalg.LinAlgError:
        return False


def inverse(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    a = as_square(a)
    return solve(a, np.eye(a.shape[0], dtype=np.complex128), tol)


def mat_poly_eval(q, a) -> np.ndarray:
    """Evaluate the polynomial q at the matrix a (Horner scheme).

    Raises AlgebraOverflow when an entry of the result is not finite.
    """
    a = as_square(a)
    c = q.coeffs if isinstance(q, Polynomial) else Polynomial(q).coeffs
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    with np.errstate(all="ignore"):
        out = c[-1] * eye
        for k in range(len(c) - 2, -1, -1):
            out = out @ a + c[k] * eye
    if not np.isfinite(out).all():
        raise AlgebraOverflow("matrix polynomial overflowed")
    return out


def char_poly(a):
    """Monic characteristic polynomial det(zI - A), ascending coefficients.

    Faddeev-LeVerrier recursion on the matrix prescaled by its largest
    entry; coefficients are rescaled back afterwards.  For an (k, n, n)
    stack the recursion runs on every matrix at once and returns the
    (k, n + 1) coefficient rows, each bit for bit the coefficients of its
    matrix alone.  Raises AlgebraOverflow when a coefficient is not
    finite.
    """
    a = _as_squares(a, (2, 3))
    n = a.shape[-1]
    s = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    coeffs = np.zeros(a.shape[:-2] + (n + 1,), dtype=np.complex128)
    coeffs[..., n] = 1.0
    m = a / s[..., None, None]
    eye = np.eye(n, dtype=np.complex128)
    mk = eye
    with np.errstate(all="ignore"):
        for k in range(1, n + 1):
            am = m @ mk
            ck = -np.trace(am, axis1=-2, axis2=-1) / k
            coeffs[..., n - k] = ck
            mk = am + ck[..., None, None] * eye
        coeffs = coeffs * s[..., None] ** np.arange(n, -1, -1.0)
    if not np.isfinite(coeffs).all():
        raise AlgebraOverflow("characteristic polynomial coefficients overflowed")
    return Polynomial(coeffs) if a.ndim == 2 else coeffs


def eigenvalues(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """All eigenvalues with multiplicity, dimension capped at EIG_DIM_CAP.

    An (k, n, n) stack gives the (k, n) eigenvalues of its matrices,
    each row bit for bit those of its matrix alone, in one kernel call
    (rows whose characteristic polynomial has a zero constant
    coefficient are solved one by one).
    """
    a = _as_squares(a, (2, 3))
    n = a.shape[-1]
    if n > EIG_DIM_CAP:
        raise DimensionTooLarge(f"dimension {n} exceeds cap {EIG_DIM_CAP}")
    if n == 0:
        return np.empty(a.shape[:-1], dtype=np.complex128)
    if a.ndim == 2:
        return roots(char_poly(a), tol)
    return _roots_rows(char_poly(a), tol)


def nullspace(a, threshold: float) -> np.ndarray:
    """Null space basis from the SVD; rows of the result span it.

    The conjugated rows of vh whose singular values are at most
    ``threshold`` (an absolute cutoff: callers pass a tolerance already
    multiplied by their scale), each scaled so that its first
    largest-magnitude entry is exactly 1.  Works for rectangular input.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("nullspace expects a 2-D array")
    _, s, vh = np.linalg.svd(m)
    sv = np.zeros(m.shape[1])
    sv[:s.size] = s
    basis = vh[sv <= threshold].conj()
    lead = np.argmax(np.abs(basis), axis=1)
    rows = np.arange(len(basis))
    basis = basis / basis[rows, lead][:, None]
    basis[rows, lead] = 1.0
    return basis
