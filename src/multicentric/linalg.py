"""Dense complex linear algebra at desk scale.

Solves, inverses and null spaces go to LAPACK through ``numpy.linalg``;
``solve`` takes one square matrix or a stack of them in a single call.
Before it solves, ``solve`` proves every matrix nonsingular, about
1 MiB of matrices at a time, with rigorous lower bounds on the smallest
singular value in two tiers: Johnson's O(n^2) bound on the absolute
values (``_johnson``), then, for the matrices it leaves, a shifted
Cholesky factorisation of their Gram matrices (``_certified``).  Only
the matrices neither tier clears get singular values, and refusals are
decided and named by singular values only.  Eigenvalues go through the
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
_EPS, _TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny


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

    The stack is screened in chunks of about 1 MiB of matrices
    (``_screen``), in three tiers: Johnson's bound on the absolute
    values (``_johnson``) clears a matrix in O(n^2); the Gram-Cholesky
    certificate (``_certified``) clears the matrices left in a chunk
    together; only the matrices of a chunk that neither clears get
    singular values.  A matrix is cleared only when its smallest singular
    value is provably above eq_tol times the scale.  With no refusal the
    stack goes to LAPACK, and when LAPACK still refuses, the singular
    values of the whole stack name the matrix.  Refusals are decided by
    singular values only, so the matrices refused, the ``index`` and the
    message do not depend on the certificates.
    """
    a = _as_squares(a, (2, 3))
    b = np.asarray(b, dtype=np.complex128)
    vec = b.ndim == a.ndim - 1
    x = b[..., None] if vec else b
    if x.shape[:-1] != a.shape[:-1]:
        raise ValueError("right hand side shape does not match the matrix")
    stack = a.reshape((-1,) + a.shape[-2:])
    smin, scale = _screen(stack, tol.eq_tol)
    limit = tol.eq_tol * scale
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


def _screen(stack: np.ndarray, eq_tol: float):
    """The scale max(1, max|b|) of every matrix B, and the smallest
    singular value of every matrix that no certificate clears, with inf
    for the cleared ones (which clears the refusal rule).

    About 1 MiB of matrices per chunk, so their absolute values, the
    copy of the matrices Johnson's bound leaves, their Gram matrices and
    factors stay small beside the stack.
    """
    m, n = stack.shape[0], stack.shape[-1]
    smin, scale = np.full(m, np.inf), np.empty(m)
    for part in blocks(m, 16 * n * n):
        mag = np.abs(stack[part])
        scale[part] = np.maximum(1.0, mag.max(axis=(1, 2), initial=0.0))
        left = np.flatnonzero(~(_johnson(mag) > eq_tol * scale[part]))
        if left.size:
            rest, sub = stack[part][left], part.start + left
            if not _certified(rest, scale[sub], eq_tol):
                smin[sub] = _smallest_sv(rest)
    return smin, scale


def _johnson(mag: np.ndarray) -> np.ndarray:
    """Lower bounds on the smallest singular value of each matrix B, read
    from the absolute values ``mag`` of its entries in O(n^2).

    Johnson's bound (C. R. Johnson, "A Gersgorin-type lower bound for the
    smallest singular value", Linear Algebra Appl. 112, 1989) is

        sigma_min(B) >= min_i (|b_ii| - (r_i + c_i) / 2)
                      = min_i (2 |b_ii| - (R_i + C_i) / 2),

    with r_i, c_i the off-diagonal and R_i, C_i the full absolute row and
    column sums.  It is taken on B and on W B, W = diag(w) with w the
    computed reciprocals of the |b_ii| (exact as a matrix, so the bound
    on W B holds whatever their rounding), which gives sigma_min(B) >=
    sigma_min(W^-1) sigma_min(W B) = sigma_min(W B) / max w.  The larger
    of the two bounds is returned.

    Each computed |b_ij| is within one ulp of the true one, plus 2^-1074
    when it is subnormal, and every product and sum adds half an ulp,
    plus 2^-1075 where a product underflows; so each computed R_i + C_i
    is within (n + 4) eps / 2 relative and 2 n eps tiny (1 + max w)
    absolute of the true one (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, Lemma 3.1), with w = 1 for B, and each
    diagonal entry within 2 eps.  The diagonal is deflated by 4 eps and
    the sums are inflated by 2 (n + 4) eps, twice and four times over;
    the diagonal and each of the two sums move by a further
    (n + 2) tiny (1 + max w) for gradual underflow.  Rounding the bound
    itself only lowers it or keeps its order against the limit.  A bound
    that comes out non-finite (an overflowed sum, a zero diagonal entry)
    is nan and clears nothing.
    """
    n = mag.shape[-1]
    diag = mag.diagonal(axis1=1, axis2=2)
    with np.errstate(all="ignore"):
        rows = np.einsum("kij->ki", mag)
        plain = _johnson_min(diag, rows + np.einsum("kij->kj", mag), 2.0, n)
        w = 1.0 / diag
        wmax = w.max(axis=1)
        cols = np.einsum("ki,kij->kj", w, mag)
        scaled = _johnson_min(w * diag, w * rows + cols, 1.0 + wmax, n)
        scaled = (1.0 / wmax) * (1 - 4 * _EPS) * np.maximum(scaled, 0.0)
        return np.fmax(np.where(np.isfinite(plain), plain, np.nan),
                       np.where(np.isfinite(scaled), scaled, np.nan))


def _johnson_min(diag, sums, under, n):
    """min_i (2 |b_ii| - (R_i + C_i) / 2) with the allowances of
    ``_johnson``; ``under`` is 1 + max w per matrix."""
    lo, hi = 2.0 * (1 - 4 * _EPS), 0.5 * (1 + 2 * (n + 4) * _EPS)
    return (lo * diag - hi * sums).min(axis=1) - 3 * (n + 2) * _TINY * under


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
    diag = np.arange(n)
    down = np.ldexp(1.0, 1 - np.frexp(scale)[1])
    bs = stack * down[:, None, None]
    gram = np.matmul(bs.conj().transpose(0, 2, 1), bs)
    fro2 = gram[:, diag, diag].real.sum(axis=1)
    t = eq_tol * (scale * down)
    gram[:, diag, diag] -= (t * t + 8 * (n + 2) * _EPS * fro2
                            + (n + 2) ** 2 * _TINY)[:, None]
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
