"""The vector-function algebra over a finite sample set.

Elements are functions f: M -> C^d stored as a d x m value table.  The
product is the polyproduct

    (f * g)_i(w) = f_i g_i - w * sum_{j != i} sigma_ij (f_i - f_j)(g_i - g_j)

with sigma_ij = 1 / (p'(lambda_j) (lambda_i - lambda_j)) derived from the
centers.  Under the scalar representation

    f^(z) = sum_j delta_j(z) f_j(p(z))

the polyproduct turns into the pointwise product of representations on
every fiber, which is what all the spectral machinery below exploits.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from . import linalg
from .config import DEFAULT_TOL, MATCH_RTOL, Tolerances, blocks
from .errors import (
    AlgebraOverflow,
    ContextMismatch,
    ConvergenceFailure,
    NotInvertible,
    SampleMiss,
    SingularMatrix,
)
from .polynomials import (
    Centers,
    Fiber,
    _critical_rows,
    cluster_points,
    fiber,
    fiber_batch,
    refine_multiple_root,
)

__all__ = [
    "AlgebraContext",
    "SampleSet",
    "VectorFunction",
    "CharacteristicCoeffs",
    "ResolventReport",
    "box",
    "polyprod",
    "polyprod_boxed",
    "algebra_power",
    "mult_matrix",
    "mult_matrices",
    "sup_norm",
    "op_norm",
    "spectrum",
    "spectrum_multiset",
    "spectral_radius_iter",
    "invert",
    "characteristic",
    "gelfand_eval",
    "resolvent_bound_check",
    "characters_at",
    "character_residual",
    "radical_basis_at",
    "quotient_spectrum",
]


class AlgebraContext:
    """Centers plus the precomputed scaling data that fixes the product.

    Carries the pairwise-difference matrix L (zero diagonal), the vector
    ell_j = 1/p'(lambda_j), their product sigma and the tolerance
    configuration.
    """

    def __init__(self, centers, tol: Tolerances = DEFAULT_TOL):
        if not isinstance(centers, Centers):
            centers = Centers(centers, tol)
        self.centers = centers
        self.tol = tol
        lam = centers.lambdas
        d = centers.d
        diff = lam[:, None] - lam[None, :]
        np.fill_diagonal(diff, 1.0)
        lmat = 1.0 / diff
        np.fill_diagonal(lmat, 0.0)
        ell = centers.ell
        sigma = lmat * ell[None, :]
        for arr in (lmat, sigma):
            arr.flags.writeable = False
        self.Lmat = lmat
        self.ell = ell
        self.sigma = sigma
        self.p = centers.poly
        self._d = d

    @property
    def d(self) -> int:
        return self._d

    @property
    def lambdas(self) -> np.ndarray:
        return self.centers.lambdas

    def basis_values(self, z) -> np.ndarray:
        """delta_j(z) for all j; shape (d,) + z.shape, O(d) work per point.

        delta_j(z) = ell_j prod_{k<j} (z - lambda_k) prod_{k>j} (z - lambda_k),
        built in the output from one forward and one backward running
        product.  At a center the result is exactly 0 or 1: the zeros
        carry an exact zero factor and the ones are pinned.  Raises
        AlgebraOverflow when a value is not finite (z too large for
        floating point).  The points go a block at a time: the running
        products take 32 bytes a point, about CHUNK_BYTES a block, and
        the checks' boolean masks d bytes a point.
        """
        z = np.asarray(z, dtype=np.complex128)
        lam, ell, d = self.lambdas, self.ell, self._d
        out = np.empty((d,) + z.shape, dtype=np.complex128)
        flat, zall = out.reshape(d, -1), z.reshape(-1)   # views
        for cols in blocks(zall.size, 32):
            part, zf = flat[:, cols], zall[cols]         # views
            acc = np.ones_like(zf)
            fac = np.empty_like(zf)
            with np.errstate(all="ignore"):
                part[0] = 1.0
                for j in range(1, d):        # part[j] = prod_{k<j} (z - lambda_k)
                    np.subtract(zf, lam[j - 1], out=fac)
                    np.multiply(part[j - 1], fac, out=part[j])
                for j in range(d - 1, -1, -1):   # acc = prod_{k>j} (z - lambda_k)
                    np.multiply(acc, ell[j], out=fac)
                    part[j] *= fac
                    if j:
                        np.subtract(zf, lam[j], out=fac)
                        acc *= fac
            # ell_j prod_{k != j} (lambda_j - lambda_k) may be off by an
            # ulp, so exact center hits are pinned to exact unit values.
            if not np.isfinite(part).all():
                raise AlgebraOverflow("basis values are not finite at the given z")
            part[zf == lam[:, None]] = 1.0
        return out

    def fiber(self, w) -> Fiber:
        return fiber(self.centers, w, self.tol)

    def same_as(self, other: "AlgebraContext") -> bool:
        return self is other or (
            self._d == other._d
            and bool(np.array_equal(self.lambdas, other.lambdas))
        )

    def __repr__(self):
        return f"AlgebraContext(d={self._d}, centers={list(self.lambdas)})"


class SampleSet:
    """Finite sample points standing in for the compact set M.

    Fibers over every point and the Lagrange basis values on those fibers
    are solved once here and cached; everything downstream reuses them.
    """

    def __init__(self, ctx: AlgebraContext, points):
        if not isinstance(ctx, AlgebraContext):
            raise TypeError("SampleSet requires an AlgebraContext")
        pts = np.atleast_1d(np.asarray(points, dtype=np.complex128)).ravel().copy()
        if pts.size == 0:
            raise ValueError("at least one sample point is required")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample points must be finite")
        if len(np.unique(pts)) != len(pts):
            raise ValueError("sample points must be pairwise distinct")
        self.ctx = ctx
        pts.flags.writeable = False
        self.points = pts
        self.fiber_points = fiber_batch(ctx.centers, pts, ctx.tol)
        self.fiber_points.flags.writeable = False
        flags = _critical_rows(ctx.centers.deriv.coeffs, self.fiber_points, pts,
                               ctx.centers.critical_values, ctx.tol)
        flags.flags.writeable = False
        self.fiber_critical = flags

        self.basis_at_fibers = ctx.basis_values(self.fiber_points)  # (d, m, d)
        self.basis_at_fibers.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.points)

    def match(self, w) -> int:
        """Index of the sample equal to w within the matching tolerance."""
        w = complex(w)
        gaps = np.abs(self.points - w)
        i = int(np.argmin(gaps))
        if not gaps[i] <= MATCH_RTOL * max(1.0, abs(w)):
            raise SampleMiss(
                f"no sample matches w={w!r}; nearest is {self.points[i]!r} "
                f"at distance {gaps[i]:.3e}"
            )
        return i

    def same_as(self, other: "SampleSet") -> bool:
        return self is other or (
            self.ctx.same_as(other.ctx)
            and bool(np.array_equal(self.points, other.points))
        )

    def __repr__(self):
        return f"SampleSet(m={self.m}, d={self.ctx.d})"


class VectorFunction:
    """Algebra element: one C^d value per sample point, stored d x m."""

    def __init__(self, samples: SampleSet, values):
        if not isinstance(samples, SampleSet):
            raise TypeError("VectorFunction requires a SampleSet")
        vals = np.asarray(values, dtype=np.complex128)
        if vals.shape != (samples.ctx.d, samples.m):
            raise ValueError(
                f"values must have shape {(samples.ctx.d, samples.m)}, "
                f"got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("function values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        self.samples = samples
        self.values = vals
        self._gelfand = None

    @property
    def ctx(self) -> AlgebraContext:
        return self.samples.ctx

    @property
    def d(self) -> int:
        return self.ctx.d

    @property
    def m(self) -> int:
        return self.samples.m

    @classmethod
    def unit(cls, samples: SampleSet) -> "VectorFunction":
        return cls(samples, np.ones((samples.ctx.d, samples.m)))

    @classmethod
    def constant(cls, samples: SampleSet, vec) -> "VectorFunction":
        v = np.asarray(vec, dtype=np.complex128).ravel()
        if v.size != samples.ctx.d:
            raise ValueError("constant vector length must equal d")
        return cls(samples, np.repeat(v[:, None], samples.m, axis=1))

    @classmethod
    def from_callables(cls, samples: SampleSet, fns) -> "VectorFunction":
        fns = list(fns)
        if len(fns) != samples.ctx.d:
            raise ValueError("one callable per component is required")
        vals = np.array([[fn(w) for w in samples.points] for fn in fns])
        return cls(samples, vals)

    def gelfand_values(self) -> np.ndarray:
        """Representation values f^(z) on all fiber points; shape (m, d).

        Row i holds f^ at the fiber points of sample w_i.  Cached.
        """
        if self._gelfand is None:
            g = np.einsum("jmk,jm->mk", self.samples.basis_at_fibers, self.values)
            g.flags.writeable = False
            self._gelfand = g
        return self._gelfand

    def with_values(self, values) -> "VectorFunction":
        return VectorFunction(self.samples, values)

    def __add__(self, other):
        if isinstance(other, VectorFunction):
            s = _common_samples(self, other)
            return VectorFunction(s, self.values + other.values)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, VectorFunction):
            s = _common_samples(self, other)
            return VectorFunction(s, self.values - other.values)
        return NotImplemented

    def __neg__(self):
        return VectorFunction(self.samples, -self.values)

    def __mul__(self, other):
        if isinstance(other, VectorFunction):
            raise TypeError("use polyprod(f, g) for the algebra product")
        return VectorFunction(self.samples, self.values * complex(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return VectorFunction(self.samples, self.values / complex(other))

    def __repr__(self):
        return f"VectorFunction(d={self.d}, m={self.m})"


def _common_samples(f: VectorFunction, g: VectorFunction) -> SampleSet:
    if not f.samples.same_as(g.samples):
        raise ContextMismatch("operands live on different sample sets")
    return f.samples


def box(a) -> np.ndarray:
    """Matrix of pairwise component differences a_i - a_j (antisymmetric)."""
    v = np.asarray(a, dtype=np.complex128).ravel()
    return v[:, None] - v[None, :]


# Rows i of the (i, j, m) difference tensors that polyprod builds at once.
_PRODUCT_ROWS = 8


def polyprod(f: VectorFunction, g: VectorFunction) -> VectorFunction:
    """Polyproduct f * g (componentwise sigma form, vectorized over M).

    The product is pointwise in w, so it is built one block at a time: at
    most _PRODUCT_ROWS rows of i by about CHUNK_BYTES / (16 rows d)
    samples.  Each block forms the differences (f_i - f_j)(w) and
    (g_i - g_j)(w), a (rows, d, samples) tensor of about CHUNK_BYTES
    each, and writes f_i g_i - w sum_j sigma_ij (f_i - f_j)(g_i - g_j)
    straight into the output, so the only arrays whose size grows with m
    are the output and the copy its VectorFunction keeps.  The sum is one
    einsum per block, whose rounding does not depend on the number of
    samples in the block, so the result is bit for bit the same for any
    blocking.  A square (g is f) reuses the f block.
    """
    samples = _common_samples(f, g)
    sigma, fv, gv, w = f.ctx.sigma, f.values, g.values, samples.points
    vals = np.empty_like(fv)
    for cols in blocks(f.m, 16 * min(_PRODUCT_ROWS, f.d) * f.d):
        for lo in range(0, f.d, _PRODUCT_ROWS):
            rows = slice(lo, lo + _PRODUCT_ROWS)
            fd = fv[rows, None, cols] - fv[None, :, cols]
            gd = fd if g is f else gv[rows, None, cols] - gv[None, :, cols]
            corr = np.einsum("ij,ijm,ijm->im", sigma[rows], fd, gd)
            vals[rows, cols] = fv[rows, cols] * gv[rows, cols] - w[cols] * corr
    return VectorFunction(samples, vals)


def polyprod_boxed(f: VectorFunction, g: VectorFunction) -> VectorFunction:
    """Polyproduct assembled literally from box matrices and (L, ell).

    Reference route: f o g - w (L o box(f) o box(g)) ell per sample, with
    o the entrywise product.  Used to cross-check the sigma form.
    """
    samples = _common_samples(f, g)
    ctx = f.ctx
    vals = np.empty_like(f.values)
    for i, w in enumerate(samples.points):
        bf = box(f.values[:, i])
        bg = box(g.values[:, i])
        corr = (ctx.Lmat * bf * bg) @ ctx.ell
        vals[:, i] = f.values[:, i] * g.values[:, i] - w * corr
    return VectorFunction(samples, vals)


def algebra_power(f: VectorFunction, n: int) -> VectorFunction:
    if n < 1:
        raise ValueError("power must be at least 1")
    out = f
    for _ in range(n - 1):
        out = polyprod(out, f)
    return out


def _mult_block(f: VectorFunction, cols: slice) -> np.ndarray:
    """B_f(w) for the samples in ``cols``; shape (k, d, d).

    The off-diagonal entries are (w sigma_ij) (f_i - f_j)(w), the factor
    formed first, and the diagonal entry of row i is f_i(w) minus the row
    sum, taken j = 0, 1, ... in turn (numpy would sum the contiguous last
    axis pairwise, in an order that depends on d); sigma_ii = 0 makes the
    diagonal of the product zero.  Each entry goes through the same
    operations whatever the slice, so a block is bit for bit the same
    rows of the whole stack.
    """
    w, fv = f.samples.points[cols], f.values[:, cols].T        # (k,), (k, i)
    b = fv[:, :, None] - fv[:, None, :]                        # (k, i, j)
    np.multiply(w[:, None, None] * f.ctx.sigma, b, out=b)
    rowsum = b[:, :, 0].copy()
    for j in range(1, f.d):
        rowsum += b[:, :, j]
    idx = np.arange(f.d)
    b[:, idx, idx] = fv - rowsum
    return b


def _sample_chunks(f: VectorFunction):
    """Slices of about CHUNK_BYTES of (d, d) matrices covering the samples."""
    return blocks(f.m, 16 * f.d * f.d)


def mult_matrices(f: VectorFunction) -> np.ndarray:
    """Multiplication matrices B_f(w) for every sample; shape (m, d, d).

    B_f(w) g(w) = (f * g)(w) for all g, so the algebra action of f on the
    fiber over w is this single d x d matrix.  The output is filled about
    1 MiB of matrices (``CHUNK_BYTES``) at a time, so no temporary is
    larger than one chunk.
    """
    out = np.empty((f.m, f.d, f.d), dtype=np.complex128)
    for cols in _sample_chunks(f):
        out[cols] = _mult_block(f, cols)
    return out


def mult_matrix(f: VectorFunction, w_index: int) -> np.ndarray:
    """Multiplication matrix at one sample index."""
    m = f.m
    if not 0 <= w_index < m:
        raise IndexError(f"sample index {w_index} out of range [0, {m})")
    return _mult_block(f, slice(w_index, w_index + 1))[0]


def sup_norm(f: VectorFunction) -> float:
    """max over samples and components of |f_i(w)|."""
    return float(np.abs(f.values).max())


def _norm_pass(sigma, w, fv, square: bool):
    """op_norm of the values ``fv``, and with ``square`` those of their square.

    One pass over the differences D_ij = f_i - f_j, built _PRODUCT_ROWS
    rows of i at a time.  Row i of B_f(w) sums to
    |f_i - w sum_j sigma_ij D_ij| + |w| sum_j |sigma_ij| |D_ij|, the two
    sums being products of sigma and |sigma| with D and |D|.  The blocks
    span all samples, unlike polyprod's: those two sums are batched
    matmuls, whose rounding changes with the number of columns, so
    splitting the samples would change the norm's last bits.  The square
    goes through polyprod's einsum, whose rounding does not depend on
    the columns, so it is bit for bit polyprod(f, f).  Returns (norm,
    square values or None).
    """
    aw, asig = np.abs(w), np.abs(sigma)
    rows = np.empty(fv.shape)
    corr = np.empty_like(fv) if square else None
    for lo in range(0, len(fv), _PRODUCT_ROWS):
        blk = slice(lo, lo + _PRODUCT_ROWS)
        fd = fv[blk, None, :] - fv[None, :, :]
        rows[blk] = np.abs(fv[blk] - w * np.matmul(sigma[blk, None, :], fd)[:, 0])
        rows[blk] += aw * np.matmul(asig[blk, None, :], np.abs(fd))[:, 0]
        if square:
            corr[blk] = np.einsum("ij,ijm,ijm->im", sigma[blk], fd, fd)
    sq = fv * fv - w[None, :] * corr if square else None
    return float(rows.max()), sq


def op_norm(f: VectorFunction) -> float:
    """Operator norm of multiplication by f on the sampled algebra.

    Computed exactly as the max over samples of the infinity-induced norm
    (largest absolute row sum) of B_f(w), read from row blocks of the
    differences f_i - f_j, so neither the (m, d, d) matrices nor a
    (d, d, m) tensor is built.
    """
    return _norm_pass(f.ctx.sigma, f.samples.points, f.values, False)[0]


def spectrum_multiset(f: VectorFunction) -> np.ndarray:
    """All representation values on all fibers (m*d entries, no dedup)."""
    return f.gelfand_values().ravel().copy()


def _dedup(vals: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Representation values clustered at eq_tol relative to their scale.

    Raises AlgebraOverflow when a value is not finite.
    """
    if vals.size == 0:
        return vals
    if not np.isfinite(vals).all():
        raise AlgebraOverflow("representation values are not finite")
    scale = max(1.0, float(np.abs(vals).max()))
    reps, _ = cluster_points(vals, tol.eq_tol * scale)
    return reps


def spectrum(f: VectorFunction) -> np.ndarray:
    """Deduplicated spectrum: representation values clustered at eq_tol."""
    return _dedup(spectrum_multiset(f), f.ctx.tol)


def spectral_radius_iter(f: VectorFunction, k_max: int) -> np.ndarray:
    """The sequence ||f^(2^k)||^(1/2^k) for k = 0..k_max.

    Repeated polyproduct squaring.  Before each step the current power b
    is scaled by the power of two of its largest value, which is exact,
    and the scale is kept as an exponent, so that neither overflow nor
    underflow can occur for any spectral radius.  Each step is one pass
    over the differences of b that gives both its norm and its square
    (the last step skips the square): k_max + 1 passes in all.  Entries
    collapse to exactly 0 once a power vanishes (nilpotent elements).
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    out = np.zeros(k_max + 1, dtype=float)
    sigma, w = f.ctx.sigma, f.samples.points
    b, shift = f.values, 0             # f^(2^k) = 2^shift * b
    for k in range(k_max + 1):
        e = int(np.frexp(np.abs(b).max())[1])
        b = np.ldexp(b.view(float), -e).view(np.complex128)
        shift += e
        rk, b = _norm_pass(sigma, w, b, k < k_max)
        if rk == 0.0:
            return out                 # zero from k on
        out[k] = (np.ldexp(rk, shift) if k == 0      # op_norm(f), exactly
                  else np.exp((np.log(rk) + shift * np.log(2.0)) / 2.0 ** k))
        if not np.isfinite(out[k]):
            raise AlgebraOverflow(f"operator norm is not finite at k={k}")
        shift *= 2
    return out


def invert(f: VectorFunction) -> VectorFunction:
    """Inverse under the polyproduct, refusing when f^ vanishes on a fiber.

    Solves B_f(w) g(w) = 1 for every sample, building and solving the
    matrices about 1 MiB of them (``CHUNK_BYTES``) at a time, so the
    whole (m, d, d) stack is never held, and verifies the product
    afterwards with the sample-blocked polyprod.  The full-size
    temporaries are dropped as soon as they are used: the |f^| screen,
    and the solution buffer once the result holds its copy.
    """
    tol = f.ctx.tol
    gv = f.gelfand_values()
    scale = max(1.0, sup_norm(f))
    flat = np.abs(gv).ravel()
    amin = int(np.argmin(flat))
    least = flat[amin]
    del flat
    if least <= tol.eq_tol * scale:
        witness = complex(f.samples.fiber_points.ravel()[amin])
        raise NotInvertible(
            f"representation vanishes near z={witness} "
            f"(|f^| = {least:.3e})"
        )
    vals = np.empty_like(f.values)
    for cols in _sample_chunks(f):
        block = _mult_block(f, cols)
        try:
            x = linalg.solve(block, np.ones(block.shape[:2]), tol)
        except SingularMatrix as exc:
            # A multiple fiber point can hide a representation zero from the
            # eq_tol screen above; the singular system is the proof.
            i = cols.start + exc.index
            k = int(np.argmin(np.abs(gv[i])))
            witness = complex(f.samples.fiber_points[i, k])
            raise NotInvertible(
                f"multiplication matrix at w={complex(f.samples.points[i])} "
                f"is singular (representation vanishes near z={witness})"
            ) from None
        vals[:, cols] = x.T
    g = VectorFunction(f.samples, vals)
    del vals                     # g holds its own copy
    worst = float(np.abs(polyprod(f, g).values - 1.0).max())
    check_scale = max(1.0, sup_norm(f) * sup_norm(g))
    if worst > 1e3 * tol.eq_tol * check_scale:
        raise ConvergenceFailure(
            f"inverse verification failed (residual {worst:.3e})"
        )
    return g


@dataclass(frozen=True)
class CharacteristicCoeffs:
    """Elementary symmetric functions Phi_k(w) of the fiber values of f^.

    coeffs[i, k-1] = Phi_k(w_i); the characteristic polynomial of f over
    w is lambda^d - Phi_1 lambda^(d-1) + ... + (-1)^d Phi_d.
    """

    points: np.ndarray
    coeffs: np.ndarray

    @property
    def d(self) -> int:
        return self.coeffs.shape[1]

    def pi_values(self, lam) -> np.ndarray:
        """pi_f(lam, w_i) for all samples by Horner's rule; shape (m,).

        Raises AlgebraOverflow when a value is not finite.
        """
        lam = complex(lam)
        out = np.ones(len(self.points), dtype=np.complex128)
        with np.errstate(all="ignore"):
            for k in range(1, self.d + 1):
                out = out * lam + (-1.0) ** k * self.coeffs[:, k - 1]
        if not np.all(np.isfinite(out)):
            raise AlgebraOverflow(
                f"characteristic polynomial is not finite at lam={lam!r}")
        return out


def characteristic(f: VectorFunction) -> CharacteristicCoeffs:
    gv = f.gelfand_values()
    m, d = gv.shape
    # e[:, k] = Phi_k of the fiber values taken so far, one value per step
    e = np.zeros((m, d + 1), dtype=np.complex128)
    e[:, 0] = 1.0
    with np.errstate(all="ignore"):
        for k in range(d):
            e[:, 1:k + 2] = e[:, 1:k + 2] + gv[:, k, None] * e[:, :k + 1]
    if not np.isfinite(e).all():
        raise AlgebraOverflow("characteristic coefficients are not finite")
    phi = e[:, 1:].copy()
    phi.flags.writeable = False
    return CharacteristicCoeffs(points=f.samples.points, coeffs=phi)


@dataclass(frozen=True)
class ResolventReport:
    """Outcome of the resolvent bound check at one lambda."""

    lam: complex
    dist_to_spectrum: float
    resolvent_op_norm: float
    lower_bound: float
    lower_bound_holds: bool
    empirical_constant: float


def resolvent_bound_check(f: VectorFunction, lam) -> ResolventReport:
    """Invert lambda*1 - f and compare against the two-sided bounds.

    The empirical constant is the max over samples of
    |resolvent(w)|_inf * |pi_f(lam, w)| / (|lam| + ||f||)^(d-1); the lower
    bound is 1/dist(lam, spectrum) <= ||resolvent||.
    """
    lam = complex(lam)
    vals = spectrum_multiset(f)
    dist = float(np.abs(vals - lam).min())
    shifted = lam * VectorFunction.unit(f.samples) - f
    res = invert(shifted)
    rop = op_norm(res)
    lower = 1.0 / dist
    holds = lower <= rop * (1.0 + 1e-12) + 1e-300
    pi = characteristic(f).pi_values(lam)
    denom = (abs(lam) + op_norm(f)) ** (f.d - 1)
    per_sample = np.abs(res.values).max(axis=0) * np.abs(pi) / denom
    return ResolventReport(
        lam=lam,
        dist_to_spectrum=dist,
        resolvent_op_norm=rop,
        lower_bound=lower,
        lower_bound_holds=bool(holds),
        empirical_constant=float(per_sample.max()),
    )


def characters_at(ctx: AlgebraContext, samples: SampleSet, w0) -> np.ndarray:
    """The d multiplicative functionals living over w0; rows are eta^(k).

    eta^(k) = (delta_1(z_k), ..., delta_d(z_k)) for the fiber points z_k
    of w0.  Over w0 = 0 these are exactly the standard basis vectors.
    """
    if not ctx.same_as(samples.ctx):
        raise ContextMismatch("sample set belongs to a different context")
    i = samples.match(w0)
    return samples.basis_at_fibers[:, i, :].T.copy()


def character_residual(ctx: AlgebraContext, w0, etas) -> float:
    """Worst violation of the defining character equations.

    Checks eta_i^2 = eta_i - w0 sum_{j!=i}(sigma_ij eta_i + sigma_ji eta_j),
    eta_i eta_j = w0 (sigma_ij eta_i + sigma_ji eta_j) for i != j, and
    sum_i eta_i = 1, over all supplied rows.
    """
    w0 = complex(w0)
    sig = ctx.sigma
    worst = 0.0
    for eta in np.atleast_2d(np.asarray(etas, dtype=np.complex128)):
        t = sig * eta[:, None] + sig.T * eta[None, :]   # t[i,j], zero diagonal
        outer = eta[:, None] * eta[None, :]
        off = outer - w0 * t
        np.fill_diagonal(off, 0.0)
        diag = eta * eta - eta + w0 * t.sum(axis=1)
        worst = max(
            worst,
            float(np.abs(off).max()),
            float(np.abs(diag).max()),
            abs(eta.sum() - 1.0),
        )
    return worst


def radical_basis_at(ctx: AlgebraContext, w0) -> np.ndarray:
    """Basis (rows) of the radical directions over w0; empty when regular.

    Builds the matrix delta_j(z_i) on the clustered fiber over w0 and
    returns its null space.  Nonempty exactly when the fiber coalesces,
    i.e. when w0 is a critical value.

    An m-fold fiber point comes out of the root finder as an m-cluster of
    diameter up to 2 * root_tol^(1/m), so the merge radius is that bound
    at m = d with a margin of 2; fiber points closer than this are
    treated as coalescing.
    """
    fib = ctx.fiber(w0)
    scale = max(1.0, float(np.abs(fib.points).max()), abs(complex(w0)))
    radius = 4.0 * max(ctx.tol.crit_tol,
                       ctx.tol.root_tol ** (1.0 / ctx.d)) * scale
    reps, counts = fib.clustered(radius)
    # Sharpen coalesced representatives: the centroid of a root-finder
    # cluster is only as good as its scatter, while the true m-fold fiber
    # point is a simple root of the (m-1)th derivative of p(z) - w0.
    fiber_coeffs = ctx.centers.poly.coeffs.copy()
    fiber_coeffs[0] -= complex(w0)
    reps = np.array(
        [refine_multiple_root(fiber_coeffs, z, int(m), radius)
         for z, m in zip(reps, counts)],
        dtype=np.complex128,
    )
    rows = ctx.basis_values(reps).T          # (n_reps, d); row i = delta_.(z_i)
    return linalg.nullspace(rows, ctx.tol.eq_tol * max(1.0, np.abs(rows).max()))


def gelfand_eval(f: VectorFunction, z):
    """The scalar representation f^(z) = sum_j delta_j(z) f_j(p(z)).

    ``z`` is one point, giving a complex, or an array of points, giving
    an array of the same shape.  Every p(z) must match one of f's sample
    points within the matching tolerance, otherwise SampleMiss is
    raised; AlgebraOverflow is raised when p(z) or f^(z) is not finite.
    """
    ctx = f.ctx
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        ws = np.asarray(ctx.p(z))
    if not np.all(np.isfinite(ws)):
        raise AlgebraOverflow("p(z) is not finite at the given z")
    idx = [f.samples.match(w) for w in ws.ravel()]
    cols = f.values[:, idx].reshape((ctx.d,) + z.shape)
    with np.errstate(all="ignore"):
        vals = (ctx.basis_values(z) * cols).sum(axis=0)
    if not np.isfinite(vals).all():
        raise AlgebraOverflow("f^ is not finite at the given z")
    return complex(vals) if z.ndim == 0 else vals


def quotient_spectrum(f: VectorFunction, k0_points) -> np.ndarray:
    """Spectrum of f restricted to the sub-domain points K0 (deduplicated)."""
    pts = np.atleast_1d(np.asarray(k0_points, dtype=np.complex128)).ravel()
    return _dedup(gelfand_eval(f, pts), f.ctx.tol)
