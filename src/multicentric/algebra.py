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
from .config import DEFAULT_TOL, MATCH_RTOL, Tolerances
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
    Polynomial,
    _critical_rows,
    _lagrange_values,
    cluster_points,
    fiber,
    fiber_batch,
    lagrange_basis,
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
    "resolvent_bound_check",
    "characters_at",
    "character_residual",
    "radical_basis_at",
    "quotient_spectrum",
]


class AlgebraContext:
    """Centers plus the precomputed scaling data that fixes the product.

    Carries the pairwise-difference matrix L (zero diagonal), the vector
    ell_j = 1/p'(lambda_j), their product sigma, the Lagrange basis in
    coefficient form and the tolerance configuration.
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
        ell = 1.0 / np.prod(diff, axis=1)
        sigma = lmat * ell[None, :]
        for arr in (lmat, ell, sigma):
            arr.flags.writeable = False
        self.Lmat = lmat
        self.ell = ell
        self.sigma = sigma
        self.delta = lagrange_basis(centers)
        self.p = centers.poly
        self._d = d

    @property
    def d(self) -> int:
        return self._d

    @property
    def lambdas(self) -> np.ndarray:
        return self.centers.lambdas

    def basis_values(self, z) -> np.ndarray:
        """delta_j(z) for all j in stable product form; shape (d,) + z.shape.

        The product form keeps the interpolation property exact: at a
        center the result is exactly 0 or 1.
        """
        z = np.asarray(z, dtype=np.complex128)
        lam = self.lambdas
        out = _lagrange_values(lam, z)
        # Complex division x/x may be off by an ulp, so pin exact center
        # hits to exact unit values (the zero rows are already exact).
        for j in range(self._d):
            hit = z == lam[j]
            if hit.any():
                out[j] = np.where(hit, 1.0, out[j])
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
        if gaps[i] > MATCH_RTOL * max(1.0, abs(w)):
            raise SampleMiss(
                f"no sample matches w={w!r}; nearest is {self.points[i]!r} "
                f"at distance {gaps[i]:.3e}"
            )
        return i

    def fibers(self) -> list[Fiber]:
        return [
            Fiber(self.points[i], self.fiber_points[i], bool(self.fiber_critical[i]))
            for i in range(self.m)
        ]

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


def polyprod(f: VectorFunction, g: VectorFunction) -> VectorFunction:
    """Polyproduct f * g (componentwise sigma form, vectorized over M)."""
    samples = _common_samples(f, g)
    sigma = f.ctx.sigma
    fd = f.values[:, None, :] - f.values[None, :, :]
    gd = g.values[:, None, :] - g.values[None, :, :]
    corr = np.einsum("ij,ijm,ijm->im", sigma, fd, gd)
    vals = f.values * g.values - samples.points[None, :] * corr
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


def mult_matrices(f: VectorFunction) -> np.ndarray:
    """Multiplication matrices B_f(w) for every sample; shape (m, d, d).

    B_f(w) g(w) = (f * g)(w) for all g, so the algebra action of f on the
    fiber over w is this single d x d matrix.
    """
    sigma = f.ctx.sigma
    w = f.samples.points
    fd = f.values[:, None, :] - f.values[None, :, :]   # (i, j, m)
    off = w[None, None, :] * sigma[:, :, None] * fd    # (i, j, m)
    rowsum = off.sum(axis=1)                           # (i, m)
    b = np.moveaxis(off, 2, 0).copy()                  # (m, i, j)
    idx = np.arange(f.d)
    b[:, idx, idx] = (f.values - rowsum).T
    return b


def mult_matrix(f: VectorFunction, w_index: int) -> np.ndarray:
    """Multiplication matrix at one sample index."""
    m = f.m
    if not 0 <= w_index < m:
        raise IndexError(f"sample index {w_index} out of range [0, {m})")
    return mult_matrices(f)[w_index]


def sup_norm(f: VectorFunction) -> float:
    """max over samples and components of |f_i(w)|."""
    return float(np.abs(f.values).max())


def op_norm(f: VectorFunction) -> float:
    """Operator norm of multiplication by f on the sampled algebra.

    Computed exactly as the max over samples of the infinity-induced norm
    (largest absolute row sum) of B_f(w).
    """
    b = mult_matrices(f)
    return float(np.abs(b).sum(axis=2).max())


def spectrum_multiset(f: VectorFunction) -> np.ndarray:
    """All representation values on all fibers (m*d entries, no dedup)."""
    return f.gelfand_values().ravel().copy()


def spectrum(f: VectorFunction) -> np.ndarray:
    """Deduplicated spectrum: representation values clustered at eq_tol."""
    vals = spectrum_multiset(f)
    scale = max(1.0, float(np.abs(vals).max()))
    reps, _ = cluster_points(vals, f.ctx.tol.eq_tol * scale)
    return reps


def spectral_radius_iter(f: VectorFunction, k_max: int) -> np.ndarray:
    """The sequence ||f^(2^k)||^(1/2^k) for k = 0..k_max.

    Repeated polyproduct squaring with renormalization at every step; the
    norm logs are accumulated so that neither overflow nor underflow can
    occur for any spectral radius.  Entries collapse to exactly 0 once a
    power vanishes (nilpotent elements).
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    out = np.empty(k_max + 1, dtype=float)
    r = op_norm(f)
    if not np.isfinite(r):
        raise AlgebraOverflow("operator norm is not finite at k=0")
    if r == 0.0:
        out[:] = 0.0
        return out
    log_norm = np.log(r)           # log ||f^(2^k)|| for current k
    out[0] = r
    b = f / r
    for k in range(1, k_max + 1):
        b2 = polyprod(b, b)
        rk = op_norm(b2)
        if not np.isfinite(rk):
            raise AlgebraOverflow(f"operator norm overflowed at k={k}")
        if rk == 0.0:
            out[k:] = 0.0
            return out
        log_norm = 2.0 * log_norm + np.log(rk)
        out[k] = np.exp(log_norm / 2.0 ** k)
        b = b2 / rk
    return out


def invert(f: VectorFunction) -> VectorFunction:
    """Inverse under the polyproduct, refusing when f^ vanishes on a fiber.

    Solves B_f(w) g(w) = 1 sample by sample and verifies the product
    afterwards.
    """
    tol = f.ctx.tol
    gv = f.gelfand_values()
    scale = max(1.0, sup_norm(f))
    flat = np.abs(gv).ravel()
    amin = int(np.argmin(flat))
    if flat[amin] <= tol.eq_tol * scale:
        witness = complex(f.samples.fiber_points.ravel()[amin])
        raise NotInvertible(
            f"representation vanishes near z={witness} "
            f"(|f^| = {flat[amin]:.3e})"
        )
    b = mult_matrices(f)
    ones = np.ones(f.d, dtype=np.complex128)
    vals = np.empty_like(f.values)
    for i in range(f.m):
        try:
            vals[:, i] = linalg.solve(b[i], ones, tol)
        except SingularMatrix:
            # A multiple fiber point can hide a representation zero from
            # the eq_tol screen above; the singular system is the proof.
            k = int(np.argmin(np.abs(gv[i])))
            witness = complex(f.samples.fiber_points[i, k])
            raise NotInvertible(
                f"multiplication matrix at w={complex(f.samples.points[i])} "
                f"is singular (representation vanishes near z={witness})"
            ) from None
    g = VectorFunction(f.samples, vals)
    resid = polyprod(f, g).values - 1.0
    check_scale = max(1.0, sup_norm(f) * sup_norm(g))
    worst = float(np.abs(resid).max())
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

    def charpoly(self, i: int) -> Polynomial:
        d = self.d
        asc = np.empty(d + 1, dtype=np.complex128)
        asc[d] = 1.0
        for k in range(1, d + 1):
            asc[d - k] = (-1.0) ** k * self.coeffs[i, k - 1]
        return Polynomial(asc)

    def pi_values(self, lam) -> np.ndarray:
        """pi_f(lam, w_i) for all samples; shape (m,)."""
        lam = complex(lam)
        d = self.d
        out = np.full(len(self.points), lam ** d, dtype=np.complex128)
        for k in range(1, d + 1):
            out += (-1.0) ** k * self.coeffs[:, k - 1] * lam ** (d - k)
        return out


def characteristic(f: VectorFunction) -> CharacteristicCoeffs:
    gv = f.gelfand_values()
    m, d = gv.shape
    # e[:, k] = Phi_k of the fiber values taken so far, one value per step
    e = np.zeros((m, d + 1), dtype=np.complex128)
    e[:, 0] = 1.0
    for k in range(d):
        e[:, 1:k + 2] = e[:, 1:k + 2] + gv[:, k, None] * e[:, :k + 1]
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


def quotient_spectrum(f: VectorFunction, k0_points) -> np.ndarray:
    """Spectrum of f restricted to the sub-domain points K0 (deduplicated)."""
    from .transform import gelfand_eval

    pts = np.atleast_1d(np.asarray(k0_points, dtype=np.complex128)).ravel()
    vals = np.array([gelfand_eval(f, z) for z in pts], dtype=np.complex128)
    if vals.size == 0:
        return vals
    scale = max(1.0, float(np.abs(vals).max()))
    reps, _ = cluster_points(vals, f.ctx.tol.eq_tol * scale)
    return reps
