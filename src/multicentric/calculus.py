"""Matrix functional calculus through the change of variable w = p(z).

Given spectrum data of A (eigenvalues alpha_k with the multiplicities
n_k of the minimal polynomial) and a polynomial p whose derivatives
vanish to order n_k at every alpha_k ("simplifying"), B = p(A) is
diagonalizable and

    chi_A(f) = sum_j delta_j(A) f_j(B)

defines a homomorphism from the vector-function algebra into matrices.
It is computed in that form.  The eigenvalues of B are beta_k =
p(alpha_k), so f_j(B) = sum_k f_j(beta_k) E_k with the spectral
projectors E_k = prod_{l != k} (B - beta_l) / (beta_k - beta_l), and
delta_j(A) is the same Lagrange product over the centers.  Only
polynomial evaluations of A are ever performed; no eigendecomposition of
A takes place.  The spectral mapping check sharpens multiple eigenvalues
of chi_A(f) as the radicals do, by ``polynomials._sharpen_clusters``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import VectorFunction, _dedup, gelfand_eval
from .config import DEFAULT_TOL, Tolerances
from .errors import (
    AlgebraOverflow,
    ContextMismatch,
    InsufficientData,
    NoSimpleShiftFound,
    NotSimplifying,
)
from .polynomials import (_DOWN, Polynomial, _magnitudes, _nearest_gaps,
                          _sharpen_clusters, cluster_points, roots)

__all__ = [
    "SpectrumData",
    "TestMatrixSpec",
    "SpectralMappingReport",
    "jordan_block",
    "random_similarity",
    "simplifying_poly",
    "simplifying_residual",
    "ensure_simple_roots",
    "newton_hermite",
    "chi_A",
    "hermite_matrix_function",
    "spectral_mapping_check",
    "chi_similarity",
    "hausdorff_distance",
]


@dataclass(frozen=True)
class SpectrumData:
    """Eigenvalues alpha_k with minimal-polynomial exponents n_k + 1.

    entries is a sequence of (alpha, n) pairs with distinct alphas and
    n >= 0; n is the largest nilpotent order attached to alpha, so the
    minimal polynomial is prod (z - alpha_k)^(n_k + 1).
    """

    entries: tuple = field(default_factory=tuple)

    def __init__(self, entries):
        norm = tuple((complex(a), int(n)) for a, n in entries)
        if not norm:
            raise ValueError("spectrum data needs at least one entry")
        if any(n < 0 for _, n in norm):
            raise ValueError("multiplicities must be nonnegative")
        alphas = [a for a, _ in norm]
        if len(set(alphas)) != len(alphas):
            raise ValueError("spectrum entries must have distinct eigenvalues")
        object.__setattr__(self, "entries", norm)

    @property
    def alphas(self) -> np.ndarray:
        return np.array([a for a, _ in self.entries], dtype=np.complex128)

    @property
    def orders(self) -> np.ndarray:
        return np.array([n for _, n in self.entries], dtype=int)

    @classmethod
    def from_blocks(cls, blocks) -> "SpectrumData":
        """Derive spectrum data from Jordan blocks [(alpha, size), ...]."""
        worst: dict[complex, int] = {}
        for a, size in blocks:
            a = complex(a)
            worst[a] = max(worst.get(a, 0), int(size) - 1)
        return cls(sorted(worst.items(), key=lambda t: (t[0].real, t[0].imag)))


def jordan_block(alpha, size: int) -> np.ndarray:
    j = np.eye(size, dtype=np.complex128) * complex(alpha)
    if size > 1:
        j += np.diag(np.ones(size - 1), 1)
    return j


def random_similarity(n: int, cond: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Similarity T with 2-norm condition exactly ``cond`` and its inverse.

    T = Q1 diag(s) Q2 with s geometrically spread (s = 1 when n = 1), so
    the inverse is available in closed form.  Q1, Q2 are Haar unitaries:
    the QR factor of a complex Gaussian matrix, the phases of R's
    diagonal folded into its columns (Mezzadri, Notices AMS 54, 2007).
    """
    if cond < 1.0:
        raise ValueError("condition must be at least 1")

    def unitary():
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    q1, q2 = unitary(), unitary()
    half = math.log10(cond) / 2.0 if n > 1 else 0.0
    svals = np.logspace(-half, half, n)
    t = (q1 * svals) @ q2
    tinv = (q2.conj().T / svals) @ q1.conj().T
    return t, tinv


@dataclass(frozen=True)
class TestMatrixSpec:
    """Recipe for a test matrix: Jordan blocks conjugated by a similarity.

    blocks is [(alpha, size), ...]; similarity_seed None keeps T = I,
    otherwise T is drawn deterministically with condition target_cond.
    """

    blocks: tuple
    similarity_seed: int | None = None
    target_cond: float = 1.0

    def __init__(self, blocks, similarity_seed=None, target_cond=1.0):
        norm = tuple((complex(a), int(s)) for a, s in blocks)
        if not norm or any(s < 1 for _, s in norm):
            raise ValueError("blocks must be nonempty with sizes >= 1")
        object.__setattr__(self, "blocks", norm)
        object.__setattr__(self, "similarity_seed",
                           None if similarity_seed is None else int(similarity_seed))
        object.__setattr__(self, "target_cond", float(target_cond))

    @property
    def dim(self) -> int:
        return sum(s for _, s in self.blocks)

    def spectrum_data(self) -> SpectrumData:
        return SpectrumData.from_blocks(self.blocks)

    def assemble(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (A, T, T^-1) with A = T J T^-1."""
        n = self.dim
        j = np.zeros((n, n), dtype=np.complex128)
        pos = 0
        for a, s in self.blocks:
            j[pos:pos + s, pos:pos + s] = jordan_block(a, s)
            pos += s
        if self.similarity_seed is None or self.target_cond <= 1.0:
            t = np.eye(n, dtype=np.complex128)
            tinv = t.copy()
        else:
            rng = np.random.default_rng(self.similarity_seed)
            t, tinv = random_similarity(n, self.target_cond, rng)
        return t @ j @ tinv, t, tinv


def simplifying_poly(s: SpectrumData, c=0.0) -> Polynomial:
    """Monic polynomial whose derivative vanishes to order n_k at alpha_k.

    Integrates prod_{n_k > 0} (z - alpha_k)^(n_k) from 0, adds the
    constant c and rescales to monic form; the rescale multiplies the
    constant term by N + 1 where N is the integrand degree.  With no
    repeated spectrum this degenerates to z + c.
    """
    rts = np.repeat(s.alphas, s.orders)
    if not rts.size:
        return Polynomial([complex(c), 1.0])
    integrand = Polynomial.from_roots(rts)
    anti = integrand.antiderivative(c)
    return (integrand.degree + 1.0) * anti


def simplifying_residual(p: Polynomial, s: SpectrumData) -> float:
    """Worst scaled magnitude of p^(j)(alpha_k) for 1 <= j <= n_k.

    Each |p^(j)(alpha_k)| is scaled by its :func:`_magnitudes` magnitude.
    Raises AlgebraOverflow when a derivative value is not finite.
    """
    worst = 0.0
    for a, n in s.entries:
        dp = p
        for j in range(1, n + 1):
            dp = dp.derivative()
            val, sc = _magnitudes(dp.coeffs, complex(a))
            if not val <= np.finfo(float).max * _DOWN:  # val is 2^-64 |p^(j)|
                raise AlgebraOverflow(
                    f"derivative {j} of p is not finite at alpha={complex(a)!r}")
            worst = max(worst, float(val / sc))
    return worst


# Shifts ensure_simple_roots tries before it gives up.
_SHIFT_ATTEMPTS = 32


def ensure_simple_roots(p: Polynomial, c_seed=0.0,
                        tol: Tolerances = DEFAULT_TOL) -> Polynomial:
    """Shift p by a constant until its roots are simple.

    Tries c_seed first (so an already-simple p with c_seed = 0 comes back
    unchanged), then walks a deterministic spiral of growing shifts.
    """
    base = complex(c_seed)
    b = base if base != 0 else 1.0 + 0.0j
    for t in range(_SHIFT_ATTEMPTS):
        c = base if t == 0 else b * (1.6 ** (t - 1)) * np.exp(0.4j * t)
        q = p + c
        if q.degree < 1:
            continue
        rts = roots(q, tol)
        if len(rts) > 1:
            scale = max(1.0, float(np.abs(rts).max()))
            if not _nearest_gaps(rts).min() > tol.crit_tol * scale:
                continue
            # The computed images of an exactly multiple root scatter much
            # wider than crit_tol, so the separation screen alone misses
            # them.  The derivative betrays the fake: at a true simple
            # root |q'(r)| is of the order of the separation product, at
            # a near-multiple cluster it collapses toward zero.
            dmag, dref = _magnitudes(q.derivative().coeffs, rts)
            if np.any(dmag <= 1e-5 * dref):
                continue
        return q
    raise NoSimpleShiftFound(
        f"no admissible shift found in {_SHIFT_ATTEMPTS} attempts"
    )


def newton_hermite(nodes, data) -> Polynomial:
    """Newton-form interpolant matching values and derivatives.

    nodes is a sequence of distinct points; data[k] lists
    [phi(x_k), phi'(x_k), ..., phi^(r_k)(x_k)].  Divided differences with
    repeated nodes; confluent entries are phi^(j)(x)/j!.
    """
    nodes = [complex(x) for x in nodes]
    data = [list(map(complex, vals)) for vals in data]
    if len(nodes) != len(data) or any(not v for v in data):
        raise InsufficientData("each node needs at least its value")
    xs: list[complex] = []
    group: list[int] = []
    for k, x in enumerate(nodes):
        reps = len(data[k])
        xs.extend([x] * reps)
        group.extend([k] * reps)
    n = len(xs)
    # dd[i] holds the current column of divided differences
    col = np.array([data[group[i]][0] for i in range(n)], dtype=np.complex128)
    coeffs = [col[0]]
    prev = col
    for j in range(1, n):
        cur = np.empty(n - j, dtype=np.complex128)
        for i in range(n - j):
            if xs[i + j] == xs[i]:
                k = group[i]
                cur[i] = data[k][j] / math.factorial(j)
            else:
                cur[i] = (prev[i + 1] - prev[i]) / (xs[i + j] - xs[i])
        coeffs.append(cur[0])
        prev = cur
    out = Polynomial([coeffs[-1]])
    for j in range(n - 2, -1, -1):
        out = out * Polynomial([-xs[j], 1.0]) + coeffs[j]
    return out


def _lagrange_matrices(nodes, a: np.ndarray) -> np.ndarray:
    """Lagrange basis of ``nodes`` at the matrix a; shape (len(nodes), n, n).

    Entry j is prod_{k != j} (a - n_k) / (n_j - n_k), multiplied in node
    order.
    """
    eye = np.eye(len(a), dtype=np.complex128)
    out = []
    for j, xj in enumerate(nodes):
        acc = eye
        for k, xk in enumerate(nodes):
            if k != j:
                acc = acc @ (a - xk * eye) / (xj - xk)
        out.append(acc)
    return np.array(out)


# Largest admitted ||E_k^2 - E_k|| / ||E_k||^2 of the spectral projectors
# in chi_A: chi(fg) = chi(f) chi(g) holds only as far as the E_k are
# idempotent, and the checks accept 1e-8.
_PROJECTOR_RTOL = 1e-8


def chi_A(a, s: SpectrumData, p: Polynomial, f: VectorFunction) -> np.ndarray:
    """Functional calculus chi_A(f) = sum_j delta_j(A) f_j(B), B = p(A).

    Requires p simplifying for s, p matching the centers of f, and every
    beta_k = p(alpha_k) present among f's samples.  f_j(B) is
    sum_k f_j(beta_k) E_k over the spectral projectors E_k of B.  The
    result is a polynomial in a, so it commutes with a and respects
    similarity transforms.  Raises AlgebraOverflow when a computed E_k
    misses E_k^2 = E_k by more than 1e-8 of ||E_k||^2, as it does when
    two beta_k nearly coincide.
    """
    a = linalg.as_square(a)
    if sum(n + 1 for _, n in s.entries) > a.shape[0]:
        raise ValueError("spectrum data exceeds the matrix dimension")
    ctx, tol = f.ctx, f.ctx.tol
    if p.degree != ctx.d:
        raise ContextMismatch("p degree does not match the centers of f")
    pscale = max(1.0, float(np.abs(p.coeffs).max()))
    if not p.allclose(ctx.p, atol=1e3 * tol.eq_tol * pscale):
        raise ContextMismatch("f lives over different centers than p")
    # p must have simple roots; the context construction enforces their
    # separation, so a degenerate p surfaces as CentersDegenerate there.
    resid = simplifying_residual(p, s)
    if resid > tol.eq_tol:
        raise NotSimplifying(
            f"derivative residual {resid:.3e} exceeds {tol.eq_tol:.1e}")

    with np.errstate(all="ignore"):
        betas = np.asarray(p(s.alphas), dtype=np.complex128)
    if not np.all(np.isfinite(betas)):
        raise AlgebraOverflow("p(alpha) is not finite (spectrum values too large)")
    reps = _dedup(betas, tol)
    cols = [f.samples.match(b) for b in reps]
    with np.errstate(all="ignore"):
        proj = _lagrange_matrices(reps, linalg.mat_poly_eval(p, a))
        # Rounding in p(A) grows in the E_k with the inverse gaps between
        # the beta_k, so their idempotence is checked.
        size = np.abs(proj).sum(axis=2).max(axis=1)
        miss = np.abs(proj @ proj - proj).sum(axis=2).max(axis=1)
        worst = float((miss / np.maximum(size, 1.0) ** 2).max())
        if not worst <= _PROJECTOR_RTOL:
            raise AlgebraOverflow(
                f"spectral projectors E_k of p(A) miss E_k^2 = E_k by "
                f"{worst:.3e} of ||E_k||^2 (bound {_PROJECTOR_RTOL:.0e}), "
                "as when the p(alpha_k) nearly coincide")
        f_of_b = np.einsum("jk,kab->jab", f.values[:, cols], proj)
        chi = (_lagrange_matrices(ctx.lambdas, a) @ f_of_b).sum(axis=0)
    if not np.all(np.isfinite(chi)):
        raise AlgebraOverflow("chi_A(f) is not finite (matrix entries too large)")
    return chi


def hermite_matrix_function(a, s: SpectrumData, values) -> np.ndarray:
    """Classical polynomial calculus from derivative data (oracle route).

    values[k] supplies [phi(alpha_k), ..., phi^(n_k)(alpha_k)].  For a
    single Jordan block this reproduces the upper triangular Toeplitz
    matrix with phi^(r)(alpha)/r! on the r-th superdiagonal.
    """
    a = linalg.as_square(a)
    vals = [list(v) for v in values]
    if len(vals) != len(s.entries):
        raise InsufficientData("one value list per spectrum entry is required")
    data = []
    for (alpha, n), v in zip(s.entries, vals):
        if len(v) < n + 1:
            raise InsufficientData(
                f"eigenvalue {alpha!r} needs {n + 1} derivatives, got {len(v)}"
            )
        data.append(v[: n + 1])
    h = newton_hermite(s.alphas, data)
    return linalg.mat_poly_eval(h, a)


@dataclass(frozen=True)
class SpectralMappingReport:
    computed: np.ndarray
    predicted: np.ndarray
    hausdorff: float
    cluster_radius: float

    @property
    def passed(self) -> bool:
        return self.hausdorff <= 1e-6


def hausdorff_distance(a, b) -> float:
    a = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_1d(np.asarray(b, dtype=np.complex128))
    if a.size == 0 or b.size == 0:
        return 0.0 if a.size == b.size else np.inf
    gaps = np.abs(a[:, None] - b[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def spectral_mapping_check(a, s: SpectrumData, p: Polynomial,
                           f: VectorFunction) -> SpectralMappingReport:
    """Compare the spectrum of chi_A(f) against {f^(alpha_k)} as sets.

    Both sides are clustered at the same relative radius 1e-3 before the
    Hausdorff comparison.  A k-fold eigenvalue comes out of the polynomial
    root path as a scattered k-cluster, which Newton on the characteristic
    polynomial sharpens (``polynomials._sharpen_clusters``).
    """
    chi = chi_A(a, s, p, f)
    eigs = linalg.eigenvalues(chi, f.ctx.tol)
    pred = gelfand_eval(f, s.alphas)
    scale = max(1.0, float(np.abs(eigs).max(initial=0.0)),
                float(np.abs(pred).max(initial=0.0)))
    radius = 1e-3 * scale
    comp_reps = _sharpen_clusters(linalg.char_poly(chi).coeffs, eigs,
                                  radius, 10.0 * radius)
    pred_reps, _ = cluster_points(pred, radius)
    return SpectralMappingReport(
        computed=comp_reps,
        predicted=pred_reps,
        hausdorff=hausdorff_distance(comp_reps, pred_reps),
        cluster_radius=radius,
    )


def chi_similarity(a, t, s: SpectrumData, p: Polynomial,
                   f: VectorFunction) -> np.ndarray:
    """T chi_V(f) T^-1 for V = T^-1 A T (consistency route for chi_A)."""
    tol = f.ctx.tol
    a = linalg.as_square(a)
    t = linalg.as_square(t)
    v = linalg.solve(t, a @ t, tol)
    chiv = chi_A(v, s, p, f)
    return t @ chiv @ linalg.inverse(t, tol)
