"""Complex polynomials and fibers of a center polynomial.

Coefficients are stored densely in ascending powers.  One batched
simultaneous (Ehrlich-Aberth) kernel solves q(z) - w = 0 for a vector of
right hand sides: :func:`roots` is its one-row case with w = 0 and
:func:`fiber_batch` runs it over many w at once.  It starts on a circle
enclosing all roots and keeps multiplicities: a k-fold root comes back
as a cluster of k nearby points whose residuals are below tolerance.
"""

from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as npp

from .config import DEFAULT_TOL, Tolerances
from .errors import CentersDegenerate, ConvergenceFailure

__all__ = [
    "Polynomial",
    "Centers",
    "Fiber",
    "roots",
    "fiber",
    "fiber_batch",
    "lagrange_basis",
    "critical_points",
    "cluster_points",
]


class Polynomial:
    """Dense polynomial with complex coefficients in ascending powers.

    Trailing zero coefficients are trimmed on construction, so the last
    entry is the leading coefficient.  The zero polynomial keeps a single
    zero entry.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128)).ravel().copy()
        if arr.size == 0:
            arr = np.zeros(1, dtype=np.complex128)
        if not np.all(np.isfinite(arr)):
            raise ValueError("polynomial coefficients must be finite")
        nz = np.nonzero(arr)[0]
        arr = arr[: nz[-1] + 1] if nz.size else arr[:1]
        arr.flags.writeable = False
        self.coeffs = arr

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    @property
    def leading(self) -> complex:
        return complex(self.coeffs[-1])

    def __call__(self, z):
        return npp.polyval(z, self.coeffs)

    def __add__(self, other):
        o = other if isinstance(other, Polynomial) else Polynomial([other])
        return Polynomial(npp.polyadd(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = other if isinstance(other, Polynomial) else Polynomial([other])
        return Polynomial(npp.polysub(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(npp.polymul(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return Polynomial(npp.polypow(self.coeffs, int(n), maxpower=None))

    def derivative(self, order: int = 1) -> "Polynomial":
        return Polynomial(npp.polyder(self.coeffs, order))

    def antiderivative(self, constant=0.0) -> "Polynomial":
        """Antiderivative whose constant term equals ``constant``."""
        return Polynomial(npp.polyint(self.coeffs, 1, k=[complex(constant)]))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(z)) by Horner recursion over Polynomial arithmetic."""
        out = Polynomial([self.coeffs[-1]])
        for c in self.coeffs[-2::-1]:
            out = out * inner + c
        return out

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic form")
        return Polynomial(self.coeffs / self.coeffs[-1])

    @classmethod
    def from_roots(cls, rts) -> "Polynomial":
        """Monic polynomial with the given roots (with multiplicity)."""
        rts = np.asarray(rts, dtype=np.complex128).ravel()
        return cls(npp.polyfromroots(rts))

    def allclose(self, other: "Polynomial", atol: float = 1e-12) -> bool:
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n, np.complex128)
        b = np.zeros(n, np.complex128)
        a[: len(self.coeffs)] = self.coeffs
        b[: len(other.coeffs)] = other.coeffs
        return bool(np.all(np.abs(a - b) <= atol))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


def _coeff_array(q) -> np.ndarray:
    if isinstance(q, Polynomial):
        return q.coeffs
    return Polynomial(q).coeffs


def _newton_polish(z, coeffs, dcoeffs, w, sweeps=2):
    """Newton-refine converged iterates in place of the raw Aberth stop.

    The Aberth loop exits on a backward-error test, which can leave simple
    roots a few orders above machine accuracy when |p'| is small there.
    One or two Newton sweeps close that gap; near multiple roots the step
    p/p' only shrinks the residual cluster, so polishing is always safe.
    """
    for _ in range(sweeps):
        pv = npp.polyval(z, coeffs) - w
        dv = npp.polyval(z, dcoeffs)
        step = np.where(dv == 0, 0.0, pv / np.where(dv == 0, 1.0, dv))
        z = z - step
    return z


def _aberth(monic, ws, tol: Tolerances, max_iter: int) -> np.ndarray:
    """Roots of monic(z) - w for every w in ``ws``; shape (len(ws), deg).

    ``monic`` holds finite ascending coefficients with leading 1.  All
    rows iterate together: a point is frozen once its residual passes the
    backward-error test (|monic(z) - w| below root_tol relative to the
    coefficient magnitude accumulated at z, plus |w|), so clusters
    standing in for multiple roots terminate as well.  Overflow shows up
    as non-finite iterates and is raised, never warned about.
    """
    deg = len(monic) - 1
    n = ws.size
    wcol = ws[:, None]
    with np.errstate(all="ignore"):
        dcoef = npp.polyder(monic)
        absc = np.abs(monic)
        inner_max = np.abs(monic[1:-1]).max() if deg >= 2 else 0.0
        radius = 1.0 + np.maximum(np.abs(monic[0] - ws), inner_max)
        angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
        z = radius[:, None] * np.exp(1j * angles)[None, :]

        frozen = np.zeros((n, deg), dtype=bool)
        idx = np.arange(deg)
        for _ in range(max_iter):
            pv = npp.polyval(z, monic) - wcol
            bscale = npp.polyval(np.abs(z), absc).real + np.abs(wcol)
            bscale = np.maximum(bscale, 1.0)
            ok = np.abs(pv) <= tol.root_tol * bscale
            if ok.all():
                return _newton_polish(z, monic, dcoef, wcol)
            frozen |= ok

            dv = npp.polyval(z, dcoef)
            dv = np.where(dv == 0, 1.0, dv)
            newton = pv / dv

            diff = z[:, :, None] - z[:, None, :]
            diff[:, idx, idx] = np.inf
            bad = np.any(diff == 0, axis=(1, 2))
            if bad.any():
                # collided iterates: deterministic jitter, then continue
                z[bad] = z[bad] + 1e-8 * radius[bad, None] * np.exp(0.7j * idx)[None, :]
                frozen[bad] = False
                continue
            ssum = (1.0 / diff).sum(axis=2)
            denom = 1.0 - newton * ssum
            small = np.abs(denom) < 1e-12
            step = np.where(small, newton, newton / np.where(small, 1.0, denom))
            step = np.where(frozen, 0.0, step)
            z = z - step
            if not np.all(np.isfinite(z)):
                raise ConvergenceFailure("root iteration produced non-finite iterates")

        worst = float(np.abs(npp.polyval(z, monic) - wcol).max())
    raise ConvergenceFailure(
        f"root iteration did not converge in {max_iter} steps "
        f"(worst residual {worst:.3e})"
    )


def roots(q, tol: Tolerances = DEFAULT_TOL, max_iter: int = 400) -> np.ndarray:
    """All complex roots of ``q`` with multiplicity, degree >= 1 required.

    The one-row case of the batched kernel with w = 0; degree 1 is solved
    exactly.  Raises ConvergenceFailure when the coefficients span a range
    too wide to normalise in floating point.
    """
    c = _coeff_array(q)
    deg = len(c) - 1
    if deg < 1:
        raise ValueError("root finding requires degree >= 1")
    with np.errstate(all="ignore"):
        monic = c / c[-1]
    if not np.all(np.isfinite(monic)):
        raise ConvergenceFailure(
            "normalised coefficients are not finite (coefficient range "
            "too wide for floating point)"
        )
    if deg == 1:
        return np.array([-c[0] / c[1]], dtype=np.complex128)
    return _aberth(monic, np.zeros(1, dtype=np.complex128), tol, max_iter)[0]


def fiber_batch(centers: "Centers", ws, tol: Tolerances = DEFAULT_TOL,
                max_iter: int = 400) -> np.ndarray:
    """Fiber points of the center polynomial over each w; shape (len(ws), d).

    The batched root kernel over the right hand sides.  Rows with w
    exactly 0 return the centers themselves.
    """
    ws = np.asarray(ws, dtype=np.complex128).ravel()
    out = np.empty((ws.size, centers.d), dtype=np.complex128)
    zero_rows = ws == 0
    out[zero_rows] = centers.lambdas
    live = ~zero_rows
    if live.any():
        out[live] = _aberth(centers.poly.coeffs, ws[live], tol, max_iter)
    return out


def cluster_points(points, radius: float):
    """Greedy first-fit clustering of complex points.

    Returns (representatives, counts): each point joins the first group
    whose anchor lies within ``radius``; representatives are group means.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    anchors: list[complex] = []
    groups: list[list[complex]] = []
    for p in pts:
        placed = False
        for gi, a in enumerate(anchors):
            if abs(p - a) <= radius:
                groups[gi].append(p)
                placed = True
                break
        if not placed:
            anchors.append(p)
            groups.append([p])
    reps = np.array([np.mean(g) for g in groups], dtype=np.complex128)
    counts = np.array([len(g) for g in groups], dtype=int)
    return reps, counts


def refine_multiple_root(coeffs, z0, mult: int, radius: float,
                         max_iter: int = 40):
    """Sharpen the centroid of an m-cluster standing in for an m-fold root.

    An m-fold root of q is a simple root of the (m-1)th derivative, where
    Newton converges quadratically instead of stalling at the cluster
    scatter.  Falls back to ``z0`` when the iteration leaves the cluster
    ball of the given radius or fails to settle, so the caller never gets
    a worse point than it started with.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if mult < 1 or mult > len(c) - 1:
        return complex(z0)
    dq = npp.polyder(c, mult - 1)
    ddq = npp.polyder(dq)
    z = complex(z0)
    for _ in range(max_iter):
        dv = complex(npp.polyval(z, ddq))
        if dv == 0:
            return complex(z0)
        step = complex(npp.polyval(z, dq)) / dv
        z -= step
        if abs(z - z0) > 2.0 * radius:
            return complex(z0)
        if abs(step) <= 1e-15 * max(1.0, abs(z)):
            return z
    return z


class Centers:
    """Pairwise distinct interpolation centers and their monic polynomial."""

    __slots__ = ("lambdas", "separation", "_poly", "_deriv", "_crit", "_critvals")

    def __init__(self, lambdas, tol: Tolerances = DEFAULT_TOL):
        arr = np.atleast_1d(np.asarray(lambdas, dtype=np.complex128)).ravel().copy()
        if arr.size == 0:
            raise ValueError("at least one center is required")
        if not np.all(np.isfinite(arr)):
            raise ValueError("centers must be finite")
        scale = max(1.0, float(np.abs(arr).max()))
        if arr.size > 1:
            diff = np.abs(arr[:, None] - arr[None, :])
            np.fill_diagonal(diff, np.inf)
            sep = float(diff.min())
        else:
            sep = np.inf
        if not sep > tol.crit_tol * scale:
            raise CentersDegenerate(
                f"minimal center separation {sep:.3e} at scale {scale:.3e}"
            )
        arr.flags.writeable = False
        self.lambdas = arr
        self.separation = sep
        self._poly = None
        self._deriv = None
        self._crit = None
        self._critvals = None

    @property
    def d(self) -> int:
        return len(self.lambdas)

    @property
    def poly(self) -> Polynomial:
        if self._poly is None:
            self._poly = Polynomial.from_roots(self.lambdas)
        return self._poly

    @property
    def deriv(self) -> Polynomial:
        if self._deriv is None:
            self._deriv = self.poly.derivative()
        return self._deriv

    def deriv_at_centers(self) -> np.ndarray:
        """p'(lambda_j) as exact products of pairwise differences."""
        diff = self.lambdas[:, None] - self.lambdas[None, :]
        np.fill_diagonal(diff, 1.0)
        return np.prod(diff, axis=1)

    @property
    def critical_points(self) -> np.ndarray:
        if self._crit is None:
            if self.d < 2:
                self._crit = np.empty(0, dtype=np.complex128)
            else:
                self._crit = roots(self.deriv)
        return self._crit

    @property
    def critical_values(self) -> np.ndarray:
        if self._critvals is None:
            cp = self.critical_points
            self._critvals = np.asarray(self.poly(cp), dtype=np.complex128) \
                if cp.size else np.empty(0, dtype=np.complex128)
        return self._critvals

    def __repr__(self):
        return f"Centers({list(self.lambdas)})"


class Fiber:
    """The d preimages of w under the center polynomial, with multiplicity."""

    __slots__ = ("w", "points", "is_critical")

    def __init__(self, w, points, is_critical):
        self.w = complex(w)
        pts = np.asarray(points, dtype=np.complex128).ravel().copy()
        pts.flags.writeable = False
        self.points = pts
        self.is_critical = bool(is_critical)

    def clustered(self, radius: float):
        return cluster_points(self.points, radius)

    def __repr__(self):
        tag = "critical" if self.is_critical else "regular"
        return f"Fiber(w={self.w}, points={list(self.points)}, {tag})"


def _critical_rows(dcoeffs, points, ws, critical_values,
                   tol: Tolerances) -> np.ndarray:
    """Criticality of each fiber row; ``points`` has shape (m, d).

    Row i is critical when p' is small at one of its points, relative to
    the magnitude of p' accumulated there, or when w_i lies within
    crit_tol of a known critical value.
    """
    dv = np.abs(npp.polyval(points, dcoeffs))
    dscale = np.maximum(npp.polyval(np.abs(points), np.abs(dcoeffs)).real, 1.0)
    flags = np.any(dv <= tol.crit_tol * dscale, axis=1)
    if critical_values is not None and len(critical_values):
        gaps = np.abs(ws[:, None] - np.asarray(critical_values)[None, :])
        wscale = np.maximum(1.0, np.abs(ws))[:, None]
        flags |= np.any(gaps <= tol.crit_tol * wscale, axis=1)
    return flags


def fiber(p, w, tol: Tolerances = DEFAULT_TOL) -> Fiber:
    """Fiber of the (Centers-derived) monic polynomial over w.

    Given a :class:`Centers` instance the known critical values sharpen
    the criticality verdict and the fiber over exactly 0 is the centers
    themselves.
    """
    w = complex(w)
    if isinstance(p, Centers):
        dcoeffs = p.deriv.coeffs
        critvals = p.critical_values
        pts = fiber_batch(p, [w], tol)[0]
    else:
        poly = p if isinstance(p, Polynomial) else Polynomial(p)
        if poly.degree < 1:
            raise ValueError("fiber requires degree >= 1")
        dpoly = poly.derivative()
        dcoeffs = dpoly.coeffs
        critvals = poly(roots(dpoly, tol)) if poly.degree >= 2 else None
        pts = roots(poly - w, tol)
    flag = _critical_rows(dcoeffs, pts[None, :], np.array([w]), critvals, tol)
    return Fiber(w, pts, flag[0])


def lagrange_basis(centers: Centers) -> list[Polynomial]:
    """Lagrange basis polynomials of the centers (coefficient form).

    delta_j is 1 at lambda_j and 0 at the other centers; the sum over j
    is the constant polynomial 1.
    """
    lam = centers.lambdas
    d = len(lam)
    dens = centers.deriv_at_centers()
    out = []
    for j in range(d):
        others = np.delete(lam, j)
        numer = Polynomial.from_roots(others)
        out.append(numer * (1.0 / dens[j]))
    return out


def _lagrange_values(nodes, z) -> np.ndarray:
    """Lagrange basis of ``nodes`` at ``z`` in product form.

    Row j is prod_{k != j} (z - n_k) / (n_j - n_k), multiplied in node
    order; shape (len(nodes),) + z.shape.
    """
    z = np.asarray(z, dtype=np.complex128)
    n = len(nodes)
    out = np.empty((n,) + z.shape, dtype=np.complex128)
    for j in range(n):
        acc = np.ones_like(z)
        for k in range(n):
            if k != j:
                acc = acc * (z - nodes[k]) / (nodes[j] - nodes[k])
        out[j] = acc
    return out


def critical_points(p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Roots of p' with multiplicity (degree of p at least 2).

    For :class:`Centers` this is a copy of the cached
    ``Centers.critical_points``.
    """
    if isinstance(p, Centers):
        if p.d < 2:
            raise ValueError("critical points require degree >= 2")
        return p.critical_points.copy()
    poly = p if isinstance(p, Polynomial) else Polynomial(p)
    if poly.degree < 2:
        raise ValueError("critical points require degree >= 2")
    return roots(poly.derivative(), tol)
