"""Complex polynomials and fibers of a center polynomial.

Coefficients are stored densely in ascending powers.  One batched
simultaneous (Ehrlich-Aberth) kernel solves q(z) - w = 0 for a vector of
right hand sides from given start points, with one q for every row or
one q per row.  Root problems enter it through :func:`roots`, for one
polynomial or a stack of coefficient rows, with w = 0 and each row
started on a circle enclosing its roots; :func:`fiber_batch` runs it
over many w at once.  The fiber over w = 0 is
the set of centers and moves smoothly with w, so a fiber row starts at
the first-order points lambda_j + w / p'(lambda_j) while those stay
within each center's distance to its nearest other center; farther rows
start on the circle of the Fujiwara bound of p - w.  A row leaves the
batch as soon as all its points converge, and its start depends only on
its own w, so a row's result does not depend on the rows beside it.
That lets :func:`fiber_batch` run the kernel one block of rows at a
time, and the kernel build its Aberth correction sums about 1 MiB of
pairwise differences (``CHUNK_BYTES``) at a time, so the scratch of a
fiber solve stays a few ``CHUNK_BYTES`` however many rows it has.  The
backward-error test is relative at every scale.  Multiplicities are
kept: a k-fold root comes back as a cluster of k nearby points whose
residuals are below tolerance, which :func:`cluster_points` groups: an
array pass over a grid of cells, then first fit over the points that
share a neighbourhood.  Whether a fiber is critical is decided in one
place, ``_critical_rows``, from the magnitude test ``_magnitudes``.
"""

from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as npp

from .config import DEFAULT_TOL, Tolerances, blocks
from .errors import AlgebraOverflow, CentersDegenerate, ConvergenceFailure

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


def _computed(coeffs, what: str) -> "Polynomial":
    """The Polynomial of freshly computed coefficients.

    Inputs that are not finite are the caller's fault and the constructor
    refuses them with ValueError; coefficients that the package computed
    from finite ones and that overflowed raise AlgebraOverflow.
    """
    if not np.isfinite(coeffs).all():
        raise AlgebraOverflow(f"{what} coefficients are not finite")
    return Polynomial(coeffs)


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

    # Arithmetic on finite polynomials can overflow: AlgebraOverflow, unwarned.
    def __add__(self, other):
        o = other if isinstance(other, Polynomial) else Polynomial([other])
        with np.errstate(all="ignore"):
            return _computed(npp.polyadd(self.coeffs, o.coeffs), "sum")

    __radd__ = __add__

    def __sub__(self, other):
        o = other if isinstance(other, Polynomial) else Polynomial([other])
        with np.errstate(all="ignore"):
            return _computed(npp.polysub(self.coeffs, o.coeffs), "difference")

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def __mul__(self, other):
        with np.errstate(all="ignore"):
            if isinstance(other, Polynomial):
                c = npp.polymul(self.coeffs, other.coeffs)
            else:
                c = self.coeffs * Polynomial([other]).coeffs[0]
            return _computed(c, "product")

    __rmul__ = __mul__

    def __pow__(self, n: int):
        with np.errstate(all="ignore"):
            return _computed(npp.polypow(self.coeffs, int(n), maxpower=None),
                             "power")

    def derivative(self, order: int = 1) -> "Polynomial":
        """The ``order``-th derivative; AlgebraOverflow if a coefficient overflows."""
        with np.errstate(all="ignore"):
            return _computed(npp.polyder(self.coeffs, order), "derivative")

    def antiderivative(self, constant=0.0) -> "Polynomial":
        """Antiderivative whose constant term equals ``constant``.

        AlgebraOverflow if a computed coefficient is not finite.
        """
        with np.errstate(all="ignore"):
            return _computed(npp.polyint(self.coeffs, 1, k=[complex(constant)]),
                             "antiderivative")

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(z)) by Horner recursion over Polynomial arithmetic."""
        out = Polynomial([self.coeffs[-1]])
        for c in self.coeffs[-2::-1]:
            out = out * inner + c
        return out

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic form")
        with np.errstate(all="ignore"):
            return _computed(self.coeffs / self.coeffs[-1], "monic")

    @classmethod
    def from_roots(cls, rts) -> "Polynomial":
        """Monic polynomial with the given roots (with multiplicity).

        AlgebraOverflow if a coefficient overflows.
        """
        rts = np.asarray(rts, dtype=np.complex128).ravel()
        if not np.isfinite(rts).all():
            raise ValueError("roots must be finite")
        with np.errstate(all="ignore"):
            return _computed(npp.polyfromroots(rts), "polynomial from roots")

    def allclose(self, other: "Polynomial", atol: float = 1e-12) -> bool:
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n, np.complex128)
        b = np.zeros(n, np.complex128)
        a[: len(self.coeffs)] = self.coeffs
        b[: len(other.coeffs)] = other.coeffs
        return bool(np.all(np.abs(a - b) <= atol))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


# Step cap of the batched root kernel, the exact power of two that keeps
# its backward-error scale in range, and the floor of that scale.
_MAX_ITER = 400
_DOWN = 2.0 ** -64
_TINY = np.finfo(float).tiny


def _columns(c):
    """Coefficient k of every row as c[k]: a scalar of one shared row, or
    a column (rows, 1) of a row per row of z."""
    return c if c is None or c.ndim == 1 else c.T[:, :, None]


def _horner(z, coeffs, dcoeffs=None, abscoeffs=None):
    """Values at z of ``coeffs`` and ``dcoeffs``, and of ``abscoeffs`` at |z|.

    One loop over the powers updates every requested value in place,
    with the arithmetic of ``npp.polyval``: start at c[-1] + z * 0, then
    p = p * z + c[k] down to k = 0, so each value is bit for bit
    ``npp.polyval``'s.  Each set is one coefficient row shared by all of
    z, or one row per row of z (shape (len(z), n)).  ``dcoeffs`` has one
    coefficient fewer than ``coeffs`` (a derivative) and ``abscoeffs``
    is real.  Returns the three values, None for the sets not given.
    """
    n = coeffs.shape[-1]
    coeffs, dcoeffs, abscoeffs = (_columns(coeffs), _columns(dcoeffs),
                                  _columns(abscoeffs))
    p = z * 0
    p += coeffs[-1]
    dp = s = None
    if dcoeffs is not None:
        dp = z * 0
        dp += dcoeffs[-1]
    if abscoeffs is not None:
        az = np.abs(z)
        s = az * 0
        s += abscoeffs[-1]
    for k in range(n - 2, -1, -1):
        p *= z
        p += coeffs[k]
        if dp is not None and k:
            dp *= z
            dp += dcoeffs[k - 1]
        if s is not None:
            s *= az
            s += abscoeffs[k]
    return p, dp, s


def _newton_step(z, pv, dv):
    """One Newton step z - pv / dv from the values pv and dv at z.

    Where dv is 0 the point stays.  The Aberth loop exits on a
    backward-error test, which can leave simple roots a few orders above
    machine accuracy when |p'| is small there; two Newton steps close
    that gap, and near multiple roots the step only shrinks the residual
    cluster, so polishing is always safe.  Overwrites pv and dv.
    """
    zero = dv == 0
    dv[zero] = 1.0
    step = np.divide(pv, dv, out=pv)
    step[zero] = 0.0
    return z - step


def _aberth(monic, ws, z0, tol: Tolerances) -> np.ndarray:
    """Roots of monic(z) - w for every w in ``ws``; shape (len(ws), deg).

    ``monic`` holds finite ascending coefficients with leading 1: one row
    shared by every w, or one row per w (shape (len(ws), deg + 1)).  Row
    i of ``z0`` holds the deg start points of row i.  Its arrays are
    (rows, deg), about 15 of them live at once, so a caller bounds the
    scratch by the number of rows it passes.  A point is frozen
    once its residual passes the backward-error test (|monic(z) - w|
    below root_tol relative to the coefficient magnitude accumulated at
    z, plus |w|), so clusters standing in for multiple roots terminate as
    well.  A row leaves the active arrays once all its points pass.  The
    rows never mix, so each row ends as it would alone: collided iterates,
    which make the row's correction sums non-finite, are jittered by 1e-8
    of the row's largest start modulus, in a step that moves no other
    row, which only costs the others one iteration of the step cap.  The
    correction sums sum_k 1 / (z_j - z_k) are built from the (rows, deg,
    deg) pairwise differences a block of about CHUNK_BYTES at a time,
    inverted in place; each row's sum runs along its own contiguous row,
    so the blocking does not change a bit.  Converged points get two
    Newton polish steps: the first as their row leaves, from the values
    of p - w and p' that the test has just computed, the second in one
    sweep over all rows at the end.  Overflow shows up as non-finite
    start points or iterates and is raised, never warned about.
    """
    deg = monic.shape[-1] - 1
    rowwise = monic.ndim == 2
    with np.errstate(all="ignore"):
        dcoef = monic[..., 1:] * np.arange(1, deg + 1)
        # Both sides of the backward-error test are scaled by 2^-64: the
        # deg + 2 terms of the scale can each be finite while their sum is
        # not.  A scale that still overflows accepts nothing.  The scale
        # is floored only at the smallest normal number, so the test stays
        # relative for polynomials that are small near their roots.
        absc = np.abs(monic) * _DOWN
        z = np.array(z0, dtype=np.complex128)
        # a start that is not finite would be taken for a collision
        if not np.isfinite(z).all():
            raise ConvergenceFailure("root iteration produced non-finite iterates")
        radius = np.abs(z).max(axis=1)

        # The active rows: their indices, iterates, right hand sides and
        # their scaled moduli, start radii, coefficient rows and frozen
        # points.
        act = np.arange(ws.size)
        za, wa, wd, ra = z, ws[:, None], np.abs(ws)[:, None] * _DOWN, radius
        ca, dca, aca = monic, dcoef, absc
        frozen = np.zeros((ws.size, deg), dtype=bool)
        idx = np.arange(deg)
        for _ in range(_MAX_ITER):
            pv, dv, bscale = _horner(za, ca, dca, aca)
            pv -= wa
            bscale += wd
            np.maximum(bscale, _TINY, out=bscale)
            ok = ((np.abs(pv) * _DOWN <= tol.root_tol * bscale)
                  & np.isfinite(bscale))
            done = ok.all(axis=1)
            ndone = np.count_nonzero(done)
            if ndone:
                z[act[done]] = _newton_step(za[done], pv[done], dv[done])
                if ndone == act.size:
                    pv, dv, _ = _horner(z, monic, dcoef)
                    pv -= ws[:, None]
                    return _newton_step(z, pv, dv)
                live = ~done
                act, za, wa, wd, ra = (act[live], za[live], wa[live],
                                       wd[live], ra[live])
                if rowwise:
                    ca, dca, aca = ca[live], dca[live], aca[live]
                frozen, ok, pv, dv = frozen[live], ok[live], pv[live], dv[live]
            frozen |= ok

            dv[dv == 0] = 1.0
            newton = np.divide(pv, dv, out=pv)

            # ssum[i, j] = sum_{k != j} 1 / (z_ij - z_ik), one block of
            # rows of the pairwise differences at a time
            ssum = np.empty_like(za)
            for rows in blocks(za.shape[0], 16 * deg * deg):
                diff = za[rows, :, None] - za[rows, None, :]
                diff[:, idx, idx] = np.inf
                np.divide(1.0, diff, out=diff)
                diff.sum(axis=2, out=ssum[rows])
                del diff                # before the next block is built
            # collided iterates (1/0 makes the row's sums non-finite):
            # deterministic jitter, then continue
            bad = ~np.isfinite(ssum).all(axis=1)
            if np.count_nonzero(bad):
                za[bad] = za[bad] + 1e-8 * ra[bad, None] * np.exp(0.7j * idx)[None, :]
                frozen[bad] = False
                continue
            # the Aberth step newton / (1 - newton * ssum), the Newton
            # step where that denominator nearly vanishes
            denom = np.multiply(newton, ssum, out=ssum)
            np.subtract(1.0, denom, out=denom)
            small = np.abs(denom) < 1e-12
            step = np.divide(newton, denom, out=denom)
            step[small] = newton[small]
            step[frozen] = 0.0
            za -= step
            if not np.isfinite(za).all():
                raise ConvergenceFailure("root iteration produced non-finite iterates")

        z[act] = za
        pv = _horner(z, monic)[0] - ws[:, None]
        worst = float(np.abs(pv).max())
    raise ConvergenceFailure(
        f"root iteration did not converge in {_MAX_ITER} steps "
        f"(worst residual {worst:.3e})"
    )


def _circle(radius, deg: int) -> np.ndarray:
    """deg start points on the circle of each radius; shape (len, deg)."""
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    return radius[:, None] * np.exp(1j * angles)[None, :]


def roots(q, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """All complex roots of ``q`` with multiplicity, degree >= 1 required.

    ``q`` is one polynomial, or a (k, deg + 1) array of coefficient rows
    with nonzero leading coefficients, whose (k, deg) roots come back
    row i bit for bit ``roots(q[i])``.  The kernel runs with w = 0, each
    row started on the circle of radius 1 + max(|a_0|, ..., |a_{deg-1}|)
    (Cauchy's bound of its monic form), once for all the rows that share
    a count of zero lowest coefficients: k of them give k roots at
    exactly 0 (the kernel's relative backward-error test is met there
    only where |q| underflows).  Degree 1 is solved exactly.  Raises
    ConvergenceFailure, unwarned, when the coefficients of a row span a
    range too wide to normalise in floating point.
    """
    one = isinstance(q, Polynomial) or np.ndim(q) != 2
    if one and not isinstance(q, Polynomial):
        q = Polynomial(q)
    c = q.coeffs[None, :] if one else np.asarray(q, dtype=np.complex128)
    deg = c.shape[1] - 1
    if deg < 1:
        raise ValueError("root finding requires degree >= 1")
    if not (np.isfinite(c).all() and c[:, -1].all()):
        raise ValueError("coefficient rows must be finite, with nonzero "
                         "leading coefficients")
    out = np.zeros((len(c), deg), dtype=np.complex128)
    # z^k divides a row with k zero lowest coefficients
    low = (c != 0).argmax(axis=1) if deg > 1 else np.zeros(len(c), int)
    for k in sorted(set(low.tolist())):
        rows = np.flatnonzero(low == k)
        with np.errstate(all="ignore"):
            monic = c[rows, k:] / c[rows, -1:]
        if not np.isfinite(monic).all():
            raise ConvergenceFailure(
                "normalised coefficients are not finite (coefficient range "
                "too wide for floating point)"
            )
        if deg - k == 1:
            out[rows, k] = -c[rows, k] / c[rows, k + 1]
        elif deg - k > 1:
            radius = 1.0 + np.abs(monic[:, :-1]).max(axis=1)
            out[rows, k:] = _aberth(monic, np.zeros(len(rows), np.complex128),
                                    _circle(radius, deg - k), tol)
    return out[0] if one else out


def _fujiwara_radius(monic, ws) -> np.ndarray:
    """Fujiwara's bound on the root moduli of monic(z) - w, for each w.

    2 max(|a_{deg-1}|, |a_{deg-2}|^(1/2), ..., |a_1|^(1/(deg-1)),
    |(a_0 - w) / 2|^(1/deg)): unlike 1 + max |a_k| it grows like
    |w|^(1/deg), so the start circle stays representable for any finite w
    whose fiber is.
    """
    deg = len(monic) - 1
    with np.errstate(all="ignore"):
        inner = np.abs(monic[1:-1]) ** (1.0 / np.arange(deg - 1, 0, -1))
        outer = (np.abs(monic[0] - ws) / 2.0) ** (1.0 / deg)
    return 2.0 * np.maximum(outer, inner.max(initial=0.0))


def fiber_batch(centers: "Centers", ws,
                tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Fiber points of the center polynomial over each w; shape (len(ws), d).

    The batched root kernel over the right hand sides.  Rows with w
    exactly 0 return the centers themselves.  A row starts at the
    first-order fiber points lambda_j + w ell_j (ell_j = 1/p'(lambda_j))
    when every |w ell_j| is at most lambda_j's distance to its nearest
    other center; a nudge of 1e-3 of that distance, turned a little
    further for each j, breaks the real symmetry on which a real p and a
    real w would otherwise stall.  Other rows start on the circle of the
    Fujiwara bound of p - w.  The rule reads only the row's own w.

    As no row's result depends on the rows beside it, the start points
    are built and the kernel run one block of rows at a time, its (rows,
    d) arrays a quarter of CHUNK_BYTES each: the kernel holds about 15 of
    them, so its scratch stays a few CHUNK_BYTES whatever len(ws) is.
    """
    ws = np.asarray(ws, dtype=np.complex128).ravel()
    d = centers.d
    out = np.empty((ws.size, d), dtype=np.complex128)
    zero_rows = ws == 0
    out[zero_rows] = centers.lambdas
    live = np.flatnonzero(~zero_rows)
    for blk in blocks(live.size, 4 * 16 * d):
        rows = live[blk]
        wl = ws[rows]
        lam, ell, near = centers.lambdas, centers.ell, centers._near
        with np.errstate(all="ignore"):
            shift = wl[:, None] * ell[None, :]
            local = (np.abs(shift) <= near[None, :]).all(axis=1)
            z0 = _circle(_fujiwara_radius(centers.poly.coeffs, wl), d)
            nudge = np.where(np.isfinite(near), 1e-3 * near, 0.0) * np.exp(
                1j * (0.4 + 2.0 * np.pi * np.arange(d) / d))
            z0[local] = lam + shift[local] + nudge
        out[rows] = _aberth(centers.poly.coeffs, wl, z0, tol)
    return out


# Offsets of the four grids of 2 x 2 super-cells, and the shift by 2**42
# that keeps their super-cell indices (exact integers below 2**40) apart.
_OFFSETS = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])[:, :, None]
_GRID_SHIFT = 2.0 ** 42 * np.arange(4)[:, None]


def _paired(order, same) -> np.ndarray:
    """Mask of the points ``order`` sorts that equal a sorted neighbour.

    ``same[k]`` tells whether sorted entries k and k + 1 match.
    """
    out = np.zeros(order.size, dtype=bool)
    out[order[1:][same]] = True
    out[order[:-1][same]] = True
    return out


def _crowded(kx, ky) -> np.ndarray:
    """Whether another point lies in each point's 3 x 3 block of cells.

    ``kx`` and ``ky`` hold exact integer cell indices below 2**41.  Two
    cells are at most one step apart in both coordinates iff they share
    a 2 x 2 super-cell of one of the four grids offset by (0|1, 0|1), so
    one lexsort of the super-cells of all four grids finds every crowded
    point.  A point with no other point in its own or a neighbouring
    column, or then row, is not crowded; one sort per coordinate drops
    those first.
    """
    cand = np.arange(kx.size)
    for k in (kx, ky):
        kc = k[cand]
        order = np.argsort(kc)
        kc = kc[order]
        cand = cand[_paired(order, kc[1:] - kc[:-1] <= 1.0)]
    out = np.zeros(kx.size, dtype=bool)
    if cand.size:
        sx = (np.floor((kx[cand] + _OFFSETS[0]) * 0.5) + _GRID_SHIFT).ravel()
        sy = np.floor((ky[cand] + _OFFSETS[1]) * 0.5).ravel()
        order = np.lexsort((sy, sx))
        sx, sy = sx[order], sy[order]
        hit = _paired(order, (sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1]))
        out[cand] = hit.reshape(4, cand.size).any(axis=0)
    return out


def cluster_points(points, radius: float):
    """Greedy first-fit clustering of complex points, in expected O(n log n).

    Returns (representatives, counts).  Points are taken in input order;
    each joins the lowest-index group whose anchor (first member) lies
    within ``radius`` of it, or else starts a new group.  Representatives
    are the group means, members taken in input order.  Non-finite points
    are singletons.  Raises ValueError unless 0 <= radius < inf.

    Points are hashed on a square grid of side at least 2 * radius, so
    every anchor within the radius lies in the 3 x 3 block of cells
    around the point.  The side is also at least 2**-40 times the largest
    coordinate, which keeps the cell indices exact integers below 2**41.
    One array pass (:func:`_crowded`) finds the crowded points, those
    with another finite point in their block; first fit runs over these
    alone, in input order, through a hash of the anchors' cells.  Every
    other point is a group of its own, as nothing else lies within the
    radius of it.  Groups come out in the order of their anchors.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    radius = float(radius)
    if not 0.0 <= radius < np.inf:
        raise ValueError(f"cluster radius must be finite and nonnegative, "
                         f"got {radius!r}")
    coords = pts.view(np.float64)          # re and im, interleaved
    span = float(np.abs(coords[np.isfinite(coords)]).max(initial=0.0))
    cell = max(2.0 * radius, span * 2.0 ** -40, np.finfo(float).tiny)
    with np.errstate(all="ignore"):
        keys = np.floor(coords / cell)
        kx, ky = keys[::2], keys[1::2]
        finite = np.flatnonzero(np.isfinite(pts))
        crowded = finite[_crowded(kx[finite], ky[finite])]
        groups: list[list[int]] = []
        grid: dict[tuple, list[int]] = {}
        for i, x, y in zip(crowded.tolist(), kx[crowded].tolist(),
                           ky[crowded].tolist()):
            p = pts[i]
            near = []
            for dx in (-1.0, 0.0, 1.0):
                for dy in (-1.0, 0.0, 1.0):
                    near += grid.get((x + dx, y + dy), ())
            for gi in sorted(near):
                if abs(p - pts[groups[gi][0]]) <= radius:
                    groups[gi].append(i)
                    break
            else:
                grid.setdefault((x, y), []).append(len(groups))
                groups.append([i])
        # one-point groups first: np.mean along an axis of length 1 gives
        # bit for bit np.mean of each point alone (not a copy: it turns
        # some -0.0 parts into 0.0)
        reps = np.mean(pts[:, None], axis=1)
        counts = np.ones(pts.size, dtype=int)
        anchor = np.ones(pts.size, dtype=bool)
        for g in groups:
            if len(g) > 1:
                reps[g[0]] = np.mean(pts[g])
                counts[g[0]] = len(g)
                anchor[g[1:]] = False
    return reps[anchor], counts[anchor]


def refine_multiple_root(coeffs, z0, mult: int, radius: float):
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
    for _ in range(40):
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
    """Pairwise distinct interpolation centers and their monic polynomial.

    ``_near[j]`` is lambda_j's distance to its nearest other center (inf
    for a single center), which bounds the fiber start of lambda_j, and
    ``separation`` is the least of them.
    """

    __slots__ = ("lambdas", "separation", "_near", "_poly", "_deriv",
                 "_ell", "_crit", "_critvals")

    def __init__(self, lambdas, tol: Tolerances = DEFAULT_TOL):
        arr = np.atleast_1d(np.asarray(lambdas, dtype=np.complex128)).ravel().copy()
        if arr.size == 0:
            raise ValueError("at least one center is required")
        if not np.all(np.isfinite(arr)):
            raise ValueError("centers must be finite")
        scale = max(1.0, float(np.abs(arr).max()))
        diff = np.abs(arr[:, None] - arr[None, :])
        np.fill_diagonal(diff, np.inf)
        near = diff.min(axis=1)
        sep = float(near.min())
        if not sep > tol.crit_tol * scale:
            raise CentersDegenerate(
                f"minimal center separation {sep:.3e} at scale {scale:.3e}"
            )
        arr.flags.writeable = False
        near.flags.writeable = False
        self.lambdas = arr
        self.separation = sep
        self._near = near
        self._poly = None
        self._deriv = None
        self._ell = None
        self._crit = None
        self._critvals = None

    @property
    def d(self) -> int:
        return len(self.lambdas)

    @property
    def poly(self) -> Polynomial:
        if self._poly is None:
            with np.errstate(all="ignore"):
                self._poly = _computed(npp.polyfromroots(self.lambdas),
                                       "center polynomial")
        return self._poly

    @property
    def deriv(self) -> Polynomial:
        if self._deriv is None:
            self._deriv = self.poly.derivative()
        return self._deriv

    @property
    def ell(self) -> np.ndarray:
        """ell_j = 1/p'(lambda_j) = 1/prod_{k != j} (lambda_j - lambda_k)."""
        if self._ell is None:
            ell = _lagrange_weights(self.lambdas)
            ell.flags.writeable = False
            self._ell = ell
        return self._ell

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
            # a value beyond the float range is inf: no finite w is near it
            with np.errstate(all="ignore"):
                self._critvals = np.asarray(self.poly(cp), dtype=np.complex128)
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


def _magnitudes(coeffs, z):
    """2^-64 |q(z)| and 2^-64 max(1, sum_k |c_k| |z|^k) at every z.

    ``coeffs`` is one coefficient row of q.  The exact power-of-two scale,
    as in :func:`_aberth`, keeps both values finite where z is near the
    float limit, and leaves every comparison between them as it is in
    range.  Unwarned.
    """
    with np.errstate(all="ignore"):
        v, _, s = _horner(z, coeffs * _DOWN, abscoeffs=np.abs(coeffs) * _DOWN)
        return np.abs(v), np.maximum(s, _DOWN)


def _critical_rows(centers: Centers, points, ws, tol: Tolerances) -> np.ndarray:
    """Criticality of each fiber row; ``points`` has shape (m, d).

    Row i is critical when p' is small at one of its points, relative to
    the magnitude of p' accumulated there (floored at 1, both sides from
    :func:`_magnitudes`), or when w_i lies within crit_tol of one of the
    centers' critical values.  Rows are tested a block at a time, so the
    scratch is a few CHUNK_BYTES whatever the row count.
    """
    dcoeffs, crit = centers.deriv.coeffs, centers.critical_values
    flags = np.empty(len(ws), dtype=bool)
    with np.errstate(all="ignore"):
        for rows in blocks(len(ws), 16 * points.shape[1]):
            dv, dscale = _magnitudes(dcoeffs, points[rows])
            flags[rows] = np.any(dv <= tol.crit_tol * dscale, axis=1)
            if crit.size:
                gaps = np.abs(ws[rows, None] - crit[None, :])
                wscale = np.maximum(1.0, np.abs(ws[rows]))[:, None]
                flags[rows] |= np.any(gaps <= tol.crit_tol * wscale, axis=1)
    return flags


def fiber(centers: Centers, w, tol: Tolerances = DEFAULT_TOL) -> Fiber:
    """Fiber of the centers' monic polynomial over w.

    The known critical values sharpen the criticality verdict, and the
    fiber over exactly 0 is the centers themselves.
    """
    w = np.array([complex(w)])
    pts = fiber_batch(centers, w, tol)
    return Fiber(w[0], pts[0], _critical_rows(centers, pts, w, tol)[0])


def lagrange_basis(centers: Centers) -> list[Polynomial]:
    """Lagrange basis polynomials of the centers (coefficient form).

    delta_j is 1 at lambda_j and 0 at the other centers; the sum over j
    is the constant polynomial 1.  Raises AlgebraOverflow, unwarned, when
    a weight ``Centers.ell`` or a coefficient is out of range.
    """
    lam, ell = centers.lambdas, centers.ell
    if not ell.all():               # the product of the differences overflowed
        raise AlgebraOverflow("Lagrange weights of the centers underflow")
    return [Polynomial.from_roots(np.delete(lam, j)) * ell[j]
            for j in range(len(lam))]


def _lagrange_weights(nodes) -> np.ndarray:
    """The weights 1 / prod_{k != j} (x_j - x_k) of each row of ``nodes``.

    ``nodes`` is one row (n,) or a stack (rows, n), and the weights have
    its shape; a row of a stack is bit for bit the row alone.  The (rows,
    n, n) differences are built a block of about CHUNK_BYTES at a time.
    Coinciding nodes or overflow give non-finite weights, unwarned.
    """
    nodes = np.asarray(nodes, dtype=np.complex128)
    stack = nodes.reshape(-1, nodes.shape[-1])
    n = stack.shape[1]
    out = np.empty(stack.shape, dtype=np.complex128)
    idx = np.arange(n)
    for rows in blocks(len(stack), 16 * n * n):
        diff = stack[rows, :, None] - stack[rows, None, :]
        diff[:, idx, idx] = 1.0
        with np.errstate(all="ignore"):
            np.divide(1.0, np.prod(diff, axis=-1), out=out[rows])
        del diff                    # before the next block is built
    return out.reshape(nodes.shape)


def _lagrange_form(nodes, z, coeffs) -> np.ndarray:
    """sum_j delta_j(z) coeffs[j], delta_j the Lagrange basis of the nodes.

    ``nodes`` is one row (n,) shared by every point, or one row per row
    of the output (rows, n).  ``coeffs`` has shape (n,) + s for an s that
    broadcasts against z.shape, and the result has the broadcast shape.
    The running-product form of the first barycentric formula,

        t <- t (z - x_j) + w_j coeffs[j] b,   b <- b (z - x_j)

    for j = n-1, ..., 0 from t = 0, b = 1 (w_j from
    :func:`_lagrange_weights`), is backward stable, does not assume that
    z lies on a fiber of the nodes, and holds only arrays of the output's
    shape, a block of about CHUNK_BYTES / 64 points at a time.  Where z
    hits a node x_k exactly (b ends exactly zero) the result is coeffs[k]
    bit for bit.  Raises AlgebraOverflow, unwarned, on a non-finite value.
    """
    nodes = np.asarray(nodes, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    c = np.asarray(coeffs, dtype=np.complex128)
    n = nodes.shape[-1]
    if c.shape[:1] != (n,):
        raise ValueError(f"coeffs must have {n} rows, got shape {c.shape}")
    shape = np.broadcast_shapes(z.shape, c.shape[1:])
    out = np.empty(shape, dtype=np.complex128)
    if out.size == 0:
        return out
    # a 0-d call is one row.  z, the coefficients, and x[j] and w[j] (node
    # j and its weight, shared or one per row) are spread to the output's
    # rank and sliced along a leading axis of its length they carry.
    res = out if shape else out[None]
    zs = z.reshape((1,) * (res.ndim - z.ndim) + z.shape)
    cs = c.reshape((n,) + (1,) * (res.ndim + 1 - c.ndim) + c.shape[1:])
    xs = nodes.T.reshape((n, -1) + (1,) * (res.ndim - 1))
    ws = _lagrange_weights(nodes).T.reshape(xs.shape)
    rows_of = [a.shape[1] == res.shape[0] for a in (cs, xs, ws)]
    for rows in blocks(res.shape[0], 64 * res[0].size):
        zr = zs[rows] if zs.shape[0] == res.shape[0] else zs
        cr, x, wts = (a[:, rows] if sliced else a
                      for a, sliced in zip((cs, xs, ws), rows_of))
        t = res[rows]                                        # view
        with np.errstate(all="ignore"):
            cw = cr * wts
            t[...] = cw[n - 1]
            b = zr - x[n - 1]
            fac, term = np.empty_like(b), np.empty_like(t)
            for j in range(n - 2, -1, -1):
                np.subtract(zr, x[j], out=fac)
                t *= fac
                np.multiply(cw[j], b, out=term)
                t += term
                b *= fac            # the last update finds node hits
            if not (b.all() and np.isfinite(t).all()):
                for k in range(n):  # exact node hits, then overflow
                    at = np.broadcast_to(zr == x[k], t.shape)
                    t[at] = np.broadcast_to(cr[k], t.shape)[at]
                if not np.isfinite(t).all():
                    raise AlgebraOverflow(
                        "Lagrange combination is not finite at the given z")
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
