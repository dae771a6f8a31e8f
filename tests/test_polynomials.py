import warnings

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import given, strategies as st

from multicentric import config
from multicentric.config import CHUNK_BYTES, DEFAULT_TOL
from multicentric.errors import (
    AlgebraOverflow,
    CentersDegenerate,
    ConvergenceFailure,
)
from multicentric.polynomials import (
    Centers,
    Polynomial,
    _aberth,
    _asymptotic_start,
    _crowded,
    _horner,
    _magnitudes,
    _nearest_gaps,
    _sharpen_clusters,
    cluster_points,
    critical_points,
    fiber,
    fiber_batch,
    lagrange_basis,
    refine_multiple_root,
    roots,
)


# Coefficient ranges beyond floating point: the Wilkinson polynomial
# overflows on the start circle of the iteration, and normalising the
# other two to a monic polynomial overflows.
WIDE_RANGE = {
    "wilkinson20": list(np.polynomial.polynomial.polyfromroots(np.arange(1.0, 21.0))),
    "quadratic": [1e300, 0.0, 1e-300],
    "linear": [1e300, 1e-300],
}


def _backward_err(cen, ws, pts):
    """Worst |p(z) - w| / (sum_k |c_k| |z|^k + |w|) over a (m, d) stack."""
    c = cen.poly.coeffs
    ws = np.asarray(ws, dtype=np.complex128)[:, None]
    res = np.abs(npp.polyval(pts, c) - ws)
    scale = npp.polyval(np.abs(pts), np.abs(c)).real + np.abs(ws)
    return float((res / np.maximum(scale, np.finfo(float).tiny)).max())


def _match_multisets(a, b, tol):
    """Greedy bijection between two complex multisets."""
    a = list(np.asarray(a, dtype=np.complex128))
    b = list(np.asarray(b, dtype=np.complex128))
    assert len(a) == len(b)
    for x in a:
        j = int(np.argmin([abs(x - y) for y in b]))
        assert abs(x - b[j]) <= tol, f"{x} unmatched (closest {b[j]})"
        b.pop(j)


class TestPolynomial:
    def test_eval_and_degree(self):
        p = Polynomial([1.0, 0.0, -2.0, 1.0])  # 1 - 2z^2 + z^3
        assert p.degree == 3
        assert p(0.0) == 1.0
        assert abs(p(2.0) - (1 - 8 + 8)) < 1e-14

    def test_arithmetic(self):
        p = Polynomial([1.0, 1.0])
        q = Polynomial([-1.0, 1.0])
        prod = p * q
        assert np.allclose(prod.coeffs, [-1.0, 0.0, 1.0])
        s = p + q
        assert np.allclose(s.coeffs, [0.0, 2.0])

    def test_overflowing_arithmetic_raises_without_warnings(self):
        big = Polynomial([-1e200, 1.0])                 # z - 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for make in (lambda: big * big, lambda: big ** 2,
                         lambda: big * 1e200, lambda: big.compose(big * big),
                         lambda: Polynomial([1e308, 1.0]) + 1e308,
                         lambda: Polynomial([1e308, 1.0]) - (-1e308),
                         lambda: Polynomial([1.0, 1e-320]).monic(),
                         lambda: Polynomial.from_roots([1e200, 1e200])):
                with pytest.raises(AlgebraOverflow, match="not finite"):
                    make()

    def test_non_finite_operands_are_refused(self):
        p = Polynomial([1.0, 1.0])
        for make in (lambda: Polynomial.from_roots([1.0, np.inf]),
                     lambda: p * np.nan, lambda: p + np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                make()

    def test_derivative(self):
        p = Polynomial([3.0, 0.0, 1.0])  # 3 + z^2
        assert np.allclose(p.derivative().coeffs, [0.0, 2.0])

    def test_overflowing_derivative_raises_without_warnings(self):
        # finite coefficients whose derivative 2e308 z is not representable
        p = Polynomial([1e-320, 0.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AlgebraOverflow, match="derivative"):
                p.derivative()
            with pytest.raises(AlgebraOverflow, match="derivative"):
                Polynomial([0.0, 0.0, 0.0, 1e308]).derivative(2)
            # dividing can only underflow, which is not an error
            q = Polynomial([5e-324, 5e-324]).antiderivative(1e308)
        assert q.coeffs[0] == 1e308 and np.isfinite(q.coeffs).all()

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, np.inf)])
    def test_constructor_refuses_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            Polynomial([1.0, bad])

    def test_monic(self):
        p = Polynomial([2.0, 0.0, 4.0])
        assert np.allclose(p.monic().coeffs, [0.5, 0.0, 1.0])


class TestRoots:
    def test_linear(self):
        out = roots(Polynomial([-6.0, 2.0]))
        assert np.allclose(out, [3.0])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            roots(Polynomial([5.0]))

    def test_quadratic_exact(self):
        out = np.sort_complex(roots(Polynomial([-4.0, 0.0, 1.0])))
        assert np.allclose(out, [-2.0, 2.0], atol=1e-12)

    def test_double_root_clusters(self):
        # (z-2)^2: the pair must sit within the cluster tolerance of 2
        out = roots(Polynomial([4.0, -4.0, 1.0]))
        assert np.all(np.abs(out - 2.0) < 1e-4)
        reps, counts = cluster_points(out, 1e-3)
        assert len(reps) == 1 and counts[0] == 2

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("deg", [2, 3, 5, 8])
    def test_against_numpy(self, seed, deg):
        rng = np.random.default_rng(1000 * deg + seed)
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        c[-1] += 3.0  # keep the leading coefficient away from zero
        ours = roots(Polynomial(c))
        ref = np.roots(c[::-1])
        _match_multisets(ours, ref, 1e-7 * max(1.0, np.abs(ref).max()))

    def test_backward_error(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        p = Polynomial(c)
        for z in roots(p):
            scale = np.polynomial.polynomial.polyval(abs(z), np.abs(c)).real
            assert abs(p(z)) <= DEFAULT_TOL.root_tol * max(scale, 1.0)

    @pytest.mark.parametrize("name", sorted(WIDE_RANGE))
    def test_wide_range_raises_without_warnings(self, name):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConvergenceFailure):
                roots(WIDE_RANGE[name])
        assert [str(w.message) for w in caught] == []


class TestHorner:
    @pytest.mark.parametrize("deg", [1, 2, 5, 64])
    def test_matches_polyval_bit_for_bit(self, deg):
        # the root kernel's fused loop must leave every root unchanged
        rng = np.random.default_rng(deg)
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        z = (rng.standard_normal((40, deg)) + 1j * rng.standard_normal((40, deg))) \
            * 10.0 ** rng.uniform(-8, 8, (40, deg))
        z[0, 0] = 0.0
        dc, ac = npp.polyder(c), np.abs(c)
        with np.errstate(all="ignore"):
            p, dp, s = _horner(z, c, dc, ac)
            want = (npp.polyval(z, c), npp.polyval(z, dc), npp.polyval(np.abs(z), ac))
            assert _horner(z, c)[1:] == (None, None)
        for got, ref in zip((p, dp, s), want):
            assert got.tobytes() == ref.tobytes()

    def test_one_row_per_z_row_matches_polyval(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        z = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        dc = c[:, 1:] * np.arange(1, 5)
        p, dp, s = _horner(z, c, dc, np.abs(c))
        for i in range(6):
            assert p[i].tobytes() == npp.polyval(z[i], c[i]).tobytes()
            assert dp[i].tobytes() == npp.polyval(z[i], dc[i]).tobytes()
            assert s[i].tobytes() == npp.polyval(np.abs(z[i]),
                                                 np.abs(c[i])).tobytes()

    def test_magnitudes_are_the_scaled_polyval_test(self):
        # 2^-64 |q(z)| and 2^-64 max(1, sum |c_k| |z|^k) decide as the
        # unscaled values do in range, and stay finite at the float limit
        rng = np.random.default_rng(9)
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        z = (rng.standard_normal(200) + 1j * rng.standard_normal(200)) \
            * 10.0 ** rng.uniform(-3, 3, 200)
        v, s = _magnitudes(c, z)
        ref_v = np.abs(npp.polyval(z, c))
        ref_s = np.maximum(1.0, npp.polyval(np.abs(z), np.abs(c)).real)
        assert np.allclose(v, ref_v * 2.0 ** -64, rtol=1e-15, atol=0)
        assert s.tobytes() == (ref_s * 2.0 ** -64).tobytes()
        for k in (1e-3, 1.0, 1e3):
            assert np.array_equal(v <= k * s, ref_v <= k * ref_s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, s = _magnitudes(np.array([0.0, 1e308]), np.array([1.5]))
        assert np.isfinite(v).all() and np.isfinite(s).all()


# Scales of roots, centers and fibers over which the backward-error test
# of the root kernel must stay relative.
SCALES = [1e-6, 1e-3, 1e-2, 1.0, 1e3, 1e6]


class TestScaledInputs:
    """Roots, critical points and fibers of inputs scaled by s.

    Each is checked against an oracle that does not share the kernel:
    known roots, or a product form over the centers.
    """

    def test_two_small_roots(self):
        # (z - 1e-6)(z - 2e-6)
        _match_multisets(roots([2e-12, -3e-6, 1.0]), [1e-6, 2e-6], 1e-20)

    @pytest.mark.parametrize("s", SCALES)
    def test_known_roots(self, s):
        rng = np.random.default_rng(7)
        rts = s * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        _match_multisets(roots(npp.polyfromroots(rts)), rts, 1e-12 * s)

    # At s = 1e6 the constant term of z^8 - s^8 is 1e48, and the start
    # circle of radius 1 + 1e48 overflows polyval.
    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1e-2, 1.0, 1e3])
    def test_circle_of_roots(self, s):
        c = np.zeros(9, dtype=np.complex128)
        c[0], c[8] = -s ** 8, 1.0
        _match_multisets(roots(c), s * np.exp(2j * np.pi * np.arange(8) / 8),
                         1e-12 * s)

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_roots_at_zero_are_exact(self, k):
        # z^k (z - 1e6)(z - 1): the k zero roots meet the relative test
        # only where the polynomial underflows, so they are split off
        got = roots(npp.polyfromroots([0.0] * k + [1e6, 1.0]))
        assert np.count_nonzero(got == 0) == k
        _match_multisets(got[got != 0], [1e6, 1.0], 1e-9)

    @pytest.mark.parametrize("s", SCALES)
    def test_critical_points(self, s):
        # p'/p = sum_j 1 / (z - lambda_j) vanishes at every critical point
        rng = np.random.default_rng(8)
        cen = Centers(s * (rng.standard_normal(6) + 1j * rng.standard_normal(6)))
        gaps = cen.critical_points[:, None] - cen.lambdas[None, :]
        resid = np.abs((1.0 / gaps).sum(axis=1)) / (1.0 / np.abs(gaps)).sum(axis=1)
        assert resid.max() <= 1e-12

    @pytest.mark.parametrize("s", SCALES)
    def test_fibers(self, s):
        # prod_j (z - lambda_j) = w at every fiber point; |w| ~ s^6
        rng = np.random.default_rng(9)
        cen = Centers(s * (rng.standard_normal(6) + 1j * rng.standard_normal(6)))
        ws = 3.0 * s ** 6 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        pts = fiber_batch(cen, ws)
        prod = np.prod(pts[:, :, None] - cen.lambdas[None, None, :], axis=2)
        assert (np.abs(prod - ws[:, None]) <= 1e-11 * np.abs(ws)[:, None]).all()
        assert _backward_err(cen, ws, pts) <= DEFAULT_TOL.root_tol


@st.composite
def _fiber_rows(draw):
    """Centers and fiber rows, with a permutation and a subset of the rows.

    The centers are clustered (within ~1e-2 of 1), far apart (moduli
    growing by 3 per center) or spread on a unit grid, then scaled by
    1e-3 to 1e3.  The rows mix w = 0, |w| from 1e-6 to 1e6 times the
    scale of p, and points next to critical values, where Newton steps
    converge slowly and a change in the stopping test shows in the bits.
    """
    d = draw(st.integers(1, 6))
    jitter = draw(st.lists(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
                           min_size=d, max_size=d))
    unit = np.array([k + complex(x, y) for k, (x, y) in enumerate(jitter)])
    kind = draw(st.sampled_from(["clustered", "far-apart", "spread"]))
    if kind == "clustered":
        lam = 1.0 + 2e-3 * unit
    elif kind == "far-apart":
        lam = (1.0 + unit) * 3.0 ** np.arange(d)
    else:
        lam = unit - unit.mean()
    s = 10.0 ** draw(st.integers(-3, 3))
    cen = Centers(s * lam)
    pscale = float(np.prod(np.abs(cen.lambdas - cen.lambdas.mean()))) or s
    crit = cen.critical_values
    ws = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["zero", "scaled", "critical", "critical"]))
        if kind == "zero":
            ws.append(0.0)
        elif kind == "critical" and crit.size:
            c = crit[draw(st.integers(0, crit.size - 1))]
            ws.append(c * (1.0 + draw(st.sampled_from([1e-10, 1e-6, -1e-3]))))
        else:
            x, y = draw(st.floats(-2, 2)), draw(st.floats(-2, 2))
            ws.append(pscale * 10.0 ** draw(st.integers(-6, 6)) * complex(x, y))
    n = len(ws)
    perm = draw(st.permutations(range(n)))
    sub = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                        unique=True))
    return cen, np.array(ws, dtype=np.complex128), perm, sub


class TestFiber:
    def test_points_are_preimages(self):
        cen = Centers([1.0, -1.0, 0.5j])
        ws = np.array([0.3 + 0.1j, -2.0, 5.0j])
        pts = fiber_batch(cen, ws)
        for i, w in enumerate(ws):
            vals = cen.poly(pts[i]) - w
            assert np.abs(vals).max() < 1e-9

    def test_zero_row_is_exactly_centers(self):
        cen = Centers([1.2 + 0.3j, -0.7, 0.1 - 1.1j])
        pts = fiber_batch(cen, [0.0])
        assert np.array_equal(pts[0], cen.lambdas)

    def test_single_fiber_object(self):
        cen = Centers([1.0, -1.0])
        fib = fiber(cen, 3.0)
        assert np.allclose(np.sort_complex(fib.points), [-2.0, 2.0], atol=1e-12)
        assert not fib.is_critical

    def test_critical_fiber_flagged(self):
        cen = Centers([1.0, -1.0])
        fib = fiber(cen, -1.0)  # double point at z = 0
        assert fib.is_critical

    @pytest.mark.parametrize("w", [1e200, 1e300])
    def test_huge_w_solves_without_warnings(self, w):
        # p(z) = z^2 - 1: the fiber {+-sqrt(w)} is representable, and so
        # are the asymptotic start points, +-sqrt(w + 1) turned by 0.1
        cen = Centers([1.0, -1.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pts = fiber(cen, w).points
        assert [str(m.message) for m in caught] == []
        assert _backward_err(cen, [w], pts[None, :]) <= DEFAULT_TOL.root_tol
        assert np.allclose(np.sort(pts.real), [-w ** 0.5, w ** 0.5],
                           rtol=1e-15, atol=0)

    @pytest.mark.parametrize("w", [1e308, 1e308j])
    def test_huge_w_whose_scale_overflows(self, w):
        # At the fiber {+-sqrt(w)} the backward-error scale |z|^2 + 1 + |w|
        # is 2e308, past the float range, though the fiber and its
        # residual are representable.
        pts = fiber(Centers([1.0, -1.0]), w).points
        root = np.sqrt(complex(w))
        _match_multisets(pts, [root, -root], 1e-15 * abs(root))

    @pytest.mark.parametrize("w", [-1e308, -1e308j])
    def test_huge_w_from_the_asymptotic_start(self, w):
        # p(z) = z^2 - 1: the fiber {+-sqrt(w)} has modulus 1e154, and a
        # start circle much wider than that sends p(z) - w past the float
        # range; the asymptotic start points have the fiber's modulus.
        cen = Centers([1.0, -1.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pts = fiber(cen, w).points
        assert [str(m.message) for m in caught] == []
        # z^2 - 1 - w and its scale |z|^2 + 1 + |w|, both divided by 4
        half = pts / 2.0
        res = np.abs(half * half - 0.25 - w / 4.0)
        scale = np.abs(half) ** 2 + 0.25 + abs(w) / 4.0
        assert (res <= DEFAULT_TOL.root_tol * scale).all()
        root = np.sqrt(complex(w))
        _match_multisets(pts, [root, -root], 1e-15 * abs(root))

    def test_real_row_leaves_the_real_axis(self):
        # centers {0, +-sqrt 3}, p = z^3 - 3z, w = 3: every first-order
        # start point is real, and without the nudge the iteration stays
        # on the real axis, where two of the three roots are not
        cen = Centers([0.0, 3.0 ** 0.5, -(3.0 ** 0.5)])
        pts = fiber_batch(cen, [3.0])
        assert _backward_err(cen, [3.0], pts) <= DEFAULT_TOL.root_tol
        _match_multisets(pts[0], np.roots([1.0, 0.0, -3.0, -3.0]), 1e-12)

    def test_single_center(self):
        # d = 1: no nearest center, and lambda + w is the fiber
        lam = 0.5 + 0.2j
        ws = np.array([0.3, -2j, 1e10, 1e300])
        pts = fiber_batch(Centers([lam]), ws)
        assert pts.shape == (4, 1)
        assert np.abs(pts[:, 0] - (lam + ws)).max() <= 1e-15 * np.abs(ws).max()

    def test_unresolved_w_gives_the_first_order_points(self):
        # |w| = 5.7e-103 is far below what p's monomial coefficients
        # resolve at these centers (the pinned example of the homomorphism
        # property); iterated on those coefficients, the points came back
        # 4e-15 off the centers, where p(z) - w (product form) is ~|w|
        cen = Centers([-1.4346786362610806 - 1.480855798450437j,
                       4.940618973178991e-204 - 1.3978210323148053j,
                       -0.75 - 1.4999999403953552j])
        w = 5.658543416434881e-103 - 4.7538840213742625e-104j
        assert 0 < abs(w) <= cen._unresolved
        pts = fiber_batch(cen, [w, 0.0, 1e-12])
        assert pts[0].tobytes() == (cen.lambdas + w * cen.ell).tobytes()
        assert pts[1].tobytes() == cen.lambdas.tobytes()
        res = np.abs(np.prod(pts[:1].T - cen.lambdas, axis=1) - w)
        assert (res <= 2 * abs(w)).all()
        assert _backward_err(cen, [1e-12], pts[2:]) <= DEFAULT_TOL.root_tol
        # where the monomial coefficients cancel, no w counts as unresolved
        assert Centers(2.0 * np.exp(2j * np.pi * np.arange(64) / 64))._unresolved == 0

    @pytest.mark.parametrize("d", [32, 64])
    def test_many_centers_on_a_circle(self, d):
        # the Cauchy start circle of radius ~2^d overflowed polyval here
        cen = Centers(2.0 * np.exp(2j * np.pi * np.arange(d) / d))
        ws = np.array([0.5, 3.0, -7j, 1e3, 1e6 * (1 + 1j), -1e9])
        pts = fiber_batch(cen, ws)
        assert _backward_err(cen, ws, pts) <= DEFAULT_TOL.root_tol

    @pytest.mark.parametrize("d", [4, 5, 9, 24, 64])
    def test_batch_rows_equal_single_rows(self, d, monkeypatch):
        # Converged rows leave the batch early; every row must still end
        # exactly as it does when solved alone.  A block of fiber_batch
        # holds 8 rows here, so every batch spans two blocks or more.
        monkeypatch.setattr(config, "CHUNK_BYTES", 64 * d * 8)
        rng = np.random.default_rng(d)
        if d == 64:     # a jittered circle; random normal centers cancel
            cen = Centers((1.0 + rng.uniform(-0.06, 0.06, d)) * np.exp(
                2j * np.pi * (np.arange(d) + rng.uniform(-0.2, 0.2, d)) / d))
        else:
            cen = Centers(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        crit = cen.critical_values
        ws = np.concatenate([
            0.1 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
            [1e3, -1e6j, 3e8 + 3e8j],
            [0.0],
            crit[:3] + 1e-10, crit[:3] * (1 + 1e-6),
        ])
        if d == 64:
            ws = np.concatenate([ws, 2.0 * (rng.standard_normal(40)
                                            + 1j * rng.standard_normal(40))])
        rng.shuffle(ws)
        batch = fiber_batch(cen, ws)
        for i, w in enumerate(ws):
            assert np.array_equal(batch[i], fiber_batch(cen, [w])[0]), w

    @pytest.mark.parametrize("d", [4, 64])
    def test_row_blocks_solve_alone_bit_for_bit(self, d):
        # fiber_batch runs the kernel on blocks of the rows with w != 0;
        # zero rows around the first block boundary shift it in the input
        step = CHUNK_BYTES // (64 * d)
        rng = np.random.default_rng(d)
        cen = Centers((1.0 + rng.uniform(-0.06, 0.06, d)) * np.exp(
            2j * np.pi * (np.arange(d) + rng.uniform(-0.2, 0.2, d)) / d))
        live = 2.0 * (rng.uniform(-1, 1, 2 * step + 3)
                      + 1j * rng.uniform(-1, 1, 2 * step + 3))
        ws = np.insert(live, [0, step - 1, step, step, step + 1, 2 * step], 0.0)
        got = fiber_batch(cen, ws)
        alone = [fiber_batch(cen, live[lo:lo + step])
                 for lo in range(0, live.size, step)]
        assert got[ws != 0].tobytes() == np.concatenate(alone).tobytes()
        assert (got[ws == 0] == cen.lambdas).all()

    def test_one_row_past_a_block_equals_one_row_calls(self):
        # d = 4 over one block of rows and one more: the kernel's (d, rows)
        # arrays give each sampled row the bytes of its one-row call
        d = 4
        rng = np.random.default_rng(41)
        cen = Centers(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        n = CHUNK_BYTES // (64 * d) + 1
        ws = 3.0 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        batch = fiber_batch(cen, ws)
        for i in np.append(rng.choice(n - 1, 40, replace=False), n - 1):
            assert fiber_batch(cen, ws[i:i + 1]).tobytes() == batch[i].tobytes()

    @given(_fiber_rows())
    def test_rows_are_independent(self, case):
        # what the row blocks rely on: a row ends the same in any batch
        cen, ws, perm, sub = case
        batch = fiber_batch(cen, ws)
        assert fiber_batch(cen, ws[perm]).tobytes() == batch[perm].tobytes()
        assert fiber_batch(cen, ws[sub]).tobytes() == batch[sub].tobytes()
        for i in range(ws.size):
            assert fiber_batch(cen, ws[i:i + 1]).tobytes() == batch[i].tobytes()


def _companion_fiber(cen, w):
    """The fiber over w as the eigenvalues of the companion of p - w."""
    c = cen.poly.coeffs.copy()
    c[0] -= w
    return np.linalg.eigvals(npp.polycompanion(c))


def _far_sets():
    """Real, conjugate-pair and complex centers for d = 2 ... 6."""
    rng = np.random.default_rng(28)
    for d in range(2, 7):
        half = rng.uniform(0.3, 2.0, d // 2)
        pairs = np.concatenate([half + 1j * rng.uniform(0.2, 1.0, d // 2),
                                half - 1j * rng.uniform(0.2, 1.0, d // 2)])
        yield f"real-{d}", rng.uniform(-2.0, 2.0, d)
        yield f"pairs-{d}", pairs if d % 2 == 0 else np.append(pairs, 0.7)
        yield f"complex-{d}", rng.standard_normal(d) + 1j * rng.standard_normal(d)


class TestFarRows:
    """Rows past the first-order start begin on the asymptotic fiber."""

    @pytest.mark.parametrize("name, lam", list(_far_sets()),
                             ids=[name for name, _ in _far_sets()])
    def test_fibers_match_the_companion_eigenvalues(self, name, lam):
        # |w| from just past the first-order radius, beyond which some
        # |w ell_j| exceeds lambda_j's nearest-center distance, up to 1e6
        # times the scale of p, on the real axis and off it
        cen = Centers(lam)
        first = float((cen._near / np.abs(cen.ell)).min())
        pscale = float(np.abs(cen.lambdas - cen.lambdas.mean()).max()) ** cen.d
        mags = np.geomspace(1.01 * first, 1e6 * max(pscale, first), 9)
        ws = np.concatenate([mags, -mags, mags * np.exp(2.1j), mags * 1j])
        assert (np.abs(ws[:, None] * cen.ell) > cen._near).any(axis=1).all()
        batch = fiber_batch(cen, ws)
        for i, w in enumerate(ws):
            expect = _companion_fiber(cen, w)
            _match_multisets(batch[i], expect, 1e-10 * np.abs(expect).max())
            assert fiber_batch(cen, [w])[0].tobytes() == batch[i].tobytes()

    @pytest.mark.parametrize("lam", [[1.0, -1.0], [0.0, 1e-3, 5.0, 5.001]])
    def test_w_at_the_centroid_keeps_the_points_apart(self, lam):
        # p(z) - p(c) has a double root at the mean c of these symmetric
        # centers, where |v| = 0 would start every point at c; the floor
        # of the start radius keeps them apart.  A double root is only
        # as accurate as the square root of the backward error.
        cen = Centers(lam)
        c = cen.lambdas.mean()
        w = np.prod(c - cen.lambdas)
        got = fiber_batch(cen, [w])
        assert _backward_err(cen, [w], got) <= DEFAULT_TOL.root_tol
        expect = _companion_fiber(cen, w)
        scale = np.abs(np.append(expect, cen.lambdas)).max()
        _match_multisets(got[0], expect, 1e-5 * scale)
        assert np.count_nonzero(np.abs(got[0] - c) < 1e-4) == 2
        assert fiber_batch(cen, [w, 0.5 * w])[0].tobytes() == got[0].tobytes()


class TestCollisionBranch:
    """The root kernel's jitter of a row whose iterates collide."""

    # the colliding pair: neighbours, whose 1 / 0 is in the offset pass
    # s = 1, and points d // 2 apart (at d = 4 the half pass)
    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("offset", [1, 2])
    def test_collided_row_converges_beside_an_ordinary_row(self, d, offset):
        cen = Centers([1.0, -1.0, 0.5j, 2.0 - 1j, -1.5 - 0.5j][:d])
        monic = cen.poly.coeffs
        ws = np.array([0.3 + 0.2j, -0.7 + 0.1j])
        start = _asymptotic_start(cen.lambdas, ws)
        start[0, offset] = start[0, 0]  # 1 / 0 in the row's correction sums
        got = _aberth(monic, ws, start, DEFAULT_TOL)
        alone = _aberth(monic, ws[1:], start[1:], DEFAULT_TOL)[0]
        assert got[1].tobytes() == alone.tobytes()
        # product-form oracle: prod_j (z - lambda_j) = w at every point
        diff = got[0][:, None] - cen.lambdas[None, :]
        res = np.abs(np.prod(diff, axis=1) - ws[0])
        scale = np.prod(np.abs(diff), axis=1) + abs(ws[0])
        assert (res <= 1e-14 * scale).all()
        _match_multisets(got[0], fiber_batch(cen, ws[:1])[0], 1e-12)

    def test_non_finite_start_raises_at_once(self):
        # |v| = |w - p(c)| overflows, so the asymptotic start points of
        # the first row are not finite
        with pytest.raises(ConvergenceFailure, match="non-finite iterates"):
            fiber_batch(Centers([1.0, -1.0, 2.0]),
                        [complex(1.7e308, 1.7e308), 0.5])


@st.composite
def _root_rows(draw):
    """Monic rows of one degree 1..8 with roots at scales 1e-3 to 1e3.

    Some rows have a root at exactly 0 (a zero constant coefficient),
    some a double root, where the kernel needs many steps.
    """
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        s = 10.0 ** draw(st.integers(-3, 3))
        parts = draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                              min_size=n, max_size=n))
        rts = s * np.array([complex(x, y) for x, y in parts])
        kind = draw(st.sampled_from(["plain", "plain", "zero", "double"]))
        if kind == "zero":
            rts[0] = 0.0
        elif kind == "double" and n > 1:
            rts[1] = rts[0]
        rows.append(npp.polyfromroots(rts))
    return np.array(rows, dtype=np.complex128)


class TestRowwiseKernel:
    """One coefficient row per problem: rows end as their one-row calls."""

    @given(_root_rows())
    def test_rows_equal_one_row_roots(self, c):
        got = roots(c, DEFAULT_TOL)
        assert got.shape == (c.shape[0], c.shape[1] - 1)
        for i in range(len(c)):
            assert got[i].tobytes() == roots(c[i]).tobytes()

    def test_zero_constant_rows_beside_kernel_rows(self):
        c = np.array([npp.polyfromroots(r) for r in
                      ([0.0, 1.0, 2j], [1.0, -1.0, 0.5j], [0.0, 0.0, 3.0],
                       [0.0, 0.0, 0.0])],
                     dtype=np.complex128)
        assert list(c[:, 0] == 0) == [True, False, True, True]
        got = roots(c)
        for i in range(len(c)):
            assert got[i].tobytes() == roots(c[i]).tobytes()
        _match_multisets(got[2], [0.0, 0.0, 3.0], 1e-12)
        assert got[3].tobytes() == np.zeros(3, np.complex128).tobytes()

    def test_degree_one_rows(self):
        rng = np.random.default_rng(3)
        c = (rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))) \
            * 10.0 ** rng.integers(-150, 150, (50, 2))
        c[0, 0] = 0.0
        got = roots(c)
        assert got.shape == (50, 1)
        for i in range(len(c)):
            assert got[i].tobytes() == roots(c[i]).tobytes()
            assert got[i].tobytes() == roots(Polynomial(c[i])).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_empty_stack(self, n):
        got = roots(np.empty((0, n + 1), dtype=np.complex128))
        assert got.shape == (0, n) and got.dtype == np.complex128

    def test_overflowing_row_raises_for_the_whole_call(self):
        c = np.array([[2.0, -3.0, 1.0], WIDE_RANGE["quadratic"]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceFailure, match="not finite"):
                roots(c)

    def test_two_dimensional_input_is_read_as_rows(self):
        rows = [[2.0, -3.0, 1.0], [-4.0, 0.0, 1.0]]
        got = roots(rows)
        assert got.shape == (2, 2)
        _match_multisets(got[0], [1.0, 2.0], 1e-12)
        _match_multisets(got[1], [2.0, -2.0], 1e-12)
        # a column or a row of one polynomial is still rows
        assert roots([[1.0, 1.0]]).tobytes() == roots([1.0, 1.0]).tobytes()

    @pytest.mark.parametrize("bad", [[[1.0, 0.0], [1.0, 1.0]],
                                     [[1.0, np.inf], [1.0, 1.0]],
                                     [[1.0], [2.0]]])
    def test_bad_rows_rejected(self, bad):
        with pytest.raises(ValueError):
            roots(np.array(bad, dtype=np.complex128))

    @given(_fiber_rows())
    def test_shared_row_equals_a_row_per_w(self, case):
        cen, ws, _, _ = case
        monic = cen.poly.coeffs
        z0 = _asymptotic_start(cen.lambdas, ws)
        shared = _aberth(monic, ws, z0, DEFAULT_TOL)
        rowwise = _aberth(np.tile(monic, (ws.size, 1)), ws, z0, DEFAULT_TOL)
        assert shared.tobytes() == rowwise.tobytes()

    @pytest.mark.parametrize("layout", ["transposed", "fortran"])
    def test_start_layout_does_not_move_a_bit(self, layout):
        # the kernel iterates on its own C-ordered (deg, rows) copy, so a
        # start in another memory layout gives the same bytes and is not
        # written to
        cen = Centers([1.0, -1.0, 0.5j, 2.0 - 1j, -0.3 + 1.2j])
        rng = np.random.default_rng(4)
        ws = 3.0 * (rng.standard_normal(300) + 1j * rng.standard_normal(300))
        z0 = _asymptotic_start(cen.lambdas, ws)
        view = (np.ascontiguousarray(z0.T).T if layout == "transposed"
                else np.asfortranarray(z0))
        assert not view.flags.c_contiguous and np.array_equal(view, z0)
        monic = cen.poly.coeffs
        want = _aberth(monic, ws, z0.copy(), DEFAULT_TOL)
        assert _aberth(monic, ws, view, DEFAULT_TOL).tobytes() == want.tobytes()
        assert np.array_equal(view, z0)


def _first_fit(points, radius):
    """The quadratic first-fit loop the grid hash replaced (test oracle)."""
    pts = np.asarray(points, dtype=np.complex128).ravel()
    anchors = []
    groups = []
    with np.errstate(all="ignore"):
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


def _cluster_cases():
    rng = np.random.default_rng(7)
    cases = {}
    for r in (1e-6, 1e-2, 0.3):
        cases[f"uniform-{r:g}"] = (
            rng.uniform(-1, 1, 2000) + 1j * rng.uniform(-1, 1, 2000), r)
    c = rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300)
    x = np.repeat(c, 15) + 1e-7 * (rng.standard_normal(4500)
                                   + 1j * rng.standard_normal(4500))
    rng.shuffle(x)
    cases["shuffled-copies"] = (x, 1e-6)
    g = 0.25 * np.arange(-6, 7)
    cases["radius-apart"] = ((g[:, None] + 1j * g[None, :]).ravel(), 0.25)
    g = 0.1 * np.arange(-6, 7)
    cases["radius-apart-inexact"] = ((g[:, None] + 1j * g[None, :]).ravel(), 0.1)
    # cell side 2 * 0.25: points on, just off and a radius off the
    # borders at negative coordinates
    edge = (-0.5 * np.arange(1, 7)[:, None]
            + np.array([-0.25, -1e-12, 0.0, 1e-12, 0.25])[None, :]).ravel()
    x = (edge[:, None] + 1j * edge[None, ::7]).ravel()
    rng.shuffle(x)
    cases["negative-borders"] = (x, 0.25)
    cases["duplicates-radius-0"] = (
        rng.integers(-3, 3, 200) + 1j * rng.integers(-2, 2, 200)
        + np.where(rng.uniform(size=200) < 0.2, 1e-15, 0.0), 0.0)
    cases["non-finite"] = (np.array([
        1.0, np.nan, 1.0 + 1e-9, np.inf, -np.inf, complex(0, np.inf),
        complex(np.nan, 1.0), 1.0, np.nan, np.inf, -0.0, complex(-0.0, -0.0),
    ]), 1e-6)
    cases["huge"] = (np.array([1e308, -1e308, 1e308 * (1 + 1e-15),
                               complex(1.7e308, 1.7e308),
                               complex(-1.7e308, -1.7e308), 0.5]), 1e296)
    cases["subnormal"] = (rng.standard_normal(300) * 1e-310 + 0j, 1e-312)
    return cases


# radius 1, cell side 2: a chain across the border x = 2 whose third point
# lies within the radius of the second member but not of the anchor, a
# pair across the corner (2, 2) and one across (4, -4), a crowded point
# that joins nobody (-0.0 shares a cell with 1.9), and a point within the
# radius of two anchors, the later-placed anchor listed first
CHAINS = np.array([
    100.0, 1.9, 2.1, 2.95,
    1.95 + 1.95j, -50j, 2.05 + 2.05j,
    11.5 + 10j, 10.0 + 10j, 10.75 + 10j,
    -0.0, 3.9 - 3.9j, 4.1 - 4.1j,
])


def _crowding_cases():
    """Isolated points beside crowded ones, at sizes 1 to 5,000."""
    rng = np.random.default_rng(11)
    cases = {"crowded-chains": (CHAINS, 1.0)}
    iso = rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500)
    ring = np.repeat(iso[:50], 3) + 1.5e-6 * np.exp(
        2j * np.pi * rng.uniform(size=150))
    x = np.concatenate([iso, ring])
    rng.shuffle(x)
    cases["isolated-and-crowded"] = (x, 1e-6)
    cases["identical-5000"] = (np.full(5000, 0.3 - 0.7j), 1e-10)
    # the spectrum multiset of wide-samples: 4,000 values, all singletons
    # at the eq_tol radius of their scale
    x = rng.uniform(-3, 3, 4000) + 1j * rng.uniform(-3, 3, 4000)
    cases["singletons-eq-tol-4000"] = (
        x, DEFAULT_TOL.eq_tol * max(1.0, float(np.abs(x).max())))
    # span 1 and radius 2**-42: the cell side is 2**-40, so the cell
    # indices reach +-2**40; the points sit a quarter cell apart
    base = np.array([1.0, -1.0, 1j, -1j, 1 - 1j, -1 + 1j])
    step = np.arange(-3, 4) * 2.0 ** -42
    x = (base[:, None] + (step[:, None] + 1j * step[None, :]).ravel()).ravel()
    rng.shuffle(x)
    cases["cells-near-2**40"] = (x, 2.0 ** -42)
    cases["one-point"] = (np.array([3 + 4j]), 0.5)
    cases["two-near"] = (np.array([1 + 1j, 1 + 1j + 1e-7]), 1e-6)
    cases["two-apart"] = (np.array([1.0, 2.0]), 0.1)
    return cases


CLUSTER_CASES = {**_cluster_cases(), **_crowding_cases()}

_FINITE = st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                             allow_infinity=False)


@st.composite
def _cluster_inputs(draw):
    """Clustered, gridded or duplicated points and a radius, possibly 0."""
    radius = draw(st.sampled_from([0.0, 1e-9, 0.1, 0.5, 1.0]))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["clustered", "gridded", "duplicated"]))
    if kind == "clustered":        # up to two radii around a few centers
        cen = draw(st.lists(_FINITE, min_size=1, max_size=5))
        offs = draw(st.lists(st.tuples(
            st.integers(0, len(cen) - 1), st.floats(-2, 2), st.floats(-2, 2)),
            min_size=n, max_size=n))
        pts = [cen[k] + radius * complex(x, y) for k, x, y in offs]
    elif kind == "gridded":        # lattice steps of half or one radius
        step = draw(st.sampled_from([0.5, 1.0])) * (radius or 1.0)
        ij = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           min_size=n, max_size=n))
        pts = [step * complex(i, j) for i, j in ij]
    else:
        vals = draw(st.lists(_FINITE, min_size=1, max_size=4))
        pts = [vals[k] for k in draw(st.lists(
            st.integers(0, len(vals) - 1), min_size=n, max_size=n))]
    pts += draw(st.lists(st.sampled_from(
        [complex(np.nan, 0), complex(np.inf, 1), complex(-np.inf, np.nan)]),
        max_size=2))
    return np.array(pts, dtype=np.complex128), radius


class TestClusterPoints:
    @pytest.mark.parametrize("name", sorted(CLUSTER_CASES))
    def test_matches_first_fit(self, name):
        pts, radius = CLUSTER_CASES[name]
        reps, counts = cluster_points(pts, radius)
        want_reps, want_counts = _first_fit(pts, radius)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(reps, want_reps, equal_nan=True)
        assert reps.tobytes() == want_reps.tobytes()

    @given(_cluster_inputs())
    def test_matches_first_fit_property(self, case):
        pts, radius = case
        reps, counts = cluster_points(pts, radius)
        want_reps, want_counts = _first_fit(pts, radius)
        assert np.array_equal(counts, want_counts)
        assert reps.tobytes() == want_reps.tobytes()

    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                    max_size=40),
           st.sampled_from([0.0, 2.0 ** 40 - 6, -2.0 ** 40 + 6]))
    def test_crowded_is_the_3x3_block_test(self, cells, shift):
        k = np.array(cells, dtype=float).reshape(-1, 2) + shift
        kx, ky = k[:, 0], k[:, 1]
        near = (np.abs(kx[:, None] - kx) <= 1) & (np.abs(ky[:, None] - ky) <= 1)
        np.fill_diagonal(near, False)
        assert np.array_equal(_crowded(kx, ky), near.any(axis=1))

    def test_chains_and_ties(self):
        reps, counts = cluster_points(CHAINS, 1.0)
        assert counts.tolist() == [1, 2, 1, 2, 1, 2, 1, 1, 2]
        assert reps[2] == 2.95                      # near a member only
        assert reps[5] == (11.5 + 10j + 10.75 + 10j) / 2   # the earlier anchor

    def test_huge_points_cluster_without_warnings(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reps, counts = cluster_points(
                [1e308, -1e308, 1e308, complex(1.7e308, -1.7e308)], 1e-6)
        assert [str(w.message) for w in caught] == []
        assert counts.tolist() == [2, 1, 1]

    def test_radius_zero_merges_exact_duplicates_only(self):
        reps, counts = cluster_points([1.0, 1.0 + 1e-16j, 1.0, 2.0], 0.0)
        assert counts.tolist() == [2, 1, 1]
        assert reps.tolist() == [1.0, 1.0 + 1e-16j, 2.0]

    @pytest.mark.parametrize("radius", [np.nan, -1e-9, np.inf])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(ValueError):
            cluster_points([0.0, 1.0], radius)

    def test_empty(self):
        reps, counts = cluster_points([], 1.0)
        assert reps.size == 0 and counts.size == 0


class TestClusterAndRefine:
    def test_cluster_groups(self):
        pts = [0.0, 1e-8, 1.0, 1.0 + 2e-8, 5.0]
        reps, counts = cluster_points(pts, 1e-6)
        assert len(reps) == 3
        assert sorted(counts.tolist()) == [1, 2, 2]

    def test_refine_triple(self):
        # (z-1)^3 (z+2), start from a point off by 1e-3
        c = np.polynomial.polynomial.polyfromroots([1.0, 1.0, 1.0, -2.0])
        z = refine_multiple_root(c, 1.0 + 1e-3, 3, 0.05)
        assert abs(z - 1.0) < 1e-12

    def test_refine_undercounted_still_converges(self):
        c = np.polynomial.polynomial.polyfromroots([1.0, 1.0, 1.0, -2.0])
        z = refine_multiple_root(c, 1.0 + 1e-3, 2, 0.05)
        assert abs(z - 1.0) < 1e-8

    def test_refine_simple(self):
        c = np.polynomial.polynomial.polyfromroots([2.0, -1.0])
        z = refine_multiple_root(c, 2.0 + 1e-4, 1, 0.05)
        assert abs(z - 2.0) < 1e-14


def _sharpen_oracle(coeffs, points, radius, ball):
    """The refine / re-cluster / recount / refine cycle written out inline,
    as spectral_mapping_check held it before the cycle was shared."""
    reps, counts = cluster_points(points, radius)
    refined = np.array(
        [refine_multiple_root(coeffs, z, int(m), ball)
         for z, m in zip(reps, counts)],
        dtype=np.complex128,
    )
    reps, _ = cluster_points(refined, radius)
    if points.size and reps.size:
        owner = np.argmin(np.abs(points[:, None] - reps[None, :]), axis=1)
        full_counts = np.bincount(owner, minlength=reps.size)
        reps = np.array(
            [refine_multiple_root(coeffs, z, int(m), ball)
             for z, m in zip(reps, full_counts)],
            dtype=np.complex128,
        )
    return reps


class TestSharpenClusters:
    # (z - 1)^3 (z + 2)
    C = npp.polyfromroots([1.0, 1.0, 1.0, -2.0])

    @pytest.mark.parametrize("ball", [1.0, 10.0], ids=["radius", "10-radius"])
    @pytest.mark.parametrize("spread", [0.3, 0.6, 0.9, 1.5])
    def test_split_triple_root_matches_the_inline_cycle(self, ball, spread):
        # the triple root's images fall into one to three clusters
        radius = 1e-3
        pts = np.append(1.0 + spread * radius * np.exp(
            1j * (0.3 + 2.0 * np.pi * np.arange(3) / 3)), -2.0 + 1e-9j)
        got = _sharpen_clusters(self.C, pts, radius, ball * radius)
        want = _sharpen_oracle(self.C, pts, radius, ball * radius)
        assert got.tobytes() == want.tobytes()

    def test_split_cluster_is_healed(self):
        # three singletons at first; one point for the triple root at last
        radius = 1e-3
        pts = 1.0 + 0.9 * radius * np.exp(1j * 2.0 * np.pi * np.arange(3) / 3)
        assert len(cluster_points(pts, radius)[0]) == 3
        got = _sharpen_clusters(self.C, pts, radius, 10.0 * radius)
        assert len(got) == 1 and abs(got[0] - 1.0) < 1e-12

    def test_no_points(self):
        got = _sharpen_clusters(self.C, np.empty(0, np.complex128), 1e-3, 1e-2)
        assert got.shape == (0,)

    @pytest.mark.parametrize("lam", [
        [1.0, -1.0],
        [1.0, 0.0, -1.0],
        np.exp(2j * np.pi * np.arange(3) / 3),
        [2.0, -2.0, 2.0j, -2.0j],
        np.exp(2j * np.pi * np.arange(5) / 5),
    ], ids=["d2", "d3", "d3-triple", "d4-quadruple", "d5-quintuple"])
    def test_radical_basis_at_critical_values(self, lam):
        from multicentric import linalg
        from multicentric.algebra import AlgebraContext, radical_basis_at
        ctx = AlgebraContext(Centers(lam))
        for w0 in ctx.centers.critical_values:
            fib = ctx.fiber(w0)
            scale = max(1.0, float(np.abs(fib.points).max()), abs(w0))
            radius = 4.0 * max(ctx.tol.crit_tol,
                               ctx.tol.root_tol ** (1.0 / ctx.d)) * scale
            coeffs = ctx.centers.poly.coeffs.copy()
            coeffs[0] -= w0
            reps = _sharpen_oracle(coeffs, fib.points, radius, radius)
            assert (_sharpen_clusters(coeffs, fib.points, radius,
                                      radius).tobytes() == reps.tobytes())
            rows = ctx.basis_values(reps).T
            want = linalg.nullspace(
                rows, ctx.tol.eq_tol * max(1.0, np.abs(rows).max()))
            got = radical_basis_at(ctx, w0)
            assert got.tobytes() == want.tobytes()
            assert got.shape[0] == len(lam) - len(reps) >= 1


def _old_nearest(pts):
    """Centers' former copy: the nearest other point of each point."""
    diff = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diff, np.inf)
    return diff.min(axis=1)


def _old_min_gap(pts):
    """verify's former copy: the least gap of a row, inf below 2 points."""
    if pts.size < 2:
        return np.inf
    diff = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


class TestNearestGaps:
    @pytest.mark.parametrize("n", [0, 1, 2, 64])
    def test_rows_match_the_former_copies(self, n):
        rng = np.random.default_rng(n)
        pts = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = _nearest_gaps(pts)
        assert got.shape == (n,)
        if n:
            assert got.tobytes() == _old_nearest(pts).tobytes()
        assert got.min(initial=np.inf) == _old_min_gap(pts)

    @pytest.mark.parametrize("shape", [(5, 1), (5, 2), (7, 4), (2, 3, 6), (0, 3)])
    def test_stacks_are_their_rows(self, shape):
        rng = np.random.default_rng(len(shape))
        pts = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = _nearest_gaps(pts)
        assert got.shape == shape
        rows = pts.reshape(-1, shape[-1])
        for row, gaps in zip(rows, got.reshape(rows.shape)):
            assert gaps.tobytes() == _old_nearest(row).tobytes()
        # the fiber screen of verify._draw_samples, as it was written
        if len(shape) == 2:
            gaps = np.abs(pts[:, :, None] - pts[:, None, :])
            idx = np.arange(shape[1])
            gaps[:, idx, idx] = np.inf
            old = gaps.min(axis=(1, 2), initial=np.inf)
            assert got.min(axis=1, initial=np.inf).tobytes() == old.tobytes()


class TestCenters:
    def test_monic_with_prescribed_roots(self):
        cen = Centers([1.0, -1.0])
        assert np.allclose(cen.poly.coeffs, [-1.0, 0.0, 1.0])
        assert np.allclose(cen.deriv.coeffs, [0.0, 2.0])

    def test_duplicate_rejected(self):
        with pytest.raises(CentersDegenerate):
            Centers([1.0, 1.0 + 1e-13])

    def test_critical_values_two_centers(self):
        cen = Centers([1.0, -1.0])
        assert np.allclose(cen.critical_points, [0.0], atol=1e-12)
        assert np.allclose(cen.critical_values, [-1.0], atol=1e-12)

    def test_critical_values_three_centers(self):
        # p = z^3 - z, p' = 3z^2 - 1
        cen = Centers([1.0, 0.0, -1.0])
        cp = np.sort_complex(cen.critical_points)
        assert np.array_equal(critical_points(cen), cen.critical_points)
        r = 1.0 / np.sqrt(3.0)
        assert np.allclose(cp, [-r, r], atol=1e-12)
        cv = sorted(cen.critical_values, key=lambda v: v.real)
        want = 2.0 / (3.0 * np.sqrt(3.0))
        assert abs(cv[0] + want) < 1e-12 and abs(cv[1] - want) < 1e-12

    def test_single_center_has_no_critical_points(self):
        cen = Centers([0.5])
        assert cen.critical_points.size == 0

    def test_critical_points_function_needs_degree_two(self):
        with pytest.raises(ValueError):
            critical_points(Polynomial([0.0, 1.0]))


class TestLagrangeBasis:
    @pytest.mark.parametrize("lam", [[1e200, -1e200, 0.0], [1e160, 0.0, -1e160]])
    def test_out_of_range_raises_without_warnings(self, lam):
        # [1e160, 0, -1e160]: every numerator is in range, every weight
        # 1 / prod (lambda_j - lambda_k) underflows to 0
        cen = Centers(lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AlgebraOverflow):
                lagrange_basis(cen)

    def test_interpolation_at_centers(self):
        cen = Centers([1.0, -1.0, 0.3 + 0.9j])
        basis = lagrange_basis(cen)
        vals = np.array([q(cen.lambdas) for q in basis])
        assert np.abs(vals - np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_partition_of_unity(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cen = Centers(lam)
        z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        vals = np.array([q(z) for q in lagrange_basis(cen)])
        assert np.abs(vals.sum(axis=0) - 1.0).max() < 1e-11
