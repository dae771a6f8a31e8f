import warnings

import numpy as np
import pytest

from multicentric.config import DEFAULT_TOL
from multicentric.errors import CentersDegenerate, ConvergenceFailure
from multicentric.polynomials import (
    Centers,
    Polynomial,
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

    def test_derivative(self):
        p = Polynomial([3.0, 0.0, 1.0])  # 3 + z^2
        assert np.allclose(p.derivative().coeffs, [0.0, 2.0])

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
