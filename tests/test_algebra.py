"""Algebra operations: frozen worked values plus the structural laws.

The two-center configuration {1, -1} with the sample w = 3 is worked
through by hand: fiber {2, -2}, sigma_12 = sigma_21 = -1/4, and for
f(3) = (2, 0), g(3) = (1, -1):

    f^(2) = 3, f^(-2) = -1,   f*g = (5, 3),   B_f(3) = [[3.5, -1.5],
                                                        [1.5, -1.5]]
"""

import warnings

import numpy as np
import numpy.linalg as npl
import pytest

from multicentric.algebra import (
    _PRODUCT_ROWS,
    AlgebraContext,
    SampleSet,
    VectorFunction,
    algebra_power,
    character_residual,
    characteristic,
    characters_at,
    invert,
    mult_matrices,
    mult_matrix,
    op_norm,
    polyprod,
    polyprod_boxed,
    quotient_spectrum,
    radical_basis_at,
    resolvent_bound_check,
    spectral_radius_iter,
    spectrum,
    spectrum_multiset,
    sup_norm,
)
from multicentric import linalg
from multicentric.config import CHUNK_BYTES, DEFAULT_TOL
from multicentric.errors import (
    AlgebraOverflow,
    ContextMismatch,
    NotInvertible,
    SampleMiss,
)
from multicentric.linalg import eigenvalues
from multicentric.polynomials import Centers, fiber_batch


@pytest.fixture
def two_center():
    ctx = AlgebraContext(Centers([1.0, -1.0]))
    ss = SampleSet(ctx, [3.0])
    f = VectorFunction(ss, [[2.0], [0.0]])
    g = VectorFunction(ss, [[1.0], [-1.0]])
    return ctx, ss, f, g


def _rand_function(rng, ss, scale=1.5):
    d, m = ss.ctx.d, ss.m
    vals = scale * (rng.standard_normal((d, m))
                    + 1j * rng.standard_normal((d, m)))
    return VectorFunction(ss, vals)


def _context(rng, d, m, box=1.5, wbox=2.5):
    while True:
        lam = box * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        if d == 1 or np.min(np.abs(lam[:, None] - lam[None, :])
                            + np.eye(d) * 1e9) > 0.5:
            break
    ctx = AlgebraContext(Centers(lam))
    while True:
        ws = wbox * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        try:
            return ctx, SampleSet(ctx, ws)
        except Exception:
            continue


class TestWorkedExample:
    def test_sigma(self, two_center):
        ctx, _, _, _ = two_center
        want = np.array([[0.0, -0.25], [-0.25, 0.0]])
        assert np.array_equal(ctx.sigma, want)

    def test_product(self, two_center):
        _, _, f, g = two_center
        h = polyprod(f, g)
        assert np.abs(h.values[:, 0] - [5.0, 3.0]).max() < 1e-14

    def test_gelfand_check(self, two_center):
        # f^(2) g^(2) = 3 * 2 = 6 = 1.5*5 - 0.5*3
        _, _, f, g = two_center
        h = polyprod(f, g)
        fh = f.gelfand_values()[0]
        gh = g.gelfand_values()[0]
        hh = h.gelfand_values()[0]
        assert np.abs(fh * gh - hh).max() < 1e-12

    def test_mult_matrix(self, two_center):
        _, _, f, _ = two_center
        b = mult_matrix(f, 0)
        want = np.array([[3.5, -1.5], [1.5, -1.5]])
        assert np.array_equal(b, want)

    def test_mult_matrix_eigenvalues(self, two_center):
        _, _, f, _ = two_center
        eig = np.sort_complex(eigenvalues(mult_matrix(f, 0)))
        assert np.abs(eig - [-1.0, 3.0]).max() < 1e-10

    def test_mult_matrix_acts_as_product(self, two_center):
        _, ss, f, g = two_center
        b = mult_matrix(f, 0)
        assert np.abs(b @ g.values[:, 0]
                      - polyprod(f, g).values[:, 0]).max() < 1e-13

    def test_norms(self, two_center):
        _, _, f, _ = two_center
        assert op_norm(f) == 5.0
        assert sup_norm(f) == 2.0

    def test_spectrum(self, two_center):
        _, _, f, _ = two_center
        vals = sorted(spectrum(f), key=lambda v: v.real)
        assert np.abs(np.array(vals) - [-1.0, 3.0]).max() < 1e-10

    def test_invert(self, two_center):
        _, ss, f, _ = two_center
        g = invert(f)
        assert np.abs(g.values[:, 0] - [0.0, -2.0 / 3.0]).max() < 1e-12
        h = polyprod(f, g)
        assert np.abs(h.values - VectorFunction.unit(ss).values).max() < 1e-12

    def test_invert_closed_form(self, two_center):
        # swap the components, divide by the product of the fiber values
        _, _, f, _ = two_center
        g = invert(f)
        gh = f.gelfand_values()[0]
        swap = np.array([f.values[1, 0], f.values[0, 0]]) / (gh[0] * gh[1])
        assert np.abs(g.values[:, 0] - swap).max() < 1e-13

    def test_characteristic(self, two_center):
        _, _, f, _ = two_center
        ch = characteristic(f)
        assert abs(ch.coeffs[0, 0] - 2.0) < 1e-12   # Phi_1(3)
        assert abs(ch.coeffs[0, 1] + 3.0) < 1e-12   # Phi_2(3)
        # pi_f(lam, 3) = (lam - 3)(lam + 1)
        assert abs(ch.pi_values(5.0)[0] - 12.0) < 1e-10

    def test_characteristic_overflow_raises(self, two_center):
        _, _, f, _ = two_center
        with pytest.raises(AlgebraOverflow):
            characteristic(f).pi_values(1e200)

    def test_characteristic_of_overflowing_values_raises(self, two_center):
        # f^(2) = 1.5 * 1.5e308 - 0.5 * 1.5e308 overflows
        ctx, _, _, _ = two_center
        f = VectorFunction(SampleSet(ctx, [3.0]), [[1.5e308], [1.5e308]])
        with pytest.raises(AlgebraOverflow):
            characteristic(f)

    def test_spectral_radius_sequence(self, two_center):
        _, _, f, _ = two_center
        seq = spectral_radius_iter(f, 10)
        assert seq[0] == 5.0
        assert np.all(np.diff(seq) <= 1e-12)
        assert seq[-1] == pytest.approx(3.0, rel=0.05)


class TestNilpotentExample:
    def setup_method(self):
        self.ctx = AlgebraContext(Centers([1.0, -1.0]))
        self.ss = SampleSet(self.ctx, [-1.0])
        self.f = VectorFunction(self.ss, [[1.0], [-1.0]])

    def test_mult_matrix_binary_exact(self):
        b = mult_matrix(self.f, 0)
        want = 0.5 * np.array([[1.0, 1.0], [-1.0, -1.0]])
        assert np.array_equal(b, want)

    def test_square_is_zero(self):
        sq = polyprod(self.f, self.f)
        assert np.abs(sq.values).max() <= 1e-14

    def test_spectral_radius_hits_zero(self):
        seq = spectral_radius_iter(self.f, 4)
        assert seq[0] == 1.0
        assert np.all(seq[1:] == 0.0)


class TestAlgebraLaws:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_unit_law_exact(self, d):
        rng = np.random.default_rng(d)
        _, ss = _context(rng, d, 6)
        f = _rand_function(rng, ss)
        one = VectorFunction.unit(ss)
        assert np.array_equal(polyprod(f, one).values, f.values)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_commutative(self, d, seed):
        rng = np.random.default_rng(10 * d + seed)
        _, ss = _context(rng, d, 5)
        f, g = _rand_function(rng, ss), _rand_function(rng, ss)
        fg, gf = polyprod(f, g), polyprod(g, f)
        scale = max(1.0, np.abs(fg.values).max())
        assert np.abs(fg.values - gf.values).max() < 1e-13 * scale

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_associative(self, d, seed):
        rng = np.random.default_rng(20 * d + seed)
        _, ss = _context(rng, d, 5)
        f, g, h = (_rand_function(rng, ss) for _ in range(3))
        left = polyprod(polyprod(f, g), h)
        right = polyprod(f, polyprod(g, h))
        scale = max(1.0, np.abs(left.values).max())
        assert np.abs(left.values - right.values).max() < 1e-10 * scale

    @pytest.mark.parametrize("seed", range(3))
    def test_bilinear(self, seed):
        rng = np.random.default_rng(seed + 31)
        _, ss = _context(rng, 3, 4)
        f, g, h = (_rand_function(rng, ss) for _ in range(3))
        a, b = 1.7 - 0.4j, -0.8 + 1.1j
        left = polyprod(f * a + g * b, h)
        right = polyprod(f, h) * a + polyprod(g, h) * b
        scale = max(1.0, np.abs(left.values).max())
        assert np.abs(left.values - right.values).max() < 1e-10 * scale

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_boxed_route_agrees(self, d, seed):
        rng = np.random.default_rng(40 * d + seed)
        _, ss = _context(rng, d, 5)
        f, g = _rand_function(rng, ss), _rand_function(rng, ss)
        direct = polyprod(f, g)
        boxed = polyprod_boxed(f, g)
        scale = max(1.0, np.abs(direct.values).max())
        assert np.abs(direct.values - boxed.values).max() < 1e-12 * scale

    @pytest.mark.parametrize("seed", range(4))
    def test_homomorphism(self, seed):
        rng = np.random.default_rng(seed + 50)
        d = int(rng.integers(2, 6))
        _, ss = _context(rng, d, 8)
        f, g = _rand_function(rng, ss), _rand_function(rng, ss)
        h = polyprod(f, g)
        prod = f.gelfand_values() * g.gelfand_values()
        scale = max(1.0, np.abs(prod).max())
        assert np.abs(h.gelfand_values() - prod).max() < 1e-10 * scale

    @pytest.mark.parametrize("seed", range(3))
    def test_submultiplicative(self, seed):
        rng = np.random.default_rng(seed + 60)
        d = int(rng.integers(2, 6))
        _, ss = _context(rng, d, 6)
        f, g = _rand_function(rng, ss), _rand_function(rng, ss)
        assert op_norm(polyprod(f, g)) <= op_norm(f) * op_norm(g) + 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_norm_sandwich(self, seed):
        # |f|_M <= ||f|| <= C |f|_M with C = max_w (1 + 2|w| * sigma row sum)
        rng = np.random.default_rng(seed + 70)
        d = int(rng.integers(2, 6))
        ctx, ss = _context(rng, d, 6)
        f = _rand_function(rng, ss)
        lo, hi = sup_norm(f), op_norm(f)
        assert lo <= hi + 1e-12
        rowsum = np.abs(ctx.sigma).sum(axis=1).max()
        c = float((1.0 + 2.0 * np.abs(ss.points) * rowsum).max())
        assert hi <= c * lo * (1.0 + 1e-9) + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_mult_matrix_eigenvalues_are_fiber_values(self, seed):
        rng = np.random.default_rng(seed + 80)
        d = int(rng.integers(2, 6))
        _, ss = _context(rng, d, 3)
        f = _rand_function(rng, ss)
        gv = f.gelfand_values()
        mats = mult_matrices(f)
        for i in range(ss.m):
            eig = list(eigenvalues(mats[i]))
            for want in gv[i]:
                j = int(np.argmin([abs(want - e) for e in eig]))
                assert abs(want - eig[j]) < 1e-8 * max(1.0, abs(want))
                eig.pop(j)

    def test_context_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        _, ss1 = _context(rng, 2, 3)
        _, ss2 = _context(rng, 2, 3)
        f = _rand_function(rng, ss1)
        g = _rand_function(rng, ss2)
        with pytest.raises(ContextMismatch):
            polyprod(f, g)


class TestCharacteristic:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unit_gives_binomials(self, d):
        rng = np.random.default_rng(d + 5)
        _, ss = _context(rng, d, 4)
        ch = characteristic(VectorFunction.unit(ss))
        from math import comb
        for k in range(1, d + 1):
            assert np.abs(ch.coeffs[:, k - 1] - comb(d, k)).max() < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_two_center_closed_form(self, seed):
        rng = np.random.default_rng(seed + 90)
        ctx = AlgebraContext(Centers([1.0, -1.0]))
        ss = SampleSet(ctx, 2.5 * (rng.standard_normal(5)
                                   + 1j * rng.standard_normal(5)))
        f = _rand_function(rng, ss)
        ch = characteristic(f)
        f1, f2 = f.values
        w = ss.points
        phi1 = f1 + f2
        phi2 = f1 * f2 - (w / 4.0) * (f1 - f2) ** 2
        assert np.abs(ch.coeffs[:, 0] - phi1).max() < 1e-12
        assert np.abs(ch.coeffs[:, 1] - phi2).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_pi_values_is_product_over_fiber_values(self, d):
        # pi_f(lam, w) = prod_k (lam - f^(z_k)) over the fiber of w
        rng = np.random.default_rng(d + 40)
        _, ss = _context(rng, d, 4)
        f = _rand_function(rng, ss)
        lam = 1.3 - 0.7j
        want = np.prod(lam - f.gelfand_values(), axis=1)
        got = characteristic(f).pi_values(lam)
        assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("seed", range(3))
    def test_fiber_order_invariant(self, seed):
        # Phi_k is the k-th elementary symmetric function of the fiber
        # values; shuffling them must not move the coefficients.
        rng = np.random.default_rng(seed + 95)
        d = int(rng.integers(2, 6))
        _, ss = _context(rng, d, 4)
        f = _rand_function(rng, ss)
        ch = characteristic(f)
        gv = f.gelfand_values().copy()
        for i in range(ss.m):
            perm = rng.permutation(d)
            mono = np.polynomial.polynomial.polyfromroots(gv[i, perm])
            for k in range(1, d + 1):
                want = (-1.0) ** k * mono[d - k]
                assert abs(ch.coeffs[i, k - 1] - want) <= \
                    1e-12 * max(1.0, abs(want))

    def test_polynomial_components_give_polynomial_phi(self):
        # With polynomial f_j, Phi_d(w) is a polynomial in w of degree
        # <= d*deg(f) + d; an oversampled least-squares fit must be exact.
        rng = np.random.default_rng(17)
        ctx = AlgebraContext(Centers([1.0, -1.0, 0.5j]))
        deg_f = 2
        d = 3
        bound = d * deg_f + d
        m = 3 * (bound + 1)
        ss = SampleSet(ctx, (np.linspace(-2.0, 2.0, m)
                             + 1j * np.linspace(1.0, 3.0, m)))
        comps = [np.polynomial.polynomial.Polynomial(
            rng.standard_normal(deg_f + 1)) for _ in range(d)]
        f = VectorFunction(ss, np.array([c(ss.points) for c in comps]))
        phi_d = characteristic(f).coeffs[:, d - 1]
        fit = np.polynomial.polynomial.polyfit(ss.points, phi_d, bound)
        resid = np.abs(np.polynomial.polynomial.polyval(ss.points, fit)
                       - phi_d).max()
        assert resid < 1e-8 * max(1.0, np.abs(phi_d).max())


class TestResolvent:
    def test_unit_equality_case(self):
        rng = np.random.default_rng(1)
        _, ss = _context(rng, 3, 4)
        one = VectorFunction.unit(ss)
        rep = resolvent_bound_check(one, 2.0)
        assert rep.dist_to_spectrum == pytest.approx(1.0, abs=1e-12)
        assert rep.lower_bound == pytest.approx(rep.resolvent_op_norm,
                                                rel=1e-10)
        assert rep.lower_bound_holds

    def test_worked_empirical_constant(self, two_center):
        _, _, f, _ = two_center
        rep = resolvent_bound_check(f, 5.0)
        assert rep.lower_bound_holds
        assert rep.empirical_constant <= 1.0 + 1e-8

    def test_divergence_near_spectrum(self, two_center):
        # spectrum is {3, -1}; approaching 3 blows the lower bound up
        _, _, f, _ = two_center
        norms = []
        for delta in (1e-1, 1e-2, 1e-3):
            rep = resolvent_bound_check(f, 3.0 + delta)
            assert rep.lower_bound == pytest.approx(1.0 / delta, rel=1e-9)
            assert rep.lower_bound_holds
            norms.append(rep.resolvent_op_norm)
        assert norms[0] < norms[1] < norms[2]

    def test_inversion_bound_two_centers(self, two_center):
        # ||g|| <= ||f|| / eta^2 for d = 2
        _, _, f, _ = two_center
        g = invert(f)
        eta = min(abs(v) for v in spectrum_multiset(f))
        assert op_norm(g) <= op_norm(f) / eta ** 2 + 1e-10

    def test_not_invertible_reports_witness(self, two_center):
        ctx, ss, _, _ = two_center
        # f^(2) = 1.5*1 - 0.5*3 = 0, so the witness must sit near z = 2
        f = VectorFunction(ss, [[1.0], [3.0]])
        with pytest.raises(NotInvertible, match="2"):
            invert(f)

    def test_not_invertible_at_critical_sample(self):
        ctx = AlgebraContext(Centers([1.0, -1.0]))
        ss = SampleSet(ctx, [-1.0])
        f = VectorFunction(ss, [[1.0], [-1.0]])  # f^ vanishes at z = 0
        with pytest.raises(NotInvertible):
            invert(f)

    def test_not_invertible_names_the_singular_sample(self):
        # only the last of three samples is singular: over w = -1 the
        # fiber is the double point z = 0, where f^(z) = z vanishes
        ctx = AlgebraContext(Centers([1.0, -1.0]))
        ss = SampleSet(ctx, [3.0, 2.0j, -1.0])
        f = VectorFunction.constant(ss, [1.0, -1.0])
        with pytest.raises(NotInvertible, match=r"w=\(-1\+0j\)"):
            invert(f)


class TestCharacters:
    def test_standard_basis_at_zero(self):
        for lam in ([1.0, -1.0], [1.1 + 0.2j, -0.4, 0.3 - 0.9j]):
            ctx = AlgebraContext(Centers(lam))
            ss = SampleSet(ctx, [0.0])
            etas = characters_at(ctx, ss, 0.0)
            assert np.array_equal(etas, np.eye(len(lam)))

    def test_worked_pair(self, two_center):
        ctx, ss, _, _ = two_center
        etas = characters_at(ctx, ss, 3.0)
        want = {(1.5, -0.5), (-0.5, 1.5)}
        got = {tuple(np.round(e.real, 9)) for e in etas}
        assert got == want

    @pytest.mark.parametrize("seed", range(4))
    def test_defining_equations(self, seed):
        rng = np.random.default_rng(seed + 200)
        d = int(rng.integers(2, 6))
        ctx, ss = _context(rng, d, 1)
        w0 = complex(ss.points[0])
        etas = characters_at(ctx, ss, w0)
        assert character_residual(ctx, w0, etas) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_multiplicative_on_constants(self, seed):
        rng = np.random.default_rng(seed + 210)
        ctx, ss = _context(rng, 3, 1)
        w0 = complex(ss.points[0])
        etas = characters_at(ctx, ss, w0)
        a = _rand_function(rng, ss)
        b = _rand_function(rng, ss)
        ab = polyprod(a, b)
        for eta in etas:
            lhs = eta @ ab.values[:, 0]
            rhs = (eta @ a.values[:, 0]) * (eta @ b.values[:, 0])
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestRadical:
    def test_two_center_critical(self):
        ctx = AlgebraContext(Centers([1.0, -1.0]))
        basis = radical_basis_at(ctx, -1.0)
        assert basis.shape == (1, 2)
        v = basis[0] / npl.norm(basis[0])
        w = np.array([1.0, -1.0]) / np.sqrt(2)
        # direction match up to phase
        assert min(npl.norm(v - w), npl.norm(v + w)) < 1e-10

    def test_regular_point_empty(self):
        ctx = AlgebraContext(Centers([1.0, -1.0]))
        assert radical_basis_at(ctx, 3.0).shape == (0, 2)

    def test_radical_elements_nilpotent(self):
        # quasinilpotent implies nilpotent with order at most d
        for lam in ([1.0, -1.0], [1.0, 0.0, -1.0]):
            ctx = AlgebraContext(Centers(lam))
            d = len(lam)
            wc = ctx.centers.critical_values[0]
            basis = radical_basis_at(ctx, wc)
            assert basis.shape[0] >= 1
            ss = SampleSet(ctx, [wc])
            for vec in basis:
                f = VectorFunction(ss, vec.reshape(d, 1))
                power = algebra_power(f, d)
                assert np.abs(power.values).max() <= 1e-12


class TestOutOfRange:
    def test_match_refuses_nan(self, two_center):
        _, ss, _, _ = two_center
        with pytest.raises(SampleMiss):
            ss.match(complex("nan"))

    def test_basis_values_overflow_raises(self):
        ctx = AlgebraContext(Centers([1.0, -1.0, 1.0j]))
        with pytest.raises(AlgebraOverflow):
            ctx.basis_values(np.asarray(1e200))

    def test_sample_far_out_is_accurate(self, two_center):
        # the fiber over 1e300 is {+-1e150}: the start circle of the
        # Fujiwara bound stays representable, so the solve succeeds
        ctx, _, _, _ = two_center
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ss = SampleSet(ctx, [1e300])
        assert [str(w.message) for w in caught] == []
        z = ss.fiber_points[0]
        resid = np.abs(z * z - 1.0 - 1e300) / (np.abs(z) ** 2 + 1.0 + 1e300)
        assert resid.max() <= DEFAULT_TOL.root_tol
        assert np.allclose(np.sort(z.real), [-1e150, 1e150], rtol=1e-15, atol=0)

    def test_spectrum_of_huge_values_clusters(self, two_center):
        # f^ = +-1.2e308 over w = 0.5: cluster distances overflow quietly
        ctx, _, _, _ = two_center
        ss = SampleSet(ctx, [0.5, 0.7])
        f = VectorFunction(ss, [[1e308, 1.0], [-1e308, 2.0]])
        vals = spectrum(f)
        assert len(vals) == 3
        assert np.isfinite(vals).all()

    def test_spectrum_of_overflowing_representation_raises(self, two_center):
        # over w = 3 the fiber is {2, -2} and delta_1(2) = 1.5, so
        # f^(2) = 1.5 * 1.5e308 - 0.5 * 1.5e308 overflows
        ctx, _, _, _ = two_center
        f = VectorFunction(SampleSet(ctx, [3.0]), [[1.5e308], [1.5e308]])
        with pytest.raises(AlgebraOverflow):
            spectrum(f)


class TestQuotientSpectrum:
    def test_full_fiber_recovers_spectrum(self, two_center):
        _, ss, f, _ = two_center
        k0 = ss.fiber_points[0]
        got = np.sort_complex(quotient_spectrum(f, k0))
        want = np.sort_complex(np.asarray(spectrum(f)))
        assert np.abs(got - want).max() < 1e-10

    def test_proper_subset(self, two_center):
        _, _, f, _ = two_center
        got = quotient_spectrum(f, [2.0])
        assert len(got) == 1 and abs(got[0] - 3.0) < 1e-10

    def test_empty_k0(self, two_center):
        _, _, f, _ = two_center
        got = quotient_spectrum(f, [])
        assert got.shape == (0,)

    def test_point_off_the_samples_raises(self, two_center):
        _, _, f, _ = two_center
        # p(1.5) = 1.25 is not a sample point (only w = 3 is)
        with pytest.raises(SampleMiss):
            quotient_spectrum(f, [2.0, 1.5])

    def test_ideal_element_gives_zero(self, two_center):
        ctx, ss, _, _ = two_center
        # vanish at z=2 while nonzero elsewhere: f^(2) = 1.5 f1 - 0.5 f2
        f = VectorFunction(ss, [[1.0], [3.0]])
        got = quotient_spectrum(f, [2.0])
        assert len(got) == 1 and abs(got[0]) < 1e-12


class TestSpectrum:
    def test_multiset_keeps_duplicates(self, two_center):
        ctx, _, _, _ = two_center
        ss = SampleSet(ctx, [3.0, -5.0])
        f = VectorFunction.constant(ss, [2.0, 2.0])
        assert len(spectrum_multiset(f)) == 4
        assert np.abs(spectrum_multiset(f) - 2.0).max() < 1e-12
        assert len(spectrum(f)) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_constant_function(self, seed):
        rng = np.random.default_rng(seed + 300)
        ctx, ss = _context(rng, 3, 4)
        c = 1.3 - 0.7j
        f = VectorFunction.constant(ss, [c, c, c])
        vals = spectrum(f)
        assert len(vals) == 1 and abs(vals[0] - c) < 1e-10


def _basis_loop(lam, z):
    """delta_j(z) as the product of the ratios (z - lambda_k)/(lambda_j - lambda_k)."""
    out = np.empty((len(lam),) + z.shape, dtype=np.complex128)
    for j in range(len(lam)):
        acc = np.ones(z.shape, dtype=np.complex128)
        for k in range(len(lam)):
            if k != j:
                acc = acc * (z - lam[k]) / (lam[j] - lam[k])
        out[j] = acc
    return out


def _circle_centers(rng, d):
    """d centers jittered around the unit circle, separated by at least 0.02."""
    k = np.arange(d) + rng.uniform(-0.2, 0.2, d)
    return (1.0 + rng.uniform(-0.06, 0.06, d)) * np.exp(2j * np.pi * k / d)


class TestBasisValues:
    @pytest.mark.parametrize("d", [2, 4, 16, 64])
    def test_matches_product_loop(self, d):
        rng = np.random.default_rng(d)
        lam = _circle_centers(rng, d) if d == 64 else 1.5 * (
            rng.standard_normal(d) + 1j * rng.standard_normal(d))
        ctx = AlgebraContext(Centers(lam))
        ss = SampleSet(ctx, 1.5 * (rng.uniform(-1, 1, 40)
                                   + 1j * rng.uniform(-1, 1, 40)))
        for z in (ss.fiber_points,
                  2.0 * (rng.standard_normal((5, 3))
                         + 1j * rng.standard_normal((5, 3))),
                  np.asarray(0.3 - 0.7j)):
            got, want = ctx.basis_values(z), _basis_loop(ctx.lambdas, z)
            assert got.shape == (d,) + z.shape
            assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()

    @pytest.mark.parametrize("d", [1, 2, 4, 16, 64])
    def test_exact_at_centers(self, d):
        rng = np.random.default_rng(d)
        ctx = AlgebraContext(Centers(_circle_centers(rng, d)))
        assert np.array_equal(ctx.basis_values(ctx.lambdas), np.eye(d))
        # a center hit among other points, and the fiber over w = 0
        z = np.array([[ctx.lambdas[-1], 0.25j]])
        assert np.array_equal(ctx.basis_values(z)[:, 0, 0], np.eye(d)[-1])
        ss = SampleSet(ctx, [0.0, 0.5])
        assert np.array_equal(ss.basis_at_fibers[:, 0, :], np.eye(d))

    def test_single_center_is_one(self):
        ctx = AlgebraContext(Centers([0.5 + 0.2j]))
        assert np.array_equal(ctx.basis_values(np.array([3.0, -1j])),
                              np.ones((1, 2)))


def _polyprod_one_shot(f, g):
    """The sigma form over the full (d, d, m) difference tensors."""
    fd = f.values[:, None, :] - f.values[None, :, :]
    gd = g.values[:, None, :] - g.values[None, :, :]
    corr = np.einsum("ij,ijm,ijm->im", f.ctx.sigma, fd, gd)
    return f.values * g.values - f.samples.points[None, :] * corr


class TestPolyprodBlocks:
    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 17, 64])
    def test_matches_one_shot_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        ctx = AlgebraContext(Centers(_circle_centers(rng, d)))
        ss = SampleSet(ctx, 1.5 * (rng.uniform(-1, 1, 60)
                                   + 1j * rng.uniform(-1, 1, 60)))
        f, g = _rand_function(rng, ss), _rand_function(rng, ss)
        assert np.array_equal(polyprod(f, g).values, _polyprod_one_shot(f, g))
        assert np.array_equal(polyprod(f, f).values, _polyprod_one_shot(f, f))
        twin = VectorFunction(ss, f.values)     # equal values, not the same object
        assert np.array_equal(polyprod(f, twin).values, polyprod(f, f).values)

    @pytest.mark.parametrize("d", [1, 2, 9, 64])
    def test_sample_blocks_bit_for_bit(self, d):
        # two full blocks of samples and a last block one sample wide
        step = CHUNK_BYTES // (16 * min(_PRODUCT_ROWS, d) * d)
        m = 2 * step + 1
        rng = np.random.default_rng(d)
        ctx = AlgebraContext(Centers(_circle_centers(rng, d)))
        ss = SampleSet(ctx, 1.5 * (rng.uniform(-1, 1, m)
                                   + 1j * rng.uniform(-1, 1, m)))
        f, g = _rand_function(rng, ss), _rand_function(rng, ss)
        for a, b in ((f, g), (f, f)):
            want = _polyprod_one_shot(a, b)
            assert polyprod(a, b).values.tobytes() == want.tobytes()


def _mult_matrices_one_shot(f):
    """B_f(w) from one (d, d, m) tensor moved to (m, d, d) at the end."""
    w, sigma = f.samples.points, f.ctx.sigma
    off = f.values[:, None, :] - f.values[None, :, :]
    for i in range(f.d):
        np.multiply(w * sigma[i, :, None], off[i], out=off[i])
    rowsum = off.sum(axis=1)
    b = np.moveaxis(off, 2, 0).copy()
    idx = np.arange(f.d)
    b[:, idx, idx] = (f.values - rowsum).T
    return b


def _chunked_function(d):
    """Near-unit values on 3.5 chunks of samples; circle centers."""
    rng = np.random.default_rng(d)
    step = CHUNK_BYTES // (16 * d * d)
    m = 3 * step + step // 2
    ss = SampleSet(AlgebraContext(Centers(_circle_centers(rng, d))),
                   1.5 * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)))
    vals = 1.0 + 1e-3 * (rng.standard_normal((d, m))
                         + 1j * rng.standard_normal((d, m)))
    return VectorFunction(ss, vals)


class TestMultBlocks:
    @pytest.mark.parametrize("d", [1, 2, 9, 64])
    def test_matches_one_shot_bit_for_bit(self, d):
        f = _chunked_function(d)
        mats = mult_matrices(f)
        assert mats.tobytes() == _mult_matrices_one_shot(f).tobytes()
        for i in (0, f.m // 2, f.m - 1):
            assert mult_matrix(f, i).tobytes() == mats[i].tobytes()

    @pytest.mark.parametrize("d", [2, 64])
    def test_invert_solves_the_stack_bit_for_bit(self, d):
        f = _chunked_function(d)
        want = linalg.solve(mult_matrices(f), np.ones((f.m, f.d))).T
        assert invert(f).values.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("at", [5, 16390])
    def test_refusal_names_the_sample_in_its_chunk(self, at):
        # 16400 samples are more than one d = 2 chunk (16384); only w = -1
        # is singular, as in test_not_invertible_names_the_singular_sample
        ctx = AlgebraContext(Centers([1.0, -1.0]))
        ws = 2.0 + 1e-3 * (1 + 1j) * np.arange(16399)
        ss = SampleSet(ctx, np.insert(ws, at, -1.0))
        f = VectorFunction.constant(ss, [1.0, -1.0])
        with pytest.raises(NotInvertible, match=r"w=\(-1\+0j\)"):
            invert(f)


def _sampled_function(d):
    """A random function on 30 samples; circle centers at d = 64."""
    rng = np.random.default_rng(d)
    if d == 64:
        ss = SampleSet(AlgebraContext(Centers(_circle_centers(rng, d))),
                       1.5 * (rng.uniform(-1, 1, 30) + 1j * rng.uniform(-1, 1, 30)))
    else:
        _, ss = _context(rng, d, 30)
    return _rand_function(rng, ss)


def _radius_recursion(f, k_max):
    """||f^(2^k)||^(1/2^k): square, take the matrix row-sum norm, divide by it.

    The recursion spectral_radius_iter replaced, kept as the test oracle.
    """
    norm = lambda g: np.abs(mult_matrices(g)).sum(axis=2).max()
    r = norm(f)
    out, log_norm, b = [r], np.log(r), f / r
    for k in range(1, k_max + 1):
        b2 = polyprod(b, b)
        rk = norm(b2)
        log_norm = 2.0 * log_norm + np.log(rk)
        out.append(np.exp(log_norm / 2.0 ** k))
        b = b2 / rk
    return np.array(out)


class TestOpNorm:
    # d = 9 ends on a partial block of rows, d = 64 spans eight
    @pytest.mark.parametrize("d", [2, 5, 9, 16, 64])
    def test_matches_matrix_row_sums(self, d):
        f = _sampled_function(d)
        want = np.abs(mult_matrices(f)).sum(axis=2).max()
        assert op_norm(f) == pytest.approx(want, rel=1e-14, abs=0)

    def test_nilpotent_square_is_zero(self):
        ctx = AlgebraContext(Centers([1.0, -1.0]))
        ss = SampleSet(ctx, [-1.0])
        sq = polyprod(VectorFunction(ss, [[1.0], [-1.0]]),
                      VectorFunction(ss, [[1.0], [-1.0]]))
        assert op_norm(sq) == 0.0
        assert np.abs(mult_matrices(sq)).sum(axis=2).max() == 0.0


class TestSpectralRadiusPasses:
    @pytest.mark.parametrize("d", [2, 5, 9, 64])
    def test_matches_the_squaring_recursion(self, d):
        f = _sampled_function(d)
        seq = spectral_radius_iter(f, 6)
        assert seq[0] == op_norm(f)
        want = _radius_recursion(f, 6)
        assert np.abs(seq - want).max() <= 1e-12 * np.abs(want).min()

    @pytest.mark.parametrize("c", [1e-200, 3e-9j, 7e150, -1e250])
    def test_scales_with_the_function(self, c):
        # ||(c f)^n||^(1/n) = |c| ||f^n||^(1/n): the exponent bookkeeping
        # keeps the powers of c f in range at both ends
        f = _sampled_function(5)
        seq, ref = spectral_radius_iter(c * f, 6), spectral_radius_iter(f, 6)
        assert np.abs(seq - abs(c) * ref).max() <= 1e-12 * abs(c) * ref.min()


class TestMemory:
    """Peak allocations at the many-centers size (d, m) = (64, 400)."""

    D, M = 64, 400

    def test_basis_values_builds_in_place(self, peak_alloc):
        rng = np.random.default_rng(0)
        ctx = AlgebraContext(Centers(_circle_centers(rng, self.D)))
        z = rng.standard_normal((self.M, self.D)) \
            + 1j * rng.standard_normal((self.M, self.D))
        out, peak = peak_alloc(ctx.basis_values, z)
        assert peak <= 1.1 * out.nbytes

    def test_polyprod_builds_row_blocks(self, peak_alloc):
        rng = np.random.default_rng(2)
        ctx = AlgebraContext(Centers(_circle_centers(rng, self.D)))
        ss = SampleSet(ctx, 1.5 * (rng.uniform(-1, 1, self.M)
                                   + 1j * rng.uniform(-1, 1, self.M)))
        f, g = _rand_function(rng, ss), _rand_function(rng, ss)
        for args in ((f, g), (f, f)):
            _, peak = peak_alloc(polyprod, *args)
            assert peak <= 0.5 * self.D * self.D * self.M * 16

    def test_op_norm_skips_the_matrices(self, peak_alloc):
        rng = np.random.default_rng(1)
        ctx = AlgebraContext(Centers(_circle_centers(rng, self.D)))
        ss = SampleSet(ctx, 1.5 * (rng.uniform(-1, 1, self.M)
                                   + 1j * rng.uniform(-1, 1, self.M)))
        f = _rand_function(rng, ss)
        _, peak = peak_alloc(op_norm, f)
        assert peak <= 0.5 * self.D * self.D * self.M * 16

    def test_spectral_radius_builds_row_blocks(self, peak_alloc):
        rng = np.random.default_rng(3)
        ctx = AlgebraContext(Centers(_circle_centers(rng, self.D)))
        ss = SampleSet(ctx, 1.5 * (rng.uniform(-1, 1, self.M)
                                   + 1j * rng.uniform(-1, 1, self.M)))
        _, peak = peak_alloc(spectral_radius_iter, _rand_function(rng, ss), 3)
        assert peak <= 0.5 * self.D * self.D * self.M * 16

    def test_mult_matrices_builds_sample_chunks(self, peak_alloc):
        rng = np.random.default_rng(5)
        ctx = AlgebraContext(Centers(_circle_centers(rng, self.D)))
        ss = SampleSet(ctx, 1.5 * (rng.uniform(-1, 1, self.M)
                                   + 1j * rng.uniform(-1, 1, self.M)))
        out, peak = peak_alloc(mult_matrices, _rand_function(rng, ss))
        assert peak <= 1.1 * out.nbytes

    def test_invert_never_holds_the_stack(self, peak_alloc):
        rng = np.random.default_rng(6)
        ctx = AlgebraContext(Centers(_circle_centers(rng, self.D)))
        ss = SampleSet(ctx, 1.5 * (rng.uniform(-1, 1, self.M)
                                   + 1j * rng.uniform(-1, 1, self.M)))
        f = VectorFunction(ss, 1.0 + 1e-3 * _rand_function(rng, ss).values)
        _, peak = peak_alloc(invert, f)
        assert peak <= 0.5 * self.D * self.D * self.M * 16

    def test_fiber_batch_builds_row_blocks(self, peak_alloc):
        rng = np.random.default_rng(4)
        cen = Centers(_circle_centers(rng, self.D))
        ws = 1.5 * (rng.uniform(-1, 1, self.M) + 1j * rng.uniform(-1, 1, self.M))
        _, peak = peak_alloc(fiber_batch, cen, ws)
        assert peak <= 0.5 * self.D * self.D * self.M * 16


@pytest.fixture(scope="module", params=[20_000, 40_000], ids=["m", "2m"])
def wide_samples(request):
    """d = 4 centers and m samples in the square |Re w|, |Im w| <= 3.

    The wide-samples shape, with a near-unit f, so invert never meets a
    zero, and a random g.  Returns (samples, f, g).
    """
    m = request.param
    rng = np.random.default_rng(11)
    ctx = AlgebraContext(Centers(1.5 * _circle_centers(rng, 4)))
    ss = SampleSet(ctx, 3.0 * (rng.uniform(-1, 1, m)
                               + 1j * rng.uniform(-1, 1, m)))
    f = VectorFunction(ss, 1.0 + 1e-3 * _rand_function(rng, ss).values)
    return ss, f, _rand_function(rng, ss)


class TestWideMemory:
    """Peak allocations at the wide-samples shape, d = 4 and m = 2e4, and at 2m.

    Each cap is the call's full-size arrays plus a few CHUNK_BYTES of
    scratch.  The caps hold at both m, so the scratch does not grow with
    the number of samples.
    """

    def test_fiber_batch(self, wide_samples, peak_alloc):
        ss = wide_samples[0]
        out, peak = peak_alloc(fiber_batch, ss.ctx.centers, ss.points)
        assert peak <= out.nbytes + 8 * CHUNK_BYTES

    def test_sample_set(self, wide_samples, peak_alloc):
        ss = wide_samples[0]
        got, peak = peak_alloc(SampleSet, ss.ctx, ss.points)
        out = sum(a.nbytes for a in (got.points, got.fiber_points,
                                     got.fiber_critical, got.basis_at_fibers))
        assert peak <= out + 6 * CHUNK_BYTES

    def test_polyprod(self, wide_samples, peak_alloc):
        # the values and the copy their VectorFunction keeps
        _, f, g = wide_samples
        for args in ((f, g), (f, f)):
            out, peak = peak_alloc(polyprod, *args)
            assert peak <= 2 * out.values.nbytes + 4 * CHUNK_BYTES

    def test_invert(self, wide_samples, peak_alloc):
        # the result, and the verification product with its copy
        _, f, _ = wide_samples
        f.gelfand_values()          # cached on f: not the call's scratch
        out, peak = peak_alloc(invert, f)
        assert peak <= 3 * out.values.nbytes + 5 * CHUNK_BYTES
