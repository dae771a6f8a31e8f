"""Matrix functional calculus against hand-worked and Hermite oracles.

The 2x2 nilpotent Jordan block with centers {i, -i} has a closed form:
for f = (f1, f2) sampled at w = p(0) = 1,

    chi_A(f) = [[(f1+f2)/2, (f1-f2)/(2i)], [0, (f1+f2)/2]]

and the independent oracle route evaluates the classical Hermite
interpolant of the scalar representation on the spectrum.
"""

import math
import warnings

import numpy as np
import numpy.linalg as npl
import pytest

from multicentric.algebra import AlgebraContext, SampleSet, VectorFunction, polyprod
from multicentric.calculus import (
    SpectralMappingReport,
    SpectrumData,
    chi_A,
    chi_similarity,
    ensure_simple_roots,
    hausdorff_distance,
    hermite_matrix_function,
    jordan_block,
    newton_hermite,
    random_similarity,
    simplifying_poly,
    simplifying_residual,
    spectral_mapping_check,
)
from multicentric.calculus import TestMatrixSpec as MatrixSpec
from multicentric.config import Tolerances
from multicentric.errors import (
    AlgebraOverflow,
    ContextMismatch,
    InsufficientData,
    NoSimpleShiftFound,
    NotSimplifying,
)
from multicentric.polynomials import Centers, Polynomial, roots
from multicentric.transform import scalar_representation


def _poly_f(ctx, w_points, coeff_rows):
    """VectorFunction with polynomial components evaluated at w_points."""
    ss = SampleSet(ctx, w_points)
    vals = np.array([np.polynomial.polynomial.polyval(ss.points, c)
                     for c in coeff_rows])
    return ss, VectorFunction(ss, vals)


class TestSpectrumData:
    def test_fields(self):
        s = SpectrumData([(2.0, 1), (-1.0, 0)])
        assert np.array_equal(s.alphas, [2.0, -1.0])
        assert np.array_equal(s.orders, [1, 0])

    def test_from_blocks_takes_worst_order(self):
        s = SpectrumData.from_blocks([(2.0, 3), (2.0, 1), (5.0, 1)])
        assert s.entries == ((2.0, 2), (5.0, 0))

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectrumData([])
        with pytest.raises(ValueError):
            SpectrumData([(1.0, -1)])
        with pytest.raises(ValueError):
            SpectrumData([(1.0, 0), (1.0, 1)])


class TestBuildingBlocks:
    def test_jordan_block(self):
        a = 2.0 - 1.0j
        want = np.array([[a, 1, 0], [0, a, 1], [0, 0, a]])
        assert np.array_equal(jordan_block(a, 3), want)
        assert np.array_equal(jordan_block(a, 1), [[a]])

    @pytest.mark.parametrize("cond", [1.0, 10.0, 50.0])
    def test_random_similarity_condition(self, cond):
        rng = np.random.default_rng(11)
        t, tinv = random_similarity(4, cond, rng)
        assert npl.cond(t) == pytest.approx(cond, rel=1e-8)
        assert np.abs(t @ tinv - np.eye(4)).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 8, 30])
    def test_random_similarity_exact_and_reproducible(self, n):
        t, tinv = random_similarity(n, 50.0, np.random.default_rng(n))
        want = 50.0 if n > 1 else 1.0   # a 1x1 similarity is a unit scalar
        assert npl.cond(t) == pytest.approx(want, rel=1e-12)
        assert npl.norm(t @ tinv - np.eye(n), 2) <= 1e-12
        again, _ = random_similarity(n, 50.0, np.random.default_rng(n))
        assert np.array_equal(t, again)

    def test_random_similarity_rejects_small_cond(self):
        with pytest.raises(ValueError):
            random_similarity(3, 0.5, np.random.default_rng(0))

    def test_matrix_spec_assemble(self):
        spec = MatrixSpec([(1.0, 2), (3.0, 1)])
        a, t, tinv = spec.assemble()
        assert spec.dim == 3
        assert np.array_equal(t, np.eye(3))
        want = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 3]])
        assert np.array_equal(a, want)

    def test_matrix_spec_similarity(self):
        spec = MatrixSpec([(1.0, 2), (3.0, 1)],
                              similarity_seed=5, target_cond=20.0)
        a, t, tinv = spec.assemble()
        assert npl.cond(t) == pytest.approx(20.0, rel=1e-8)
        eig = np.sort_complex(npl.eigvals(a))
        assert np.abs(eig - [1.0, 1.0, 3.0]).max() < 1e-6

    def test_matrix_spec_validation(self):
        with pytest.raises(ValueError):
            MatrixSpec([])
        with pytest.raises(ValueError):
            MatrixSpec([(1.0, 0)])


class TestSimplifyingPoly:
    def test_simple_spectrum_degenerates_to_linear(self):
        s = SpectrumData([(2.0, 0), (-1.0, 0)])
        p = simplifying_poly(s, c=0.5)
        assert np.array_equal(p.coeffs, [0.5, 1.0])

    def test_triple_block_cubic(self):
        s = SpectrumData([(0.0, 2)])
        p = simplifying_poly(s, c=1.0 / 3.0)
        assert np.abs(p.coeffs - [1.0, 0.0, 0.0, 1.0]).max() < 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_small_for_constructed(self, seed):
        rng = np.random.default_rng(seed)
        alphas = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s = SpectrumData([(alphas[0], 2), (alphas[1], 1), (alphas[2], 0)])
        p = simplifying_poly(s, c=0.7)
        assert p.coeffs[-1] == 1.0
        assert simplifying_residual(p, s) < 1e-13

    def test_residual_flags_non_simplifying(self):
        s = SpectrumData([(0.0, 2)])
        p = Polynomial([0.0, -1.0, 0.0, 1.0])  # z^3 - z, p'(0) = -1
        assert simplifying_residual(p, s) > 0.1

    @pytest.mark.parametrize("alpha", [1e308, -1e308j, 1.7e308])
    def test_residual_overflow_raises_without_warnings(self, alpha):
        # p'(alpha) = 2 alpha leaves the float range
        s = SpectrumData([(alpha, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AlgebraOverflow, match="derivative 1"):
                simplifying_residual(Polynomial([1.0, 0.0, 1.0]), s)

    def test_residual_where_only_the_magnitude_overflows(self):
        # p'(alpha) = 6e307 is finite while sum |c_k| |alpha|^k = 2.6e308
        # is not: the scaled magnitude still gives the ratio 3/13
        s = SpectrumData([(8e307, 1)])
        p = Polynomial([0.0, -1e308, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert simplifying_residual(p, s) == pytest.approx(3 / 13,
                                                               rel=1e-12)


class TestEnsureSimpleRoots:
    def test_already_simple_unchanged(self):
        p = Polynomial([-1.0, 0.0, 1.0])
        q = ensure_simple_roots(p)
        assert np.array_equal(q.coeffs, p.coeffs)

    def test_double_root_gets_shifted(self):
        p = Polynomial([0.0, 0.0, 1.0])  # z^2
        q = ensure_simple_roots(p)
        rts = roots(q)
        assert abs(rts[0] - rts[1]) > 1e-4

    def test_gives_up_eventually(self):
        # every shift of a constant is a constant, which has no roots
        p = Polynomial([2.0])
        with pytest.raises(NoSimpleShiftFound, match="32 attempts"):
            ensure_simple_roots(p)


class TestNewtonHermite:
    def test_value_and_derivative(self):
        # phi(0) = 1, phi'(0) = 2, phi(1) = 0
        q = newton_hermite([0.0, 1.0], [[1.0, 2.0], [0.0]])
        assert np.abs(q.coeffs - [1.0, 2.0, -3.0]).max() < 1e-14

    def test_confluent_taylor(self):
        # full 2nd order data of z^2 at 0 reproduces z^2
        q = newton_hermite([0.0], [[0.0, 0.0, 2.0]])
        assert np.abs(q.coeffs - [0.0, 0.0, 1.0]).max() < 1e-14

    def test_plain_interpolation(self):
        rng = np.random.default_rng(2)
        xs = np.array([0.0, 1.0, -1.5, 2.0 + 1j])
        ys = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q = newton_hermite(xs, [[y] for y in ys])
        assert np.abs(np.array([q(x) for x in xs]) - ys).max() < 1e-12

    def test_empty_data_rejected(self):
        with pytest.raises(InsufficientData):
            newton_hermite([0.0, 1.0], [[1.0], []])


class TestHermiteMatrixFunction:
    def test_square_of_jordan_block(self):
        alpha = 1.3 - 0.2j
        j = jordan_block(alpha, 3)
        s = SpectrumData([(alpha, 2)])
        got = hermite_matrix_function(j, s, [[alpha ** 2, 2 * alpha, 2.0]])
        want = np.array([
            [alpha ** 2, 2 * alpha, 1.0],
            [0.0, alpha ** 2, 2 * alpha],
            [0.0, 0.0, alpha ** 2],
        ])
        assert np.abs(got - want).max() < 1e-12
        assert np.abs(got - j @ j).max() < 1e-12

    def test_interpolant_out_of_range_raises(self):
        # the Newton form multiplies out (z - 1e200)^2 = z^2 - 2e200 z + 1e400
        s = SpectrumData([(1e200, 2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AlgebraOverflow, match="not finite"):
                hermite_matrix_function(jordan_block(1e200, 3), s,
                                        [[1.0, 1.0, 1.0]])

    def test_missing_derivatives_rejected(self):
        j = jordan_block(0.0, 3)
        s = SpectrumData([(0.0, 2)])
        with pytest.raises(InsufficientData):
            hermite_matrix_function(j, s, [[1.0, 2.0]])
        with pytest.raises(InsufficientData):
            hermite_matrix_function(j, s, [])


class TestChiWorkedExample:
    def setup_method(self):
        self.ctx = AlgebraContext(Centers([1.0j, -1.0j]))
        self.p = Polynomial([1.0, 0.0, 1.0])  # z^2 + 1
        self.ss = SampleSet(self.ctx, [1.0])
        self.f = VectorFunction(self.ss, [[2.0], [-1.0j]])
        self.a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
        self.s = SpectrumData([(0.0, 1)])

    def test_closed_form(self):
        got = chi_A(self.a, self.s, self.p, self.f)
        f1, f2 = 2.0, -1.0j
        diag = (f1 + f2) / 2.0
        off = (f1 - f2) / 2.0j
        want = np.array([[diag, off], [0.0, diag]])
        assert np.abs(got - want).max() < 1e-12

    def test_commutes_with_matrix(self):
        got = chi_A(self.a, self.s, self.p, self.f)
        assert np.abs(got @ self.a - self.a @ got).max() < 1e-13

    def test_constant_gives_scalar_matrix(self):
        c = 0.4 + 2.0j
        f = VectorFunction.constant(self.ss, [c, c])
        got = chi_A(self.a, self.s, self.p, f)
        assert np.abs(got - c * np.eye(2)).max() < 1e-13

    def test_spectrum_too_big_rejected(self):
        s = SpectrumData([(0.0, 2)])
        with pytest.raises(ValueError):
            chi_A(self.a, s, simplifying_poly(s, 1 / 3), self.f)

    def test_wrong_centers_rejected(self):
        other = AlgebraContext(Centers([1.0, -1.0]))
        ss = SampleSet(other, [1.0])
        f = VectorFunction(ss, [[2.0], [0.0]])
        with pytest.raises(ContextMismatch):
            chi_A(self.a, self.s, self.p, f)  # p = z^2 + 1, centers {1,-1}

    def test_scaled_change_of_variable_rejected(self):
        # 2 (z^2 + 1) has the roots of z^2 + 1 but reads f at p(0) = 2
        # where z^2 + 1 reads it at 1, so chi(fg) = chi(f) chi(g) fails
        ss = SampleSet(self.ctx, [1.0, 2.0, 3.0])
        f = VectorFunction(ss, [[2.0, 1.0, 0.5], [-1.0j, 1.0j, 3.0]])
        p = Polynomial([2.0, 0.0, 2.0])
        with pytest.raises(ContextMismatch):
            chi_A(self.a, self.s, p, f)
        with pytest.raises(ContextMismatch):
            spectral_mapping_check(self.a, self.s, p, f)

    def test_reads_the_tolerances_of_f(self):
        # p is 1e-5 off the centers' z^2 + 1 in its constant term: within
        # 1e3 eq_tol at eq_tol = 1e-6, not at the default 1e-10
        p = Polynomial([1.0 + 1e-5, 0.0, 1.0])
        beta = complex(p(0.0))
        loose = Tolerances(eq_tol=1e-6)
        ctx = AlgebraContext(Centers([1.0j, -1.0j], loose), loose)
        f = VectorFunction(SampleSet(ctx, [beta]), [[2.0], [-1.0j]])
        got = chi_A(self.a, self.s, p, f)
        want = np.array([[1.0 - 0.5j, 0.5 - 1.0j], [0.0, 1.0 - 0.5j]])
        assert np.abs(got - want).max() < 1e-12   # the closed form above
        f = VectorFunction(SampleSet(self.ctx, [beta]), [[2.0], [-1.0j]])
        with pytest.raises(ContextMismatch):
            chi_A(self.a, self.s, p, f)

    def test_overflow_raises(self):
        # (1e200 J)^2 overflows inside the product form
        p = Polynomial([1.0, 0.0, 0.0, 1.0])
        ss = SampleSet(AlgebraContext(Centers(roots(p))), [1.0])
        f = VectorFunction(ss, [[1.0], [2.0], [3.0]])
        with pytest.raises(AlgebraOverflow):
            chi_A(1e200 * jordan_block(0.0, 3), SpectrumData([(0.0, 2)]), p, f)

    def test_non_simplifying_rejected(self):
        # z^3 - z has simple roots {0, 1, -1} but p'(0) != 0
        p = Polynomial([0.0, -1.0, 0.0, 1.0])
        ctx = AlgebraContext(Centers([0.0, 1.0, -1.0]))
        ss = SampleSet(ctx, [0.0])
        f = VectorFunction(ss, [[1.0], [2.0], [3.0]])
        s = SpectrumData([(0.0, 2)])
        a = jordan_block(0.0, 3)
        with pytest.raises(NotSimplifying):
            chi_A(a, s, p, f)


class TestChiJordanTriple:
    """J(0, 3) with p = z^3 + 1 against the Hermite oracle."""

    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        s = SpectrumData([(0.0, 2)])
        p = simplifying_poly(s, c=1.0 / 3.0)  # z^3 + 1
        ctx = AlgebraContext(Centers(roots(p)))
        comps = [rng.standard_normal(3) + 1j * rng.standard_normal(3)
                 for _ in range(3)]
        ss, f = _poly_f(ctx, [1.0], comps)
        return ctx, s, p, f, comps

    @pytest.mark.parametrize("seed", range(6))
    def test_against_hermite_oracle(self, seed):
        ctx, s, p, f, comps = self._setup(seed)
        a = jordan_block(0.0, 3)
        psi = scalar_representation(ctx, comps)
        dpsi = psi.derivative()
        data = [[psi(0.0), dpsi(0.0), dpsi.derivative()(0.0)]]
        want = hermite_matrix_function(a, s, data)
        got = chi_A(a, s, p, f)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() < 1e-8 * scale

    @pytest.mark.parametrize("seed", range(3))
    def test_similarity_consistency(self, seed):
        ctx, s, p, f, comps = self._setup(seed + 20)
        spec = MatrixSpec([(0.0, 3)], similarity_seed=seed,
                              target_cond=30.0)
        a, t, tinv = spec.assemble()
        j = jordan_block(0.0, 3)
        direct = chi_A(a, s, p, f)
        conj = t @ chi_A(j, s, p, f) @ tinv
        scale = max(1.0, np.abs(conj).max())
        assert np.abs(direct - conj).max() < 1e-8 * 30.0 * scale

    @pytest.mark.parametrize("seed", range(3))
    def test_chi_similarity_helper(self, seed):
        ctx, s, p, f, comps = self._setup(seed + 40)
        spec = MatrixSpec([(0.0, 3)], similarity_seed=seed + 7,
                              target_cond=10.0)
        a, t, tinv = spec.assemble()
        got = chi_similarity(a, t, s, p, f)
        want = chi_A(a, s, p, f)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() < 1e-7 * scale


class TestHomomorphism:
    @pytest.mark.parametrize("seed", range(4))
    def test_chi_multiplicative_jordan(self, seed):
        rng = np.random.default_rng(seed + 60)
        s = SpectrumData([(0.0, 2)])
        p = simplifying_poly(s, c=1.0 / 3.0)
        ctx = AlgebraContext(Centers(roots(p)))
        ss = SampleSet(ctx, [1.0])
        a = jordan_block(0.0, 3)

        def draw():
            vals = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
            return VectorFunction(ss, vals)

        f, g = draw(), draw()
        left = chi_A(a, s, p, polyprod(f, g))
        right = chi_A(a, s, p, f) @ chi_A(a, s, p, g)
        scale = max(1.0, np.abs(right).max())
        assert np.abs(left - right).max() < 1e-10 * scale

    @pytest.mark.parametrize("seed", range(3))
    def test_chi_multiplicative_mixed_blocks(self, seed):
        rng = np.random.default_rng(seed + 80)
        spec = MatrixSpec([(1.0, 2), (-0.5 + 0.5j, 1), (2.0, 1)],
                              similarity_seed=seed, target_cond=15.0)
        s = spec.spectrum_data()
        p = ensure_simple_roots(simplifying_poly(s, c=0.9 + 0.3j))
        a, _, _ = spec.assemble()
        ctx = AlgebraContext(Centers(roots(p)))
        betas = np.unique(np.round(p(s.alphas), 12))
        ss = SampleSet(ctx, betas)

        def draw():
            vals = rng.standard_normal((ctx.d, ss.m)) \
                + 1j * rng.standard_normal((ctx.d, ss.m))
            return VectorFunction(ss, vals)

        f, g = draw(), draw()
        left = chi_A(a, s, p, polyprod(f, g))
        right = chi_A(a, s, p, f) @ chi_A(a, s, p, g)
        scale = max(1.0, np.abs(right).max())
        assert np.abs(left - right).max() < 1e-8 * scale

    @pytest.mark.parametrize("seed", range(3))
    def test_chi_multiplicative_n30(self, seed):
        # A = J with six 5x5 blocks at the sixth roots of unity, so p has
        # degree 25 and B = p(A) has six eigenvalues.
        rng = np.random.default_rng(seed + 100)
        spec = MatrixSpec([(np.exp(2j * np.pi * k / 6), 5) for k in range(6)])
        s = spec.spectrum_data()
        p = ensure_simple_roots(simplifying_poly(s, c=0.5))
        a, _, _ = spec.assemble()
        ctx = AlgebraContext(Centers(roots(p)))
        ss = SampleSet(ctx, p(s.alphas))

        def draw():
            vals = rng.standard_normal((ctx.d, ss.m)) \
                + 1j * rng.standard_normal((ctx.d, ss.m))
            return VectorFunction(ss, vals)

        f, g = draw(), draw()
        left = chi_A(a, s, p, polyprod(f, g))
        right = chi_A(a, s, p, f) @ chi_A(a, s, p, g)
        scale = max(1.0, np.abs(right).max())
        assert np.abs(left - right).max() < 1e-11 * scale

    def test_chi_refuses_nearly_coincident_betas(self):
        # Six collinear 5x5 blocks: two of the p(alpha_k) lie 4.4e-5 apart,
        # the computed E_k miss E_k^2 = E_k by 0.47 of ||E_k||^2, and
        # chi(fg) - chi(f) chi(g) was 0.4-0.9 relative here.
        spec = MatrixSpec([(x + 0.2j, 5) for x in np.linspace(-1.25, 1.25, 6)])
        s = spec.spectrum_data()
        p = ensure_simple_roots(simplifying_poly(s, c=0.7))
        a, _, _ = spec.assemble()
        ss = SampleSet(AlgebraContext(Centers(roots(p))), p(s.alphas))
        with pytest.raises(AlgebraOverflow, match="nearly coincide"):
            chi_A(a, s, p, VectorFunction.unit(ss))

    @pytest.mark.parametrize("betas", [
        [10000.0, 10001.0, 10002.0],
        np.exp(2j * np.pi * np.arange(33) / 33),
    ], ids=["shifted", "roots-of-unity-33"])
    def test_chi_accepts_exact_projectors(self, betas):
        # Diagonal A with p(z) = z: the E_k are exact projectors, whatever
        # the shift of the spectrum or the product of the gaps.
        betas = np.asarray(betas, dtype=complex)
        p = Polynomial([0.0, 1.0])
        ss = SampleSet(AlgebraContext(Centers([0.0])), betas)
        f = VectorFunction(ss, ss.points[None, :] ** 2)
        chi = chi_A(np.diag(betas), SpectrumData([(b, 0) for b in betas]),
                    p, f)
        want = np.diag(betas ** 2)
        assert np.abs(chi - want).max() <= 1e-14 * np.abs(want).max()


class TestSpectralMapping:
    def test_hausdorff_distance(self):
        assert hausdorff_distance([], []) == 0.0
        assert hausdorff_distance([1.0], []) == np.inf
        assert hausdorff_distance([0.0, 1.0], [0.0]) == 1.0
        assert hausdorff_distance([0.0], [0.0, 1.0]) == 1.0
        assert hausdorff_distance([1.0j, 2.0], [2.0, 1.0j]) == 0.0

    def test_jordan_triple(self):
        rng = np.random.default_rng(5)
        s = SpectrumData([(0.0, 2)])
        p = simplifying_poly(s, c=1.0 / 3.0)
        ctx = AlgebraContext(Centers(roots(p)))
        comps = [rng.standard_normal(2) + 1j * rng.standard_normal(2)
                 for _ in range(3)]
        ss, f = _poly_f(ctx, [1.0], comps)
        rep = spectral_mapping_check(jordan_block(0.0, 3), s, p, f)
        assert isinstance(rep, SpectralMappingReport)
        assert rep.passed
        assert rep.hausdorff <= 1e-8
        assert len(rep.computed) == 1

    def test_distinct_diagonal(self):
        # A = diag(2, -2): both alphas sit on the same fiber over w = 3
        ctx = AlgebraContext(Centers([1.0, -1.0]))
        p = Polynomial([-1.0, 0.0, 1.0])
        ss = SampleSet(ctx, [3.0])
        f = VectorFunction(ss, [[2.0], [0.0]])
        s = SpectrumData([(2.0, 0), (-2.0, 0)])
        a = np.diag([2.0, -2.0]).astype(np.complex128)
        rep = spectral_mapping_check(a, s, p, f)
        assert rep.passed
        got = np.sort_complex(rep.computed)
        assert np.abs(got - [-1.0, 3.0]).max() < 1e-8

    def test_scalar_matrix_fiber_image_strictly_larger(self):
        # sigma(chi_A(f)) = {3} while the full fiber image is {3, -1}
        ctx = AlgebraContext(Centers([1.0, -1.0]))
        p = Polynomial([-1.0, 0.0, 1.0])
        ss = SampleSet(ctx, [3.0])
        f = VectorFunction(ss, [[2.0], [0.0]])
        s = SpectrumData([(2.0, 0)])
        a = 2.0 * np.eye(2, dtype=np.complex128)
        rep = spectral_mapping_check(a, s, p, f)
        assert rep.passed
        assert len(rep.computed) == 1
        assert abs(rep.computed[0] - 3.0) < 1e-8
        fiber_image = f.gelfand_values().ravel()
        assert len(fiber_image) > len(rep.computed)
        assert hausdorff_distance(rep.computed, fiber_image) > 0.5
