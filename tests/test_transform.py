"""Forward and inverse passage between vector samples and scalar values.

Worked two-center configuration, f(3) = (2, 0) on centers {1, -1}:
the fiber over 3 is {2, -2}, the representation takes 3 at z = 2 and
-1 at z = -2, and the fiber Lagrange weight delta_1(1; w=3) is 3/4.
"""

import numpy as np
import pytest

from multicentric.algebra import AlgebraContext, SampleSet, VectorFunction
from multicentric.errors import CriticalValue, MalformedInput, SampleMiss
from multicentric.polynomials import Centers
from multicentric.transform import (
    gelfand_eval,
    inverse_transform,
    reconstruct,
    scalar_representation,
)


@pytest.fixture
def two_center():
    ctx = AlgebraContext(Centers([1.0, -1.0]))
    ss = SampleSet(ctx, [3.0])
    f = VectorFunction(ss, [[2.0], [0.0]])
    return ctx, ss, f


def _random_context(rng, d, box=1.5):
    while True:
        lam = box * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        if d == 1 or np.min(np.abs(lam[:, None] - lam[None, :])
                            + np.eye(d) * 1e9) > 0.5:
            return AlgebraContext(Centers(lam))


class TestGelfandEval:
    def test_worked_values(self, two_center):
        _, _, f = two_center
        assert gelfand_eval(f, 2.0) == pytest.approx(3.0, abs=1e-14)
        assert gelfand_eval(f, -2.0) == pytest.approx(-1.0, abs=1e-14)

    def test_unit_is_one(self, two_center):
        ctx, ss, _ = two_center
        one = VectorFunction.unit(ss)
        for z in (2.0, -2.0):
            assert gelfand_eval(one, z) == pytest.approx(1.0, abs=1e-12)

    def test_at_center_reads_component(self):
        # p(lambda_k) = 0, so a sample at w = 0 is needed; the
        # interpolation property then returns f_k(0) exactly.
        ctx = AlgebraContext(Centers([1.0, -1.0]))
        ss = SampleSet(ctx, [0.0])
        f = VectorFunction(ss, [[0.7 + 0.1j], [-0.3]])
        assert gelfand_eval(f, 1.0) == 0.7 + 0.1j
        assert gelfand_eval(f, -1.0) == -0.3

    def test_unsampled_point_rejected(self, two_center):
        _, _, f = two_center
        with pytest.raises(SampleMiss):
            gelfand_eval(f, 5.0)  # p(5) = 24 is not a sample

    def test_matches_gelfand_values_table(self, two_center):
        _, ss, f = two_center
        table = f.gelfand_values()
        pts = ss.fiber_points
        for i in range(ss.m):
            for j in range(ss.ctx.d):
                assert gelfand_eval(f, pts[i, j]) == pytest.approx(
                    complex(table[i, j]), abs=1e-13)


class TestInverseTransform:
    def test_worked_recovery(self, two_center):
        ctx, _, _ = two_center
        got = inverse_transform(ctx, {2.0: 3.0, -2.0: -1.0}, 3.0)
        assert np.abs(got - [2.0, 0.0]).max() < 1e-12

    def test_pair_list_and_callable_forms(self, two_center):
        ctx, _, _ = two_center
        want = inverse_transform(ctx, {2.0: 3.0, -2.0: -1.0}, 3.0)
        pairs = inverse_transform(ctx, [(-2.0, -1.0), (2.0, 3.0)], 3.0)
        func = inverse_transform(ctx, lambda z: z + 1.0, 3.0)
        assert np.abs(pairs - want).max() < 1e-10
        assert np.abs(func - want).max() < 1e-10

    def test_constants_are_fixed(self):
        rng = np.random.default_rng(3)
        for d in (2, 4):
            ctx = _random_context(rng, d)
            c = 0.8 - 1.2j
            got = inverse_transform(ctx, lambda z: c, 2.0 + 0.5j)
            assert np.abs(got - c).max() < 1e-10

    def test_identity_gives_centers(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 5):
            ctx = _random_context(rng, d)
            got = inverse_transform(ctx, lambda z: z, 1.5 - 0.7j)
            assert np.abs(got - ctx.lambdas).max() < 1e-9

    def test_input_order_irrelevant(self, two_center):
        ctx, _, _ = two_center
        rng = np.random.default_rng(5)
        fib = ctx.fiber(3.0)
        pairs = [(z, z ** 2 - 0.5j) for z in fib.points]
        base = inverse_transform(ctx, pairs, 3.0)
        for _ in range(4):
            rng.shuffle(pairs)
            got = inverse_transform(ctx, pairs, 3.0)
            assert np.abs(got - base).max() < 1e-10

    def test_critical_value_refused(self):
        ctx = AlgebraContext(Centers([1.0, -1.0]))
        with pytest.raises(CriticalValue):
            inverse_transform(ctx, lambda z: z, -1.0)

    def test_missing_fiber_point_rejected(self, two_center):
        ctx, _, _ = two_center
        with pytest.raises(MalformedInput):
            inverse_transform(ctx, {2.0: 3.0}, 3.0)
        with pytest.raises(MalformedInput):
            inverse_transform(ctx, [], 3.0)

    def test_off_fiber_point_rejected(self, two_center):
        ctx, _, _ = two_center
        with pytest.raises(MalformedInput):
            inverse_transform(ctx, {2.1: 3.0, -2.0: -1.0}, 3.0)


class TestRoundTrips:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_vector_to_scalar_and_back(self, d, seed):
        rng = np.random.default_rng(100 * d + seed)
        ctx = _random_context(rng, d)
        w = complex(2.5 * (rng.standard_normal() + 1j * rng.standard_normal()))
        ss = SampleSet(ctx, [w])
        vals = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
        f = VectorFunction(ss, vals)
        phi = {complex(z): gelfand_eval(f, z) for z in ss.fiber_points[0]}
        back = inverse_transform(ctx, phi, w)
        scale = max(1.0, np.abs(vals).max())
        assert np.abs(back - vals[:, 0]).max() < 1e-8 * scale

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_scalar_to_vector_and_back(self, d, seed):
        rng = np.random.default_rng(200 * d + seed)
        ctx = _random_context(rng, d)
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)

        def phi(z):
            return complex(np.polynomial.polynomial.polyval(z, coeffs))

        w = complex(2.0 + 0.3j + rng.standard_normal())
        f = reconstruct(ctx, phi, [w])
        for z in f.samples.fiber_points[0]:
            got = gelfand_eval(f, z)
            assert abs(got - phi(z)) < 1e-8 * max(1.0, abs(phi(z)))

    def test_reconstruct_many_points(self):
        rng = np.random.default_rng(9)
        ctx = _random_context(rng, 3)
        pts = [1.0 + 1.0j, -2.0, 0.5j]
        f = reconstruct(ctx, lambda z: np.sin(z), pts)
        assert f.m == 3
        for i, w in enumerate(pts):
            col = inverse_transform(ctx, lambda z: np.sin(z), w)
            assert np.array_equal(f.values[:, i], col)

    def test_reconstruct_refuses_a_critical_point(self):
        ctx = AlgebraContext(Centers([1.0, -1.0]))
        with pytest.raises(CriticalValue):
            reconstruct(ctx, lambda z: z, [3.0, -1.0, 2.0j])


class TestScalarRepresentation:
    def test_worked_polynomial(self, two_center):
        # constant components (2, 0) give f^ = 2 delta_1 = z + 1
        ctx, _, _ = two_center
        q = scalar_representation(ctx, [[2.0], [0.0]])
        assert q(2.0) == pytest.approx(3.0, abs=1e-13)
        assert q(-2.0) == pytest.approx(-1.0, abs=1e-13)
        assert np.abs(np.trim_zeros(q.coeffs, "b")
                      - [1.0, 1.0]).max() < 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_agrees_with_gelfand_eval(self, d):
        rng = np.random.default_rng(d + 40)
        ctx = _random_context(rng, d)
        comps = [rng.standard_normal(3) + 1j * rng.standard_normal(3)
                 for _ in range(d)]
        q = scalar_representation(ctx, comps)
        w = 1.7 - 0.4j
        ss = SampleSet(ctx, [w])
        vals = np.array([[np.polynomial.polynomial.polyval(w, c)]
                         for c in comps])
        f = VectorFunction(ss, vals)
        for z in ss.fiber_points[0]:
            assert abs(q(z) - gelfand_eval(f, z)) < 1e-9 * max(1.0, abs(q(z)))

    def test_wrong_component_count(self, two_center):
        ctx, _, _ = two_center
        with pytest.raises(ValueError):
            scalar_representation(ctx, [[1.0]])
