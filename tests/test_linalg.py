"""Dense-kernel checks.

solve, inverse and nullspace are LAPACK calls, so they are checked by
backward error and against known factors rather than against
numpy.linalg; the characteristic polynomial and the eigenvalues are
hand-written and keep numpy.linalg as an independent oracle.
"""

import warnings

import numpy as np
import numpy.linalg as npl
import pytest
from hypothesis import given, strategies as st

from multicentric.config import CHUNK_BYTES, DEFAULT_TOL
from multicentric.errors import AlgebraOverflow, DimensionTooLarge, SingularMatrix
from multicentric.linalg import (
    EIG_DIM_CAP,
    _certified,
    _johnson,
    char_poly,
    eigenvalues,
    inverse,
    mat_poly_eval,
    nullspace,
    solve,
)
from multicentric.polynomials import Polynomial


def _rand_matrix(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)))


def _match_multisets(a, b, tol):
    a = list(np.asarray(a, dtype=np.complex128))
    b = list(np.asarray(b, dtype=np.complex128))
    assert len(a) == len(b)
    for x in a:
        j = int(np.argmin([abs(x - y) for y in b]))
        assert abs(x - b[j]) <= tol
        b.pop(j)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_solve_matches_numpy(seed, n):
    # solve is numpy's LAPACK kernel, so check the backward error instead
    rng = np.random.default_rng(100 * n + seed)
    a = _rand_matrix(rng, n)
    b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    x = solve(a, b)
    assert x.shape == (n, 2)
    resid = npl.norm(a @ x - b)
    assert resid < 1e-13 * npl.norm(a) * npl.norm(x)


def test_solve_vector_rhs():
    rng = np.random.default_rng(0)
    a = _rand_matrix(rng, 3)
    b = rng.standard_normal(3) + 0j
    x = solve(a, b)
    assert np.abs(a @ x - b).max() < 1e-12


def test_solve_stack_matches_single_solves():
    rng = np.random.default_rng(5)
    a = np.stack([_rand_matrix(rng, 4) for _ in range(6)])
    b = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    x = solve(a, b)
    assert x.shape == (6, 4)
    for k in range(6):
        assert np.array_equal(x[k], solve(a[k], b[k]))
    xm = solve(a, b[:, :, None])
    assert xm.shape == (6, 4, 1)
    assert np.array_equal(xm[:, :, 0], x)


def test_solve_rhs_shape_mismatch():
    a = np.eye(3, dtype=np.complex128)
    with pytest.raises(ValueError):
        solve(a, np.ones(2))
    with pytest.raises(ValueError):
        solve(np.stack([a, a]), np.ones((3, 3)))


def test_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=np.complex128)
    with pytest.raises(SingularMatrix):
        solve(a, np.ones(2, dtype=np.complex128))


@pytest.mark.parametrize("a", [
    np.array([[1.0, 2.0], [2.0, 4.0 + 1e-13]]),
    1e-12 * np.eye(2),
], ids=["rank-one-plus-1e-13", "1e-12-identity"])
def test_solve_singularity_threshold(a):
    with pytest.raises(SingularMatrix):
        solve(a, np.ones(2))


@pytest.mark.parametrize("k", [1, 3])
def test_solve_stack_names_first_singular_matrix(k):
    rng = np.random.default_rng(k)
    a = np.stack([_rand_matrix(rng, 3) for _ in range(5)])
    a[k] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]
    with pytest.raises(SingularMatrix) as err:
        solve(a, np.ones((5, 3)))
    assert err.value.index == k
    assert f"matrix {k}" in str(err.value)


def test_solve_lapack_refusal_becomes_singular_matrix(monkeypatch):
    def refuse(a, b):
        raise npl.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    a = np.stack([np.eye(2), np.diag([1.0, 1e-5]), 2.0 * np.eye(2)])
    with pytest.raises(SingularMatrix) as err:
        solve(a, np.ones((3, 2)))
    assert err.value.index == 1


def _unitary(rng, n):
    return npl.qr(_rand_matrix(rng, n))[0]


def _with_singular_values(rng, s):
    """U diag(s) V^H for random unitary U and V."""
    n = len(s)
    return (_unitary(rng, n) * np.asarray(s)) @ _unitary(rng, n).conj().T


def _svd_rule(stack, eq_tol=DEFAULT_TOL.eq_tol):
    """The refusal rule of solve, straight from the singular values."""
    scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    smin = npl.svd(stack, compute_uv=False).min(axis=1)
    bad = np.flatnonzero(smin <= eq_tol * scale)
    msgs = [f"matrix {k} is singular (smallest singular value {smin[k]:.3e}, "
            f"scale {scale[k]:.3e})" for k in bad]
    return bad, msgs, smin, scale


def _assert_solve_follows_svd_rule(stack):
    bad, msgs, _, _ = _svd_rule(stack)
    rhs = np.ones(stack.shape[:2], dtype=np.complex128)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if bad.size:
            with pytest.raises(SingularMatrix) as err:
                solve(stack, rhs)
            assert err.value.index == bad[0]
            assert str(err.value) == msgs[0]
        else:
            x = solve(stack, rhs)
            assert np.array_equal(x, npl.solve(stack, rhs[..., None])[..., 0])
    assert [str(w.message) for w in caught] == []
    return bad


FACTORS = [1e-3, 0.999, 1.001, 10.0, 1e4]


class TestCertificate:
    """Johnson's bound and the Gram-Cholesky certificate in front of the
    SVD refusal rule."""

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
    def test_refusals_match_the_svd_rule(self, n):
        # sigma_max = 0.5 keeps every entry below 1, so scale = 1 and the
        # smallest singular value is eq_tol * factor
        rng = np.random.default_rng(n)
        eq_tol = DEFAULT_TOL.eq_tol
        mats = [_with_singular_values(
                    rng, np.geomspace(0.5, eq_tol * f, n) if n > 1 else [eq_tol * f])
                for f in FACTORS]
        singular = [f < 1.0 for f in FACTORS]
        for mat, sing in zip(mats, singular):
            bad = _assert_solve_follows_svd_rule(mat[None])
            assert (bad.size == 1) == sing
        for order in (range(5), rng.permutation(5), [3, 4, 2, 1, 0]):
            stack = np.stack([mats[k] for k in order])
            bad = _assert_solve_follows_svd_rule(stack)
            assert list(bad) == [i for i, k in enumerate(order) if singular[k]]
        _assert_solve_follows_svd_rule(np.stack([mats[3], mats[4]]))

    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_extreme_scales(self, n):
        rng = np.random.default_rng(10 + n)
        well = [_with_singular_values(rng, np.linspace(1.0, 0.5, n))
                for _ in range(3)]
        mixed = 1e300 * well[2]
        if n > 1:
            mixed[0, -1] = 1e-300    # one tiny entry in a huge matrix
        # well conditioned at 1e300, at 1, and with mixed entries: solved
        big = np.stack([1e300 * well[0], well[1], mixed])
        assert _assert_solve_follows_svd_rule(big).size == 0
        assert _certified(big, np.maximum(1.0, np.abs(big).max(axis=(1, 2))),
                          DEFAULT_TOL.eq_tol)
        # at 1e-300 the scale is 1, so the rule refuses: same index and text
        tiny = np.stack([well[1], 1e-300 * well[0], 1e-300 * well[2]])
        assert list(_assert_solve_follows_svd_rule(tiny)) == [1, 2]
        _assert_solve_follows_svd_rule(np.stack([1e300 * well[0], 1e-300 * well[1]]))

    @staticmethod
    def _kahan(n, theta):
        s, c = np.sin(theta), np.cos(theta)
        upper = np.eye(n) - c * np.triu(np.ones((n, n)), 1)
        return (s ** np.arange(n))[:, None] * upper

    def _cases(self, rng):
        yield self._kahan(64, 1.2)                        # sigma_min 7.7e-11
        yield self._kahan(100, 1.2)
        yield self._kahan(16, 0.6)
        yield np.array([[1.0, 2.0], [2.0, 4.0 + 1e-13]])
        u, v = _rand_matrix(rng, 16)[:, :1], _rand_matrix(rng, 16)[:1, :]
        yield u @ v + 1e-13 * np.eye(16)                  # rank one plus 1e-13
        for n in (4, 16, 64):
            grade = np.geomspace(1.0, 1e-14, n)
            yield np.diag(grade)
            yield grade[:, None] * _unitary(rng, n) * grade[None, :]
            yield _with_singular_values(rng, grade)
        for n in (1, 2, 8, 32):                            # near the bound
            for f in (1e-6, 0.5, 0.999999, 1.0):
                s = np.linspace(1.0, 0.5, n)
                s[-1] = DEFAULT_TOL.eq_tol * f
                yield _with_singular_values(rng, s)
                yield 1e200 * _with_singular_values(rng, s)

    def _probe_cases(self, eq_tol):
        rng = np.random.default_rng(7)
        cases = list(self._cases(rng))
        # with eq_tol = 1e-3 the bound t^2 outweighs the rounding margin,
        # so matrices just either side of it probe the certificate itself
        for n in (1, 2, 8, 32):
            for f in (0.999999, 1.0, 1.000001, 1.001):
                s = np.linspace(1.0, 0.5, n)
                s[-1] = eq_tol * f
                cases.append(_with_singular_values(rng, s))
        return cases

    @pytest.mark.parametrize("eq_tol", [DEFAULT_TOL.eq_tol, 1e-3])
    def test_never_certifies_a_refused_matrix(self, eq_tol):
        cases = self._probe_cases(eq_tol)
        refused = 0
        for mat in cases:
            stack = np.asarray(mat, dtype=np.complex128)[None]
            bad, _, smin, scale = _svd_rule(stack, eq_tol)
            certified = _certified(stack, scale, eq_tol)
            if bad.size:
                refused += 1
                assert not certified, (stack.shape, smin, scale)
            elif smin[0] > max(1.0005 * eq_tol, 1e-6) * scale[0]:
                # the margin is far below 1e-3 t^2 when eq_tol = 1e-3
                assert certified, (stack.shape, smin, scale)
        assert refused >= 20

    def test_only_uncleared_chunks_get_singular_values(self, monkeypatch):
        rng = np.random.default_rng(3)
        eq_tol = DEFAULT_TOL.eq_tol
        step = CHUNK_BYTES // (16 * 4 * 4)            # 4x4 matrices per chunk
        stack = (rng.standard_normal((3 * step + 5, 4, 4))
                 + 5 * np.eye(4)).astype(np.complex128)
        scale = _svd_rule(stack)[3]
        assert _certified(stack[:9], scale[:9], eq_tol)
        # sigma_min 1e-8, rotated: cleared by the rule, by neither tier
        stack[step + 7] = _with_singular_values(rng, [1.0, 1.0, 1.0, 1e-8])
        scale = _svd_rule(stack)[3]
        assert not _johnson(np.abs(stack[step + 7:step + 8]))[0] > eq_tol
        assert not _certified(stack[step:step + 9], scale[step:step + 9], eq_tol)

        def left(lo):
            """The matrices of the chunk at lo that Johnson's bound leaves."""
            part = slice(lo, lo + step)
            bound = _johnson(np.abs(stack[part]))
            return np.flatnonzero(~(bound > eq_tol * scale[part])) + lo

        seen = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            seen.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert _assert_solve_follows_svd_rule(stack).size == 0
        first = left(step)
        assert step + 7 in first and len(first) < step // 10
        assert seen == [len(stack), len(first)]        # the rule's, then solve's
        # a refusal in a later chunk is named as the whole-stack rule names it
        stack[2 * step + 3] = _with_singular_values(rng, [1.0, 1.0, 1.0, 1e-12])
        scale = _svd_rule(stack)[3]
        second = left(2 * step)
        assert 2 * step + 3 in second and len(second) < step // 10
        seen.clear()
        assert list(_assert_solve_follows_svd_rule(stack)) == [2 * step + 3]
        assert seen == [len(stack), len(first), len(second)]
        stack[5] = np.diag([1.0, 1.0, 1e-13, 1.0])
        assert list(_assert_solve_follows_svd_rule(stack)) == [5, 2 * step + 3]

    @pytest.mark.parametrize("eq_tol", [DEFAULT_TOL.eq_tol, 1e-3])
    def test_johnson_never_clears_a_refused_matrix(self, eq_tol):
        cases = self._probe_cases(eq_tol)
        # the bound is exact on diagonal matrices, so only its rounding
        # allowances decide these
        exact = []
        for n in (1, 2, 8, 32):
            for f in (0.999999, 1.0, 1.000001):
                d = np.linspace(1.0, 0.5, n)
                d[-1] = eq_tol * f
                exact.append((len(cases), f > 1.0))
                cases.append(np.diag(d))
        # sums that overflow, and entries near the ends of the range
        rng = np.random.default_rng(8)
        overflow = []
        for n in (2, 8):
            overflow += [len(cases), len(cases) + 1]
            cases.append(np.full((n, n), 1e307) + 1e308 * np.eye(n))
            cases.append(1.7e308 * _with_singular_values(rng, np.linspace(1.0, 0.5, n)))
            cases.append(1e-300 * _with_singular_values(rng, np.linspace(1.0, 0.5, n)))
            cases.append(np.diag(np.geomspace(1e300, 1e-310, n)))
            cases.append(1e300 * np.eye(n) + 1e-300 * np.ones((n, n)))
        refused = 0
        for i, mat in enumerate(cases):
            stack = np.asarray(mat, dtype=np.complex128)[None]
            bad, _, smin, scale = _svd_rule(stack, eq_tol)
            bound = _johnson(np.abs(stack))[0]
            cleared = bound > eq_tol * scale[0]
            if bad.size:
                refused += 1
                assert not cleared, (i, stack.shape, bound, smin, scale)
            if np.isfinite(bound):
                smax = npl.norm(stack[0], 2)
                assert bound <= smin[0] + 1e-12 * smax, (i, bound, smin)
            if eq_tol == DEFAULT_TOL.eq_tol:
                _assert_solve_follows_svd_rule(stack)
        for i, clears in exact:
            assert (_johnson(np.abs(cases[i])[None])[0] > eq_tol) == clears
        # the sums of B overflow; at n = 2 those of D^-1 B do not, and its
        # bound clears sigma_min = 1e308; otherwise nothing is cleared
        bounds = [_johnson(np.abs(cases[i])[None])[0] for i in overflow]
        assert 0.99e308 < bounds[0] <= 1e308
        assert not any(b > 0 for b in bounds[1:])
        assert refused >= 30

    def test_johnson_takes_the_row_scaled_bound(self):
        # rows of very different size: Johnson's bound on B is negative,
        # on D^-1 B (D = diag |b_ii|) it is about 0.95
        a = np.array([[1e6, 1e5], [1e-3, 1.0]])
        bound = _johnson(np.abs(a)[None])[0]
        assert 0.9 < bound <= npl.svd(a, compute_uv=False).min()
        abs_a = np.abs(a)
        assert 2 * abs_a[1, 1] - (abs_a[1].sum() + abs_a[:, 1].sum()) / 2 < 0

    @given(st.integers(1, 12), st.integers(-300, 300),
           st.floats(0.0, 3.0), st.integers(0, 2 ** 32 - 1))
    def test_johnson_is_a_lower_bound(self, n, exp, dominance, seed):
        rng = np.random.default_rng(seed)
        a = (_rand_matrix(rng, n) / n + dominance * np.eye(n)) \
            * rng.uniform(0.5, 2.0, n)[:, None] * 10.0 ** exp
        bound = _johnson(np.abs(a)[None])[0]
        sv = npl.svd(a, compute_uv=False)
        assert np.isnan(bound) or bound <= sv.min() + 1e-12 * sv.max()

    @pytest.mark.parametrize("shape", [(50, 64), (2000, 4)])
    def test_dominant_stack_needs_no_certificate(self, monkeypatch, shape):
        m, n = shape
        rng = np.random.default_rng(n)
        stack = _rand_matrix(rng, n)[None] * rng.uniform(0.1, 0.5, (m, 1, 1)) / n
        stack = stack + 3.0 * np.eye(n)
        rhs = rng.standard_normal((m, n)) + 0j

        def refuse(*args, **kwargs):
            raise AssertionError("solve went past Johnson's bound")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        x = solve(stack, rhs)
        assert np.abs(np.einsum("kij,kj->ki", stack, x) - rhs).max() < 1e-12

    @pytest.mark.parametrize("shape", [(50, 64), (2000, 4)])
    def test_well_conditioned_stack_skips_the_svd(self, monkeypatch, shape):
        m, n = shape
        rng = np.random.default_rng(m)
        stack = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        stack = stack / np.sqrt(n) + 3.0 * np.eye(n)
        rhs = rng.standard_normal((m, n)) + 0j

        def refuse(*args, **kwargs):
            raise AssertionError("solve computed singular values")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        x = solve(stack, rhs)
        assert np.abs(np.einsum("kij,kj->ki", stack, x) - rhs).max() < 1e-12

    @pytest.mark.parametrize("shape", [(400, 64), (20000, 4)])
    def test_certificate_works_in_chunks(self, shape, peak_alloc):
        # the stack's absolute values take half its size; the scaled copy,
        # Gram matrices and factors of one chunk stay within a few MiB
        m, n = shape
        rng = np.random.default_rng(n)
        stack = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        stack = stack / np.sqrt(n) + 3.0 * np.eye(n)
        _, peak = peak_alloc(solve, stack, np.ones((m, n)))
        assert peak <= 0.6 * stack.nbytes + 4 * 2 ** 20


@pytest.mark.parametrize("seed", range(4))
def test_inverse_matches_numpy(seed):
    # a backward-error check: inverse goes through numpy's solve
    rng = np.random.default_rng(seed)
    a = _rand_matrix(rng, 5)
    inv = inverse(a)
    assert np.abs(a @ inv - np.eye(5)).max() < 1e-11
    assert np.abs(inv @ a - np.eye(5)).max() < 1e-11


def test_mat_poly_eval_horner():
    rng = np.random.default_rng(3)
    a = _rand_matrix(rng, 4)
    q = Polynomial([2.0, -1.0, 0.0, 3.0])
    got = mat_poly_eval(q, a)
    want = 2.0 * np.eye(4) - a + 3.0 * a @ a @ a
    assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())


def test_mat_poly_eval_overflow_raises():
    # the square of the 3 x 3 nilpotent block times 1e200 overflows
    a = np.diag([1e200, 1e200], k=1)
    with pytest.raises(AlgebraOverflow):
        mat_poly_eval(Polynomial([0.0, 0.0, 2.0]), a)


def test_char_poly_overflow_raises():
    # the prescaled coefficients are finite; scaling back by 1e200 per
    # power overflows the constant and linear terms
    a = np.array([[1.0, 1e200], [1e200, 1.0]])
    with pytest.raises(AlgebraOverflow):
        char_poly(a)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [2, 3, 6, 8])
def test_char_poly_matches_numpy(seed, n):
    rng = np.random.default_rng(7 * n + seed)
    a = _rand_matrix(rng, n)
    ours = char_poly(a).coeffs
    ref = np.poly(a)[::-1]  # np.poly is descending; ours ascending
    scale = np.abs(ref).max()
    assert np.abs(ours - ref).max() < 1e-9 * scale


def test_char_poly_cayley_hamilton():
    rng = np.random.default_rng(11)
    a = _rand_matrix(rng, 5)
    q = char_poly(a)
    res = mat_poly_eval(q, a)
    assert np.abs(res).max() < 1e-8 * max(1.0, npl.norm(a) ** 5)


@pytest.mark.parametrize("seed", range(6))
def test_eigenvalues_match_numpy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    a = _rand_matrix(rng, n)
    ours = eigenvalues(a)
    ref = npl.eigvals(a)
    _match_multisets(ours, ref, 1e-7 * max(1.0, np.abs(ref).max()))


def test_eigenvalues_diagonal_exactish():
    a = np.diag([1.0, -2.0, 3.5]).astype(np.complex128)
    _match_multisets(eigenvalues(a), [1.0, -2.0, 3.5], 1e-10)


@pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_eigenvalues_of_scaled_matrices(s):
    # T diag(ev) T^-1 with known eigenvalues of size s; entries ~ s
    rng = np.random.default_rng(12)
    t = _rand_matrix(rng, 6) + 3.0 * np.eye(6)
    ev = s * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    a = t @ np.diag(ev) @ npl.inv(t)
    _match_multisets(eigenvalues(a), ev, 1e-10 * s)


def test_eigenvalue_dimension_cap():
    n = EIG_DIM_CAP + 1
    with pytest.raises(DimensionTooLarge):
        eigenvalues(np.eye(n, dtype=np.complex128))


@st.composite
def _matrix_stacks(draw):
    """Stacks of 1 to 6 matrices of one size n = 1..8, each at its own
    scale 1e-3 to 1e3; some are strictly upper triangular with integer
    entries, whose characteristic polynomial is exactly z^n (a zero
    constant coefficient), and some have a zero first column."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    a = np.empty((k, n, n), dtype=np.complex128)
    for i in range(k):
        kind = draw(st.sampled_from(["dense", "dense", "nilpotent", "column"]))
        s = 10.0 ** draw(st.integers(-3, 3))
        if kind == "nilpotent":
            a[i] = np.triu(rng.integers(-3, 4, (n, n)), 1)
        else:
            a[i] = _rand_matrix(rng, n, s)
            if kind == "column":
                a[i][:, 0] = 0.0
    return a


class TestStacks:
    """char_poly and eigenvalues of a stack, row by row its matrices'."""

    @given(_matrix_stacks())
    def test_stack_rows_equal_one_matrix_calls(self, a):
        coeffs = char_poly(a)
        eig = eigenvalues(a)
        assert coeffs.shape == (a.shape[0], a.shape[1] + 1)
        assert eig.shape == a.shape[:2]
        for i in range(a.shape[0]):
            assert coeffs[i].tobytes() == char_poly(a[i]).coeffs.tobytes()
            assert eig[i].tobytes() == eigenvalues(a[i]).tobytes()

    def test_nilpotent_rows_go_through_one_row_roots(self):
        a = np.stack([np.triu(np.ones((3, 3)), 1),
                      np.diag([1.0, 2.0, 3.0]),
                      np.zeros((3, 3))]).astype(np.complex128)
        coeffs = char_poly(a)
        assert list(coeffs[:, 0] == 0) == [True, False, True]
        eig = eigenvalues(a)
        assert (eig[0] == 0).all() and (eig[2] == 0).all()
        _match_multisets(eig[1], [1.0, 2.0, 3.0], 1e-12)

    def test_empty_and_capped_stacks(self):
        assert eigenvalues(np.zeros((4, 0, 0))).shape == (4, 0)
        assert char_poly(np.zeros((4, 0, 0))).tolist() == [[1.0]] * 4
        with pytest.raises(DimensionTooLarge):
            eigenvalues(np.zeros((2, EIG_DIM_CAP + 1, EIG_DIM_CAP + 1)))

    def test_overflow_in_one_matrix_raises(self):
        a = np.stack([np.eye(2), [[1.0, 1e200], [1e200, 1.0]]])
        with pytest.raises(AlgebraOverflow):
            char_poly(a)


class TestNullspace:
    def test_full_rank_empty(self):
        rng = np.random.default_rng(1)
        a = _rand_matrix(rng, 4)
        assert nullspace(a, 1e-10).shape == (0, 4)

    def test_known_kernel(self):
        # rows (1, 1, 0) and (0, 0, 1): kernel spanned by (1, -1, 0)
        a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=np.complex128)
        basis = nullspace(a, 1e-12)
        assert basis.shape == (1, 3)
        v = basis[0]
        assert np.abs(a @ v).max() < 1e-12
        w = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        proj = v - (np.conj(w) @ v) * w
        assert np.abs(proj).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_span_matches_svd(self, seed):
        rng = np.random.default_rng(seed + 9)
        # random rank-2 4x4 matrix a = b c: its kernel is the kernel of c,
        # a reference independent of the SVD inside nullspace
        b = _rand_matrix(rng, 4)[:, :2]
        c = _rand_matrix(rng, 4)[:2, :]
        a = b @ c
        basis = nullspace(a, 1e-9 * np.abs(a).max())
        assert basis.shape == (2, 4)
        assert np.abs(c @ basis.T).max() < 1e-12 * np.abs(c).max()
        assert np.abs(a @ basis.T).max() < 1e-8
        # independent rows, each with an exact unit leading entry
        assert npl.matrix_rank(basis) == 2
        for v in basis:
            assert v[np.argmax(np.abs(v))] == 1.0
