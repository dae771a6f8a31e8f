"""Dense-kernel checks.

solve, inverse and nullspace are LAPACK calls, so they are checked by
backward error and against known factors rather than against
numpy.linalg; the characteristic polynomial and the eigenvalues are
hand-written and keep numpy.linalg as an independent oracle.
"""

import numpy as np
import numpy.linalg as npl
import pytest

from multicentric.config import DEFAULT_TOL
from multicentric.errors import AlgebraOverflow, DimensionTooLarge, SingularMatrix
from multicentric.linalg import (
    EIG_DIM_CAP,
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


def test_eigenvalue_dimension_cap():
    n = EIG_DIM_CAP + 1
    with pytest.raises(DimensionTooLarge):
        eigenvalues(np.eye(n, dtype=np.complex128))


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
