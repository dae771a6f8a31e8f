"""The batched sample draws and eigenvalue solves of the verify suites.

``verify._draw_samples`` screens its candidates a batch at a time and
replays the draws it used; the oracle below draws, screens and accepts
one point at a time, as the rule reads.  Both must take the same points,
give the same fibers and flags, and leave the Generator in the same
state.  ``suite_eigenvalue_identity`` solves its matrices in stacks;
its oracle solves them one matrix at a time.  ``verify._draw_until``
must consume the draws of the rejection loop it stands for.
"""

import numpy as np
import pytest

from multicentric import config, linalg, verify
from multicentric.algebra import AlgebraContext, SampleSet, mult_matrices
from multicentric.verify import (
    SuiteReport,
    _case,
    _cplx,
    _draw_context,
    _draw_function,
    _draw_samples,
    _min_gap,
)


def _sequential_draw_samples(rng, ctx, m, fiber_sep=None):
    pts: list = []
    for _ in range(500 + 10 * m):
        if len(pts) == m:
            break
        w = complex(_cplx(rng, 1, 2.5)[0])
        if pts and min(abs(w - q) for q in pts) < 1e-6:
            continue
        if fiber_sep is not None:
            fib = ctx.fiber(w)
            if fib.is_critical or _min_gap(fib.points) < fiber_sep:
                continue
        pts.append(w)
    if len(pts) < m:
        raise RuntimeError("sample draw exhausted; loosen the constraints")
    return SampleSet(ctx, np.array(pts))


class _CoarseBits:
    """Bit generator state of :class:`_CoarseGenerator`: a position."""

    def __init__(self):
        self.state = 0


class _CoarseGenerator:
    """uniform() from a short cycle of values, so draws repeat often.

    The cycle has 9 values, so the points repeat with period 9.  The
    second point repeats the first and the fourth the third, so 7 of
    every 9 points are distinct.
    """

    VALUES = np.array([-0.75, 0.5, -0.75, 0.5, 0.0, -0.25, 0.0, -0.25, 0.875])

    def __init__(self):
        self.bit_generator = _CoarseBits()

    def uniform(self, low, high, size):
        pos = self.bit_generator.state
        self.bit_generator.state = pos + size
        return self.VALUES[np.arange(pos, pos + size) % self.VALUES.size] \
            * (high - low) / 2.0 + (high + low) / 2.0


def _state(rng):
    return rng.bit_generator.state


def _same_draws(make_rng, ctx, m, fiber_sep):
    rng_a, rng_b = make_rng(), make_rng()
    try:
        want = _sequential_draw_samples(rng_a, ctx, m, fiber_sep)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError, match=str(exc)):
            _draw_samples(rng_b, ctx, m, fiber_sep)
        assert _state(rng_a) == _state(rng_b)
        return None
    got = _draw_samples(rng_b, ctx, m, fiber_sep)
    assert _state(rng_a) == _state(rng_b)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.fiber_points.tobytes() == want.fiber_points.tobytes()
    assert got.fiber_critical.tobytes() == want.fiber_critical.tobytes()
    assert (ctx.basis_values(got.fiber_points).tobytes()
            == ctx.basis_values(want.fiber_points).tobytes())
    return got


@pytest.mark.parametrize("m", [1, 3, 50])
@pytest.mark.parametrize("fiber_sep", [None, 0.2, 0.9])
@pytest.mark.parametrize("seed", [0, 5])
def test_batched_draws_match_one_at_a_time(m, fiber_sep, seed):
    ctx = _draw_context(np.random.default_rng(seed), 5)
    got = _same_draws(lambda: np.random.default_rng(seed + 100), ctx, m,
                      fiber_sep)
    assert got is not None and got.m == m


def test_wide_separation_rejects_candidates():
    # the screen must refuse candidates here, or the cases above would
    # not exercise the replay of a batch cut short
    ctx = _draw_context(np.random.default_rng(0), 5)
    rng = np.random.default_rng(100)
    _draw_samples(rng, ctx, 50, fiber_sep=0.9)
    probe = np.random.default_rng(100)
    probe.uniform(-1.0, 1.0, 2 * 50)       # 50 draws, none refused
    assert rng.bit_generator.state != probe.bit_generator.state


@pytest.mark.parametrize("m", [1, 3, 7])
@pytest.mark.parametrize("fiber_sep", [None, 0.2])
def test_repeated_draws_are_skipped_as_one_at_a_time(m, fiber_sep):
    ctx = AlgebraContext([1.0, -1.0, 0.5j])
    got = _same_draws(_CoarseGenerator, ctx, m, fiber_sep)
    assert got is not None and got.m == m


@pytest.mark.parametrize("fiber_sep", [None, 0.2])
def test_exhausted_draws_raise_after_the_same_draws(fiber_sep):
    # only 7 distinct points exist, so 8 cannot be drawn
    ctx = AlgebraContext([1.0, -1.0, 0.5j])
    assert _same_draws(_CoarseGenerator, ctx, 8, fiber_sep) is None


def _sequential_eigenvalue_identity(seed=0, cases=200, d=None):
    rng = np.random.default_rng(seed)
    dims = [d] if d else [2, 3, 4, 5]
    per_dim = max(1, cases // len(dims))
    results = []
    idx = 0
    for dd in dims:
        ctx = _draw_context(rng, dd)
        for _ in range(per_dim):
            ss = _sequential_draw_samples(rng, ctx, 3, fiber_sep=0.2)
            for _ in range(500):
                f = _draw_function(rng, ss, scale=1.5)
                gv = f.gelfand_values()
                if min(_min_gap(gv[i]) for i in range(ss.m)) >= 0.15:
                    break
            else:
                raise RuntimeError("fiber-value separation not reached")
            mats = mult_matrices(f)
            worst = 0.0
            for i in range(ss.m):
                eig = linalg.eigenvalues(mats[i])
                gaps = np.abs(eig[:, None] - gv[i][None, :])
                row = gaps.argmin(axis=1)
                ok_bijection = len(set(row.tolist())) == dd
                dev = float(gaps.min(axis=1).max())
                scale = max(1.0, float(np.abs(gv[i]).max()))
                worst = max(worst, dev / scale if ok_bijection else np.inf)
            results.append(_case(f"eigenvalue-identity-{idx:03d}", worst,
                                 1e-8, f"d={dd} samples={ss.m}"))
            idx += 1
    return SuiteReport("eigenvalue-identity", seed, tuple(results))


IDENTITY_CASES = [
    (0, {"d": 1, "cases": 6}),
    (1, {"d": 5, "cases": 12}),
    (2, {"cases": 1}),
    (3, {"cases": 20}),
]


# chunk 1 byte: every case fills a stack, so the stacks split after each
@pytest.mark.parametrize("seed,kwargs,chunk", [
    pytest.param(seed, kwargs, chunk, id=f"{seed}-kwargs{i}"
                 + ("" if chunk is None else "-stack-per-case"))
    for chunk in (None, 1) for i, (seed, kwargs) in enumerate(IDENTITY_CASES)])
def test_eigenvalue_identity_matches_per_matrix_solves(seed, kwargs, chunk,
                                                       monkeypatch):
    stacks = []
    real = linalg.eigenvalues

    def counting(a, *args, **kw):
        stacks.append(len(a))
        return real(a, *args, **kw)

    if chunk is not None:
        monkeypatch.setattr(config, "CHUNK_BYTES", chunk)
        monkeypatch.setattr(verify, "CHUNK_BYTES", chunk, raising=False)
    monkeypatch.setattr(linalg, "eigenvalues", counting)
    got = verify.suite_eigenvalue_identity(seed=seed, **kwargs)
    monkeypatch.setattr(linalg, "eigenvalues", real)
    want = _sequential_eigenvalue_identity(seed=seed, **kwargs)
    assert got.to_dict() == want.to_dict()
    assert got.passed
    if chunk is not None:
        assert stacks == [3] * len(got.cases)


def test_eigenvalue_identity_solves_each_dimension_once(monkeypatch):
    calls = []
    real = linalg.eigenvalues

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "eigenvalues", counting)
    verify.suite_eigenvalue_identity(seed=0, cases=8)
    assert calls == [(6, d, d) for d in (2, 3, 4, 5)]


def _draw_mu_loop(rng):
    """The rejection loop of the nondifferentiable suite's eigenvalue mu,
    as it was written before ``_draw_until``: None after 100 misses."""
    for _ in range(100):
        mu = complex(_cplx(rng, 1, 1.6)[0])
        if 0.8 <= abs(mu) <= 1.6:
            return mu
    return None


def _draw_alphas_loop(rng, k):
    """The rejection loop of the matrix-spec eigenvalues, as it was."""
    for _ in range(500):
        alphas = _cplx(rng, k, 1.2)
        if _min_gap(alphas) >= 0.5:
            return alphas
    raise RuntimeError("eigenvalue draw did not separate")


@pytest.mark.parametrize("seed", range(4))
def test_draw_until_consumes_the_draws_of_its_loop(seed):
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    for k in [1, 2, 3] * 10:
        want = _draw_mu_loop(rng_a)
        got = verify._draw_until(lambda: complex(_cplx(rng_b, 1, 1.6)[0]),
                                 lambda mu: 0.8 <= abs(mu) <= 1.6, 100,
                                 RuntimeError("no mu"))
        assert got == want
        assert _state(rng_a) == _state(rng_b)
        want = _draw_alphas_loop(rng_a, k)
        got = verify._draw_until(lambda: _cplx(rng_b, k, 1.2),
                                 lambda al: _min_gap(al) >= 0.5, 500,
                                 RuntimeError("no alphas"))
        assert got.tobytes() == want.tobytes()
        assert _state(rng_a) == _state(rng_b)


def test_draw_until_stops_after_exactly_tries_misses():
    drawn = []

    def draw():
        drawn.append(len(drawn))
        return drawn[-1]

    with pytest.raises(RuntimeError, match="none taken"):
        verify._draw_until(draw, lambda x: False, 7, RuntimeError("none taken"))
    assert drawn == list(range(7))
    drawn.clear()
    assert verify._draw_until(draw, lambda x: False, 7, None) is None
    assert drawn == list(range(7))
    drawn.clear()
    # the last try still counts, and a taken draw ends the draws
    assert verify._draw_until(draw, lambda x: x == 6, 7, RuntimeError()) == 6
    assert verify._draw_until(draw, lambda x: True, 7, RuntimeError()) == 7
    assert drawn == list(range(8))
