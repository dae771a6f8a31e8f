"""Randomized verification suites.

Each suite exercises one mathematical contract of the package on seeded
random instances and returns a SuiteReport of per-case pass/fail rows.
Reports contain no timing data, so the same seed produces byte-identical
output.  The CLI exposes these through `multicentric verify <suite>`.

Each rejection draw but the batched ``_draw_samples`` is one call of
``_draw_until``: at most a fixed number of draws until one is accepted,
then an error, or None where the caller can go on without a draw.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .algebra import (
    AlgebraContext,
    SampleSet,
    VectorFunction,
    _dedup,
    characters_at,
    character_residual,
    gelfand_eval,
    invert,
    mult_matrices,
    op_norm,
    polyprod,
    polyprod_boxed,
    radical_basis_at,
    resolvent_bound_check,
    spectral_radius_iter,
)
from .calculus import (
    SpectrumData,
    TestMatrixSpec,
    chi_A,
    ensure_simple_roots,
    hermite_matrix_function,
    jordan_block,
    simplifying_poly,
    spectral_mapping_check,
    hausdorff_distance,
)
from .config import blocks
from .errors import NoSimpleShiftFound
from .polynomials import (
    Polynomial,
    _critical_rows,
    _nearest_gaps,
    fiber_batch,
    roots,
)
from .transform import reconstruct, scalar_representation

__all__ = ["CaseResult", "SuiteReport", "SUITES", "run_suite", "run_all"]


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    passed: bool
    measure: float
    bound: float
    detail: str = ""

    def __post_init__(self):
        # numpy scalars sneak in from comparisons; pin to plain types so
        # the reports stay json-serializable.
        for name, kind in (("passed", bool), ("measure", float),
                           ("bound", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    cases: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.cases)

    @property
    def worst(self) -> float:
        return max((c.measure for c in self.cases), default=0.0)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "n_cases": len(self.cases),
            "n_failed": self.n_failed,
            "worst_measure": self.worst,
            "cases": [c.to_dict() for c in
                      sorted(self.cases, key=lambda c: c.case_id)],
        }

    def to_rows(self) -> list:
        head = ["suite", "case_id", "passed", "measure", "bound", "detail"]
        return [head] + [[self.suite, c.case_id, str(c.passed).lower(),
                          repr(c.measure), repr(c.bound), c.detail]
                         for c in sorted(self.cases, key=lambda c: c.case_id)]


def _cplx(rng, n, r):
    return r * (rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n))


def _frob(x) -> float:
    return float(np.sqrt((np.abs(np.asarray(x)) ** 2).sum()))


def _min_gap(pts) -> float:
    """The least distance between two of the points (a row or a stack)."""
    return float(_nearest_gaps(pts).min(initial=np.inf))


def _spread(pts, rel) -> bool:
    """Whether the points are rel * max(1, max |pts|) apart."""
    return _min_gap(pts) >= rel * max(1.0, float(np.abs(pts).max()))


def _case(case_id, measure, bound, detail, holds=True) -> CaseResult:
    """A case passes iff its measure is within its bound and ``holds``."""
    return CaseResult(case_id, measure <= bound and holds, measure, bound,
                      detail)


def _draw_until(draw, accept, tries, failure):
    """The first of up to ``tries`` results of ``draw()`` that ``accept``
    takes; past them, raise ``failure``, or return None if it is None."""
    for _ in range(tries):
        x = draw()
        if accept(x):
            return x
    if failure is not None:
        raise failure


def _draw_context(rng, d) -> AlgebraContext:
    return AlgebraContext(_draw_until(
        lambda: _cplx(rng, d, 1.5), lambda lam: _min_gap(lam) >= 0.5, 500,
        ValueError(f"--d {d}: {d} centers 0.5 apart were not found in "
                   "500 draws; choose a smaller --d")))


def _near_taken(taken, w: complex) -> bool:
    """Whether abs(w - q) < 1e-6 for a point q of ``taken``.

    A box test on the real and imaginary parts, which every such q
    passes, picks the few points that abs() then decides one at a time.
    """
    box = ((np.abs(taken.real - w.real) < 1e-6)
           & (np.abs(taken.imag - w.imag) < 1e-6))
    return any(abs(w - q) < 1e-6 for q in taken[box].tolist())


def _draw_samples(rng, ctx, m, fiber_sep=None) -> SampleSet:
    """m sample points w = 2.5 (u + iv), with u and v uniform on [-1, 1].

    The draws are taken in order.  A draw within 1e-6 of a point already
    taken is skipped, and with ``fiber_sep`` so is one whose fiber is
    critical or has two points closer than fiber_sep.  At most 500 + 10 m
    draws are made.

    Candidates come a batch at a time from a saved state of ``rng``, and
    each batch is solved with one fiber solve (a row's fiber does not
    depend on the rows beside it), whose rows go to the SampleSet.  Then
    the state is restored and exactly the draws the rule consumed are
    made again, so ``rng`` ends as after drawing the points one at a time.
    """
    limit = 500 + 10 * m
    start = rng.bit_generator.state
    pts = np.empty(m, dtype=np.complex128)
    fibers = np.empty((m, ctx.d), dtype=np.complex128)
    flags = np.zeros(m, dtype=bool)
    n = used = 0
    while n < m and used < limit:
        size = min(limit - used, (m - n) * (1 if fiber_sep is None else 2))
        # u and v of a draw are consecutive, as _cplx(rng, 1, 2.5) draws them
        uv = rng.uniform(-1.0, 1.0, 2 * size)
        cand = 2.5 * (uv[0::2] + 1j * uv[1::2])
        fib = fiber_batch(ctx.centers, cand, ctx.tol)
        crit = _critical_rows(ctx.centers, fib, cand, ctx.tol)
        good = (np.ones(size, dtype=bool) if fiber_sep is None else
                ~crit & (_nearest_gaps(fib).min(axis=1) >= fiber_sep))
        for i, w in enumerate(cand.tolist()):
            used += 1
            if not good[i] or n and _near_taken(pts[:n], w):
                continue
            pts[n], fibers[n], flags[n] = w, fib[i], crit[i]
            n += 1
            if n == m:
                break
    rng.bit_generator.state = start
    rng.uniform(-1.0, 1.0, 2 * used)
    if n < m:
        raise RuntimeError("sample draw exhausted; loosen the constraints")
    return SampleSet._solved(ctx, pts, fibers, flags)


def _draw_function(rng, samples, scale=1.0) -> VectorFunction:
    vals = _cplx(rng, samples.ctx.d * samples.m, scale)
    return VectorFunction(samples, vals.reshape(samples.ctx.d, samples.m))


def _draw_matrix_spec(rng, max_cond) -> TestMatrixSpec:
    k = int(rng.integers(1, 4))
    alphas = _draw_until(lambda: _cplx(rng, k, 1.2),
                         lambda al: _min_gap(al) >= 0.5, 500,
                         RuntimeError("eigenvalue draw did not separate"))
    sizes = rng.integers(1, 4, k)
    while sizes.sum() > 8:
        sizes[int(np.argmax(sizes))] -= 1
    if rng.uniform() < 0.2:
        seed2, cond = None, 1.0
    else:
        seed2 = int(rng.integers(0, 2 ** 31))
        cond = float(rng.uniform(1.0, max_cond))
    return TestMatrixSpec(list(zip(alphas, sizes.tolist())), seed2, cond)


def _shifted(base, c, alphas):
    """(q, roots of q) for q = base + c shifted to simple roots, or None
    when c is small or q's roots or q(alphas) are not well separated."""
    if abs(c) < 0.5:
        return None
    try:
        q = ensure_simple_roots(base, c)
    except NoSimpleShiftFound:
        return None
    rts = roots(q)
    if (not _spread(rts, 0.2) or np.abs(rts).max() > 3.0
            or _min_gap(np.asarray(q(alphas))) < 0.25):
        return None
    return q, rts


def _draw_simplifying(rng, s: SpectrumData):
    """A simplifying q for the spectrum and the roots of q, or None."""
    base = simplifying_poly(s)
    # A constant shift moves every beta together, so the beta separation
    # is fixed by the spectrum itself; reject hopeless spectra up front.
    if len(s.alphas) > 1 and _min_gap(np.asarray(base(s.alphas))) < 0.25:
        return None
    return _draw_until(
        lambda: _shifted(base, complex(_cplx(rng, 1, 2.0)[0]), s.alphas),
        lambda found: found is not None, 60, None)


def _function_at_betas(rng, ctx, betas) -> SampleSet:
    """The betas, clustered as chi_A clusters them, and a point 0.1 off."""
    reps = _dedup(betas, ctx.tol)
    w = _draw_until(lambda: complex(_cplx(rng, 1, 2.5)[0]),
                    lambda w: min(abs(w - q) for q in reps) > 0.1, 200, None)
    return SampleSet(ctx, np.array(list(reps) + ([] if w is None else [w])))


def _draw_calculus(rng, max_cond):
    """A conjugated Jordan matrix, a simplifying q for it, and samples.

    Returns (spec, s, q, A, samples); the samples hold every q(alpha_k).
    """
    def draw():
        spec = _draw_matrix_spec(rng, max_cond)
        s = spec.spectrum_data()
        return spec, s, _draw_simplifying(rng, s)

    spec, s, (q, rts) = _draw_until(
        draw, lambda x: x[2] is not None, 40,
        RuntimeError("no usable spectrum draw in 40 attempts"))
    a, _, _ = spec.assemble()
    ss = _function_at_betas(rng, AlgebraContext(rts), q(s.alphas))
    return spec, s, q, a, ss


def _product_error(a, s, p, f, g, cond) -> float:
    """||chi(f*g) - chi(f) chi(g)|| relative to cond and the factor sizes."""
    cf = chi_A(a, s, p, f)
    cg = chi_A(a, s, p, g)
    cfg = chi_A(a, s, p, polyprod(f, g))
    scale = max(1.0, _frob(cf), _frob(cg), _frob(cf @ cg))
    return _frob(cfg - cf @ cg) / (cond * scale)


# ---------------------------------------------------------------- suites


def suite_homomorphism(seed=0, cases=200, d=None, samples=50) -> SuiteReport:
    """(f*g)^ = f^ g^ at every fiber point of every sample."""
    rng = np.random.default_rng(seed)
    dims = [d] if d else [2, 3, 4, 5]
    results = []
    per_dim = max(1, cases // len(dims))
    idx = 0
    for dd in dims:
        ctx = _draw_context(rng, dd)
        ss = _draw_samples(rng, ctx, samples)
        for _ in range(per_dim):
            f = _draw_function(rng, ss)
            g = _draw_function(rng, ss)
            h = polyprod(f, g)
            prod = f.gelfand_values() * g.gelfand_values()
            dev = float(np.abs(h.gelfand_values() - prod).max())
            scale = max(1.0, float(np.abs(prod).max()))
            results.append(_case(f"homomorphism-{idx:03d}", dev / scale,
                                 1e-10, f"d={dd} m={ss.m}"))
            idx += 1
    return SuiteReport("homomorphism", seed, tuple(results))


def suite_d2_forms(seed=0, cases=100) -> SuiteReport:
    """Two-center closed forms against the generic paths.

    For centers {1, -1}: the product reduces to
    f o g + (w/4)(f1-f2)(g1-g2) * (1,1), the boxed assembly agrees with
    the sigma form, and the inverse is the component swap divided by the
    product of the two representation values.
    """
    rng = np.random.default_rng(seed)
    ctx = AlgebraContext([1.0, -1.0])
    results = []
    for i in range(cases):
        ss = _draw_samples(rng, ctx, 5)
        f = _draw_function(rng, ss)
        g = _draw_function(rng, ss)
        h = polyprod(f, g)

        w = ss.points
        corr = 0.25 * w * (f.values[0] - f.values[1]) * (g.values[0] - g.values[1])
        closed = f.values * g.values + corr[None, :]
        scale = max(1.0, float(np.abs(closed).max()))
        dev_closed = float(np.abs(h.values - closed).max()) / scale
        dev_boxed = float(
            np.abs(h.values - polyprod_boxed(f, g).values).max()) / scale

        fi = _draw_until(lambda: _draw_function(rng, ss),
                         lambda fi: np.abs(fi.gelfand_values()).min() >= 0.2,
                         200, RuntimeError("no invertible draw found"))
        ginv = invert(fi)
        phi2 = fi.gelfand_values()[:, 0] * fi.gelfand_values()[:, 1]
        swap = np.vstack([fi.values[1], fi.values[0]]) / phi2[None, :]
        iscale = max(1.0, float(np.abs(swap).max()))
        dev_inv = float(np.abs(ginv.values - swap).max()) / iscale

        results.append(_case(
            f"d2-forms-{i:03d}", max(dev_closed, dev_boxed, dev_inv), 1e-12,
            f"product={dev_closed:.2e} boxed={dev_boxed:.2e} "
            f"inverse={dev_inv:.2e}"))
    return SuiteReport("d2-forms", seed, tuple(results))


def suite_nilpotent(seed=0) -> SuiteReport:
    """The order-two radical element over centers {1, -1} at w = -1."""
    ctx = AlgebraContext([1.0, -1.0])
    ss = SampleSet(ctx, [-1.0])
    f = VectorFunction(ss, [[1.0], [-1.0]])

    b = mult_matrices(f)[0]
    expect = 0.5 * np.array([[1.0, 1.0], [-1.0, -1.0]])
    dev_b = float(np.abs(b - expect).max())
    dev_sq = float(np.abs(polyprod(f, f).values).max())

    basis = radical_basis_at(ctx, -1.0)
    dirdev = np.inf
    if basis.shape[0] == 1:
        v = basis[0]
        t = np.array([1.0, -1.0]) / np.sqrt(2.0)
        dirdev = float(np.abs(v - np.vdot(t, v) * t).max())
    results = [
        _case("nilpotent-00-mult-matrix", dev_b, 0.0,
              "B at w=-1 equals [[1,1],[-1,-1]]/2 exactly"),
        _case("nilpotent-01-square-vanishes", dev_sq, 1e-14, "f*f = 0"),
        _case("nilpotent-02-radical-direction", dirdev, 1e-12,
              f"radical basis is span(1,-1); {basis.shape[0]} vector(s)"),
    ]
    return SuiteReport("nilpotent", seed, tuple(results))


def _identity_worst(gv, eig):
    """Each case's worst eigenvalue-to-fiber-value gap, relative to the
    fiber values, or inf where the nearest matches are not a bijection.

    ``gv[c, i]`` holds the fiber values of sample i of case c and
    ``eig[c, i]`` the eigenvalues of its multiplication matrix.
    """
    gaps = np.abs(eig[..., :, None] - gv[..., None, :])
    d = gv.shape[-1]
    bijection = (np.sort(gaps.argmin(axis=-1), axis=-1) == np.arange(d)).all(-1)
    scale = np.maximum(1.0, np.abs(gv).max(axis=-1))
    rel = np.where(bijection, gaps.min(axis=-1).max(axis=-1) / scale, np.inf)
    return rel.max(axis=-1, initial=0.0)


def _draw_separated(rng, ctx) -> VectorFunction:
    """A function on 3 samples whose fiber values are 0.15 apart."""
    ss = _draw_samples(rng, ctx, 3, fiber_sep=0.2)
    return _draw_until(lambda: _draw_function(rng, ss, scale=1.5),
                       lambda f: _min_gap(f.gelfand_values()) >= 0.15, 500,
                       RuntimeError("fiber-value separation not reached"))


def suite_eigenvalue_identity(seed=0, cases=200, d=None) -> SuiteReport:
    """Eigenvalues of every B_f(w) match the fiber values of f^.

    The matrices of a dimension go to stacked eigenvalue solves of about
    CHUNK_BYTES (``config.blocks``), after the cases that own them.
    """
    rng = np.random.default_rng(seed)
    dims = [d] if d else [2, 3, 4, 5]
    per_dim = max(1, cases // len(dims))
    results = []
    for dd in dims:
        ctx = _draw_context(rng, dd)
        for blk in blocks(per_dim, 16 * dd * dd * 3):
            fs = [_draw_separated(rng, ctx) for _ in range(per_dim)[blk]]
            gv = np.stack([f.gelfand_values() for f in fs])
            eig = linalg.eigenvalues(np.concatenate([mult_matrices(f) for f in fs]))
            for w in _identity_worst(gv, eig.reshape(gv.shape)).tolist():
                results.append(_case(
                    f"eigenvalue-identity-{len(results):03d}", w, 1e-8,
                    f"d={dd} samples={gv.shape[1]}"))
    return SuiteReport("eigenvalue-identity", seed, tuple(results))


def suite_characters(seed=0, cases=100) -> SuiteReport:
    """Multiplicative functionals: defining equations and products."""
    rng = np.random.default_rng(seed)
    results = []

    for dd in (2, 3, 4, 5):
        ctx = _draw_context(rng, dd)
        etas = characters_at(ctx, SampleSet(ctx, [0.0]), 0.0)
        results.append(_case(
            f"characters-basis-d{dd}", float(np.abs(etas - np.eye(dd)).max()),
            0.0, "characters over w0=0 are exactly the standard basis"))

    idx = 0
    for dd in (2, 3, 4, 5):
        ctx = _draw_context(rng, dd)
        for _ in range(9):
            ss = _draw_samples(rng, ctx, 1)
            w0 = complex(ss.points[0])
            resid = character_residual(ctx, w0, characters_at(ctx, ss, w0))
            results.append(_case(f"characters-equations-{idx:03d}", resid,
                                 1e-10, f"d={dd} w0={w0:.3f}"))
            idx += 1

    idx = 0
    per_dim = max(1, (cases - len(results)) // 4)
    for dd in (2, 3, 4, 5):
        ctx = _draw_context(rng, dd)
        ss = _draw_samples(rng, ctx, 1)
        w0 = complex(ss.points[0])
        etas = characters_at(ctx, ss, w0)
        for _ in range(per_dim):
            a = VectorFunction.constant(ss, _cplx(rng, dd, 1.5))
            bv = VectorFunction.constant(ss, _cplx(rng, dd, 1.5))
            ab = polyprod(a, bv)
            dev = 0.0
            for eta in etas:
                lhs = complex(eta @ ab.values[:, 0])
                rhs = complex(eta @ a.values[:, 0]) * complex(eta @ bv.values[:, 0])
                scale = max(1.0, abs(rhs))
                dev = max(dev, abs(lhs - rhs) / scale)
            results.append(_case(f"characters-product-{idx:03d}", dev, 1e-10,
                                 f"d={dd}"))
            idx += 1

    ctx2 = AlgebraContext([1.0, -1.0])
    etas = characters_at(ctx2, SampleSet(ctx2, [3.0]), 3.0)
    want = np.array([[1.5, -0.5], [-0.5, 1.5]], dtype=np.complex128)
    gaps = np.abs(etas[:, None, :] - want[None, :, :]).max(axis=2)
    results.append(_case(
        "characters-worked-pair", float(gaps.min(axis=1).max()), 1e-12,
        "centers {1,-1}, w0=3 gives (1.5,-0.5) and (-0.5,1.5)"))
    return SuiteReport("characters", seed, tuple(results))


def suite_spectral_radius(seed=0, cases=50) -> SuiteReport:
    """||f^(2^k)||^(1/2^k) approaches max |f^| by k = 10."""
    rng = np.random.default_rng(seed)
    results = []
    dims = [2, 3, 4, 5]
    idx = 0
    for dd in dims:
        ctx = _draw_context(rng, dd)
        ss = _draw_samples(rng, ctx, 4)
        n_here = max(1, cases // len(dims))
        for _ in range(n_here):
            f = _draw_until(
                lambda: _draw_function(rng, ss),
                lambda f: np.abs(f.gelfand_values()).max() >= 0.1, 200,
                RuntimeError("no draw with usable spectral radius"))
            rho = float(np.abs(f.gelfand_values()).max())
            seq = spectral_radius_iter(f, 10)
            results.append(_case(
                f"spectral-radius-{idx:03d}", abs(seq[-1] - rho) / rho, 0.05,
                f"d={dd} rho={rho:.6f} estimate={seq[-1]:.6f}"))
            idx += 1

    ss = SampleSet(AlgebraContext([1.0, -1.0]), [-1.0])
    f = VectorFunction(ss, [[1.0], [-1.0]])
    results.append(_case(
        "spectral-radius-radical",
        float(np.abs(spectral_radius_iter(f, 4)[1:]).max()), 0.0,
        "radical element collapses to exactly 0 from k=1 on"))
    results.append(_case(
        "spectral-radius-unit",
        float(np.abs(spectral_radius_iter(VectorFunction.unit(ss), 4)
                     - 1.0).max()), 0.0, "unit stays exactly at 1"))
    return SuiteReport("spectral-radius", seed, tuple(results))


def suite_inversion_bound(seed=0, cases=100) -> SuiteReport:
    """Resolvent bounds over two centers: constant 1 and the lower bound."""
    rng = np.random.default_rng(seed)
    ctx = AlgebraContext([1.0, -1.0])
    results = []
    bound = 1.0 + 1e-8
    for i in range(cases):
        ss = _draw_samples(rng, ctx, 6)
        f = _draw_function(rng, ss, scale=1.5)
        vals = f.gelfand_values().ravel()
        lam = _draw_until(lambda: complex(_cplx(rng, 1, 3.0)[0]),
                          lambda lam: np.abs(vals - lam).min() >= 0.05, 200,
                          RuntimeError("no admissible lambda found"))
        rep = resolvent_bound_check(f, lam)
        results.append(_case(
            f"inversion-bound-{i:03d}", rep.empirical_constant, bound,
            f"dist={rep.dist_to_spectrum:.4f} "
            f"lower_bound_holds={rep.lower_bound_holds}",
            rep.lower_bound_holds))

    ss = SampleSet(ctx, [3.0])
    rep = resolvent_bound_check(VectorFunction(ss, [[2.0], [0.0]]), 5.0)
    results.append(_case("inversion-bound-worked", rep.empirical_constant,
                         bound, "f(3)=(2,0), lambda=5", rep.lower_bound_holds))
    return SuiteReport("inversion-bound", seed, tuple(results))


def suite_jordan_calculus(seed=0, cases=50) -> SuiteReport:
    """chi_A against the derivative-data oracle, then multiplicativity."""
    rng = np.random.default_rng(seed)
    results = []

    # Part 1: 3x3 nilpotent block, p = z^3 + 1, polynomial components.
    a = jordan_block(0.0, 3)
    s = SpectrumData([(0.0, 2)])
    p = Polynomial([1.0, 0.0, 0.0, 1.0])
    ctx = AlgebraContext(roots(p))
    ss = SampleSet(ctx, [1.0, 3.0])
    for i in range(cases):
        comps = [Polynomial(_cplx(rng, int(rng.integers(1, 6)), 1.0))
                 for _ in range(3)]
        chi = chi_A(a, s, p, VectorFunction.from_callables(ss, comps))
        phi = scalar_representation(ctx, comps)
        data = [[phi(0.0), phi.derivative()(0.0), phi.derivative(2)(0.0)]]
        oracle = hermite_matrix_function(a, s, data)
        scale = max(1.0, _frob(oracle))
        results.append(_case(f"jordan-calculus-oracle-{i:03d}",
                             _frob(chi - oracle) / scale, 1e-8,
                             "3x3 block, degree-3 change of variable"))

    # Part 2: chi_A(f*g) = chi_A(f) chi_A(g) on conjugated Jordan forms.
    for i in range(25):
        spec, s2, q, a2, ss2 = _draw_calculus(rng, 50.0)
        f = _draw_function(rng, ss2)
        g = _draw_function(rng, ss2)
        results.append(_case(
            f"jordan-calculus-product-{i:03d}",
            _product_error(a2, s2, q, f, g, spec.target_cond), 1e-8,
            f"n={spec.dim} blocks={len(spec.blocks)} "
            f"cond={spec.target_cond:.1f}"))
    return SuiteReport("jordan-calculus", seed, tuple(results))


def suite_spectral_mapping(seed=0, cases=100) -> SuiteReport:
    """Spectrum of chi_A(f) equals f^ of the spectrum of A."""
    rng = np.random.default_rng(seed)
    results = []
    for i in range(cases):
        spec, s, q, a, ss = _draw_calculus(rng, 20.0)
        f = _draw_until(lambda: _draw_function(rng, ss, scale=1.5),
                        lambda f: _spread(gelfand_eval(f, s.alphas), 0.05), 300,
                        RuntimeError("predicted-value separation not reached"))
        rep = spectral_mapping_check(a, s, q, f)
        results.append(_case(f"spectral-mapping-{i:03d}", rep.hausdorff,
                             1e-6, f"n={spec.dim} distinct={len(s.entries)}"))

    # Scalar matrix: the image of the full fiber set is strictly larger
    # than the spectrum of chi_A(f).
    a = 2.0 * np.eye(2, dtype=np.complex128)
    s = SpectrumData([(2.0, 0)])
    p = Polynomial([-1.0, 0.0, 1.0])
    ss = SampleSet(AlgebraContext([1.0, -1.0]), [3.0])
    f = VectorFunction(ss, [[2.0], [0.0]])
    rep = spectral_mapping_check(a, s, p, f)
    fiber_image = f.gelfand_values().ravel()
    gap = hausdorff_distance(rep.computed, fiber_image)
    strictly_larger = len(fiber_image) > len(rep.computed) and gap > 0.5
    results.append(_case(
        "spectral-mapping-scalar-matrix", rep.hausdorff, 1e-6,
        "sigma(chi)={3}; fiber image {3,-1} is strictly larger "
        f"(gap {gap:.3f})", strictly_larger))
    return SuiteReport("spectral-mapping", seed, tuple(results))


def suite_norm_blowup(seed=0) -> SuiteReport:
    """Growth of the reconstructed norm near a critical value.

    phi(z) = max(Re z, 0)^(1/2) on real grids eps <= x <= 2 pushed
    through w = z^2 - 1; the norm of the reconstruction grows like
    eps^(-1/2), so the log-log slope should be near -1/2.
    """
    ctx = AlgebraContext([1.0, -1.0])

    def phi(z):
        return max(float(np.real(z)), 0.0) ** 0.5

    eps_list = [2.0 ** (-k) for k in range(3, 11)]
    norms = []
    for eps in eps_list:
        xs = np.geomspace(eps, 2.0, 24)
        norms.append(op_norm(reconstruct(ctx, phi, xs * xs - 1.0)))
    logs_e = np.log(np.array(eps_list))
    logs_n = np.log(np.array(norms))
    le = logs_e - logs_e.mean()
    slope = float((le @ (logs_n - logs_n.mean())) / (le @ le))
    target = -0.5
    detail = ("slope={:.4f} target={:.1f}; norms=".format(slope, target)
              + ",".join(f"{v:.4g}" for v in norms))
    case = _case("norm-blowup-slope", abs(slope - target), 0.15, detail)
    return SuiteReport("norm-blowup", seed, (case,))


def suite_nondifferentiable(seed=0, cases=20) -> SuiteReport:
    """chi_A stays defined and multiplicative for cusp-shaped samples.

    The matrix carries a 3x3 block at 0, so the change of variable has a
    critical value exactly at w_c = p(0); the component functions are
    |w - w_c|^(1/4), which is not differentiable there.  Only values
    enter chi_A, so nothing degenerates.
    """
    rng = np.random.default_rng(seed)
    results = []
    for i in range(cases):
        mu = _draw_until(lambda: complex(_cplx(rng, 1, 1.6)[0]),
                         lambda mu: 0.8 <= abs(mu) <= 1.6, 100,
                         RuntimeError("no eigenvalue in the annulus drawn"))
        c = complex(_cplx(rng, 1, 1.5)[0])
        if abs(c) < 0.5:
            c = c + 0.8
        if rng.uniform() < 0.3:
            spec = TestMatrixSpec([(0.0, 3), (mu, 1)], None, 1.0)
        else:
            spec = TestMatrixSpec([(0.0, 3), (mu, 1)],
                                  int(rng.integers(0, 2 ** 31)),
                                  float(rng.uniform(1.0, 20.0)))
        s = spec.spectrum_data()
        p = simplifying_poly(s, c)
        a, _, _ = spec.assemble()
        wc = complex(p(0.0))
        beta2 = complex(p(mu))
        pts = [wc, beta2, wc + 0.02, wc + 0.02j, beta2 + 0.03]
        ss = SampleSet(AlgebraContext(roots(p)), np.array(pts))

        def cusp(coeff_a, coeff_b):
            return lambda w: coeff_a * abs(w - wc) ** 0.25 + coeff_b

        fa, fb = _cplx(rng, 3, 1.0), _cplx(rng, 3, 1.0)
        ga, gb = _cplx(rng, 3, 1.0), _cplx(rng, 3, 1.0)
        f = VectorFunction.from_callables(
            ss, [cusp(fa[j], fb[j]) for j in range(3)])
        g = VectorFunction.from_callables(
            ss, [cusp(ga[j], gb[j]) for j in range(3)])
        results.append(_case(
            f"nondifferentiable-{i:03d}",
            _product_error(a, s, p, f, g, spec.target_cond), 1e-8,
            f"critical value at w_c={wc:.3f}, cond={spec.target_cond:.1f}"))
    return SuiteReport("nondifferentiable", seed, tuple(results))


SUITES = {
    "homomorphism": suite_homomorphism,
    "d2-forms": suite_d2_forms,
    "nilpotent": suite_nilpotent,
    "eigenvalue-identity": suite_eigenvalue_identity,
    "characters": suite_characters,
    "spectral-radius": suite_spectral_radius,
    "inversion-bound": suite_inversion_bound,
    "jordan-calculus": suite_jordan_calculus,
    "spectral-mapping": suite_spectral_mapping,
    "norm-blowup": suite_norm_blowup,
    "nondifferentiable": suite_nondifferentiable,
}


def run_suite(name: str, seed: int = 0, **overrides) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    accepted = set(inspect.signature(fn).parameters)
    kwargs = {k: v for k, v in overrides.items()
              if v is not None and k in accepted}
    return fn(seed=seed, **kwargs)


def run_all(seed: int = 0, **overrides) -> list:
    return [run_suite(name, seed, **overrides) for name in SUITES]
