"""Workload inputs, passes and output checks.

Inputs are generated from the seed with numpy alone (companion-matrix
eigenvalues for fibers, a batched solve for function values), so the
package under test only ever sees the finished inputs.  A pass drives
the package through its public functions, looked up on the module at
call time so that the tracer's patches take effect.  Checks run after
the timed loop and use only public outputs.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import importlib
import io
import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import numpy.polynomial.polynomial as npp

# Pass/fail limit of the algebraic identity checks.  It only has to
# separate a wrong answer (error of order 1) from an imprecise one: how
# precise the answer is goes into accuracy_digits.  At this limit the
# many-centers workload passes with a margin of about 40 (worst
# homomorphism error 2.7e-7, see README.md).
CHECK_TOL = 1e-5
# Residuals of the root solves against the polynomial they were given use
# the root finder's own backward-error threshold.
FIBER_TOL = 1e-10
# Error floor, so an exact match reads as 17 digits rather than infinity.
ERR_FLOOR = 1e-17


# ------------------------------------------------------------ generation


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _cplx(rng, n, r):
    return r * (rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n))


def _min_gap(pts):
    pts = np.asarray(pts)
    if pts.size < 2:
        return np.inf
    diff = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


def separated(rng, d, box, min_sep):
    for _ in range(1000):
        lam = _cplx(rng, d, box)
        if _min_gap(lam) >= min_sep:
            return lam
    raise RuntimeError("center draw did not separate")


def critical_values(lams):
    c = npp.polyfromroots(lams)
    return npp.polyval(npp.polyroots(npp.polyder(c)), c)


def fibers(lams, ws):
    """Fiber points of prod(z - lam) = w, one row per w (companion eig)."""
    c = npp.polyfromroots(lams)[::-1]
    d = len(lams)
    comp = np.zeros((len(ws), d, d), dtype=np.complex128)
    comp[:, 0, :] = -c[1:]
    comp[:, 0, d - 1] += ws
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    return np.linalg.eigvals(comp)


def values_for_rep(lams, ws, zs, rep):
    """f(w), shape (d, m), whose representation equals rep on each fiber.

    Uses delta_j(z) = w * ell_j / (z - lambda_j) on the fiber over w.
    """
    diff = lams[:, None] - lams[None, :]
    np.fill_diagonal(diff, 1.0)
    ell = 1.0 / np.prod(diff, axis=1)
    basis = ws[:, None, None] * ell[None, None, :] / (
        zs[:, :, None] - lams[None, None, :])
    return np.linalg.solve(basis, rep[:, :, None])[:, :, 0].T


def backward_err(lams, ws, zs):
    """Worst scaled residual |p(z) - w| / (sum |c_k| |z|^k + |w|)."""
    c = npp.polyfromroots(lams)
    zs = np.asarray(zs).reshape(len(ws), -1)
    res = np.abs(npp.polyval(zs, c) - ws[:, None])
    scale = npp.polyval(np.abs(zs), np.abs(c)).real + np.abs(ws)[:, None]
    return float((res / np.maximum(scale, 1.0)).max())


def center_resid(lams, ws, zs):
    """Worst |prod(z - lambda) - w| / (prod |z - lambda| + |w|).

    Evaluated from the centers in product form, which is accurate to a
    few ulps, so it measures how well the fiber points solve the fiber
    equation of the true centers.  ``backward_err`` instead measures the
    residual against the monomial coefficients of p, which lose accuracy
    for many centers spread around a circle.
    """
    zs = np.asarray(zs).reshape(len(ws), -1)
    worst = 0.0
    for i in range(0, len(ws), 64):
        diff = zs[i:i + 64, :, None] - lams[None, None, :]
        res = np.abs(np.prod(diff, axis=2) - ws[i:i + 64, None])
        scale = np.prod(np.abs(diff), axis=2) + np.abs(ws[i:i + 64, None])
        scale = np.maximum(scale, np.finfo(float).tiny)   # w = 0, z = a center
        worst = max(worst, float((res / scale).max()))
    return worst


def fingerprint(arrays):
    """Digest of the bytes of a pass's main outputs."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def rel_err(a, b):
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        return math.inf
    scale = max(1.0, float(np.abs(b).max()) if b.size else 0.0)
    return float(np.abs(a - b).max()) / scale if a.size else 0.0


def covered(multiset, reps, radius, chunk=512):
    """Largest distance from a multiset value to its nearest representative."""
    worst = 0.0
    for i in range(0, multiset.size, chunk):
        gaps = np.abs(multiset[i:i + chunk, None] - reps[None, :])
        worst = max(worst, float(gaps.min(axis=1).max()))
    return worst


class Recorder:
    """Counts operations, failures and leaked warnings of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, name, fn, *args):
        self.attempted += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = fn(*args)
            except Exception as exc:   # counted, then the pass stops
                self.failed += 1
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                raise
        if caught:
            self.failed += 1
            self.errors.append(f"{name}: {len(caught)} warnings, first: "
                               f"{caught[0].message}")
        return out


class Checks:
    """Named output checks; errors of checks with a limit feed accuracy_digits."""

    def __init__(self):
        self.items = []     # (name, ok, err or None, has a limit)

    def err(self, name, value, limit=CHECK_TOL):
        """Record a relative error; ``limit=None`` records it without a verdict."""
        ok = True if limit is None else bool(value <= limit)
        self.items.append((name, ok, float(value), limit is not None))

    def flag(self, name, ok):
        self.items.append((name, bool(ok), None, True))

    @property
    def ok(self):
        return all(it[1] for it in self.items)

    @property
    def failures(self):
        return [it[0] for it in self.items if not it[1]]

    def worst(self, name):
        vals = [it[2] for it in self.items if it[0] == name and it[2] is not None]
        return max(vals) if vals else None

    def digits(self):
        errs = [it[2] for it in self.items if it[2] is not None and it[3]]
        return -math.log10(max(max(errs, default=0.0), ERR_FLOOR))


# ------------------------------------------------------ library workloads


class LibraryWorkload:
    """Shared driver of the two in-process workloads."""

    kind = "library"

    def context(self, mc):
        ctx = mc.AlgebraContext(mc.Centers(self.lams))
        ctx.centers.critical_values   # lazy set-up finishes before timing
        return ctx

    def _chain(self, mc, rec, ctx):
        alg = mc.algebra
        ss = rec.call("SampleSet", alg.SampleSet, ctx, self.points)
        f = alg.VectorFunction(ss, self.fvals)
        g = alg.VectorFunction(ss, self.gvals)
        out = {"ss": ss, "f": f, "g": g}
        rec.call("gelfand_values", f.gelfand_values)
        rec.call("gelfand_values", g.gelfand_values)
        out["fg"] = rec.call("polyprod", alg.polyprod, f, g)
        out["mult"] = rec.call("mult_matrices", alg.mult_matrices, f)
        out["finv"] = rec.call("invert", alg.invert, f)
        out["char"] = rec.call("characteristic", alg.characteristic, f)
        return out

    def check(self, mc, outs, chk):
        ss, f, g = outs["ss"], outs["f"], outs["g"]
        chk.err("fiber_backward_err",
                backward_err(self.lams, ss.points, ss.fiber_points), FIBER_TOL)
        chk.err("fiber_center_resid",
                center_resid(self.lams, ss.points, ss.fiber_points), None)
        fh, gh = f.gelfand_values(), g.gelfand_values()
        chk.err("homomorphism_err", rel_err(outs["fg"].gelfand_values(), fh * gh))
        chk.err("mult_matrices_err", rel_err(
            np.einsum("mij,jm->im", outs["mult"], g.values), outs["fg"].values))
        resid = mc.algebra.polyprod(f, outs["finv"]).values - 1.0
        scale = max(1.0, float(np.abs(f.values).max())
                    * float(np.abs(outs["finv"].values).max()))
        chk.err("invert_resid", float(np.abs(resid).max()) / scale)
        coeffs = outs["char"].coeffs
        chk.err("characteristic_err", max(rel_err(coeffs[:, 0], fh.sum(axis=1)),
                                          rel_err(coeffs[:, -1], fh.prod(axis=1))))


def _grid_points(rng, nx, ny, half, avoid):
    h = 2.0 * half / nx
    for _ in range(1000):
        ox, oy = rng.uniform(0.1, 0.9, 2)
        x = -half + h * (np.arange(nx) + ox)
        y = -half + h * (np.arange(ny) + oy)
        pts = (x[None, :] + 1j * y[:, None]).ravel()
        if np.abs(pts[:, None] - avoid[None, :]).min() >= 0.05 * h:
            return pts
    raise RuntimeError("grid offset draw failed")


class WideSamples(LibraryWorkload):
    """d = 4 centers, about 2e4 samples on a grid; per-sample loops dominate."""

    name = "wide-samples"

    def __init__(self, seed):
        rng = _rng(seed, 1)
        self.lams = separated(rng, 4, 1.5, 0.5)
        avoid = np.append(critical_values(self.lams), 0.0)
        self.points = _grid_points(rng, 142, 141, 3.0, avoid)
        self.d, self.m = len(self.lams), self.points.size
        a, b = _cplx(rng, 2, 0.4)
        zs = fibers(self.lams, self.points)
        self.fvals = values_for_rep(self.lams, self.points, zs,
                                    np.exp(a * zs + b))
        self.gvals = _cplx(rng, self.d * self.m, 1.0).reshape(self.d, self.m)
        self.spec_idx = np.arange(7, self.m, 20)[:1000]
        self.rec_points = self.points[np.arange(3, self.m, 13)[:1500]]
        ra, rb = (complex(v) for v in _cplx(rng, 2, 0.4))
        self.phi = lambda z: cmath.exp(ra * z + rb)

    def run_pass(self, mc, rec, ctx):
        alg = mc.algebra
        out = self._chain(mc, rec, ctx)
        sub = rec.call("SampleSet", alg.SampleSet, ctx,
                       self.points[self.spec_idx])
        out["fsub"] = alg.VectorFunction(sub, self.fvals[:, self.spec_idx])
        out["spec"] = rec.call("spectrum", alg.spectrum, out["fsub"])
        out["rec"] = rec.call("reconstruct", mc.transform.reconstruct, ctx,
                              self.phi, self.rec_points)
        return out

    def check(self, mc, outs, chk):
        super().check(mc, outs, chk)
        fsub = outs["fsub"]
        multiset = fsub.gelfand_values().ravel()
        scale = max(1.0, float(np.abs(multiset).max()))
        radius = 2.0 * fsub.ctx.tol.eq_tol * scale
        chk.flag("spectrum_covers",
                 covered(multiset, outs["spec"], radius) <= radius)
        rec = outs["rec"]
        target = np.vectorize(self.phi, otypes=[np.complex128])(
            rec.samples.fiber_points)
        chk.err("reconstruct_err", rel_err(rec.gelfand_values(), target))

    def fingerprint(self, out):
        return fingerprint((out["ss"].fiber_points, out["finv"].values,
                            out["char"].coeffs, out["spec"], out["rec"].values))


class ManyCenters(LibraryWorkload):
    """d = 64 centers, 400 scattered samples; root iterations dominate."""

    name = "many-centers"
    k_max = 8

    # The centers do not depend on --seed.  Both the accuracy and the root
    # iteration count are set by the center configuration, and over random
    # jitter draws the homomorphism error ranged from 2e-14 to 3e-7; with
    # the configuration fixed it moves by under 0.1 digit between seeds.
    # This draw is the one that loses most accuracy of the 30 tried (the
    # monomial coefficients of p cancel), so that a fix shows.
    CENTER_DRAW = 1

    def __init__(self, seed):
        d = 64
        rng = _rng(self.CENTER_DRAW, 2)
        k = np.arange(d) + rng.uniform(-0.2, 0.2, d)
        lams = (1.0 + rng.uniform(-0.06, 0.06, d)) * np.exp(2j * np.pi * k / d)
        if _min_gap(lams) < 0.02:
            raise RuntimeError("fixed center draw is not separated")
        rng = _rng(seed, 4)
        self.lams = lams
        crit = critical_values(lams)
        pts = []
        while len(pts) < 400:
            w = complex(_cplx(rng, 1, 1.5)[0])
            if abs(w) > 1.5 or np.abs(crit - w).min() < 0.05:
                continue
            if pts and min(abs(w - q) for q in pts) < 1e-3:
                continue
            pts.append(w)
        self.points = np.array(pts)
        self.d, self.m = d, len(pts)
        a, b = _cplx(rng, 2, 0.4)
        zs = fibers(lams, self.points)
        self.fvals = values_for_rep(lams, self.points, zs, np.exp(a * zs + b))
        self.gvals = _cplx(rng, d * self.m, 1.0).reshape(d, self.m)

    def run_pass(self, mc, rec, ctx):
        out = self._chain(mc, rec, ctx)
        out["radius"] = rec.call("spectral_radius_iter",
                                 mc.algebra.spectral_radius_iter, out["f"],
                                 self.k_max)
        return out

    def check(self, mc, outs, chk):
        super().check(mc, outs, chk)
        rho = float(np.abs(outs["f"].gelfand_values()).max())
        chk.flag("spectral_radius_bound",
                 bool(np.all(outs["radius"] >= rho * (1.0 - 1e-6))))

    def fingerprint(self, out):
        return fingerprint((out["ss"].fiber_points, out["finv"].values,
                            out["char"].coeffs, out["radius"]))


# --------------------------------------------------------------- the CLI


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def _clist(zs):
    return [_c(z) for z in np.ravel(zs)]


def _function_json(lams, ws, vals):
    return json.dumps({"centers": _clist(lams),
                       "samples": [{"w": _c(w), "f": _clist(vals[:, i])}
                                   for i, w in enumerate(ws)]})


def _regular_points(rng, n, box, avoid):
    """n points, pairwise and from ``avoid`` and 0 at least 0.1 apart."""
    pts = []
    while len(pts) < n:
        w = complex(_cplx(rng, 1, box)[0])
        if abs(w) < 0.1 or (avoid.size and np.abs(avoid - w).min() < 0.1):
            continue
        if pts and min(abs(w - q) for q in pts) < 0.1:
            continue
        pts.append(w)
    return np.array(pts)


class CliVerify:
    """A CLI user's session: cold one-shot calls, probes, then verify all.

    Every call is a separate ``python -m multicentric.cli`` process, run
    one after another.  The traced run sends the same argv lists through
    ``multicentric.cli.main`` in-process instead.
    """

    name = "cli-verify"
    kind = "cli"

    def __init__(self, seed):
        rng = _rng(seed, 3)
        lams = separated(rng, 3, 1.5, 0.5)
        self.lams = lams
        self.d = 3
        crit = critical_values(lams)
        ws = _regular_points(rng, 6, 2.0, crit)
        self.m = len(ws)
        self.ws = ws
        a, b = _cplx(rng, 2, 0.4)
        zs = fibers(lams, ws)
        self.fvals = values_for_rep(lams, ws, zs, np.exp(a * zs + b))
        self.gvals = _cplx(rng, 3 * len(ws), 1.0).reshape(3, len(ws))
        fib_ws = _regular_points(rng, 2, 2.5, crit)
        w3 = _regular_points(rng, 1, 2.0, crit)[0]
        lam_char = complex(_cplx(rng, 1, 2.0)[0])
        self.root_poly = _cplx(rng, 6, 1.0)
        self.root_poly[-1] = 1.0 + 0.5 * abs(self.root_poly[-1])

        # chi_A on a 3x3 Jordan block at alpha, conjugated; the change of
        # variable p(z) = (z - alpha)^3 + c has p' and p'' zero at alpha.
        alpha = complex(_cplx(rng, 1, 1.0)[0])
        c = cmath.rect(rng.uniform(0.6, 1.4), rng.uniform(0, 2 * np.pi))
        r = (-c) ** (1.0 / 3.0)
        chi_lams = alpha + r * np.exp(2j * np.pi * np.arange(3) / 3)
        self.chi_poly = np.array([c - alpha ** 3, 3 * alpha ** 2, -3 * alpha, 1.0])
        jb = alpha * np.eye(3) + np.eye(3, k=1)
        t = np.eye(3) + 0.3 * _cplx(rng, 9, 1.0).reshape(3, 3)
        self.chi_matrix = t @ jb @ np.linalg.inv(t)
        self.alpha = alpha
        chi_ws = np.concatenate([[c], _regular_points(
            rng, 2, 2.0, np.array([c]))])
        self.chi_f = (chi_lams, chi_ws,
                      _cplx(rng, 3 * 3, 1.0).reshape(3, 3))

        cj = json.dumps(_clist(lams))
        fj = _function_json(lams, ws, self.fvals)
        gj = _function_json(lams, ws, self.gvals)
        mj = json.dumps({"rows": 3, "cols": 3,
                         "data": _clist(self.chi_matrix.ravel())})
        sj = json.dumps({"entries": [{"alpha": _c(alpha), "n": 2}]})
        pj = json.dumps({"coeffs": _clist(self.chi_poly)})
        faj = _function_json(*self.chi_f)
        wilkinson = npp.polyfromroots(np.arange(1.0, 21.0))
        self.fiber_ws = fib_ws
        self.w3 = w3
        self.lam_char = lam_char
        # (label, argv, expectation): "ok" must succeed and pass its check,
        # "usage" must exit 2 cleanly, "probe" is an adversarial input whose
        # outcome is recorded and counted.
        self.calls = [
            ("fiber-1", ["fiber", "--centers", cj, "--w", json.dumps(_c(fib_ws[0]))], "ok"),
            ("fiber-2", ["fiber", "--centers", cj, "--w", json.dumps(_c(fib_ws[1]))], "ok"),
            ("polyprod-fg", ["polyprod", "--f", fj, "--g", gj], "ok"),
            ("polyprod-gf", ["polyprod", "--f", gj, "--g", fj], "ok"),
            ("invert", ["invert", "--f", fj], "ok"),
            ("spectrum", ["spectrum", "--f", fj], "ok"),
            ("charfunc", ["charfunc", "--f", fj, "--lam", json.dumps(_c(lam_char))], "ok"),
            ("characters-0", ["characters", "--centers", cj, "--w0", "0"], "ok"),
            ("characters-w", ["characters", "--centers", cj, "--w0", json.dumps(_c(w3))], "ok"),
            ("roots", ["roots", "--poly", json.dumps({"coeffs": _clist(self.root_poly)})], "ok"),
            ("chi", ["chi", "--matrix", mj, "--spectrum", sj, "--f", faj, "--poly", pj], "ok"),
            ("specmap", ["specmap", "--matrix", mj, "--spectrum", sj, "--f", faj, "--poly", pj], "ok"),
            ("roots-wilkinson20", ["roots", "--poly", json.dumps(
                {"coeffs": [float(v) for v in wilkinson]})], "probe"),
            ("roots-wide-range", ["roots", "--poly", '{"coeffs":[1e300,0,1e-300]}'], "probe"),
            ("malformed-json", ["polyprod", "--f", '{"centers": [[1,0]', "--g", gj], "usage"),
            ("verify-all", ["verify", "all", "--seed", str(int(seed))], "ok"),
        ]
        self.probes = {lab: argv for lab, argv, e in self.calls if e == "probe"}

    # -- one session ----------------------------------------------------

    def run_cold(self, env, rec):
        """Run every call as a cold subprocess; returns per-call results."""
        out = []
        for label, argv, _ in self.calls:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "multicentric.cli", *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=150)
            dt = time.perf_counter() - t0
            out.append((label, proc.returncode, proc.stdout, proc.stderr, dt))
        rec.attempted += len(self.calls)
        return out

    def run_inproc(self, mc, rec):
        """Same argv lists through cli.main in this process."""
        cli = importlib.import_module("multicentric.cli")
        out = []
        for label, argv, _ in self.calls:
            so, se = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                warnings.simplefilter("always")
                try:
                    rc = cli.main(list(argv))
                except Exception as exc:   # a leaked exception is a traceback
                    rc = -1
                    se.write(f"Traceback: {type(exc).__name__}: {exc}\n")
            dt = time.perf_counter() - t0
            err = se.getvalue() + "".join(
                f"{w.category.__name__}: {w.message}\n" for w in caught)
            out.append((label, rc, so.getvalue(), err, dt))
        rec.attempted += len(self.calls)
        return out

    # -- checks -----------------------------------------------------------

    def references(self, mc):
        """In-process library results the CLI output is compared with."""
        ctx = mc.AlgebraContext(mc.Centers(self.lams))
        ss = mc.SampleSet(ctx, self.ws)
        f = mc.VectorFunction(ss, self.fvals)
        g = mc.VectorFunction(ss, self.gvals)
        chi_ctx = mc.AlgebraContext(mc.Centers(self.chi_f[0]))
        fa = mc.VectorFunction(mc.SampleSet(chi_ctx, self.chi_f[1]),
                               self.chi_f[2])
        s = mc.SpectrumData([(self.alpha, 2)])
        p = mc.Polynomial(self.chi_poly)
        return {
            "f": f, "g": g,
            "fiber-1": mc.fiber(ctx.centers, self.fiber_ws[0]).points,
            "fiber-2": mc.fiber(ctx.centers, self.fiber_ws[1]).points,
            "polyprod": mc.polyprod(f, g).values,
            "invert": mc.invert(f).values,
            "spectrum": mc.spectrum(f),
            "charfunc": mc.characteristic(f),
            "characters-0": mc.characters_at(ctx, mc.SampleSet(ctx, [0.0]), 0.0),
            "characters-w": mc.characters_at(ctx, mc.SampleSet(ctx, [self.w3]),
                                             self.w3),
            "roots": mc.roots(self.root_poly),
            "chi": mc.chi_A(self.chi_matrix, s, p, fa),
            "specmap": mc.spectral_mapping_check(self.chi_matrix, s, p, fa),
        }

    def classify(self, results, refs, chk, rec, mc, probe_log):
        """Check every call of one session; count failures into rec."""
        expect = {lab: e for lab, _, e in self.calls}
        for label, rc, stdout, stderr, _ in results:
            exp = expect[label]
            leaked = "Traceback" in stderr or "Warning" in stderr
            if exp == "usage":
                ok = rc == 2 and not leaked and stderr.startswith("error:")
                chk.flag(label, ok)
            elif exp == "probe":
                ok = rc == 0 and not leaked and self._check_output(
                    label, stdout, refs, chk, mc)
                lines = [ln for ln in stderr.splitlines() if ln.startswith("error:")]
                probe_log.setdefault(label, (rc, stderr.count("Warning"),
                                             lines[0] if lines else ""))
            else:
                ok = rc == 0 and not leaked and self._check_output(
                    label, stdout, refs, chk, mc)
                if not ok:
                    chk.flag(label, False)
            if not ok:
                rec.failed += 1
                rec.errors.append(f"{label}: exit {rc}")

    def _check_output(self, label, stdout, refs, chk, mc):
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        return self._check_call(label, out, refs, chk, mc)

    def _check_call(self, label, out, refs, chk, mc):
        n0 = len(chk.items)
        if label.startswith("fiber"):
            pts = np.array([complex(*z) for z in out["points"]])
            w = self.fiber_ws[int(label[-1]) - 1]
            chk.err("fiber_backward_err",
                    backward_err(self.lams, np.array([w]), pts), FIBER_TOL)
            chk.err("fiber_center_resid",
                    center_resid(self.lams, np.array([w]), pts), None)
            chk.err("cli_vs_library", rel_err(np.sort_complex(pts),
                                              np.sort_complex(refs[label])))
        elif label.startswith("polyprod"):
            vals = np.array([[complex(*z) for z in s["f"]]
                             for s in out["samples"]]).T
            chk.err("cli_vs_library", rel_err(vals, refs["polyprod"]))
            ss = refs["f"].samples
            got = mc.VectorFunction(ss, vals).gelfand_values()
            chk.err("homomorphism_err", rel_err(
                got, refs["f"].gelfand_values() * refs["g"].gelfand_values()))
        elif label == "invert":
            vals = np.array([[complex(*z) for z in s["f"]]
                             for s in out["samples"]]).T
            chk.err("cli_vs_library", rel_err(vals, refs["invert"]))
            inv = mc.VectorFunction(refs["f"].samples, vals)
            chk.err("invert_resid", rel_err(mc.polyprod(refs["f"], inv).values,
                                            np.ones_like(vals)))
        elif label == "spectrum":
            reps = np.array([complex(*z) for z in out["values"]])
            multi = np.array([complex(*z) for z in out["multiset"]])
            radius = 2.0 * 1e-10 * max(1.0, float(np.abs(multi).max()))
            chk.flag("spectrum_covers", covered(multi, reps, radius) <= radius)
            chk.err("cli_vs_library", rel_err(reps, refs["spectrum"]))
        elif label == "charfunc":
            coeffs = np.array([[complex(*z) for z in row] for row in out["coeffs"]])
            fh = refs["f"].gelfand_values()
            chk.err("characteristic_err", rel_err(coeffs[:, 0], fh.sum(axis=1)))
            chk.err("cli_vs_library", rel_err(coeffs, refs["charfunc"].coeffs))
            pis = np.array([complex(*z) for z in out["pi_values"]])
            chk.err("cli_vs_library", rel_err(
                pis, refs["charfunc"].pi_values(self.lam_char)))
        elif label.startswith("characters"):
            etas = np.array([[complex(*z) for z in row] for row in out["characters"]])
            chk.err("character_residual", float(out["residual"]))
            chk.err("cli_vs_library", rel_err(etas, refs[label]))
        elif label.startswith("roots"):
            rts = np.array([complex(*z) for z in out["roots"]])
            coeffs = (self.root_poly if label == "roots" else np.array(
                json.loads(self.probes[label][-1])["coeffs"], dtype=complex))
            res = np.abs(npp.polyval(rts, coeffs))
            scale = npp.polyval(np.abs(rts), np.abs(coeffs)).real
            chk.err("roots_backward_err", float((res / scale).max()), FIBER_TOL)
            if label == "roots":
                chk.err("cli_vs_library", rel_err(np.sort_complex(rts),
                                                  np.sort_complex(refs["roots"])))
        elif label == "chi":
            data = np.array([complex(*z) for z in out["data"]]).reshape(3, 3)
            chk.err("cli_vs_library", rel_err(data, refs["chi"]))
            a = self.chi_matrix
            comm = np.abs(data @ a - a @ data).max() / max(
                1.0, np.abs(data).max() * np.abs(a).max())
            chk.err("chi_commutes", float(comm))
        elif label == "specmap":
            chk.flag("specmap_passed", out["passed"] is True)
            chk.err("specmap_hausdorff", float(out["hausdorff"]), 1e-6)
            comp = np.array([complex(*z) for z in out["computed"]])
            chk.err("cli_vs_library", rel_err(comp, refs["specmap"].computed))
        elif label == "verify-all":
            chk.flag("verify_passed", out.get("passed") is True)
        return all(it[1] for it in chk.items[n0:])


WORKLOADS = {w.name: w for w in (WideSamples, ManyCenters, CliVerify)}
