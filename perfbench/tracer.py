"""Span tracer that wraps the package's public functions from outside.

The library itself has no trace hooks, so the tracer replaces each
public function with a wrapper in every namespace of the package that
holds it.  Functions reached through ``from .polynomials import ...``
live in several modules at once (``algebra``, ``calculus``, ``linalg``,
``transform``, ``verify``, the package root), and each alias is patched;
otherwise calls made inside the library would be missed.

Spans are kept in memory as tuples (name, start, end, parent, pass_id)
with an optional dict of counts, and written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc

import numpy as np

# (module, attribute, span name).  The attribute may be "Class.method".
TARGETS = [
    ("multicentric.polynomials", "fiber_batch", "polynomials.fiber_batch"),
    ("multicentric.polynomials", "roots", "polynomials.roots"),
    ("multicentric.polynomials", "cluster_points", "polynomials.cluster_points"),
    ("multicentric.algebra", "AlgebraContext.basis_values", "algebra.basis_values"),
    ("multicentric.algebra", "SampleSet.__init__", "algebra.SampleSet"),
    ("multicentric.algebra", "VectorFunction.gelfand_values",
     "algebra.gelfand_values"),
    ("multicentric.algebra", "polyprod", "algebra.polyprod"),
    ("multicentric.algebra", "mult_matrices", "algebra.mult_matrices"),
    ("multicentric.algebra", "invert", "algebra.invert"),
    ("multicentric.algebra", "characteristic", "algebra.characteristic"),
    ("multicentric.algebra", "spectrum", "algebra.spectrum"),
    ("multicentric.algebra", "spectral_radius_iter", "algebra.spectral_radius_iter"),
    ("multicentric.linalg", "solve", "linalg.solve"),
    ("multicentric.linalg", "eigenvalues", "linalg.eigenvalues"),
    ("multicentric.linalg", "char_poly", "linalg.char_poly"),
    ("multicentric.transform", "reconstruct", "transform.reconstruct"),
    ("multicentric.transform", "inverse_transform", "transform.inverse_transform"),
    ("multicentric.calculus", "chi_A", "calculus.chi_A"),
    ("multicentric.calculus", "spectral_mapping_check",
     "calculus.spectral_mapping_check"),
    ("multicentric.calculus", "ensure_simple_roots", "calculus.ensure_simple_roots"),
    ("multicentric.serialize", "loads", "serialize.loads"),
    ("multicentric.serialize", "dumps", "serialize.dumps"),
    ("multicentric.cli", "main", "cli.main"),
]

# Layers whose temporaries are the point of interest; tracemalloc runs only
# inside these spans, and they never nest inside one another.
ALLOC_TRACED = {"algebra.polyprod", "algebra.mult_matrices"}


def _counts(name, args):
    """Work counts recorded at the span boundary, derived from shapes."""
    if name == "polynomials.fiber_batch":
        return {"rows": int(np.size(args[1]))}
    if name == "algebra.basis_values":
        return {"points": int(np.size(args[1]))}
    if name == "polynomials.cluster_points":
        return {"points": int(np.size(args[0]))}
    if name == "algebra.polyprod":
        # Bytes the sigma form materialises: the two d x d x m difference
        # tensors plus the d x m product and correction (complex128).
        d, m = args[0].values.shape
        return {"computed_bytes": 16 * m * (2 * d * d + 2 * d)}
    return None


class Tracer:
    """Collects spans between install() and uninstall()."""

    def __init__(self):
        self.spans = []            # (name, start, end, parent, pass_id)
        self.counts = {}           # span index -> {counter: value}
        self.fiber_calls = []      # (centers, ws, result) for backward error
        self.pass_id = -1
        self._stack = []
        self._patched = []         # (owner, attribute, original)

    # -- recording -----------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            alloc = name in ALLOC_TRACED and not tracemalloc.is_tracing()
            idx = tracer.begin(name)
            if alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer.end(idx)
            extra = _counts(name, args)
            if alloc:
                extra = dict(extra or {}, peak_alloc_mb=peak / 2 ** 20)
            if extra:
                tracer.counts[idx] = extra
            if name == "polynomials.fiber_batch":
                tracer.fiber_calls.append((args[0], args[1], result))
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def install(self, suites=None):
        """Patch every alias of every target; optionally the suite table."""
        for modname, _, _ in TARGETS:
            importlib.import_module(modname)
        pkg = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "multicentric"
                                     or n.startswith("multicentric."))]
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self.wrap(orig, name))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(orig, name)
            for mod in pkg:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, orig, wrapped)
        if suites is not None:
            for key, fn in list(suites.items()):
                wrapped = self.wrap(fn, f"verify.suite_s.{key}")
                self._patched.append((suites, key, fn))
                suites[key] = wrapped

    def _set(self, owner, key, orig, wrapped):
        self._patched.append((owner, key, orig))
        setattr(owner, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patched.clear()

    def patched_names(self):
        """(owner name, attribute) of every patched alias."""
        out = []
        for owner, key, _ in self._patched:
            label = "SUITES" if isinstance(owner, dict) else getattr(
                owner, "__name__", repr(owner))
            out.append((label, key))
        return out

    # -- output ----------------------------------------------------------

    def dump(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, pid) in enumerate(self.spans):
                rec = {"i": i, "name": name, "start": start, "end": end,
                       "parent": parent, "pass": pid}
                if i in self.counts:
                    rec["counts"] = self.counts[i]
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    ``spans`` holds (name, start, end, parent, ...) records; the covered
    part is the union of the direct children's intervals clipped to the
    parent, so overlapping children are not counted twice.
    """
    children = {}
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children.setdefault(sp[3], []).append((sp[1], sp[2]))
    out = []
    for i, sp in enumerate(spans):
        start, end = sp[1], sp[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def per_pass(tracer):
    """{pass_id: {name: {"self_s", "total_s", "calls", <counters>}}}."""
    selfs = self_times(tracer.spans)
    out = {}
    for i, sp in enumerate(tracer.spans):
        agg = out.setdefault(sp[4], {}).setdefault(
            sp[0], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        agg["self_s"] += selfs[i]
        agg["total_s"] += sp[2] - sp[1]
        agg["calls"] += 1
        for key, val in tracer.counts.get(i, {}).items():
            if key == "peak_alloc_mb":
                agg[key] = max(agg.get(key, 0.0), val)
            else:
                agg[key] = agg.get(key, 0) + val
    return out


def top_level_time(tracer, pass_id):
    """Seconds of a pass covered by spans that have no parent."""
    return sum(sp[2] - sp[1] for sp in tracer.spans
               if sp[4] == pass_id and sp[3] < 0)
