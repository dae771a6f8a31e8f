"""Passing between vector functions and their scalar representations.

gelfand_eval goes forward: f^(z) = sum_j delta_j(z) f_j(p(z)), reading
f_j(p(z)) off the stored samples; it lives in :mod:`algebra` and is
re-exported here.  inverse_transform goes backward: given the scalar
values on one full fiber, or on every fiber of a SampleSet at once, it
recovers the vector f(w) by Lagrange interpolation on the fiber nodes,
evaluated at the centers by the same kernel as the forward direction
(``polynomials._lagrange_form``, one row of nodes per fiber), O(d^2) a
fiber.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .algebra import (AlgebraContext, SampleSet, VectorFunction, _match,
                      gelfand_eval)
from .errors import ContextMismatch, CriticalValue, MalformedInput
from .polynomials import Polynomial, _lagrange_form, lagrange_basis

__all__ = [
    "gelfand_eval",
    "inverse_transform",
    "reconstruct",
    "scalar_representation",
]


def _phi_values_at(phi, pts: np.ndarray) -> np.ndarray:
    """Resolve the supplied scalar data phi at the fiber points.

    phi may be a callable, a mapping {z: value}, or an iterable of
    (z, value) pairs; explicit points must be finite, and are matched by
    the rule of sample lookup (``algebra._match``), in any order.
    """
    if callable(phi):
        return np.array([phi(z) for z in pts], dtype=np.complex128)
    if isinstance(phi, Mapping):
        items = list(phi.items())
    else:
        items = [(z, v) for z, v in phi]
    if not items:
        raise MalformedInput("no scalar values supplied")
    zs = np.array([complex(z) for z, _ in items], dtype=np.complex128)
    vs = np.array([complex(v) for _, v in items], dtype=np.complex128)
    if not np.isfinite(zs).all():
        k = int(np.argmin(np.isfinite(zs)))
        raise MalformedInput(f"phi entry {k} has a non-finite point {zs[k]!r}")
    out = np.empty(len(pts), dtype=np.complex128)
    for i, z in enumerate(pts):
        j, gap, ok = _match(zs, z)
        if not ok:
            raise MalformedInput(
                f"no scalar value supplied for fiber point {complex(z)!r} "
                f"(nearest given point at distance {gap:.3e})"
            )
        out[i] = vs[j]
    return out


def inverse_transform(ctx: AlgebraContext, phi, w) -> np.ndarray:
    """Recover f(w) in C^d from scalar values on the fiber over w.

    f_k(w) = sum_j delta_j(lambda_k; w) phi(z_j) where delta_j(.; w) is
    the Lagrange basis of the fiber nodes z_j(w).  ``w`` is a point,
    giving shape (d,), or a :class:`SampleSet`, whose fibers are all
    inverted at once, giving shape (d, m).  Refuses critical w, where the
    fiber nodes coalesce and interpolation breaks down; the first critical
    sample is named.  Raises AlgebraOverflow when a value is not finite.
    """
    if isinstance(w, SampleSet):
        if not ctx.same_as(w.ctx):
            raise ContextMismatch("sample set belongs to a different context")
        ws, nodes, crit = w.points, w.fiber_points, w.fiber_critical
    else:
        fib = ctx.fiber(w)
        ws, nodes, crit = [fib.w], fib.points[None, :], [fib.is_critical]
    if np.any(crit):
        i = int(np.argmax(crit))
        raise CriticalValue(f"w={complex(ws[i])!r} is (numerically) a critical value")
    vals = _phi_values_at(phi, nodes.ravel()).reshape(nodes.shape)
    out = _lagrange_form(nodes, ctx.lambdas, vals.T[:, :, None])
    return out.T if isinstance(w, SampleSet) else out[0]


def reconstruct(ctx: AlgebraContext, phi, points) -> VectorFunction:
    """Inverse-transform phi over every given sample point at once.

    Each fiber is solved once, by the SampleSet of the points, and all
    of them are inverted in one call.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128)).ravel()
    samples = SampleSet(ctx, pts)
    return VectorFunction(samples, inverse_transform(ctx, phi, samples))


def scalar_representation(ctx: AlgebraContext, component_polys) -> Polynomial:
    """The polynomial sum_j delta_j(z) q_j(p(z)) for polynomial components.

    Useful as an exact reference: when every component of f is a
    polynomial in w, the representation f^ is this polynomial in z.
    """
    comps = list(component_polys)
    if len(comps) != ctx.d:
        raise ValueError("one component polynomial per center is required")
    out = Polynomial([0.0])
    for dj, qj in zip(lagrange_basis(ctx.centers), comps):
        q = qj if isinstance(qj, Polynomial) else Polynomial(qj)
        out = out + dj * q.compose(ctx.p)
    return out
