"""Passing between vector functions and their scalar representations.

gelfand_eval goes forward: f^(z) = sum_j delta_j(z) f_j(p(z)), reading
f_j(p(z)) off the stored samples.  inverse_transform goes backward: given
the scalar values on one full fiber it recovers the vector f(w) through
Lagrange interpolation on the fiber nodes.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .algebra import AlgebraContext, SampleSet, VectorFunction
from .config import MATCH_RTOL, Tolerances
from .errors import CriticalValue, MalformedInput
from .polynomials import Fiber, Polynomial, _lagrange_values

__all__ = [
    "gelfand_eval",
    "inverse_transform",
    "reconstruct",
    "scalar_representation",
]


def gelfand_eval(f: VectorFunction, z) -> complex:
    """Evaluate the scalar representation of f at the point z.

    p(z) must match one of f's sample points (within the matching
    tolerance); otherwise SampleMiss propagates from the lookup.
    """
    z = complex(z)
    ctx = f.ctx
    w = complex(ctx.p(z))
    i = f.samples.match(w)
    dv = ctx.basis_values(np.asarray(z))
    return complex(dv @ f.values[:, i])


def _phi_values_at(phi, pts: np.ndarray) -> np.ndarray:
    """Resolve the supplied scalar data phi at the fiber points.

    phi may be a callable, a mapping {z: value}, or an iterable of
    (z, value) pairs; explicit points are matched with the same relative
    tolerance used for sample lookup, in any order.
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
    out = np.empty(len(pts), dtype=np.complex128)
    for i, z in enumerate(pts):
        gaps = np.abs(zs - z)
        j = int(np.argmin(gaps))
        if gaps[j] > MATCH_RTOL * max(1.0, abs(z)):
            raise MalformedInput(
                f"no scalar value supplied for fiber point {z!r} "
                f"(nearest given point at distance {gaps[j]:.3e})"
            )
        out[i] = vs[j]
    return out


def inverse_transform(ctx: AlgebraContext, phi, w) -> np.ndarray:
    """Recover f(w) in C^d from scalar values on the fiber over w.

    f_k(w) = sum_j delta_j(lambda_k; w) phi(z_j) where delta_j(.; w) is
    the Lagrange basis of the fiber nodes z_j(w).  ``w`` is a point or
    the already solved :class:`Fiber` over it.  Refuses critical w,
    where the fiber nodes coalesce and interpolation breaks down.
    """
    fib = w if isinstance(w, Fiber) else ctx.fiber(w)
    if fib.is_critical:
        raise CriticalValue(f"w={fib.w!r} is (numerically) a critical value")
    vals = _phi_values_at(phi, fib.points)
    basis = _lagrange_values(fib.points, ctx.lambdas)   # row j: delta_j(lambda; w)
    return (basis * vals[:, None]).sum(axis=0)


def reconstruct(ctx: AlgebraContext, phi, points) -> VectorFunction:
    """Inverse-transform phi over every given sample point at once.

    Each fiber is solved once, by the SampleSet of the points.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128)).ravel()
    samples = SampleSet(ctx, pts)
    cols = [inverse_transform(ctx, phi, fib) for fib in samples.fibers()]
    return VectorFunction(samples, np.stack(cols, axis=1))


def scalar_representation(ctx: AlgebraContext, component_polys) -> Polynomial:
    """The polynomial sum_j delta_j(z) q_j(p(z)) for polynomial components.

    Useful as an exact reference: when every component of f is a
    polynomial in w, the representation f^ is this polynomial in z.
    """
    comps = list(component_polys)
    if len(comps) != ctx.d:
        raise ValueError("one component polynomial per center is required")
    out = Polynomial([0.0])
    for dj, qj in zip(ctx.delta, comps):
        q = qj if isinstance(qj, Polynomial) else Polynomial(qj)
        out = out + dj * q.compose(ctx.p)
    return out
