"""Shared test settings and helpers.

Property tests run under one hypothesis profile: examples are drawn from
a seed derived from each test, so every run replays the same cases
offline, and their number is bounded so the suite stays fast.  No
example database is written.

The ``peak_alloc`` fixture measures the memory a call allocates, and
``lagrange_oracle`` evaluates Lagrange forms at 30 digits with mpmath.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("multicentric", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("multicentric")


def _peak_alloc(fn, *args):
    """Run fn(*args) under tracemalloc; return (result, peak bytes)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture
def peak_alloc():
    """The function peak_alloc(fn, *args) -> (fn(*args), peak bytes)."""
    return _peak_alloc


def _lagrange_oracle(nodes, z, coeffs):
    """sum_j coeffs[j] delta_j(z) at 30 digits, delta_j the Lagrange basis
    of ``nodes`` (n,), at each point of ``z`` (k,) off the nodes, with
    ``coeffs`` of shape (n, k).

    The doubles are taken exactly, delta_j(z) = w_j P(z) / (z - x_j) with
    P(z) = prod_l (z - x_l) and w_j = 1 / prod_{l != j} (x_j - x_l).
    Returns (values, sum_j |coeffs[j] delta_j(z)|), both of shape (k,).
    """
    with mpmath.workdps(30):
        x = [mpmath.mpc(complex(v)) for v in nodes]
        w = [1 / mpmath.fprod(xj - xl for xl in x if xl is not xj) for xj in x]
        vals = np.empty(len(z), dtype=np.complex128)
        mags = np.empty(len(z))
        for i, zi in enumerate(z):
            zi = mpmath.mpc(complex(zi))
            prod = mpmath.fprod(zi - xl for xl in x)
            terms = [mpmath.mpc(complex(coeffs[j, i])) * w[j] * prod / (zi - xj)
                     for j, xj in enumerate(x)]
            vals[i] = complex(mpmath.fsum(terms))
            mags[i] = float(mpmath.fsum(abs(t) for t in terms))
    return vals, mags


@pytest.fixture
def lagrange_oracle():
    """The function lagrange_oracle(nodes, z, coeffs) -> (values, magnitudes)."""
    return _lagrange_oracle
