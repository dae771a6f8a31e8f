"""Numerical tolerance knobs shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances used by the numerical kernels.

    eq_tol    equality / residual threshold for algebraic identities
    crit_tol  distance below which a fiber point counts as critical
    root_tol  convergence threshold of the root iteration
    """

    eq_tol: float = 1e-10
    crit_tol: float = 1e-8
    root_tol: float = 1e-10

    def __post_init__(self):
        for name in ("eq_tol", "crit_tol", "root_tol"):
            v = getattr(self, name)
            if not (v > 0.0):
                raise ValueError(f"{name} must be positive, got {v!r}")


DEFAULT_TOL = Tolerances()

# Relative tolerance used when matching a value p(z) against the stored
# sample points of a function.
MATCH_RTOL = 1e-9

# Bytes of one block of a temporary that is built a block of rows at a
# time (see blocks): the matrix chunks of the singularity certificate and
# of invert, the fiber rows that the root kernel iterates on, and the
# sample blocks of the polyproduct, basis values and criticality test.
CHUNK_BYTES = 1 << 20


def blocks(n: int, row_bytes: int) -> list:
    """Slices covering range(n), each of about CHUNK_BYTES of rows.

    A row takes ``row_bytes`` bytes of the temporary being blocked; every
    slice holds at least one row.
    """
    step = max(1, CHUNK_BYTES // row_bytes)
    return [slice(lo, lo + step) for lo in range(0, n, step)]
