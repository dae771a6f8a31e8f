"""Shared test settings and helpers.

Property tests run under one hypothesis profile: examples are drawn from
a seed derived from each test, so every run replays the same cases
offline, and their number is bounded so the suite stays fast.  No
example database is written.

The ``peak_alloc`` fixture measures the memory a call allocates.
"""

import tracemalloc

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
