"""Shared test settings.

Property tests run under one hypothesis profile: examples are drawn from
a seed derived from each test, so every run replays the same cases
offline, and their number is bounded so the suite stays fast.  No
example database is written.
"""

from hypothesis import settings

settings.register_profile("multicentric", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("multicentric")
