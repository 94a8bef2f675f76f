"""Test-suite settings shared by every module.

The property tests run under a derandomized hypothesis profile: each draws
a fixed set of examples, seeded from the test itself, and replays none
from an example database. A run's verdict then depends only on the tree.
Each test's own settings (max_examples, deadline) still apply on top.

The traced_peak fixture is the one way the memory tests measure a peak.
"""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def _traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while fn runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """traced_peak(fn): peak bytes that tracemalloc traces while fn runs, its result included."""
    return _traced_peak
