"""Test-suite settings shared by every module.

The property tests run under a derandomized hypothesis profile: each draws
a fixed set of examples, seeded from the test itself, and replays none
from an example database. A run's verdict then depends only on the tree.
Each test's own settings (max_examples, deadline) still apply on top.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
