"""Test-wide hypothesis settings.

Examples are derived from each test's name, not drawn at random, and
no example database is kept, so every run tries the same cases; there
is no per-example deadline, because a loaded host can run several
times slower than usual.
"""

from hypothesis import settings

settings.register_profile(
    "padiclab", deadline=None, derandomize=True, database=None
)
settings.load_profile("padiclab")
