"""Test-wide settings: property tests draw the same examples on every run."""

from hypothesis import settings

settings.register_profile("specedge", derandomize=True, deadline=None, max_examples=150)
settings.load_profile("specedge")
