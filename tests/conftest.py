"""Hypothesis profiles for the suite.

`--hypothesis-profile=ci` runs every property on one derandomized example
set, the same on every run, and prints the blob that reproduces a failing
example; without the option each run draws fresh random examples."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
