"""Hypothesis profiles and shared fixtures for the suite.

`--hypothesis-profile=ci` runs every property on one derandomized example
set, the same on every run, and prints the blob that reproduces a failing
example; without the option each run draws fresh random examples."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)

SRC = Path(__file__).resolve().parents[1] / "src"
CAP = 1 << 30   # address space of a capped run, in bytes


def _cap():
    resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))


@pytest.fixture
def capped_python():
    """Run the Python interpreter, with src on its path, on the given
    arguments in a subprocess whose address space is capped at 1 GiB and
    which is stopped after 60 s; returns the CompletedProcess, with text
    output.  A run that allocates without bound ends there with a
    MemoryError, not in the test process."""
    def run(*args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True,
            timeout=60, preexec_fn=_cap, check=False,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
    return run
