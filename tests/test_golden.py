"""The byte-identity battery as a golden file.

`tools/byte_identity.py` prints a fixed, seeded battery of exact and
numeric outputs.  tests/golden/byte_identity.txt holds that output after a
`# numpy <version>` header line: the float lines depend on the numpy and
BLAS build, so the file is pinned to one numpy version, and a different
version fails here and names both.  The tool's docstring says how to
regenerate the file.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden" / "byte_identity.txt"
CONTEXT = 3   # lines shown from each side, from the first difference on


def first_difference(want, got):
    """A report of the first line where two byte strings differ, with the
    lines around it from each, or None when they are equal."""
    if want == got:
        return None
    a, b = want.splitlines(keepends=True), got.splitlines(keepends=True)
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    out = [f"battery output differs from {GOLDEN.name} at output line "
           f"{k + 1} (golden {len(a)} lines, run {len(b)} lines)"]
    for name, lines in (("golden", a), ("run", b)):
        out += [f"{name} {i + 1}: {line!r}"
                for i, line in enumerate(lines[k:k + CONTEXT], start=k)]
    return "\n".join(out)


def test_first_difference_names_the_line():
    assert first_difference(b"a\nb\n", b"a\nb\n") is None
    report = first_difference(b"a\nb\nc\n", b"a\nB\nc\n")
    assert "output line 2" in report
    assert "golden 2: b'b\\n'" in report and "run 2: b'B\\n'" in report
    # a missing last newline is a difference too
    assert "output line 1" in first_difference(b"a\n", b"a")


def test_battery_is_byte_identical():
    header, _, want = GOLDEN.read_bytes().partition(b"\n")
    pinned = header.decode().removeprefix("# numpy ").strip()
    assert pinned == numpy.__version__, (
        f"{GOLDEN.name} is pinned to numpy {pinned}, this run has numpy "
        f"{numpy.__version__}; its float lines may differ")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    # a subprocess does not inherit pytest's warning filter
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          str(REPO / "tools" / "byte_identity.py")],
                         capture_output=True, env=env, cwd=REPO, check=False)
    assert run.returncode == 0, run.stderr.decode()[-2000:]
    report = first_difference(want, run.stdout)
    if report is not None:
        pytest.fail(report, pytrace=False)
