"""Print every fiber count of the analytic benchmark, with its solutions.

For each analytic batch of seeds 1 to 40 (`perfbench.workloads.build`,
imported read-only) it runs the batch's fiber counts, twenty A2 counts at
150 starts and one A3 count at 600, 840 counts in all, over the target
with the op's roots, as the benchmark does.  It prints one line per
count: seed, op kind, count, saturated, and the solutions in convergence
order, each parameter rounded to 1e-9.  The wall-clock time goes to
stderr.  Two checkouts find the same fibers when the first four columns
agree on every line and the solutions agree within 1e-9; a solution that
moves by less than that can still flip a last printed digit:

    PYTHONPATH=src python tools/fiber_counts.py > fibers.txt
    cut -d' ' -f1-4 fibers.txt
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))

from perfbench.workloads import build  # noqa: E402
from singlat import llmap  # noqa: E402

SEEDS = range(1, 41)


def _point(z):
    return f"{z.real:.9f}{z.imag:+.9f}j"


def main():
    start = time.perf_counter()
    for seed in SEEDS:
        for op in build("analytic", seed):
            if not op.kind.startswith("fiber:"):
                continue
            mu, roots, starts = op.args
            target = llmap.LLPoint(tuple(complex(c)
                                         for c in reversed(np.poly(roots))))
            fc = llmap.ll_fiber_count(f"A{mu}", target, budget=starts)
            sols = " ".join("(" + ",".join(map(_point, s)) + ")"
                            for s in fc.solutions)
            print(f"{seed} {op.kind} {fc.count} {fc.saturated} {sols}")
    print(f"{time.perf_counter() - start:.2f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
