"""Print every Jacobi dimension at a parameter of the symbolic benchmark.

For each symbolic batch of seeds 1 to 40 (`perfbench.workloads.build`,
imported read-only) it evaluates the batch's `jac-at:*` ops, 57 per seed
and 2280 in all, as the benchmark does: `verify.jacobi_dimension` of the
op's class at the op's exact lambda.  It prints one line per op: seed, op
kind, lambda and the dimension, which must be the class's Milnor number
(tE6 8, tE7 9, tE8 10).  The wall-clock time goes to stderr.  Every
printed value is exact, so two checkouts agree on these inputs exactly
when the outputs are byte-identical:

    PYTHONPATH=src python tools/jacobi_points.py > jacobi.txt
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))

from perfbench.workloads import build  # noqa: E402
from singlat import verify  # noqa: E402

SEEDS = range(1, 41)


def main():
    start = time.perf_counter()
    for seed in SEEDS:
        for op in build("symbolic", seed):
            if not op.kind.startswith("jac-at:"):
                continue
            label, lam = op.args
            print(f"{seed} {op.kind} {lam} "
                  f"{verify.jacobi_dimension(label, lam)}")
    print(f"{time.perf_counter() - start:.2f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
