"""Print every exact LL point of the analytic benchmark, with its membership.

For each analytic batch of seeds 1 to 40 (`perfbench.workloads.build`,
imported read-only) it evaluates the batch's `ll:*` ops, 59 per seed and
2360 in all, as the benchmark does: `ll_exact_A` at the op's parameters,
then `discriminant_member` of the result.  It prints one line per op:
seed, op kind, the exact coefficients, constant first, and the
membership.  The wall-clock time goes to stderr.  Every printed value is
exact, so two checkouts compute the same LL map and bifurcation set on
these inputs exactly when the outputs are byte-identical:

    PYTHONPATH=src python tools/ll_points.py > points.txt
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))

from perfbench.workloads import build  # noqa: E402
from singlat import llmap  # noqa: E402

SEEDS = range(1, 41)


def main():
    start = time.perf_counter()
    for seed in SEEDS:
        for op in build("analytic", seed):
            if not op.kind.startswith("ll:"):
                continue
            p = llmap.ll_exact_A(*op.args)
            coeffs = ",".join(map(str, p.coeffs))
            print(f"{seed} {op.kind} ({coeffs}) "
                  f"{llmap.discriminant_member(p)}")
    print(f"{time.perf_counter() - start:.2f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
