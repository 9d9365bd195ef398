"""Run the standing gates on the benchmark's own ops and oracle.

Runs the `ll:`, `fiber:` and `walk:` ops of analytic seeds 1-40, the
`jac-at:` ops of symbolic seeds 1-40 and the orbit ops of orbit-stokes
and orbit-bases seeds 1-40 (`perfbench.workloads`, read-only) as the
benchmark does, untraced; walks go through `llmap._walk` at
`wall_walk_A`'s default steps, which keeps their WalkStats, and orbit ops
start from the benchmark's moved seeds (one `Context` over all ops).
Prints one line per op, gate by gate, and exits 1 naming on stderr each
op that fails `check_op` (LL points on the discriminant only at
`ll:A2:t2=0`, 3 points in each A2 fiber and 16 in each A3 one, walk words
of exponent sum 0, Jacobi dimension mu, the class count of a full orbit,
a budget stop within one expansion) or whose fiber is unsaturated, and
each gate whose op count is not 2360, 840, 160, 2280, 4000 or 4000.  Two checkouts agree
when the `ll:`, `jac-at:`, `stokes:` and `bases:` lines are
byte-identical, the `fiber:` lines agree in columns 1-4 and their
solutions within 1e-9, and the `walk:` lines agree in columns 1-3
(README.md gives a command for each):

    PYTHONPATH=src python tools/gates.py > gates.txt
"""

import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import NullTracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    Context, build, check_op, run_op)
from singlat import llmap  # noqa: E402

# gate -> (workload, op count over seeds 1-40), in print order
GATES = {"ll": ("analytic", 2360), "fiber": ("analytic", 840),
         "walk": ("analytic", 160), "jac-at": ("symbolic", 2280),
         "stokes": ("orbit-stokes", 4000), "bases": ("orbit-bases", 4000)}
STEPS = llmap.wall_walk_A.__defaults__[0]   # the default steps


def gate_ops(seeds=range(1, 41)):
    """(gate, seed, op) of every gate op, in print order."""
    batches = {w: [(s, build(w, s)) for s in seeds]
               for w in {w for w, _ in GATES.values()}}
    return [(gate, seed, op) for gate, (w, _) in GATES.items()
            for seed, ops in batches[w] for op in ops
            if op.kind.split(":")[0] == gate]


def context(ops):
    """The benchmark's validated seeds and the moved start of each orbit op
    among the (gate, seed, op) ops."""
    return Context(NullTracer(), [op for _, _, op in ops])


def run(ctx, op):
    if op.kind.startswith("walk:"):
        return llmap._walk(*op.args, STEPS)
    return run_op(NullTracer(), ctx, op)


def render(seed, op, r):
    """The op's output line."""
    gate = op.kind.split(":")[0]
    if gate == "ll":
        return f"{seed} {op.kind} ({','.join(map(str, r[0].coeffs))}) {r[1]}"
    if gate == "fiber":
        sols = " ".join("(" + ",".join(f"{z.real:.9f}{z.imag:+.9f}j"
                                       for z in s) + ")" for s in r.solutions)
        return f"{seed} {op.kind} {r.count} {r.saturated} {sols}"
    if gate == "walk":
        return (f"{seed} {op.kind} ({','.join(map(str, r[0].letters))}) "
                f"samples={r[1].samples} bisected={r[1].bisected} "
                f"min_separation={r[1].min_separation:.3e}")
    if GATES[gate][0].startswith("orbit-"):
        return (f"{seed} {op.kind} {r.class_count} {r.truncated} "
                f"{r.states_visited} ({','.join(map(str, r.levels))})")
    return f"{seed} {op.kind} {op.args[1]} {r}"


def check(op, r):
    """True when the op's result passes its gate; a fiber must saturate."""
    what = op.kind.split(":")[0]
    return check_op(op, r[0] if what == "walk" else r) and \
        (what != "fiber" or r.saturated)


def miscounted(counts):
    """A failure line for each gate whose op count (a Counter) is wrong."""
    return [f"{g}: {counts[g]} ops, not {n}"
            for g, (_, n) in GATES.items() if counts[g] != n]


def main():
    start = time.perf_counter()
    ops = gate_ops()
    failed = miscounted(Counter(gate for gate, _, _ in ops))
    ctx = context(ops)
    for _, seed, op in ops:
        r = run(ctx, op)
        print(render(seed, op, r))
        if not check(op, r):
            failed.append(f"{op.kind} of seed {seed}")
    print(f"{time.perf_counter() - start:.2f} s",
          *(f"FAIL {line}" for line in failed), sep="\n", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
