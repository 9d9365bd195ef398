"""Print the word and sampling of every wall walk of the analytic benchmark.

For each analytic batch of seeds 1 to 40 (`perfbench.workloads.build`,
imported read-only) it walks the batch's four paths, two A2 round trips,
one A3 round trip and the known-defect A3 round trip, 160 walks in all, at
the default steps, and prints one line per walk: seed, op kind, word and
the walk's WalkStats (samples, bisected, min_separation).  A last line
sums the samples and bisections; the wall-clock time goes to stderr.
Two checkouts walk the same words when the outputs agree after dropping
the stats:

    PYTHONPATH=src python tools/walk_words.py > walks.txt
    cut -d' ' -f1-3 walks.txt
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
    samples = bisected = 0
    start = time.perf_counter()
    for seed in SEEDS:
        for op in build("analytic", seed):
            if not op.kind.startswith("walk:"):
                continue
            mu, path = op.args
            word, stats = llmap._walk(mu, path, 64)
            samples += stats.samples
            bisected += stats.bisected
            letters = ",".join(map(str, word.letters))
            print(f"{seed} {op.kind} ({letters}) "
                  f"samples={stats.samples} bisected={stats.bisected} "
                  f"min_separation={stats.min_separation:.3e}")
    print(f"total samples={samples} bisected={bisected}")
    print(f"{time.perf_counter() - start:.2f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
