#!/usr/bin/env python3
"""Steadiness report: run workloads N times, one fresh process per run
with its own seed, and print the median, quartiles and (Q3 - Q1) / median
of every end-to-end metric, beside host.calib_s (the median of 25
host_calib() slices) measured before each run.

    python3 perfbench/steady.py --workload analytic --runs 10
    python3 perfbench/steady.py --runs 1          # every workload, once

Raw values go to perfbench/out/steady-<workload>.json, each run's stderr
to perfbench/out/steady-<workload>-seed<n>.err.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import probes, workloads  # noqa: E402
from perfbench.stats import spread  # noqa: E402


def run_once(workload, seed, seconds, out_dir):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], capture_output=True, text=True, timeout=600)
    (out_dir / f"steady-{workload}-seed{seed}.err").write_text(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=workloads.WORKLOADS,
                    help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        runs = []
        for k in range(args.runs):
            calib = statistics.median(probes.host_calib() for _ in range(25))
            t = time.perf_counter()
            res = run_once(workload, args.first_seed + k, args.seconds,
                           out_dir)
            res["host.calib_s"] = calib
            runs.append(res)
            print(f"# {workload} seed {args.first_seed + k}: correct="
                  f"{res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} in {time.perf_counter() - t:.1f} s",
                  file=sys.stderr)
        (out_dir / f"steady-{workload}.json").write_text(json.dumps(runs))
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':16s} {'unit':6s} {'median':>12s} {'Q1':>12s} "
              f"{'Q3':>12s} {'IQR/med':>8s} {'bound':>6s}")
        rows = [(name, m["unit"], [r["metrics"][name]["value"] for r in runs])
                for name, m in runs[0]["metrics"].items()]
        rows.append(("host.calib_s", "s", [r["host.calib_s"] for r in runs]))
        for name, unit, values in rows:
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            flag = " <- above bound/3" if bound and name != "setup_s" and \
                rel > bound / 3 else ""
            print(f"  {name:16s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:8.4f} {bound if bound else '':>6}{flag}")
        print(f"  correct in every run: {all(r['correct'] for r in runs)}; "
              f"failed ops: {[r['failed'] for r in runs]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
