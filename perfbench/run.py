#!/usr/bin/env python3
"""Run one singlat benchmark workload.

    python3 perfbench/run.py --workload orbit-stokes --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop with one client: one process, one
Python thread, each op starting after the previous one returned.  The
batch is generated from --seed; it is repeated, in a fresh seeded order
each time, a fixed number of rounds that depends only on the workload and
--seconds (see rounds_for), so a seed always gives the same ops.
Each result is checked against the oracle outside the timed span.

The last line of stdout is one JSON object: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced batch (spans
written to perfbench/out/).  Diagnostics go to stderr.
"""

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT))

from perfbench import oracle, probes, workloads  # noqa: E402
from perfbench.spans import NullTracer, Tracer, layer_totals  # noqa: E402
from perfbench.stats import percentile  # noqa: E402

MIN_ROUNDS = 3
# Nominal batch time of each workload, in seconds at CALIB_REF_S host speed
# (normalised batch sums on a 2-core shared host).  Only the round count is
# derived from it, so the ops a run attempts, and which of them fail, are a
# function of workload, seed and --seconds alone, never of host speed.
BATCH_S = {"orbit-stokes": 6.0, "orbit-bases": 4.5, "symbolic": 3.0,
           "analytic": 6.0}
SETUP_SAMPLES = 3     # fresh --setup-only processes per run
# Host-speed normalisation.  The shared host runs the same code up to 1.8x
# slower in spells from under a second to minutes, and probes.host_calib
# slows with it (correlation 0.955-0.995 over half-second windows).  So a
# calibration slice is taken whenever CALIB_EVERY_S have passed since the
# last one, and the time between two slices is scaled by CALIB_REF_S over
# their mean: seconds at a fixed reference host speed.
CALIB_EVERY_S = 0.05
CALIB_REF_S = 0.004   # about the median host_calib() on this 2-core host


class HostClock:
    """Measured and normalised time, cut into stretches by calibration
    slices (see CALIB_EVERY_S).  The slices' own time is in neither."""

    def __init__(self, start=None, calib=None):
        self.calib = [probes.host_calib() if calib is None else calib]
        self.start = time.perf_counter() if start is None else start
        self.raw = self.norm = 0.0

    def tick(self, force=False):
        """End the stretch once it lasted CALIB_EVERY_S, or when forced:
        take a slice and return the stretch's scale.  None otherwise."""
        raw = time.perf_counter() - self.start
        if raw < CALIB_EVERY_S and not force:
            return None
        self.calib.append(probes.host_calib())
        scale = 2 * CALIB_REF_S / (self.calib[-2] + self.calib[-1])
        self.raw += raw
        self.norm += raw * scale
        self.start = time.perf_counter()
        return scale


class TickTracer(NullTracer):
    """No spans; ticks a HostClock after every call (the timed set-up)."""

    def __init__(self, clock):
        self.clock = clock

    @contextmanager
    def span(self, name, calls=1):
        yield None
        self.clock.tick()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


@dataclass
class Round:
    raw: list          # op latencies in seconds, in batch order
    lat: list          # the same, normalised to CALIB_REF_S host speed
    fails: list        # (op, result or exception)
    transitions: int
    calib: list        # host_calib() slices taken between the round's ops


def _import_singlat():
    """Import singlat from the checkout's src/, never from elsewhere."""
    if not (SRC / "singlat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no singlat source under {SRC}")
    sys.path.insert(0, str(SRC))
    import singlat
    if Path(singlat.__file__).resolve().parent != SRC / "singlat":
        raise SystemExit(f"perfbench: singlat imported from {singlat.__file__}")


def warm(ctx, ops, tr):
    """One untimed cheap pass over every op type; fills caches such as
    llmap._symbolic_ll."""
    for op in workloads.warmup_ops(ops):
        try:
            workloads.run_op(tr, ctx, op, cheap=True)
        except ValueError:
            if not op.kind.startswith(oracle.KNOWN_DEFECT_PREFIX):
                raise


def set_up(workload, seed, tr, warm_tr):
    """Imports, seed loading and validation, input generation and one
    untimed warm-up pass over every op type."""
    tr.call("import singlat", _import_singlat)
    ops = workloads.build(workload, seed)
    ctx = workloads.Context(tr, ops)
    warm(ctx, ops, warm_tr)
    return ops, ctx


def run_round(tr, ctx, ops, order_seed, first_id=0):
    """One pass over the batch in a seeded order.  An op's normalised
    latency takes the scale of the HostClock stretch it ran in."""
    order = list(range(len(ops)))
    random.Random(order_seed).shuffle(order)
    rnd = Round([0.0] * len(ops), [0.0] * len(ops), [], 0, [])
    clock = HostClock()
    stretch = []
    for pos, i in enumerate(order):
        op = ops[i]
        tr.op = first_id + i
        t = time.perf_counter()
        try:
            with tr.span("op:" + op.kind):
                res = workloads.run_op(tr, ctx, op)
            rnd.raw[i] = time.perf_counter() - t
            ok = workloads.check_op(op, res)
        except Exception as exc:  # an op that raises counts as failed
            rnd.raw[i] = time.perf_counter() - t
            ok, res = False, exc
        if hasattr(res, "states_visited"):
            rnd.transitions += workloads.transitions(op.args[0], res)
        if not ok:
            rnd.fails.append((op, res))
        stretch.append(i)
        scale = clock.tick(force=pos == len(order) - 1)
        if scale is not None:
            for j in stretch:
                rnd.lat[j] = rnd.raw[j] * scale
            stretch = []
    rnd.calib = clock.calib
    return rnd


def rounds_for(workload, seconds, min_rounds):
    """The number of rounds that fill about `seconds` at nominal speed."""
    return max(min_rounds, int(seconds // BATCH_S[workload]))


def measure(ctx, ops, seed, n):
    """n untraced rounds."""
    return [run_round(NullTracer(), ctx, ops, f"order:{seed}:{k}")
            for k in range(n)]


def op_medians(rounds):
    """Each op's median latency over the rounds, in batch order."""
    return [statistics.median(col) for col in zip(*(r.lat for r in rounds))]


def report(workload, ops, rounds):
    """Per-kind latencies, percentile placement and failures, to stderr."""
    by_kind = defaultdict(list)
    for r in rounds:
        for op, x in zip(ops, r.lat):
            by_kind[op.kind].append(x)
    samples = sorted(zip(op_medians(rounds), (op.kind for op in ops)))
    n = len(samples)
    err = sys.stderr
    print(f"# {workload}: {len(rounds)} rounds of {len(ops)} ops, "
          f"{rounds[0].transitions} transitions per batch", file=err)
    print("# batch sums, normalised: " + " ".join(
        f"{sum(r.lat):.4f}" for r in rounds) + "; measured: " + " ".join(
        f"{sum(r.raw):.4f}" for r in rounds) + "; host_calib medians (ms): "
        + " ".join(f"{1e3 * statistics.median(r.calib):.3f}" for r in rounds),
        file=err)
    for kind, xs in sorted(by_kind.items(),
                           key=lambda kv: statistics.median(kv[1])):
        print(f"#   {kind:22s} n={len(xs):4d} "
              f"median={statistics.median(xs):.6f}s normalised", file=err)
    for q in (0.5, 0.9):
        rank = max(1, math.ceil(q * n))
        lo, hi = max(0, rank - 1 - n // 20), min(n, rank + n // 20)
        kinds = sorted({k for _, k in samples[lo:hi]})
        print(f"# p{int(q * 100)} rank {rank}/{n}; kinds within +-5%: "
              f"{', '.join(kinds)}", file=err)
    for r in rounds:
        for op, res in r.fails:
            tag = "known defect" if op.kind.startswith(
                oracle.KNOWN_DEFECT_PREFIX) else "FAILED"
            print(f"# {tag}: {op.kind} args={op.args!r} -> {res!r}", file=err)


def setup_samples(workload, seed):
    """Set-up times of fresh processes, each from just before the process
    is started to the end of its set-up: interpreter start-up, imports,
    seed validation, input generation and warm-up.  Each process times
    itself with a HostClock that starts here (perf_counter is the system's
    monotonic clock, shared between processes)."""
    norm, raw = [], []
    for _ in range(SETUP_SAMPLES):
        calib = probes.host_calib()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", "1",
             "--setup-only", repr(time.perf_counter()), repr(calib)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr[-2000:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        norm.append(res["setup_s"])
        raw.append(res["measured_s"])
    print(f"# setup samples, normalised: {', '.join(f'{s:.3f}' for s in norm)}"
          f"; measured: {', '.join(f'{s:.3f}' for s in raw)}",
          file=sys.stderr)
    return norm


def end_to_end(workload, seed, seconds):
    ops, ctx = set_up(workload, seed, NullTracer(), NullTracer())
    rounds = measure(ctx, ops, seed,
                     rounds_for(workload, seconds, MIN_ROUNDS))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report(workload, ops, rounds)
    lat = op_medians(rounds)
    attempted = len(ops) * len(rounds)
    fails = [f for r in rounds for f in r.fails]
    setups = setup_samples(workload, seed)
    metrics = {
        "wall_s": (statistics.median(sum(r.lat) for r in rounds), "s"),
        "op_p50_s": (percentile(lat, 0.5), "s"),
        "op_p90_s": (percentile(lat, 0.9), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": ((attempted - len(fails)) / attempted, "ratio"),
    }
    return _result(fails, attempted, True, metrics)


def traced(workload, seed, seconds):
    tr = Tracer()
    ops, ctx = set_up(workload, seed, tr, NullTracer())
    rounds = measure(ctx, ops, seed, rounds_for(workload, seconds / 2, 1))
    untraced_wall = statistics.median(sum(r.lat) for r in rounds)
    batch = run_round(tr, ctx, ops, f"order:{seed}:traced")
    report(workload, ops, rounds + [batch])
    # op types this batch lacks, so that every layer has a measured value
    extra = probes.missing_ops(workload, seed, ops)
    ctx.add_starts(tr, extra)
    warm(ctx, extra, NullTracer())
    more = run_round(tr, ctx, extra, f"order:{seed}:missing", len(ops))
    report(f"{workload} (ops of missing types)", extra, [more])
    tr.op = None
    rng = random.Random(f"probe:{seed}")
    ok = probes.braid_layers(tr, ctx, rng)
    ok &= probes.polyalg_layers(tr, ctx, rng)
    bps, bps_ok = probes.bytes_per_state(tr, ctx)
    te8_s, te8_ok = probes.te8_psi3(tr)
    cold_s, cold_ok = probes.cli_cold_start(SRC)
    ok &= bps_ok and te8_ok and cold_ok
    spans = tr.finish()
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{workload}-seed{seed}.json")
    tot = layer_totals(spans)
    metrics = {}
    for name in LAYER_BUSY:
        metrics[f"{name}.busy_s"] = (tot[name]["busy_s"], "s")
    for name in LAYER_PER_CALL:
        metrics[f"{name}.us_per_call"] = (
            1e6 * tot[name]["busy_s"] / tot[name]["calls"], "us")
    orb = tot["braid.orbit_enumerate"]
    fib = tot["llmap.ll_fiber_count"]
    calib = [x for r in rounds + [batch, more] for x in r.calib]
    metrics.update({
        "braid.transitions_per_s": (orb["transitions"] / orb["busy_s"], "1/s"),
        "braid.transitions": (orb["transitions"], "count"),
        "braid.classes": (orb["classes"], "count"),
        "braid.new_class_ratio": (orb["classes"] / orb["transitions"], "ratio"),
        "braid.bytes_per_state": (bps, "B"),
        "llmap.fiber.new_solution_ratio": (fib["solutions"] / fib["starts"],
                                           "ratio"),
        "verify.tE8-psi3.s": (te8_s, "s"),
        "cli.cold_start_s": (cold_s, "s"),
        "host.calib_s": (statistics.median(calib), "s"),
        "trace.overhead_s": (sum(batch.lat) - untraced_wall, "s"),
    })
    all_fails = [f for r in rounds + [batch, more] for f in r.fails]
    attempted = sum(len(r.lat) for r in rounds + [batch, more])
    return _result(all_fails, attempted, ok, metrics)


LAYER_BUSY = (
    "braid.orbit_enumerate", "singdata.seed_stokes", "lattice.char_poly",
    "lattice.is_quasiunipotent", "singdata.symmetry_data",
    "verify.jacobi_dimension", "polyalg.graded_piece_rank",
    "verify.check_unfolding_identity", "verify.check_lambda_projection",
    "verify.check_kappa_extension", "verify.check_simple_symmetry",
    "polyalg.multipoly_subst", "polyalg.resultant", "llmap.ll_exact_A",
    "llmap.discriminant_member", "llmap.ll_fiber_count",
    "llmap.critical_values_numeric", "llmap.wall_walk_A",
    "degrees.counts_row",
)
LAYER_PER_CALL = (
    "braid.sign_canonical_stokes", "braid.braid_apply",
    "braid.sign_canonical_tuple", "polyalg.ratfunc_ops", "polyalg.cyclo_mul",
    "polyalg.eval_complex",
)


def _result(fails, attempted, probes_ok, metrics):
    unexpected = [op for op, _ in fails
                  if not op.kind.startswith(oracle.KNOWN_DEFECT_PREFIX)]
    return {"correct": probes_ok and not unexpected, "attempted": attempted,
            "failed": len(fails),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", nargs=2, type=float,
                    metavar=("START", "CALIB"),
                    help="set up, timed from perf_counter() START with a "
                    "host_calib() slice CALIB taken before it; print "
                    "{\"setup_s\", \"measured_s\"} and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.setup_only:
        clock = HostClock(*args.setup_only)
        tr = TickTracer(clock)
        set_up(args.workload, args.seed, tr, tr)
        clock.tick(force=True)
        print(json.dumps({"setup_s": clock.norm, "measured_s": clock.raw}))
        return 0
    run = traced if args.trace else end_to_end
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
