"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import oracle, probes, run, workloads  # noqa: E402
from perfbench.spans import (NullTracer, Span, Tracer, covered,  # noqa: E402
                             layer_totals, set_self_times)
from perfbench.stats import TAIL_MIN, percentile, spread  # noqa: E402

SEEDED = ("stokes", "bases", "jac-at", "ll", "fiber", "crit", "walk")


def _seeded(op):
    return op.kind.split(":")[0] in SEEDED and not op.kind.endswith("defect")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs_same_answers(workload):
    a, b = workloads.build(workload, 7), workloads.build(workload, 8)
    assert [op.kind for op in a] == [op.kind for op in b]
    assert [op.expect for op in a] == [op.expect for op in b]
    for x, y in zip(a, b):
        assert (x.args != y.args) == _seeded(x), x.kind


def test_other_seed_answers_hold_on_singlat():
    """Cheap ops of two seeds pass the same oracle on the real program."""
    kinds = ("stokes:A4:-", "stokes:D4:-", "bases:A4:-", "ll:A2",
             "ll:A2:t2=0", "ll:A3", "jac-at:tE7", "crit:D4")
    for seed in (7, 8):
        ops = [op for w in workloads.WORKLOADS
               for op in workloads.build(w, seed) if op.kind in kinds]
        ctx = workloads.Context(NullTracer(), ops)
        for op in ops:
            res = workloads.run_op(NullTracer(), ctx, op)
            assert workloads.check_op(op, res), (seed, op)


@pytest.mark.parametrize("n", [100, 101, 137, 1000])
def test_p90_leaves_ten_samples_beyond(n):
    xs = list(range(n))
    random.Random(n).shuffle(xs)
    p90 = percentile(xs, 0.9)
    assert sum(x > p90 for x in xs) >= TAIL_MIN
    assert sum(x <= p90 for x in xs) >= 0.9 * n


def test_percentile_refuses_short_runs():
    with pytest.raises(ValueError):
        percentile(range(99), 0.9)
    assert percentile(range(1, 101), 0.5) == 50


def test_spread_matches_statistics_quantiles():
    med, q1, q3, rel = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (med, q1, q3) == (3.0, 1.5, 4.5)
    assert rel == pytest.approx(1.0)


def test_covered_merges_overlaps_and_clips():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 7.0)], 0.0, 6.0) == 4.0
    assert covered([], 0.0, 1.0) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [Span(0, "op", 0.0, 10.0, None, 1),
             Span(1, "a", 1.0, 3.0, 0, 1),
             Span(2, "b", 4.0, 8.0, 0, 1),
             Span(3, "c", 5.0, 6.0, 2, 1)]
    set_self_times(spans)
    assert [s.busy_s for s in spans] == [4.0, 2.0, 3.0, 1.0]
    tot = layer_totals(spans)
    assert sum(t["busy_s"] for t in tot.values()) == 10.0


def test_tracer_records_parent_op_and_failure():
    tr = Tracer()
    tr.op = 5
    with tr.span("outer"):
        assert tr.call("inner", lambda x: x + 1, 1) == 2
        tr.annotate(classes=3)
        with pytest.raises(KeyError):
            tr.call("bad", {}.__getitem__, "k")
    outer, inner, bad = tr.finish()
    assert (inner.parent, bad.parent, outer.parent) == (0, 0, None)
    assert {s.op for s in (outer, inner, bad)} == {5}
    assert (bad.failed, inner.failed, inner.attrs) == (True, False, {"classes": 3})
    assert outer.busy_s == pytest.approx(
        outer.end - outer.start - (inner.end - inner.start)
        - (bad.end - bad.start))


def test_host_clock_scales_by_reference_over_slice_mean(monkeypatch):
    slices = iter([2 * run.CALIB_REF_S, 2 * run.CALIB_REF_S,
                   run.CALIB_REF_S / 2])
    monkeypatch.setattr(probes, "host_calib", lambda: next(slices))
    clock = run.HostClock(start=0.0)
    assert clock.tick() == pytest.approx(0.5)    # host at half speed
    assert clock.tick(force=True) == pytest.approx(0.8)
    assert clock.norm < clock.raw


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_count_depends_on_seconds_only(workload):
    assert set(run.BATCH_S) == set(workloads.WORKLOADS)
    assert run.rounds_for(workload, 1, 3) == 3
    assert run.rounds_for(workload, 0.1, 1) == 1
    many = run.rounds_for(workload, 10 * run.BATCH_S[workload], 3)
    assert many == 10


def test_oracle_degrees_follow_closed_forms():
    coxeter = {"A": lambda m: (m + 1, math.factorial(m + 1)),
               "D": lambda m: (2 * (m - 1), 2 ** (m - 1) * math.factorial(m))}
    exceptional = {"E6": (12, 51840), "E7": (18, 2903040),
                   "E8": (30, 696729600)}
    for label, deg in oracle.BASES_CLASSES.items():
        mu = oracle.MU[label]
        h, w = exceptional.get(label) or coxeter[label[0]](mu)
        assert deg == math.factorial(mu) * h ** mu // w, label
    for label, (p, q, r), u2 in (("tE6", (3, 3, 3), 6), ("tE7", (4, 4, 2), 2),
                                 ("tE8", (6, 3, 2), 1)):
        u1 = sum(1 for a in range(p) for b in range(q) for c in range(r)
                 if (a * q * r + b * p * r + c * p * q) % (p * q * r) == 0)
        assert oracle.QUOTIENT_DEGREE[label] == 6 * u1 * u2
        assert oracle.DEG_LL[label] == \
            oracle.STOKES_CLASSES[label] * oracle.QUOTIENT_DEGREE[label]
    assert oracle.DEG_LL["tE6"] == 24800580
    assert oracle.DEG_LL["tE6"] // 324 == 76545


def test_run_fails_without_singlat_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "analytic", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
