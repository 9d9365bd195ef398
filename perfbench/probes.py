"""Layer probes for the traced run.

The batch calls singlat's op-level functions.  The inner layers (sign
canonicalisation, the braid step, RatFunc and Cyclo arithmetic, complex
evaluation, substitution, ranks, resultants) are reached only from inside
singlat, so the traced run calls their public entry points directly on
seeded inputs, one span around each loop with ``calls`` set.  Op-level
layers that the workload's batch did not call are reached through
``missing_ops``: the cheapest op of each missing type from the other
workloads, run and checked like a batch op, so that every per-layer metric
is measured on every workload.

Each probe returns True when its result matches the known answer.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np

from perfbench import oracle, workloads

LOOP = 300   # calls per microsecond-scale probe loop


def _moved(tr, ctx, rng, label, count):
    from singlat import braid
    seed = ctx.seeds[label]
    mu = seed.mu
    out = []
    for _ in range(count):
        word = braid.BraidWord(tuple(rng.choice((1, -1)) * rng.randint(1, mu - 1)
                                     for _ in range(2 * mu)))
        out.append(tr.call("braid.braid_apply_word", braid.braid_apply_word,
                           braid.VanishingTuple.standard(seed), word))
    return out


def braid_layers(tr, ctx, rng):
    from singlat import braid
    tuples = _moved(tr, ctx, rng, "tE8", 30)
    mats = [tr.call("braid.stokes_of_tuple", braid.stokes_of_tuple, t)
            for t in tuples]
    with tr.span("braid.sign_canonical_stokes", calls=LOOP):
        canon = [braid.sign_canonical_stokes(mats[k % len(mats)])
                 for k in range(LOOP)]
    # the form is a sign-class invariant: conjugating by diag(e) keeps it
    flips = []
    for m in mats:
        e = [1] + [rng.choice((1, -1)) for _ in range(m.mu - 1)]
        flips.append(braid.StokesMatrix(tuple(
            tuple(e[i] * e[j] * x for j, x in enumerate(row))
            for i, row in enumerate(m.rows))))
    with tr.span("braid.sign_canonical_stokes", calls=len(flips)):
        ok = [braid.sign_canonical_stokes(f) for f in flips] == \
            canon[:len(flips)]
    gens = [rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(LOOP)]
    with tr.span("braid.braid_apply", calls=LOOP):
        stepped = [braid.braid_apply(tuples[k % len(tuples)], g)
                   for k, g in enumerate(gens)]
    with tr.span("braid.sign_canonical_tuple", calls=LOOP):
        signed = [braid.sign_canonical_tuple(t) for t in stepped]
    ok &= all(next(x for x in v if x) > 0 for t in signed for v in t.vectors)
    return ok


def bytes_per_state(tr, ctx):
    """tracemalloc peak over the largest full orbit of the batches (E6
    Stokes, 3456 classes), per class."""
    from singlat import braid
    tracemalloc.start()
    try:
        rep = tr.call("braid.orbit_enumerate[tracemalloc]",
                      braid.orbit_enumerate, ctx.seeds["E6"], "stokes")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / rep.class_count, \
        rep.class_count == oracle.STOKES_CLASSES["E6"]


def polyalg_layers(tr, ctx, rng):
    from singlat import polyalg, singdata
    q = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))  # noqa: E731
    ok = True
    rats = [polyalg.RatFunc("nu", [q(), q(), q()], [1, -2, 1])
            for _ in range(40)]
    with tr.span("polyalg.ratfunc_ops", calls=LOOP):
        acc = [rats[k % 40] * rats[(k + 1) % 40] + rats[(k + 2) % 40]
               for k in range(LOOP // 2)]
    ok &= all(r.den[-1] == 1 for r in acc)
    cyc = [polyalg.Cyclo(polyalg.ZETA8, [q() for _ in range(4)])
           for _ in range(40)]
    with tr.span("polyalg.cyclo_mul", calls=LOOP):
        prods = [cyc[k % 40] * cyc[(k + 7) % 40] for k in range(LOOP)]
    ok &= all(abs(p.eval_complex() - cyc[k % 40].eval_complex()
                  * cyc[(k + 7) % 40].eval_complex()) < 1e-6 * (1 + abs(
                      p.eval_complex())) for k, p in enumerate(prods[:20]))
    f = singdata.unfolding(singdata.sing_class("E8"))
    points = [{v: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for v in f.vars}
              for _ in range(20)]
    with tr.span("polyalg.eval_complex", calls=LOOP):
        vals = [f.eval_complex(points[k % 20]) for k in range(LOOP)]
    ok &= all(np.isfinite(abs(v)) for v in vals)
    g = singdata.normal_form(singdata.sing_class("tE7"))
    lin = [(q(), q(), q(), q(), q()) for _ in range(10)]
    maps = [{"x0": polyalg.MultiPoly(("x0", "x1"), {(1, 0): a, (0, 1): b}),
             "x1": polyalg.MultiPoly(("x0", "x1"), {(1, 0): c, (0, 1): d}),
             "la": la} for a, b, c, d, la in lin]
    with tr.span("polyalg.multipoly_subst", calls=len(maps)):
        images = [g.subst(m) for m in maps]
    x, y = complex(rng.gauss(0, 1), 1), complex(1, rng.gauss(0, 1))
    for (a, b, c, d, la), h in zip(lin, images):
        want = g.eval_complex({"x0": a * x + b * y, "x1": c * x + d * y,
                               "la": complex(la)})
        got = h.eval_complex({"x0": x, "x1": y, "la": 0j})
        ok &= abs(got - want) <= 1e-9 * (1 + abs(want))
    for label in ("E6", "E7", "E8", "tE6", "tE7", "tE8"):
        wsys = singdata.weights(singdata.sing_class(label))
        names = tuple(v for v, _ in wsys.var_weights)
        basis = wsys.monomial_basis(1)
        coef = [[rng.randint(-2, 2) for _ in basis]
                for _ in range(len(basis) + 1)]
        gens = [polyalg.MultiPoly(names, {e: Fraction(c) for e, c in
                                          zip(basis, row)}) for row in coef]
        rank = tr.call("polyalg.graded_piece_rank", polyalg.graded_piece_rank,
                       gens, wsys, 1)
        ok &= rank == np.linalg.matrix_rank(np.array(coef, dtype=float))
    for mu in (2, 3, 4, 5):
        vs = ("x", "y")
        f = polyalg.MultiPoly(vs, {(mu + 1, 0): Fraction(1)})
        for j in range(1, mu + 1):
            f = f + polyalg.MultiPoly(vs, {(j - 1, 0): q()})
        res = tr.call("polyalg.resultant", polyalg.resultant, f.partial("x"),
                      polyalg.MultiPoly(vs, {(0, 1): Fraction(1)}) - f, "x")
        ok &= res.degree("y") == mu
    return ok


def missing_ops(workload, seed, ops):
    """For each op type the batch lacks, the cheapest op of that type (the
    smallest mu) from another workload's batch of the same seed."""
    have = {op.kind.split(":")[0] for op in ops}
    others = [op for other in workloads.WORKLOADS if other != workload
              for op in workloads.build(other, seed)
              if op.kind.split(":")[0] not in have]
    best = {}
    for op in sorted(others, key=lambda o: oracle.MU[o.kind.split(":")[1]]):
        best.setdefault(op.kind.split(":")[0], op)
    return list(best.values())


def te8_psi3(tr):
    """The tE8 psi3 unfolding check: one call, kept out of the batch."""
    from singlat import verify
    t = time.perf_counter()
    passed = tr.call("verify.tE8-psi3", verify.check_unfolding_identity,
                     "tE8", "psi3").passed
    return time.perf_counter() - t, passed


def cli_cold_start(src, runs=3):
    """Median wall time of a fresh ``python -m singlat.cli stokes-count A3``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times, ok = [], True
    for _ in range(runs):
        t = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "singlat.cli",
                              "stokes-count", "A3"], env=env,
                             capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t)
        ok &= out.returncode == 0 and \
            out.stdout == '{"class":"A3","stokes_classes":4}\n'
    return statistics.median(times), ok


def host_calib():
    """Seconds for a fixed pure-Python loop that touches no singlat code:
    tuple hashing into a set, Fraction and integer arithmetic, the
    operations singlat's exact layers are built from.  About 4 ms."""
    t = time.perf_counter()
    seen = set()
    f = Fraction(0)
    for i in range(600):
        seen.add((i % 97, i * 7 % 101, -i % 13, i & 255))
        f += Fraction(i % 11 + 1, i % 7 + 2)
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    return time.perf_counter() - t
