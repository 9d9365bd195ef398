"""The four workloads: seeded inputs, the calls into singlat, and checks.

An op is plain data (kind, args, expect).  ``build(workload, seed)`` makes
one batch of ops from the seed alone; ``Context`` turns the generated
inputs that need singlat (moved starting matrices) into objects at set-up;
``run_op`` makes the public calls, each inside a span when tracing; and
``check_op`` compares the result with the oracle outside the timed span.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from perfbench import oracle

WORKLOADS = ("orbit-stokes", "orbit-bases", "symbolic", "analytic")

# Classes whose seeds every workload loads and validates at set-up.
SEED_LABELS = ("A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "D7", "D8",
               "E6", "E7", "E8", "tE6", "tE7", "tE8")
COUNT_LABELS = ("A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8",
                "tE6", "tE7", "tE8")
JACOBI_LABELS = ("A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "D7", "D8",
                 "E6", "E7", "E8", "tE6", "tE7", "tE8")
ELLIPTIC = ("tE6", "tE7", "tE8")
# Newton starts per fiber count: A2 (3 solutions) needs far fewer than the
# API default of 600, which A3 (16 solutions) keeps.  150 found all 3 on
# 200 of 200 seeded targets and keeps A2 counts short enough that the
# analytic batch repeats often within a run.
FIBER_STARTS = {2: 150, 3: 600}

# One batch per workload: (kind, copies).  Kinds are "<what>:<class>[:...]";
# orbit kinds carry the truncation budget ("-" for a full orbit).  Every
# batch has at least 100 ops, and the copy counts place p50 and p90 inside
# one group of ops of similar length each (see README.md).
MIXES = {
    "orbit-stokes": [
        ("stokes:D4:-", 36), ("stokes:A4:-", 37),
        ("stokes:A5:-", 4), ("stokes:D5:-", 14),
        ("stokes:tE6:300", 2), ("stokes:tE7:300", 2), ("stokes:tE8:300", 2),
        ("stokes:A6:-", 1), ("stokes:D6:-", 1), ("stokes:E6:-", 1),
    ],
    "orbit-bases": [
        ("bases:A4:-", 32), ("bases:D4:-", 36),
        ("bases:E6:500", 5), ("bases:D6:500", 5), ("bases:tE6:500", 16),
        ("bases:tE7:500", 1), ("bases:tE8:500", 1),
        ("bases:A5:-", 2), ("bases:D5:-", 1), ("bases:tE6:5000", 1),
    ],
    "symbolic": (
        [(f"jac:{c}", 1) for c in JACOBI_LABELS]
        + [("jac-at:tE7", 4), ("jac-at:tE8", 40), ("jac-at:tE6", 13)]
        + [(f"symmetry:{c}", 1) for c in ("D4", "D5", "D6", "D7", "D8")
           + ELLIPTIC]
        + [(f"dsym:{c}", 1) for c in ("D4", "D5", "D6", "D7", "D8")]
        + [(f"laproj:{c}:{w}", 1) for c in ELLIPTIC for w in ("psi2", "psi3")]
        + [(f"kappa:{c}", 1) for c in ELLIPTIC]
        + [(f"unfold:{c}:{w}", 1) for c, w in (
            ("tE6", "psi2"), ("tE6", "psi3"), ("tE7", "psi2"),
            ("tE7", "psi3"), ("tE8", "psi2"))]
    ),
    "analytic": [
        ("ll:A2", 4), ("ll:A2:t2=0", 3), ("ll:A3", 4), ("ll:A4", 42),
        ("ll:A5", 6), ("crit:D4", 1), ("crit:D5", 1), ("crit:E6", 1),
        ("crit:E8", 1), ("fiber:A2", 20), ("fiber:A3", 1),
        ("walk:A2", 2), ("walk:A3", 1), ("walk:A3:defect", 1),
    ] + [(f"counts:{c}", 1) for c in COUNT_LABELS],
}


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    expect: object


def _label(kind):
    return kind.split(":")[1]


# ---------------------------------------------------------------------------
# seeded input generation (no singlat calls)
# ---------------------------------------------------------------------------

def _word(rng, mu):
    return tuple(rng.choice((1, -1)) * rng.randint(1, mu - 1)
                 for _ in range(2 * mu))


def _rational(rng):
    """Nonzero, of bounded height, so that op costs vary little by seed."""
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))


def _lam(rng):
    while True:
        lam = _rational(rng)
        if lam != 1:
            return lam


def _gauss(rng, scale=1.0):
    return complex(rng.gauss(0, scale), rng.gauss(0, scale))


def _walk_point(rng, mu):
    return tuple(complex(round(rng.gauss(0, 1), 4), round(rng.gauss(0, 1), 4))
                 for _ in range(mu))


def _make(kind, rng):
    what, label, *rest = kind.split(":")
    mu = oracle.MU[label]
    if what in ("stokes", "bases"):
        budget = None if rest[0] == "-" else int(rest[0])
        classes = oracle.STOKES_CLASSES if what == "stokes" else \
            oracle.BASES_CLASSES
        expect = classes[label] if budget is None else None
        return Op(kind, (label, what, _word(rng, mu), budget), expect)
    if what == "jac":
        return Op(kind, (label,), mu)
    if what == "jac-at":
        return Op(kind, (label, _lam(rng)), mu)
    if what == "symmetry":
        names = ("psi2", "psi3") if label in ELLIPTIC else \
            ("phi2", "phi3") if label == "D4" else ("phi2",)
        return Op(kind, (label,), names)
    if what in ("dsym", "kappa"):
        return Op(kind, (label,), True)
    if what in ("laproj", "unfold"):
        return Op(kind, (label, rest[0]), True)
    if what == "ll":
        if rest == ["t2=0"]:
            return Op(kind, (mu, (_rational(rng), Fraction(0))), True)
        while True:   # generic: critical values well apart
            t = tuple(_rational(rng) for _ in range(mu))
            vals = oracle.chain_critical_values(t)
            if oracle.min_gap(vals) > 1e-3 * max(1.0, *map(abs, vals)):
                return Op(kind, (mu, t), False)
    if what == "fiber":
        while True:   # generic square-free target
            roots = tuple(_gauss(rng) for _ in range(mu))
            if oracle.min_gap(roots) > 0.2:
                return Op(kind, (mu, roots, FIBER_STARTS[mu]),
                          oracle.FIBER_COUNT[mu])
    if what == "crit":
        return Op(kind, (label, tuple(_gauss(rng, 0.5)
                                      for _ in range(_n_unfolding(label)))),
                  mu)
    if what == "walk":
        p = oracle.WALK_DEFECT_PATH if rest == ["defect"] else \
            tuple(_walk_point(rng, mu) for _ in range(3))
        return Op(kind, (mu, p + p[-2::-1]), 0)
    if what == "counts":
        return Op(kind, (label,), oracle.counts_row(label))
    raise ValueError(f"unknown op kind {kind!r}")


def _n_unfolding(label):
    return oracle.MU[label] - 1 if label in ELLIPTIC else oracle.MU[label]


def build(workload, seed):
    """The workload's batch, generated from the seed alone."""
    if workload not in MIXES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return [_make(kind, rng) for kind, copies in MIXES[workload]
            for _ in range(copies)]


# ---------------------------------------------------------------------------
# set-up: seeds, validation, moved starting matrices
# ---------------------------------------------------------------------------

class Context:
    """Seed matrices of every class, validated, and the moved starts."""

    def __init__(self, tr, ops):
        from singlat import lattice, singdata
        self.seeds = {}
        for label in SEED_LABELS:
            s = tr.call("singdata.seed_stokes", singdata.seed_stokes,
                        label).stokes
            m = tr.call("lattice.monodromy_from_stokes",
                        lattice.monodromy_from_stokes, s)
            if not tr.call("lattice.is_quasiunipotent",
                           lattice.is_quasiunipotent, m):
                raise RuntimeError(f"{label}: monodromy not quasiunipotent")
            if tr.call("lattice.char_poly", lattice.char_poly, m.rows) != \
                    oracle.int_char_poly(m.rows):
                raise RuntimeError(f"{label}: char_poly disagrees with numpy")
            self.seeds[label] = s
        self.starts = {}
        self.add_starts(tr, ops)

    def add_starts(self, tr, ops):
        """The moved starting matrix of every orbit op."""
        from singlat import braid
        for op in ops:
            if op.kind.startswith(("stokes:", "bases:")):
                label, _, word, _ = op.args
                if (label, word) not in self.starts:
                    std = braid.VanishingTuple.standard(self.seeds[label])
                    moved = tr.call("braid.braid_apply_word",
                                    braid.braid_apply_word, std,
                                    braid.BraidWord(word))
                    self.starts[label, word] = tr.call(
                        "braid.stokes_of_tuple", braid.stokes_of_tuple, moved)


# ---------------------------------------------------------------------------
# the calls into singlat
# ---------------------------------------------------------------------------

def transitions(label, report):
    """Braid transitions tried: every expanded state, every generator."""
    return report.states_visited * 2 * (oracle.MU[label] - 1)


def run_op(tr, ctx, op, cheap=False):
    """Make the op's public calls.  ``cheap`` gives the warm-up variant:
    the same code path on a small budget."""
    from singlat import braid, degrees, llmap, singdata, verify
    what = op.kind.split(":")[0]
    a = op.args
    if what in ("stokes", "bases"):
        label, mode, word, budget = a
        rep = tr.call("braid.orbit_enumerate", braid.orbit_enumerate,
                      ctx.starts[label, word], mode,
                      max_states=20 if cheap else budget)
        tr.annotate(transitions=transitions(label, rep),
                    classes=rep.class_count)
        return rep
    if what in ("jac", "jac-at"):
        return tr.call("verify.jacobi_dimension", verify.jacobi_dimension, *a)
    if what == "symmetry":
        data = tr.call("singdata.symmetry_data", singdata.symmetry_data,
                       singdata.sing_class(a[0]))
        return tuple(d.label for d in data)
    if what == "dsym":
        return tr.call("verify.check_simple_symmetry",
                       verify.check_simple_symmetry, *a).passed
    if what == "laproj":
        return tr.call("verify.check_lambda_projection",
                       verify.check_lambda_projection, *a).passed
    if what == "kappa":
        return tr.call("verify.check_kappa_extension",
                       verify.check_kappa_extension, *a).passed
    if what == "unfold":
        return tr.call("verify.check_unfolding_identity",
                       verify.check_unfolding_identity, *a).passed
    if what == "ll":
        mu, t = a
        p = tr.call("llmap.ll_exact_A", llmap.ll_exact_A, mu, t)
        return p, tr.call("llmap.discriminant_member",
                          llmap.discriminant_member, p)
    if what == "fiber":
        mu, roots, starts = a
        target = llmap.LLPoint(tuple(complex(c)
                                     for c in reversed(np.poly(roots))))
        fc = tr.call("llmap.ll_fiber_count", llmap.ll_fiber_count, f"A{mu}",
                     target, budget=4 if cheap else starts)
        tr.annotate(solutions=fc.count, starts=fc.starts)
        return fc
    if what == "crit":
        return tr.call("llmap.critical_values_numeric",
                       llmap.critical_values_numeric, *a)
    if what == "walk":
        return tr.call("llmap.wall_walk_A", llmap.wall_walk_A, *a,
                       **({"steps": 50} if cheap else {}))
    if what == "counts":
        return tr.call("degrees.counts_row", degrees.counts_row, a[0])
    raise ValueError(f"unknown op kind {op.kind!r}")


def check_op(op, result):
    """True when the result equals the op's known answer."""
    what = op.kind.split(":")[0]
    if what in ("stokes", "bases"):
        label, _, _, budget = op.args
        if budget is None:
            return not result.truncated and result.class_count == op.expect
        return oracle.truncation_ok(result, budget, oracle.MU[label])
    if what == "ll":
        p, member = result
        _, t = op.args
        if member is not op.expect or p.coeffs[-1] != 1 or \
                not all(isinstance(c, Fraction) for c in p.coeffs):
            return False
        roots = np.roots([float(c) for c in reversed(p.coeffs)])
        return oracle.same_points(list(roots), oracle.chain_critical_values(t))
    if what == "fiber":
        return result.count == op.expect
    if what == "crit":
        vals = result.values
        return len(vals) == op.expect and \
            all(math.isfinite(abs(v)) for v in vals) and \
            oracle.min_gap(vals) > 1e-9
    if what == "walk":
        return oracle.exponent_sum(result) == op.expect
    return result == op.expect


def warmup_ops(ops):
    """One op per kind; symbolic checks warm once per checked function, on
    the class with the smallest mu."""
    seen = {}
    for op in sorted(ops, key=lambda o: (o.kind.split(":")[0],
                                         oracle.MU[_label(o.kind)])):
        what = op.kind.split(":")[0]
        key = what if what in ("jac", "jac-at", "symmetry", "dsym", "laproj",
                               "kappa", "unfold") else op.kind
        seen.setdefault(key, op)
    return list(seen.values())
