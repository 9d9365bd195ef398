"""Print a fixed battery of exact and numeric outputs, for before/after diffs.

A refactor that claims "same results" runs this on both checkouts and
compares the two outputs byte for byte:

    PYTHONPATH=src python tools/byte_identity.py > after.txt

It records the stdout and exit code of the CLI verbs whose results rest on
the unfoldings or on the numeric llmap kernels (verify-symmetry,
verify-kappa, jacobi-dim, ll-eval for A1 to A6 and on discriminant
members, ll-fiber, wall-walk, counts), with
stderr for vectors holding NaN or Infinity and for a class outside the
count tables; a run that raises prints `-> exception <Type>` in place of
its exit code, and the battery goes on.  It also records the
repr of critical_values_numeric, wall_walk_A (including the default-steps
round trip of a path that passes within 1.65e-5 of the discriminant,
twelve seeded default-steps round trips for mu = 2, 3, 4, the round trips
of three analytic benchmark paths, a path into the discriminant and one
along a wall, which end in errors), the CLI walk of a real path, whose
critical values tie on a wall (exit 1), a mu = 3 walk and an A2
critical-value call whose numbers overflow the float range, and the
symbolic chain-family LL coefficients.  For the lattice kernels it prints, for
every class and for D24 and A28, the characteristic polynomials of the
seed monodromy M and form I, definiteness, radical rank, quasiunipotency
and the determinants of I and of a braid-moved tuple, the stdout, stderr
and exit code of `orbit --seed-file` on two rejected seeds, and
quasiunipotency of seeded companion matrices of cyclotomic products,
perturbed or not, and of Lehmer's polynomial.  For the exact elimination
it prints graded_piece_rank on seeded rational generator sets, full and
rank-deficient, for every graded piece the Jacobi check reads in every
class, and seeded resultants, some of pairs with a common factor.  For
the orbit engine it prints the `orbit` stdout (count, visited, truncated
and the BFS level profile) for every class of the scorecard table in
both modes, each run capped at ORBIT_BUDGET classes;
the desk-scale orbits fit under the cap and run in full.  Last come the
Jacobi dimensions: `jacobi-dim` of 16 classes symbolically, tE6, tE7 and
tE8 at 12 seeded parameters each (of either sign, of height near 10^30,
and 1 +- 10^-20), and graded_piece_rank on seeded generator sets over
Q[la], full and rank-deficient, with a seeded number of leading
generators, and after them `ll-fiber` over seeded square-free targets:
eight A2 targets at the benchmark's budget of 150 starts, four A3 targets
at the default budget, and one A3 target at 40 starts, whose count does
not saturate (exit 3).  Last of all it prints the repr of every stored
symmetry table, phi, psi_shift and psi of each datum of D4 to D8 and tE6
to tE8, polynomials that Cyclo and Laurent arithmetic build.  These 36
lines print `dict(...)` of the datum's read-only views, so they keep their
bytes; since `symmetry_data` builds each class's tables once per process,
they show the shared tables after every check above has read them.  Inputs
are seeded, so the output is deterministic.  The battery takes about 6 s
on a 2-core host.

tests/golden/byte_identity.txt holds this output after a `# numpy <version>`
header line, and tests/test_golden.py compares the two byte for byte.  A
change that moves a line regenerates the file and names each moved line:

    { python -c "import numpy; print('# numpy', numpy.__version__)"
      PYTHONPATH=src python tools/byte_identity.py
    } > tests/golden/byte_identity.txt
"""

import contextlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction

from singlat import cli, lattice, llmap, verify
from singlat.braid import BraidWord, VanishingTuple, braid_apply_word
from singlat.polyalg import MultiPoly, graded_piece_rank, resultant
from singlat.singdata import (ALL_LABELS, seed_stokes, sing_class,
                              symmetry_data, weights)

# A mu = 3 path whose first segment passes within 1.65e-5 of the
# discriminant (the benchmark's known-defect walk): 2000 uniform steps gave
# its round trip a word of exponent sum -8, and the adaptive walk gives the
# word of 1024000 uniform steps, which freely reduces to the empty word.
DEFECT_PATH = (
    (0.9409 + 0.7478j, 0.7288 - 0.4045j, 0.4341 - 0.3422j),
    (0.2149 - 0.1355j, -0.8713 + 1.977j, 0.7238 - 2.0566j),
    (0.8936 - 1.3942j, -0.2321 - 0.5818j, -0.5345 + 0.2408j),
)

# Analytic benchmark walks (seeds 9 and 18, A2; seed 40, A3) whose round
# trips 2000 uniform steps walked to words of exponent sum 13, -10 and -3.
BENCH_PATHS = (
    ((0.8012 + 0.1756j, 1.5158 - 0.5572j),
     (-1.2993 - 1.0449j, -0.8511 + 0.3049j),
     (0.2356 + 0.6407j, -0.6105 + 0.403j)),
    ((0.0775 + 0.6553j, 0.7186 - 0.1474j),
     (-0.5711 + 0.2817j, -0.4091 - 0.6242j),
     (-0.1192 - 0.2387j, 0.2524 + 0.3684j)),
    ((0.5578 - 0.0789j, 0.3404 + 0.2449j, -0.1994 - 0.3002j),
     (-1.3689 - 0.1872j, 0.2191 - 0.7934j, 0.5414 - 1.376j),
     (1.6923 + 0.0634j, -0.938 - 0.0124j, 0.6133 - 0.5131j)),
)

# Chain-family parameters whose configuration polynomial has a multiple
# root.  t_2 = 0 (and t_3 = 0) gives a multiple critical point at 0; an
# even f (t_2 = t_4 = ... = 0) has equal values at critical points +-x.
DISCRIMINANT_MEMBERS = (
    ["5/3", "0"],
    ["0", "0"],
    ["1/2", "0", "-3"],
    ["0", "0", "0", "0"],
    ["2", "0", "-1/3", "0", "5/7"],
    ["-4/9", "0", "0", "3", "1/2", "-2"],
)


# The classes whose Jacobi dimension the battery prints symbolically.
JACOBI_LABELS = ("A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "D7", "D8",
                 "E6", "E7", "E8", "tE6", "tE7", "tE8")

# Classes per orbit run: above every desk-scale orbit (E6 bases, 41472),
# a prefix of the others.
ORBIT_BUDGET = 50000

# Seed files that validation rejects, as (label, upper part).  A4 with all
# six edges plain has the form 3*Id - J, of eigenvalue -1: indefinite.  The
# tree T_{2,3,7} on ten nodes has Lehmer's polynomial as the characteristic
# polynomial of its monodromy, which is not quasiunipotent; a positive
# (semi)definite form forces quasiunipotent monodromy, so the form check
# rejects it first.
REJECTED_SEEDS = (
    ("A4", [[-1, -1, -1], [-1, -1], [-1]]),
    ("A10", [[-1 if j == i + 1 < 9 or (i, j) == (2, 9) else 0
              for j in range(i + 1, 10)] for i in range(9)]),
)


def run_cli(*argv, stderr=False):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = f"exit {cli.main(list(argv))}"
    except Exception as exc:  # the failure itself is part of the output
        status = f"exception {type(exc).__name__}"
    print(f"$ singlat {' '.join(argv)}  -> {status}")
    print(out.getvalue(), end="")
    if stderr:
        for line in err.getvalue().splitlines():
            print(f"[stderr] {line}")


def orbit_outputs():
    """The orbit stdout, for every scorecard class."""
    for label in ALL_LABELS:
        for mode in ("bases", "stokes"):
            argv = ["orbit", label, "--mode", mode,
                    "--budget-states", str(ORBIT_BUDGET)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = cli.main(argv)
            print(f"$ singlat {' '.join(argv)}  -> exit {status}")
            print(out.getvalue(), end="")


def rational_vectors(rng, mu, n):
    """n seeded rational vectors of length mu; every third has zeros."""
    out = []
    for k in range(n):
        t = [str(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
             for _ in range(mu)]
        if k % 3 == 0:
            t[rng.randrange(mu)] = "0"
            t[rng.randrange(mu)] = "0"
        out.append(t)
    return out


def show(label, fn, *args, **kw):
    try:
        result = fn(*args, **kw)
    except Exception as exc:  # the failure itself is part of the output
        result = f"{type(exc).__name__}: {exc}"
    print(f"{label}: {result!r}")


def lattice_outputs(rng):
    for label in ALL_LABELS + ("D24", "A28"):
        s = seed_stokes(label).stokes
        i = lattice.symmetrized_form(s)
        m = lattice.monodromy_from_stokes(s)
        word = BraidWord(tuple(rng.choice((1, -1)) * rng.randint(1, s.mu - 1)
                               for _ in range(12)))
        moved = braid_apply_word(VanishingTuple.standard(s), word)
        print(f"lattice {label}: char_poly(M)={lattice.char_poly(m.rows)} "
              f"char_poly(I)={lattice.char_poly(i.rows)} "
              f"{lattice.definiteness(i)} "
              f"radical_rank={lattice.radical_rank(i)} "
              f"quasiunipotent={lattice.is_quasiunipotent(m)} "
              f"det(I)={lattice.mat_det(i.rows)} "
              f"det(moved)={lattice.mat_det(moved.vectors)}")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # so the printed --seed-file argument is the same
        try:
            rejected_seeds()
        finally:
            os.chdir(home)


def rejected_seeds():
    """Write each rejected seed to ./<label>.json and run orbit on it."""
    for label, upper in REJECTED_SEEDS:
        mu = len(upper) + 1
        s = lattice.StokesMatrix(tuple(
            tuple([0] * k + [1] + (upper[k] if k < mu - 1 else []))
            for k in range(mu)))
        i = lattice.symmetrized_form(s)
        m = lattice.monodromy_from_stokes(s)
        print(f"rejected seed {label}: {lattice.definiteness(i)} "
              f"char_poly(M)={lattice.char_poly(m.rows)} "
              f"quasiunipotent={lattice.is_quasiunipotent(m)}")
        doc = {"class": label, "mu": mu, "upper": upper,
               "source": "rejected-seed battery"}
        with open(label.lower() + ".json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        run_cli("orbit", label, "--seed-file", ".", stderr=True)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def companion(p):
    """Integer companion matrix of the monic ascending coefficients p."""
    n = len(p) - 1
    return tuple(tuple(-p[i] if j == n - 1 else int(i == j + 1)
                       for j in range(n)) for i in range(n))


def quasiunipotent_outputs(rng):
    """is_quasiunipotent on companion matrices of products of cyclotomic
    polynomials, one coefficient of every other one moved by +-1, and of
    Lehmer's polynomial.  The factors are y^d - 1, y^d + 1 and their
    quotients by y - 1 and y + 1, all products of cyclotomics."""
    for k in range(40):
        p = [1]
        while len(p) < 10:
            d, sign = rng.randint(1, 6), rng.choice((1, -1))
            factor = [-sign] + [0] * (d - 1) + [1]    # y^d - sign
            if (sign == 1 or d % 2) and rng.random() < 0.5:
                # divided by y - sign, which then divides y^d - sign
                factor = [sign ** (d - 1 - i) for i in range(d)]
            p = poly_mul(p, factor)
        if k % 2:
            p[rng.randrange(len(p) - 1)] += rng.choice((1, -1))
        print(f"quasiunipotent {tuple(p)}: "
              f"{lattice.is_quasiunipotent(companion(p))}")
    lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    print(f"quasiunipotent Lehmer: "
          f"{lattice.is_quasiunipotent(companion(lehmer))}")


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def combination(rng, polys):
    out = MultiPoly.zero(polys[0].vars)
    for p in polys:
        out = out + p * rational(rng)
    return out


def algebra_outputs(rng):
    """Graded ranks of rational generator sets and resultants."""
    for label in ALL_LABELS:
        wsys = weights(sing_class(label))
        names = tuple(v for v, _ in wsys.var_weights)
        qmax = 1 + max(w for _, w in wsys.var_weights)
        for q in wsys.achievable_degrees(qmax):
            basis = wsys.monomial_basis(q)
            for deficient in (False, True):
                k = rng.randint(1, len(basis) - 1) if deficient and \
                    len(basis) > 1 else rng.randint(1, len(basis) + 1)
                gens = [MultiPoly(names, {e: rational(rng) for e in basis
                                          if rng.random() < 0.7})
                        for _ in range(k)]
                if deficient:
                    gens += [combination(rng, gens)
                             for _ in range(rng.randint(1, 3))]
                show(f"graded_piece_rank {label} q={q} gens={len(gens)}",
                     graded_piece_rank, gens, wsys, q)
    vs = ("x", "a", "b")

    def poly(deg):
        return MultiPoly(vs, {(k, rng.randint(0, 2), rng.randint(0, 1)):
                              rational(rng) for k in range(deg + 1)})

    for k in range(16):
        p, q = poly(rng.randint(1, 3)), poly(rng.randint(1, 3))
        if k % 4 == 0:
            common = MultiPoly(vs, {(1, 0, 0): Fraction(1),
                                    (0, 1, 0): Fraction(-1)})
            p, q = p * common, q * common
        show(f"resultant {k}", lambda: resultant(p, q, "x").format())


def jacobi_outputs(rng):
    """Jacobi dimensions of every class symbolically, and of the elliptic
    classes at seeded parameters: small ones of either sign, heights near
    10^30 and 1 +- 10^-20; then graded ranks of generator sets over Q[la],
    full and rank-deficient, in every piece the Jacobi check reads."""
    for label in JACOBI_LABELS:
        run_cli("jacobi-dim", label)
    tiny = Fraction(1, 10 ** 20)
    for label in ("tE6", "tE7", "tE8"):
        lams = [Fraction(rng.choice((1, -1)) * rng.randint(1, 99),
                         rng.randint(1, 99)) for _ in range(7)]
        lams += [-Fraction(rng.randint(2, 9), rng.randint(11, 19)),
                 Fraction(10 ** 30 + rng.randint(1, 99), rng.randint(2, 9)),
                 Fraction(rng.randint(2, 9), 10 ** 30 + rng.randint(1, 99)),
                 1 + tiny, 1 - tiny]
        for lam in lams:
            show(f"jacobi_dimension {label} at {lam}",
                 verify.jacobi_dimension, label, lam)
    for label in ALL_LABELS:
        wsys = weights(sing_class(label))
        names = tuple(v for v, _ in wsys.var_weights)
        vs = names + ("la",)
        qmax = 1 + max(w for _, w in wsys.var_weights)

        def coefficient():
            return MultiPoly(vs, {(0,) * len(names) + (k,): rational(rng)
                                  for k in range(rng.randint(1, 3))})

        def support(basis):
            return [e for e in basis if rng.random() < 0.7] or basis[:1]

        for q in wsys.achievable_degrees(qmax):
            basis = wsys.monomial_basis(q)
            for deficient in (False, True):
                k = rng.randint(1, len(basis) - 1) if deficient and \
                    len(basis) > 1 else rng.randint(1, len(basis) + 1)
                gens = [sum((MultiPoly(vs, {e + (0,): Fraction(1)})
                             * coefficient() for e in support(basis)),
                            MultiPoly.zero(vs)) for _ in range(k)]
                if deficient:
                    gens += [sum((g * coefficient() for g in gens),
                                 MultiPoly.zero(vs))
                             for _ in range(rng.randint(1, 3))]
                show(f"graded_piece_rank over Q(la) {label} q={q} "
                     f"gens={len(gens)}", graded_piece_rank, gens, wsys, q,
                     lead=rng.randint(0, len(gens)))


def fiber_target(roots):
    """The ll-fiber argument for the monic polynomial with these roots: its
    coefficients below the leading one, ascending, as [re, im] pairs."""
    c = [1]
    for r in roots:
        c = [0] + c
        for i in range(len(c) - 1):
            c[i] -= r * c[i + 1]
    return json.dumps([[complex(x).real, complex(x).imag] for x in c[:-1]])


def fiber_outputs(rng):
    """ll-fiber over seeded targets whose roots lie at least 0.2 apart."""
    def roots(mu):
        while True:
            r = [complex(round(rng.gauss(0, 1), 4), round(rng.gauss(0, 1), 4))
                 for _ in range(mu)]
            if min(abs(a - b) for i, a in enumerate(r) for b in r[:i]) > 0.2:
                return r

    for _ in range(8):
        run_cli("ll-fiber", "A2", fiber_target(roots(2)), "--budget", "150")
    for _ in range(4):
        run_cli("ll-fiber", "A3", fiber_target(roots(3)))
    run_cli("ll-fiber", "A3", fiber_target(roots(3)), "--budget", "40")


def symmetry_tables():
    """The repr of each stored symmetry datum's phi, psi_shift and psi, as
    a dict: the datum holds read-only views of it."""
    for label in ("D4", "D5", "D6", "D7", "D8", "tE6", "tE7", "tE8"):
        for datum in symmetry_data(sing_class(label)):
            for part in ("phi", "psi_shift", "psi"):
                print(f"symmetry_data {label} {datum.label} {part}: "
                      f"{dict(getattr(datum, part))!r}")


def main():
    rng = random.Random(20261018)
    for label in ("D4", "D5", "D6", "D7", "D8", "tE6", "tE7", "tE8"):
        run_cli("verify-symmetry", label)
    for label in ("tE6", "tE7", "tE8"):
        run_cli("verify-kappa", label)
        run_cli("jacobi-dim", label)
        run_cli("jacobi-dim", label, "--at", "2/5")
    for mu in range(2, 6):
        for t in rational_vectors(rng, mu, 24):
            run_cli("ll-eval", f"A{mu}", json.dumps(t))
    # A1 and A6 from their own generator, so the lines above keep their
    # inputs, then discriminant members
    extra = random.Random(20261021)
    for mu, n in ((1, 6), (6, 12)):
        for t in rational_vectors(extra, mu, n):
            run_cli("ll-eval", f"A{mu}", json.dumps(t))
    for t in DISCRIMINANT_MEMBERS:
        run_cli("ll-eval", f"A{len(t)}", json.dumps(t))
    run_cli("ll-fiber", "A2", json.dumps(["3/7", "-2"]), "--budget", "120")
    run_cli("ll-fiber", "A3", json.dumps(["1", "-1/2", "2"]),
            "--budget", "160")
    run_cli("ll-fiber", "A3", json.dumps([[0.4, 0.1], [-0.5, 0.0],
                                          [0.3, 0.2]]))
    # 15 of the 16 points of the fiber over (y - r1)(y - r2)(y - r3) for
    # r = 0.3982-0.2859i, -0.7383+0.1453i, -1.2572-0.3547i: not saturated
    run_cli("ll-fiber", "A3", json.dumps(
        [[-0.41277233710899996, 0.24856545368300006],
         [0.12525311000000006, 0.56633422],
         [1.5973000000000002, 0.49529999999999996]]), "--budget", "120")
    run_cli("wall-walk", "2", json.dumps([[0.3, [1, 0]], [0.3, [0, 1]],
                                          [0.3, [-1, 0]]]), "--steps", "500")
    run_cli("wall-walk", "3", json.dumps(
        [[[0.3049, -0.5892], [0.5335, -0.0508], [0.7508, 0.6878]],
         [[0.6442, 2.0206], [-1.0975, 1.1077], [0.1413, 0.4755]],
         [[-1.1823, -0.74], [0.0654, 0.5675], [-0.4078, -0.0155]]]))
    for argv in (("ll-eval", "A2", "[Infinity,1]"),
                 ("ll-eval", "A2", "[NaN,1]"),
                 ("ll-fiber", "A2", "[NaN,[1,0]]"),
                 ("wall-walk", "2", "[[NaN,0],[1,1]]"),
                 ("wall-walk", "2", "[[1e308,1],[-1e308,1]]", "--steps", "10"),
                 ("wall-walk", "2", "[[0.5,1e308],[0.5,-1e308]]",
                  "--steps", "10")):
        run_cli(*argv, stderr=True)
    # finite waypoints whose derivative coefficient 2 t_3 overflows
    run_cli("wall-walk", "3", "[[0,0,1e308],[0,0,1e307]]", stderr=True)
    show("critical_values_numeric A2 overflow",
         llmap.critical_values_numeric, "A2", [0.5, 1e308])
    for label in ALL_LABELS:
        run_cli("counts", label)
    run_cli("counts", "A1", stderr=True)
    for label in ("A3", "A4", "D4", "D5", "E6", "E8"):
        mu = int(label[1:])
        t = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(mu)]
        show(f"critical_values_numeric {label}",
             llmap.critical_values_numeric, label, t)
    for label, mu in (("tE7", 9), ("tE8", 10)):
        t = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(mu - 1)]
        show(f"critical_values_numeric {label}",
             llmap.critical_values_numeric, label, t, Fraction(-3, 7))
    # its own draw, so every line after it keeps its inputs
    te6 = random.Random(20261025)
    show("critical_values_numeric tE6", llmap.critical_values_numeric, "tE6",
         [complex(te6.uniform(-1, 1), te6.uniform(-1, 1)) for _ in range(7)],
         Fraction(-3, 7))
    # D6-D8 and E7, from their own draw too
    simple = random.Random(20261027)
    for label in ("D6", "D7", "D8", "E7"):
        t = [complex(simple.uniform(-1, 1), simple.uniform(-1, 1))
             for _ in range(int(label[1:]))]
        show(f"critical_values_numeric {label}",
             llmap.critical_values_numeric, label, t)
    for mu in (2, 3, 4):
        path = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(mu)] for _ in range(3)]
        show(f"wall_walk_A {mu}", llmap.wall_walk_A, mu, path, steps=400)
    show("wall_walk_A defect round trip", llmap.wall_walk_A, 3,
         DEFECT_PATH + DEFECT_PATH[-2::-1])
    walks = random.Random(20261022)
    for k in range(12):
        mu = 2 + k % 3
        path = [[complex(walks.uniform(-2, 2), walks.uniform(-2, 2))
                 for _ in range(mu)] for _ in range(3)]
        show(f"wall_walk_A {mu} round trip {k}", llmap.wall_walk_A, mu,
             path + path[-2::-1])
    for k, path in enumerate(BENCH_PATHS):
        show(f"wall_walk_A benchmark round trip {k}", llmap.wall_walk_A,
             len(path[0]), path + path[-2::-1])
    show("wall_walk_A discriminant", llmap.wall_walk_A, 2,
         [[0.3, 1.0], [0.3, -1.0]], steps=100)
    show("wall_walk_A tangential", llmap.wall_walk_A, 2,
         [[0, -1], [1j, -1]], steps=10)
    run_cli("wall-walk", "3", "[[1.5,0.1,0.2],[-0.2,0.8,-2.3]]",
            "--steps", "4", stderr=True)
    for mu in (2, 3, 4):
        # older versions return the Jacobian as a third entry
        tv, coeffs = llmap._symbolic_ll(mu)[:2]
        jac = [[c.partial(tn) for tn in tv] for c in coeffs]
        print(f"_symbolic_ll {mu}: {tv!r} {coeffs!r} {jac!r}")
    lattice_outputs(random.Random(20261019))
    quasiunipotent_outputs(random.Random(20261023))
    algebra_outputs(random.Random(20261020))
    orbit_outputs()
    jacobi_outputs(random.Random(20261024))
    fiber_outputs(random.Random(20261026))
    symmetry_tables()


if __name__ == "__main__":
    main()
