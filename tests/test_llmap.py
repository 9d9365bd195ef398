import cmath
import hashlib
import itertools
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singlat import llmap
from singlat.braid import VanishingTuple, braid_apply, braid_apply_word, \
    sign_canonical_stokes, sign_canonical_tuple, stokes_of_tuple
from singlat.degrees import deg_ll_simple, gz_order
from singlat.lattice import StokesMatrix, char_poly
from singlat.llmap import (TOL_DEDUP, TOL_DISC, TOL_WALL, WALK_CHUNK,
                           LLPoint, WalkStats, _compile, _ll_compiled,
                           _ll_system, _matched, _multiplication_plan,
                           _newton_steps, _path_values, _separations,
                           _solve, _start_table, _steps_ok, _symbolic_ll,
                           _system, _velocities, _walk, _walk_points,
                           _walk_values,
                           critical_values_numeric, discriminant_member,
                           good_order, ll_exact_A, ll_fiber_count,
                           wall_walk_A)
from singlat.polyalg import MultiPoly, macaulay, resultant
from singlat.singdata import (jacobi_system, normal_form, sing_class,
                              unfolding, unfolding_monomials, weights)
from singlat.verify import jacobi_dimension


def match_sets(a, b):
    rem = list(b)
    worst = 0.0
    for x in a:
        k = min(range(len(rem)), key=lambda i: abs(rem[i] - x))
        worst = max(worst, abs(rem.pop(k) - x))
    return worst


class TestExactMap:
    def test_a2_closed_form(self):
        t1, t2 = F(5, 7), F(-3, 2)
        p = ll_exact_A(2, (t1, t2))
        assert p.coeffs == (t1 * t1 + F(4, 27) * t2 ** 3, -2 * t1, F(1))

    def test_a2_degenerate_double_root(self):
        t1 = F(9, 4)
        p = ll_exact_A(2, (t1, 0))
        assert p.coeffs == (t1 * t1, -2 * t1, F(1))
        assert discriminant_member(p)

    def test_numeric_cross_check(self):
        rng = random.Random(23)
        for mu in (3, 4):
            n = 0
            while n < 12:
                t = [F(rng.randint(-15, 15), rng.randint(1, 8))
                     for _ in range(mu)]
                p = ll_exact_A(mu, t)
                if discriminant_member(p):
                    continue
                cd = critical_values_numeric(f"A{mu}", t)
                assert match_sets(p.roots(), cd.values) < 1e-10
                n += 1

    def test_euler_scaling_equivariance(self):
        # scaling t_j by c^(deg_w t_j * (mu+1)) scales all critical values
        # by c^(mu+1)
        rng = random.Random(29)
        for mu in (2, 3, 4):
            w = weights(sing_class(f"A{mu}"))
            t = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(mu)]
            c = F(3, 2)
            scaled = [tj * c ** int(w.t_weights[j] * (mu + 1))
                      for j, tj in enumerate(t)]
            p = ll_exact_A(mu, t)
            q = ll_exact_A(mu, scaled)
            # roots of q = c^(mu+1) * roots of p: compare coefficients
            factor = c ** (mu + 1)
            expect = tuple(p.coeffs[k] * factor ** (mu - k)
                           for k in range(mu + 1))
            assert q.coeffs == expect

    def test_matches_symbolic_map(self):
        # the exact map at t equals the symbolic coefficients evaluated at t
        rng = random.Random(37)
        for mu in (2, 3, 4):
            tv, coeffs = _symbolic_ll(mu)
            for k in range(10):
                t = [F(rng.randint(-9, 9), rng.randint(1, 6))
                     for _ in range(mu)]
                if k % 2 == 0:
                    t[rng.randrange(mu)] = F(0)
                at = dict(zip(tv, t))
                want = [c.subst(at).terms.get((), F(0)) for c in coeffs]
                assert ll_exact_A(mu, t).coeffs == tuple(want) + (F(1),), t

    def test_discriminant_examples(self):
        assert not discriminant_member(LLPoint((F(2), F(-3), F(1))))
        assert discriminant_member(LLPoint((F(0), F(0), F(1))))
        # in the discriminant iff t2 = 0 on the t1 = 0 axis
        assert discriminant_member(ll_exact_A(2, (0, 0)))
        assert not discriminant_member(ll_exact_A(2, (0, 1)))
        # all-zero t: y^mu, a multiple root from mu = 2 on
        for mu in range(1, 7):
            assert discriminant_member(ll_exact_A(mu, [0] * mu)) == (mu > 1)


def resultant_ll(mu, t):
    """The configuration polynomial as the monic Res_x(f', y - f), a
    construction independent of the characteristic polynomial; t holds
    Fractions or, with t = None, the parameters stay variables."""
    cls = sing_class(f"A{mu}")
    f = unfolding(cls)
    if t is not None:
        f = f.subst({tn: F(v) for tn, v in zip(cls.tvars, t)})
    f = f.with_vars(("x0", "y") + tuple(v for v in f.vars if v != "x0"))
    res = resultant(f.partial("x0"), MultiPoly.var("y", f.vars) - f, "x0")
    (_, lead), = res.coeff_of("y", mu).terms.items()
    return [res.coeff_of("y", k) * (1 / lead) for k in range(mu + 1)]


def poly_mul(a, b):
    """Product of two ascending coefficient tuples."""
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


_rationals = st.one_of(st.just(F(0)), st.fractions(
    min_value=-9, max_value=9, max_denominator=7))


@st.composite
def chain_parameters(draw, mus=(1, 2, 3, 4, 5, 6)):
    mu = draw(st.sampled_from(mus))
    return mu, draw(st.lists(_rationals, min_size=mu, max_size=mu))


class TestCharacteristicPolynomial:
    """The Stickelberger construction against the resultant one, and
    discriminant membership against sympy (a test-only oracle)."""

    @settings(max_examples=60, deadline=None)
    @given(chain_parameters())
    def test_matches_resultant(self, case):
        mu, t = case
        want = [c.terms.get((), F(0)) for c in resultant_ll(mu, t)]
        assert ll_exact_A(mu, t).coeffs == tuple(want)

    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_symbolic_matches_resultant(self, mu):
        tv, coeffs = _symbolic_ll(mu)
        want = resultant_ll(mu, None)
        assert want[mu] == 1
        for got, c in zip(coeffs, want):
            assert got.vars == tv
            assert got.terms == c.with_vars(tv).terms

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(
        # generic monic polynomials of degree 1..6
        st.lists(_rationals, min_size=1, max_size=6).map(
            lambda cs: LLPoint(tuple(cs) + (F(1),))),
        # (y - a)^2 q: always in the discriminant
        st.tuples(_rationals, st.lists(_rationals, max_size=4)).map(
            lambda aq: LLPoint(poly_mul((aq[0] ** 2, -2 * aq[0], F(1)),
                                        tuple(aq[1]) + (F(1),)))),
        # chain-family images, among them t2 = 0 and all-zero t
        chain_parameters().map(lambda c: ll_exact_A(*c)),
        chain_parameters((2, 3, 4, 5)).map(
            lambda c: ll_exact_A(c[0], [c[1][0], F(0)] + c[1][2:]))))
    def test_discriminant_matches_sympy(self, p):
        sympy = pytest.importorskip("sympy")
        y = sympy.Symbol("y")
        poly = sum(sympy.Rational(c.numerator, c.denominator) * y ** k
                   for k, c in enumerate(map(F, p.coeffs)))
        assert discriminant_member(p) == (sympy.discriminant(poly, y) == 0)

    @pytest.mark.parametrize("mu", [1, 2, 3, 4, 5, 6])
    def test_matches_sympy_resultant(self, mu):
        # the integer kernel against sympy's monic Res_x(f', y - f), on
        # seeded rationals among them zero, negative and large-denominator
        # parameters
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        rng = random.Random(71 + mu)
        pool = [F(0), F(-3), F(1, 10 ** 6 + 3), F(-7, 10 ** 6 + 3),
                F(10 ** 9 + 7, 13), F(-5, 8)]
        for k in range(4):
            t = [rng.choice(pool) if k % 2 else
                 F(rng.randint(-40, 40), rng.randint(1, 10 ** 4))
                 for _ in range(mu)]
            f = x ** (mu + 1) + sum(sympy.Rational(v.numerator, v.denominator)
                                    * x ** j for j, v in enumerate(t))
            res = sympy.Poly(sympy.resultant(sympy.diff(f, x), y - f, x), y)
            want = [F(int(c.p), int(c.q))
                    for c in reversed(res.monic().all_coeffs())]
            assert ll_exact_A(mu, t).coeffs == tuple(want), t

    @settings(max_examples=60, deadline=None)
    @given(chain_parameters(), st.fractions(min_value=-5, max_value=5,
                                            max_denominator=9)
           .filter(lambda s: s != 0))
    def test_weighted_scaling(self, case, s):
        # t_j of weight mu+2-j: c_k, of weight (mu+1)(mu-k), scales by
        # s^((mu+1)(mu-k)), and so the discriminant is kept
        mu, t = case
        p = ll_exact_A(mu, t)
        q = ll_exact_A(mu, [v * s ** (mu + 2 - j) for j, v in enumerate(t, 1)])
        assert q.coeffs == tuple(c * s ** ((mu + 1) * (mu - k))
                                 for k, c in enumerate(p.coeffs))
        assert discriminant_member(q) == discriminant_member(p)

    def test_kernel_matrices_integral(self, monkeypatch):
        # the weighted scaling leaves char_poly nothing but ints and
        # integer-coefficient MultiPolys
        seen = []

        def recording(m):
            seen.append(m)
            return char_poly(m)

        monkeypatch.setattr(llmap, "char_poly", recording)
        rng = random.Random(73)
        for mu in range(1, 7):
            for _ in range(5):
                ll_exact_A(mu, [F(rng.randint(-9, 9), rng.choice(
                    [1, 4, 9, 10 ** 6 + 3])) for _ in range(mu)])
        for mu in range(1, 5):
            _symbolic_ll.__wrapped__(mu)
        assert len(seen) == 6 * 5 + 4
        for m in seen:
            for x in itertools.chain.from_iterable(m):
                if isinstance(x, MultiPoly):
                    assert all(F(c).denominator == 1 for c in x.terms.values())
                else:
                    assert type(x) is int


class TestRoots:
    @pytest.mark.parametrize("coeffs", [
        (F(-6), F(11), F(-6), F(1)),          # (y - 1)(y - 2)(y - 3)
        (F(0), F(0), F(2), F(-3), F(1)),     # y^2 (y - 1)(y - 2)
        (F(0), F(1)),
        (F(1),),
    ])
    def test_match_np_roots(self, coeffs):
        # the companion kernel deflates trailing zeros as np.roots does
        got = LLPoint(coeffs).roots()
        want = np.roots([complex(c) for c in reversed(coeffs)])
        assert len(got) == len(want) == len(coeffs) - 1
        assert match_sets(got, want) < 1e-12

    def test_non_finite_coefficient_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                LLPoint((complex("inf"), 0, 1)).roots()


class TestGoodOrder:
    def test_rule_application(self):
        vals = [2 + 1j, 0 + 0j, 1 + 1j]
        sigma = good_order(vals)
        assert [vals[k] for k in sigma] == [0, 2 + 1j, 1 + 1j]

    def test_sorted_input_identity(self):
        vals = [0 - 1j, 2 + 0j, 1 + 0j, 0 + 3j]
        assert good_order(vals) == (0, 1, 2, 3)

    def test_collision_error(self):
        with pytest.raises(ValueError):
            good_order([1 + 1j, 1 + 1j, 0j])

    def test_real_shift_invariance(self):
        rng = random.Random(31)
        for _ in range(25):
            vals = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    for _ in range(5)]
            shifted = [v + 17.25 for v in vals]
            assert good_order(vals) == good_order(shifted)

    def test_conjugation_rule(self):
        # conjugating all values and then negating the imaginary parts is
        # the identity on the data, so the permutation recomputed from the
        # ordering rule is unchanged
        rng = random.Random(37)
        for _ in range(25):
            vals = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    for _ in range(4)]
            conj = [v.conjugate() for v in vals]
            transformed = [complex(v.real, -v.imag) for v in conj]
            assert good_order(vals) == good_order(transformed)


class TestNumericCriticalValues:
    @pytest.mark.parametrize("label,t", [
        ("A2", [0.5, 1e308]),        # finite coefficients, values beyond
        ("A3", [0.0, 0.0, 1e308]),   # the derivative's 2 t_3 overflows
        ("E6", [0, 0, 0, 0, 0, 1e308]),
        ("tE8", [0] * 8 + [1e308]),
    ])
    def test_overflow_raises_without_warnings(self, label, t):
        # one ValueError from the kernel, and no numpy warning on the way
        lam = F(2, 5) if sing_class(label).is_elliptic else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                critical_values_numeric(label, t, lam)

    def test_a2_hand_solved(self):
        cd = critical_values_numeric("A2", [0, -3])
        vs = sorted(cd.values, key=lambda z: z.real)
        assert abs(vs[0] + 2) < 1e-12 and abs(vs[1] - 2) < 1e-12

    def test_d4_count(self):
        cd = critical_values_numeric(
            "D4", [F(1, 3), F(-2, 5), F(1, 2), F(2, 7)])
        assert len(cd.values) == 4

    def test_e6_count(self):
        cd = critical_values_numeric(
            "E6", [F(1, 3), F(-2, 5), F(1, 2), F(2, 7), F(-1, 4), F(3, 5)])
        assert len(cd.values) == 6

    @pytest.mark.parametrize("label,t,lam", [
        ("D4", [0.1, 0.2], None),
        ("D4", [0.1, 0.2, 0.3, 0.4, 9.9], None),
        ("A2", [0.1], None),
        ("A2", [0.1, 0.2, 5.0], None),
        ("tE7", [0.1] * 7, F(-3, 7)),
        ("tE7", [0.1] * 8, None),
        ("tE6", [0.1] * 7, 0),
        ("tE8", [0.1] * 9, F(1)),
    ])
    def test_wrong_arity_rejected(self, label, t, lam):
        with pytest.raises(ValueError, match="parameter"):
            critical_values_numeric(label, t, lam)

    @pytest.mark.parametrize("label,t,lam", [
        ("D4", [0.1, 0.2, 0.3, 0.4], 0.5),
        ("A2", [0.1, 0.2], 7),
        ("E6", [0.1] * 6, F(2, 5)),
    ])
    def test_lam_for_simple_class_rejected(self, label, t, lam):
        # an ADE class has no family parameter, as in
        # verify.jacobi_dimension
        with pytest.raises(ValueError, match="no family parameter"):
            critical_values_numeric(label, t, lam)
        with pytest.raises(ValueError, match="no family parameter"):
            jacobi_dimension(label, lam)

    @pytest.mark.parametrize("label,t,want", [
        ("D4", [0, 0, 0, 0], 0),          # the singularity itself
        ("E6", [5, 0, 0, 0, 0, 0], 5),    # f + 5: one critical point, mu = 6
    ])
    def test_degenerate_parameters(self, label, t, want):
        # defined at every parameter: mu values with multiplicity, no order
        cd = critical_values_numeric(label, t)
        assert len(cd.values) == sing_class(label).mu and cd.sigma is None
        assert all(abs(v - want) < 1e-9 for v in cd.values), cd.values

    @pytest.mark.parametrize("label,a,b", [("E6", 3, 2), ("E8", 4, 2)])
    def test_separated_variables(self, label, a, b):
        # with the mixed monomials' parameters at 0, F is
        # g(x0) + h(x1) + t1 for chain unfoldings g of A_a and h of A_b,
        # so the values are the pairwise sums of their chain values
        rng = random.Random(67 + a)
        expos = [next(iter(m.terms))
                 for m in unfolding_monomials(sing_class(label))]
        for _ in range(5):
            t = {e: 0 if all(e) else complex(rng.gauss(0, 1), rng.gauss(0, 1))
                 for e in expos}
            ga = [0] + [t[k, 0] for k in range(1, a)]
            hb = [t[0, 0], t[0, 1]]
            want = [u + v for u in _walk_values(a, np.array([ga]))[0]
                    for v in _walk_values(b, np.array([hb]))[0]]
            got = critical_values_numeric(label, [t[e] for e in expos]).values
            scale = max(map(abs, want))
            assert match_sets(want, got) <= 1e-12 * scale, t

    @pytest.mark.parametrize("label", [
        "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "D7", "D8", "E6",
        "E7", "E8", "tE6", "tE7", "tE8"])
    def test_multiplication_plan_matches_products(self, label):
        # A and d are the plan's views of jacobi_system.  B is built here
        # from sympy's expansion of each F b_i: a term c x^a p goes to the
        # row of x^a among weights(cls).monomials(D) and the slab of its
        # factor p, one of 1, t_1, .., la in that order
        sympy = pytest.importorskip("sympy")
        cls = sing_class(label)
        wsys = weights(cls)
        basis, degrees, _, entries = jacobi_system(cls)
        x = sympy.symbols(cls.xvars)
        p = sympy.symbols(cls.tvars + (("la",) if cls.is_elliptic else ()))

        def sym(m):
            syms = [sympy.Symbol(v) for v in m.vars]
            return sum(sympy.Rational(c.numerator, c.denominator)
                       * sympy.prod([s ** e for s, e in zip(syms, expo)])
                       for expo, c in m.terms.items())

        f = sym(normal_form(cls))
        ms = [sym(m) for m in unfolding_monomials(cls)]
        Fs = f + sum(t * m for t, m in zip(p, ms))
        bs = ms + ([sympy.diff(f, p[-1])] if cls.is_elliptic else [])
        D = 1 + max(wsys.poly_degree(b) for b in basis)
        row = {e: r for r, (e, _) in enumerate(wsys.monomials(D))}
        want_B = np.zeros((1 + len(p), len(row), len(bs)))
        for i, b in enumerate(bs):
            terms = sympy.Poly(sympy.expand(Fs * b), *x, *p).terms()
            for expo, c in terms:
                a, e = expo[:len(x)], expo[len(x):]
                assert sum(e) <= 1   # F b is affine in (t, la)
                want_B[e.index(1) + 1 if sum(e) else 0, row[a], i] = float(c)
        at = {((str(v), 1),): k for k, v in enumerate(p, 1)}
        at[()] = 0
        keep = {j: k for k, j in enumerate(
            j for j, q in enumerate(degrees) if q <= D)}
        A, B, d = _multiplication_plan(cls)
        want_A = np.zeros(A.shape)
        for key, block in entries.items():
            for (r, j), c in block.items():
                if j in keep:
                    want_A[at[key], r, keep[j]] = float(c)
        assert np.array_equal(A, want_A) and np.array_equal(B, want_B)
        assert np.array_equal(d, [float(w) for w in wsys.t_weights])

    @pytest.mark.parametrize("label", ["A3", "D4", "D5", "E6", "E7", "E8",
                                       "tE6", "tE7", "tE8"])
    def test_monomial_columns_equal_their_products(self, label):
        # a monic monomial b = x^a taken as the column (a, F) has the exact
        # macaulay entries of the multiplied-out column F b that the plan
        # uses, so the one column rule leaves the float plan as it was
        cls = sing_class(label)
        wsys, Fu = weights(cls), unfolding(cls)
        basis, degrees, _, _ = jacobi_system(cls)
        D = 1 + max(degrees[-len(basis):])
        zero = (0,) * cls.nvars
        shifted = [(a, Fu) if b.vars == cls.xvars and b.terms == {a: 1}
                   else (zero, Fu * b)
                   for b in basis for a in [next(iter(b.terms))]]
        assert sum(a != zero for a, _ in shifted) >= len(basis) - 2
        assert macaulay(shifted, wsys, D) == \
            macaulay([(zero, Fu * b) for b in basis], wsys, D)

    @pytest.mark.parametrize("label", ["D4", "D5", "E6", "E7", "E8", "tE6",
                                       "tE7", "tE8"])
    def test_seeded_rational_parameters(self, label):
        # mu finite values at every seeded input, and Euler's relation: at
        # s^deg t the critical values are s times those at t.  The bound is
        # relative to the largest value; inputs with one value 10^6 times
        # the others agree to a few 1e-9.
        cls = sing_class(label)
        lam = F(2, 5) if cls.is_elliptic else None
        rng = random.Random(71)
        deg = weights(cls).t_weights
        for _ in range(25):
            t = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in deg]
            got = critical_values_numeric(label, t, lam).values
            assert len(got) == cls.mu and all(map(cmath.isfinite, got))
            scaled = critical_values_numeric(
                label, [v * 2 ** float(d) for v, d in zip(t, deg)],
                lam).values
            scale = max(map(abs, got))
            assert match_sets([2 * v for v in got], scaled) <= 1e-7 * scale

    # seeded tE7 parameters with a far critical point, which a multistart
    # Newton from gauss(0, 1.5) starts misses
    @pytest.mark.parametrize("t", [
        ((-0.0249 + 0.4401j), (-0.5632 - 0.3202j), (-0.3476 + 0.1723j),
         (0.2302 + 0.717j), (0.53 + 0.0088j), (0.0603 - 0.719j),
         (0.7199 - 0.2537j), (-0.1971 + 0.7219j)),
        ((0.2851 - 0.3578j), (0.1807 + 0.4583j), (0.2617 - 0.1743j),
         (1.0842 + 0.5609j), (-0.6153 - 0.3124j), (0.1751 + 0.1805j),
         (-0.4049 + 0.484j), (-0.6657 + 0.6869j)),
    ])
    def test_far_critical_point_found(self, t):
        cd = critical_values_numeric("tE7", t, F(-3, 7))
        assert len(cd.values) == 9 and cd.sigma is not None

    @pytest.mark.parametrize("mu", [1, 2, 3, 4, 5])
    def test_chain_values_are_a_walk_row(self, mu):
        # the walk's kernel is the only chain-family root finder: the values
        # equal, bit for bit, that parameter's row in a stacked walk chunk
        rng = random.Random(59 + mu)
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(mu)]
                for _ in range(6)]
        rows += [[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                  for _ in range(mu)] for _ in range(6)]
        chunk = list(_walk_values(
            mu, np.array([[complex(v) for v in t] for t in rows])))
        for t, walked in zip(rows, chunk):
            alone = _walk_values(mu, np.array([[complex(v) for v in t]]))[0]
            got = critical_values_numeric(f"A{mu}", t).values
            assert got == tuple(walked) == tuple(alone), t

    # good-ordered critical values recorded from a damped scalar Newton
    # multistart
    @pytest.mark.parametrize("label,t,want", [
        ("D4",
         ((-0.7788 - 0.7055j), (-0.759 + 0.2128j), (0.5594 - 0.2338j),
          (-0.0818 - 0.8027j)),
         ((-0.7295181634454858 - 1.2348468180640282j),
          (-1.2608058225802221 - 1.058568183948345j),
          (-0.4781327721240826 - 0.08571159708850803j),
          (-0.4677793331785059 - 0.08203439784148892j))),
        ("D5",
         ((0.0861 - 0.1065j), (0.8271 + 1.4888j), (-0.0078 - 0.3888j),
          (-0.0145 - 0.3041j), (-0.3443 + 0.4149j)),
         ((-0.07755690577512984 - 1.5157646388736072j),
          (0.8131950281095857 - 1.249439765870762j),
          (-1.2708270227182288 + 0.3423132201329258j),
          (0.7851370674061859 + 0.38735304042470975j),
          (0.06355833378345482 + 1.408926585565873j))),
        ("E6",
         ((0.0362 + 0.2703j), (-0.7208 - 0.0342j), (-0.3055 + 0.6682j),
          (0.1672 - 0.019j), (-0.0386 + 0.2144j), (-0.2276 - 0.4629j)),
         ((0.19978839102592005 - 0.3660504490471085j),
          (-0.2216338551112531 - 0.007059535445635243j),
          (0.14937147598168227 + 0.2850678232679995j),
          (-0.02408718815262699 + 0.43379153934012327j),
          (-0.22675294466097182 + 0.4972376099158081j),
          (0.279642351346592 + 0.7373014312102445j))),
        ("E8",
         ((-0.3498 + 0.14j), (0.1425 - 0.8313j), (-0.8829 + 0.3029j),
          (0.0543 + 0.4561j), (0.3472 - 0.0944j), (0.0789 + 0.1005j),
          (-0.4347 - 0.8187j), (0.5404 + 0.1821j)),
         ((-0.052167407368800676 - 0.36814360846984917j),
          (0.26740720746690894 - 0.1984803983365746j),
          (-0.008182108256225722 - 0.172663011814815j),
          (-0.3893448630991759 - 0.005964155298958683j),
          (-1.0509532080827537 + 0.005708507481240091j),
          (-1.0222369657359296 + 0.4937783869936851j),
          (0.0806561179318594 + 0.7971142110661193j),
          (-0.42498717263003355 + 0.9634354181835931j))),
        ("tE7",
         ((-0.3546 + 0.2701j), (0.0467 + 0.4903j), (0.7125 + 0.8755j),
          (0.1944 + 0.5876j), (-0.4636 - 0.5663j), (-0.6006 + 0.0978j),
          (0.2844 - 0.1201j), (0.1296 + 0.4038j)),
         ((-1.6988996068779547 - 1.8262305531494691j),
          (0.3194825735955638 - 1.535659443312264j),
          (-0.6517370253428372 - 1.205711291456714j),
          (3.5522830584045897 - 0.9832999969538403j),
          (0.3087196078969381 - 0.7612035547180217j),
          (-0.5736884765402219 + 0.6945662280570941j),
          (-0.2936248672586788 + 0.7742370981134141j),
          (0.4373169876160169 + 1.19079785917433j),
          (-0.9273053744092513 + 1.3888566169064291j))),
        ("tE8",
         ((-0.0322 - 0.5238j), (-0.1546 + 0.1281j), (0.5094 + 0.5173j),
          (0.0734 + 0.5506j), (0.0334 + 0.4304j), (0.3933 + 1.0189j),
          (-0.4109 - 0.4057j), (0.1255 + 0.9434j), (-0.2483 - 0.1009j)),
         ((1.5962998222814857 - 2.050652861888496j),
          (-2.7012404525298557 - 1.3550591882711682j),
          (-1.3714533890505924 - 1.0882683197130707j),
          (0.3374934658605985 - 0.8641913923693905j),
          (0.4607425655087559 - 0.7631450541429623j),
          (-0.039255765569513934 - 0.7289851260738097j),
          (0.19321466072795873 - 0.576687783297284j),
          (-0.09686589537954156 - 0.5746053610095633j),
          (0.19397603905861777 - 0.5120037569207629j),
          (-1.2369906681260743 + 1.034424011152786j))),
    ], ids=["D4", "D5", "E6", "E8", "tE7", "tE8"])
    def test_two_variable_values_pinned(self, label, t, want):
        lam = F(-3, 7) if label.startswith("t") else None
        cd = critical_values_numeric(label, t, lam)
        got = [cd.values[k] for k in cd.sigma]
        assert len(got) == len(want)
        err = max(abs(a - b) for a, b in zip(got, want))
        assert err <= 1e-12 * max(map(abs, want))


class TestFiberCount:
    def test_a2_saturates_at_three(self):
        rng = random.Random(41)
        for _ in range(3):
            t = (F(rng.randint(1, 9), 7), F(rng.randint(1, 9), 5))
            tgt = ll_exact_A(2, t)
            p = LLPoint(tuple(complex(c) for c in tgt.coeffs[:-1]) + (1,))
            fc = ll_fiber_count("A2", p, budget=200)
            assert fc.count == 3 and fc.saturated

    def test_a3_saturates_at_sixteen(self):
        tgt = ll_exact_A(3, (F(2, 3), F(-1, 2), F(3, 7)))
        p = LLPoint(tuple(complex(c) for c in tgt.coeffs[:-1]) + (1,))
        fc = ll_fiber_count("A3", p, budget=800)
        assert fc.count == 16 and fc.saturated

    def test_degree_read_once_per_class(self, monkeypatch):
        # the saturation target deg LL is an int built once per class; no
        # count shares a DegreeBreakdown
        calls = []

        def counted(cls):
            calls.append(cls.label)
            return deg_ll_simple(cls)
        monkeypatch.setattr(llmap, "deg_ll_simple", counted)
        llmap._deg_ll.cache_clear()
        targets = {"A2": target_from_roots((1, -1)),
                   "A3": target_from_roots((1, -1, 2))}
        for label in ("A2", "A3", "A2", "A3"):
            ll_fiber_count(label, targets[label], budget=20)
        assert calls == ["A2", "A3"]
        assert [llmap._deg_ll(sing_class(x)) for x in ("A2", "A3")] == [3, 16]
        assert type(llmap._deg_ll(sing_class("A2"))) is int
        llmap._deg_ll.cache_clear()

    def test_double_root_flagged(self):
        with pytest.raises(ValueError):
            ll_fiber_count("A2", LLPoint((0j, 0j, 1)), budget=10)

    def test_unsupported_rank(self):
        with pytest.raises(ValueError):
            ll_fiber_count("A4", LLPoint((1j, 0j, 0j, 0j, 1)), budget=10)

    @pytest.mark.parametrize("budget", [0, -4, True, False, 2.5, 8.0, "8",
                                        None])
    def test_empty_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            ll_fiber_count("A2", target_from_roots((1, -1)), budget=budget)

    def test_numpy_integer_budget(self):
        p = target_from_roots((1, -1))
        assert ll_fiber_count("A2", p, budget=np.int64(40)) == \
            ll_fiber_count("A2", p, budget=40)

    # (count, len(solutions)) of the per-start Newton loop this batched one
    # replaced, at the same seeded targets and budgets; saturated iff the
    # count is deg LL = (mu+1)^(mu-1)
    @pytest.mark.parametrize("roots,budget,expect", [
        (((-1.1788 - 1.1482j), (0.6695 - 2.2939j)), 150, (3, True, 3)),
        (((-0.1434 - 2.2561j), (1.101 + 0.2029j)), 150, (3, True, 3)),
        (((1.3563 - 0.5042j), (0.3982 - 0.2859j)), 150, (3, True, 3)),
        (((-1.1788 - 1.1482j), (0.6695 - 2.2939j)), 6, (3, True, 3)),
        (((-0.7383 + 0.1453j), (-1.2572 - 0.3547j), (0.6966 + 0.0575j)),
         600, (16, True, 16)),
        (((-0.4103 + 2.1895j), (0.0582 - 0.5868j), (0.1596 - 0.5228j)),
         600, (16, True, 16)),
        (((-0.1434 - 2.2561j), (1.101 + 0.2029j), (1.3563 - 0.5042j)),
         40, (15, False, 15)),
        # 15 of the 16 points: not saturated
        (((0.3982 - 0.2859j), (-0.7383 + 0.1453j), (-1.2572 - 0.3547j)),
         120, (15, False, 15)),
    ])
    def test_counts_pinned(self, roots, budget, expect):
        fc = ll_fiber_count(f"A{len(roots)}", target_from_roots(roots),
                            budget=budget)
        assert (fc.count, fc.saturated, len(fc.solutions)) == expect
        assert type(fc.saturated) is bool


def target_from_roots(roots):
    return LLPoint(tuple(complex(c) for c in reversed(np.poly(roots))))


def seed5_starts(mu, budget):
    """The starts ll_fiber_count draws at its default seed."""
    draw = random.Random(5)
    return [[complex(draw.gauss(0, 2), draw.gauss(0, 2)) for _ in range(mu)]
            for _ in range(budget)]


def newton_rows(GJ, starts):
    """One full `_newton_steps` pass: the converged mask and the points,
    converged where the mask is set and the starts elsewhere."""
    T = np.array(starts, dtype=complex)
    ok = np.zeros(len(T), dtype=bool)
    for idx, Z in _newton_steps(GJ, T):
        ok[idx], T[idx] = True, Z
    return ok, T


def scalar_newton(mu, p, start):
    """Reference: the per-start Newton loop that newton_rows batches, on
    scalar polynomial evaluations.  The final point, or None when dropped."""
    tv, coeffs = _symbolic_ll(mu)
    jac = [[c.partial(tn) for tn in tv] for c in coeffs]
    target = np.array([complex(c) for c in p.coeffs[:mu]])
    tvec = np.array(start, dtype=complex)
    for _ in range(120):
        vals = dict(zip(tv, tvec))
        g = np.array([c.eval_complex(vals) for c in coeffs]) - target
        if np.max(np.abs(g)) < 1e-11:
            return tvec
        jm = np.array([[d.eval_complex(vals) for d in row] for row in jac])
        try:
            step = np.linalg.solve(jm, g)
        except np.linalg.LinAlgError:
            return None
        if np.max(np.abs(step)) > 1e6:
            return None
        tvec = tvec - step
    return None


class TestBatchedNewton:
    @pytest.mark.parametrize("mu", [2, 3])
    def test_matches_per_start_loop(self, mu):
        rng = random.Random(43)
        p = target_from_roots([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                               for _ in range(mu)])
        starts = [[complex(rng.gauss(0, 2), rng.gauss(0, 2))
                   for _ in range(mu)] for _ in range(40)]
        ok, T = newton_rows(_ll_system(mu, p), starts)
        for k, start in enumerate(starts):
            ref = scalar_newton(mu, p, start)
            assert ok[k] == (ref is not None)
            if ref is not None:
                assert np.max(np.abs(T[k] - ref)) < 1e-9

    @pytest.mark.parametrize("mu,budget", [(2, 150), (2, 6), (3, 600),
                                           (3, 120), (3, 40)])
    def test_fiber_count_matches_one_pass(self, mu, budget):
        # the chunked search that stops at the iteration completing deg LL
        # points finds the points of one Newton pass over every start,
        # deduplicated in start order; it lists them in convergence order,
        # so the two are compared as sets
        rng = random.Random(61 + budget)
        for _ in range(4):
            p = target_from_roots([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                   for _ in range(mu)])
            ok, T = newton_rows(_ll_system(mu, p), seed5_starts(mu, budget))
            ref = []
            for z in T[ok]:
                if all(np.max(np.abs(z - z0)) > TOL_DEDUP for z0 in ref):
                    ref.append(z)
            fc = ll_fiber_count(f"A{mu}", p, budget=budget)
            deg = (mu + 1) ** (mu - 1)
            assert (fc.count, fc.saturated) == (len(ref), len(ref) == deg)
            assert fc.starts == budget
            near = np.abs(np.array(fc.solutions)[:, None, :]
                          - np.array(ref)).max(axis=2) < 1e-9
            assert (near.sum(axis=1) == 1).all()
            assert (near.sum(axis=0) == 1).all()

    def test_search_stops_at_completing_iteration(self, monkeypatch):
        # one Newton iteration is one call to GJ: the search that completes
        # an A2 fiber in its first chunk iterates less than a full pass
        calls = []
        system = llmap._ll_system

        def counted(mu, p):
            GJ = system(mu, p)
            return lambda T: calls.append(len(T)) or GJ(T)

        monkeypatch.setattr(llmap, "_ll_system", counted)
        rng = random.Random(67)
        for _ in range(5):
            p = target_from_roots([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                   for _ in range(2)])
            calls.clear()
            assert ll_fiber_count("A2", p, budget=150).saturated
            search = len(calls)
            calls.clear()
            newton_rows(counted(2, p), seed5_starts(2, 150))
            assert search < len(calls)

    @pytest.mark.parametrize("mu", [2, 3])
    def test_start_table_is_the_stream(self, mu, monkeypatch):
        # a fresh table, then one extended past it, hold the stream's
        # starts bit for bit, and neither can be written
        monkeypatch.setattr(llmap, "_STARTS", {})
        for n in (150, 600):
            table = _start_table(mu, n)
            assert table.shape == (n, mu)
            assert np.array_equal(table, np.array(seed5_starts(mu, n)))
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0

    def test_second_count_draws_nothing(self, monkeypatch):
        draws = []
        gauss = random.Random.gauss

        def counted(self, *a):
            draws.append(1)
            return gauss(self, *a)

        monkeypatch.setattr(llmap, "_STARTS", {})
        monkeypatch.setattr(random.Random, "gauss", counted)
        rng = random.Random(79)
        for k in range(3):
            p = target_from_roots([complex(rng.random(), rng.random())
                                   for _ in range(3)])
            draws.clear()
            assert ll_fiber_count("A3", p, budget=600).count == 16
            assert (len(draws) > 0) == (k == 0)

    def test_non_finite_steps_dropped(self):
        # over a target near the float range every first step is NaN or
        # beyond 1e6: each row is dropped there, not carried to the
        # iteration cap, and numpy warns of nothing
        calls = []
        GJ = _ll_system(2, LLPoint((1e308 + 0j, 1e308 + 0j, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok, _ = newton_rows(lambda T: calls.append(len(T)) or GJ(T),
                                seed5_starts(2, 128))
        assert not ok.any()
        assert calls[0] == 128 and sum(calls[1:]) == 0

    def test_singular_rows_dropped_alone(self):
        # det J = 8/9 t2^2 for A2: a start with t2 = 0 has an exactly
        # singular Jacobian, whose adjugate step is not finite; the rows
        # beside it step as they do alone
        p = target_from_roots((0.7 + 0.2j, -0.4 + 1.1j))
        GJ = _ll_system(2, p)
        generic = [[0.3 + 0.4j, 1.2 - 0.5j], [-1.1 + 0.2j, 0.4 + 0.9j],
                   [0.8 - 1.3j, -0.6 - 0.2j]]
        singular = [[0.5 + 0.5j, 0j], [-2.0 + 0j, 0j]]
        starts = [generic[0], singular[0], generic[1], singular[1],
                  generic[2]]
        g, jac = GJ(np.array(starts))
        finite = np.isfinite(_solve(jac, g)).all(axis=1)
        assert finite.tolist() == [True, False, True, False, True]
        calls = []
        ok, T = newton_rows(lambda T: calls.append(len(T)) or GJ(T), starts)
        assert calls[:2] == [5, 3]   # the singular rows go at the first step
        ok_g, T_g = newton_rows(GJ, generic)
        assert ok_g.all()
        assert not ok[1] and not ok[3]
        assert ok[[0, 2, 4]].all()
        assert np.max(np.abs(T[[0, 2, 4]] - T_g)) < 1e-12


class TestAdjugateSolve:
    @staticmethod
    def stack(rng, m, n):
        # the identity times 3 plus entries of scale 0.5: condition numbers
        # stay small, and are checked
        noise = rng.normal(0, 0.5, (n, m, m)) + 1j * rng.normal(0, 0.5,
                                                               (n, m, m))
        jac = 3 * np.eye(m) + noise
        g = rng.normal(0, 2, (n, m)) + 1j * rng.normal(0, 2, (n, m))
        assert np.linalg.cond(jac).max() < 10
        return jac, g

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_lapack(self, m):
        rng = np.random.default_rng(97 + m)
        jac, g = self.stack(rng, m, 200)
        want = np.linalg.solve(jac, g[..., None])[..., 0]
        got = _solve(jac, g)
        assert got.shape == (200, m)
        err = np.abs(got - want).max(axis=1)
        assert (err <= 1e-12 * np.abs(want).max(axis=1)).all()

    @pytest.mark.parametrize("m", [2, 3])
    def test_singular_row_not_finite_and_silent(self, m):
        # rows of small integers: the last row of each singular matrix is
        # the sum of the ones above it, so its determinant is exactly 0;
        # the zero matrix is singular with a zero adjugate
        rng = np.random.default_rng(101 + m)
        jac, g = self.stack(rng, m, 5)
        dep = rng.integers(-3, 4, (m, m)) + 1j * rng.integers(-3, 4, (m, m))
        dep[-1] = dep[:-1].sum(axis=0)
        jac[1], jac[3] = dep, 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step = _solve(jac, g)
        assert np.isfinite(step).all(axis=1).tolist() == \
            [True, False, True, False, True]
        rows = [0, 2, 4]
        want = np.linalg.solve(jac[rows], g[rows, :, None])[..., 0]
        assert np.abs(step[rows] - want).max() <= \
            1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("m", [1, 4])
    def test_other_sizes_rejected(self, m):
        with pytest.raises(ValueError, match="adjugate"):
            _solve(np.eye(m, dtype=complex)[None], np.ones((1, m), complex))


class TestWallWalk:
    def test_constant_path_empty_word(self):
        assert wall_walk_A(2, [[0.5, -1.0]], steps=10).letters == ()
        assert wall_walk_A(3, [[0.5, -1.0, 0.25], [0.5, -1.0, 0.25]],
                           steps=50).letters == ()
        # a walk that starts inside the wall band: at t = (0, -3) the two
        # values are real, -2 and 2, and the start sample counts as no wall
        # contact
        path = [[0, -3], [0, -3 + 1j]]
        assert wall_walk_A(2, path, 16).letters == () == \
            per_sample_walk(2, path, 16)

    def test_a2_loop_acts_trivially_mod_sign(self):
        loop = [[0.3, cmath.exp(2j * cmath.pi * k / 8)] for k in range(9)]
        word = wall_walk_A(2, loop, steps=400)
        assert len(word.letters) == 3
        s = StokesMatrix.chain(2)
        moved = braid_apply_word(VanishingTuple.standard(s), word)
        assert sign_canonical_stokes(stokes_of_tuple(moved)).rows == \
            sign_canonical_stokes(s).rows

    def test_reversal_inverts_word(self):
        loop = [[0.3, cmath.exp(2j * cmath.pi * k / 8)] for k in range(9)]
        w = wall_walk_A(2, loop, steps=400)
        wr = wall_walk_A(2, list(reversed(loop)), steps=400)
        assert wr.letters == w.inverse().letters

    def test_discriminant_abort(self):
        with pytest.raises(ValueError, match="discriminant"):
            wall_walk_A(2, [[0.3, 1.0], [0.3, -1.0]], steps=100)

    def test_tangential_crossing_abort(self):
        # at t2 = -1 the two critical values are t1 -+ 2/3^(3/2): moving t1
        # keeps their imaginary parts equal, so the contact never resolves
        with pytest.raises(ValueError, match="tangential crossing"):
            wall_walk_A(2, [[0, -1], [1j, -1]], steps=10)

    def test_real_path_ends(self):
        # real parameters give real critical values, whose imaginary parts
        # tie up to rounding; a swap rule looser than good_order's key
        # swapped such a pair back and forth without end
        with pytest.raises(ValueError, match="tangential crossing"):
            wall_walk_A(3, [[1.5, 0.1, 0.2], [-0.2, 0.8, -2.3]], steps=4)

    def test_chunks_do_not_grow_with_steps(self, monkeypatch):
        # every stacked evaluation and every chunk holds at most WALK_CHUNK
        # samples, however many steps a segment starts from; each chunk
        # comes with one prediction per sample, the start with none
        path = [[0.5, -1.0 + 0.5j], [-0.5, 1.0 + 0.1j]]
        sizes = []

        class Enough(Exception):
            pass

        def spy(mu, T):
            sizes.append(len(T))
            if len(sizes) == 6:
                raise Enough
            return _walk_points(mu, T)

        monkeypatch.setattr(llmap, "_walk_points", spy)
        with pytest.raises(Enough):
            wall_walk_A(2, path, steps=10 ** 13)
        assert max(sizes) == WALK_CHUNK
        monkeypatch.undo()
        chunks = _path_values(2, path, 10 ** 13, WalkStats())
        V, P = next(chunks)
        assert len(V) == 1 and P is None
        for _ in range(2):
            V, P = next(chunks)
            assert V.shape == P.shape == (WALK_CHUNK, 2)

    def test_step_test(self):
        L = np.array([[0, 1 + 0.1j, 5 + 3j, 6 + 3.1j]])

        def passes(right, left=L, move=0, back=None):
            # move: the shift of each value that the velocities at the left
            # end predict, back: the one at the right end (move unless given)
            R = np.array([right])
            back = move if back is None else back
            return bool(_steps_ok(left, R, left + move, R - back,
                                  _separations(left), _separations(R))[0])

        # at zero velocity the test is the old absolute one
        assert _separations(L)[0] == abs(1 + 0.1j)
        assert passes([0.1j, 1 + 0.1j, 5 + 3j, 6 + 3.1j])
        # a value moves half the separation: the matching is not certain
        assert not passes([0.51, 1 + 0.1j, 5 + 3j, 6 + 3.1j])
        # one pair crosses a wall
        assert passes([0.2j, 1 + 0.05j, 5 + 3j, 6 + 3.1j])
        # two pairs cross: the order of their letters is not certain
        assert not passes([0.2j, 1 + 0.05j, 5 + 3.2j, 6 + 3.05j])
        # a flip inside the wall band is a contact, not a crossing
        band = np.array([[0, 1 + 0.1j, 5 + 3j, complex(6, 3 + 1e-12)]])
        assert passes([0.2j, 1 + 0.05j, complex(5, 3 + 2e-12), 6 + 3j], band)

        # a close pair, 1e-3 apart, that moves 0.1 (a hundred separations)
        # as the velocities predict: its difference barely changes
        near = np.array([[0, 1e-3 + 1e-4j, 5 + 3j, 6 + 3.1j]])
        go = np.array([0.1 + 0.05j, 0.1 + 0.05j, 0, 0])
        moved = (near + go)[0] + [2e-5j, -1e-5, 0, 0]
        assert passes(moved, near, go)
        # the same interval without the prediction fails the old rule
        assert not passes(moved, near)
        # the pair turned by a half turn, each value where the velocities
        # predict it: the matching is certain, but not the letter's sign
        c, d = 0.05 + 0.05j, 1e-3 + 1e-4j
        half = np.array([c + d / 2, c - d / 2, 5 + 3j, 6 + 3.1j])
        assert not passes(half, near, half - near)
        # the pair's difference lands in the opposite quadrant (both orders
        # flip), a turn of about 107 degrees, again as predicted
        flip = np.array([c + 2e-4 + 1e-3j, c, 5 + 3j, 6 + 3.1j])
        assert not passes(flip, near, flip - near)
        # the pair turned by 20 degrees across the horizontal: one crossing,
        # of certain sign
        turn = np.array([c, c + d * cmath.exp(-0.35j), 5 + 3j, 6 + 3.1j])
        assert passes(turn, near, turn - near)
        # two values predicted onto the same value: not a bijection
        two = np.array([[0j, 1]])
        assert not passes([0.5, 3], two, np.array([0.5, -0.5]))
        # a shift passes only when the velocities at both ends predict it
        # within half the separation
        far = np.array([[0j, 10]])
        assert passes([0.6, 10.6], far, 0.6)
        assert not passes([0.6, 10.6], far, 6j, 0.6)
        assert not passes([0.6, 10.6], far, 0.6, 6j)

    def test_velocities_are_derivatives(self):
        # dv_k = sum_j x_k^(j-1) d_j at the critical points, against a
        # central difference of the values along d
        rng = random.Random(83)
        for mu in (1, 2, 3, 4, 5):
            T = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                           for _ in range(mu)] for _ in range(8)])
            d = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                          for _ in range(mu)])
            X, V = _walk_points(mu, T)
            dV = _velocities(X, d)
            eps = 1e-6
            up, down = _walk_values(mu, T + eps * d), \
                _walk_values(mu, T - eps * d)
            for v, dv, u, w in zip(V, dV, up, down):
                for k in range(mu):
                    fd = (u[np.argmin(abs(u - v[k]))] -
                          w[np.argmin(abs(w - v[k]))]) / (2 * eps)
                    assert abs(fd - dv[k]) < 1e-6 * max(1, abs(dv[k]))

    @pytest.mark.parametrize("mu,path,steps", [
        (2, [[0.5, -1.0], [-0.5, 1.0 + 0.1j]], 600),
        (3, [(0.9409 + 0.7478j, 0.7288 - 0.4045j, 0.4341 - 0.3422j),
             (0.2149 - 0.1355j, -0.8713 + 1.977j, 0.7238 - 2.0566j),
             (0.8936 - 1.3942j, -0.2321 - 0.5818j, -0.5345 + 0.2408j)], 64),
        (4, [[0.3, -1j, 0.2, 1.1], [-0.4, 1.0, -0.3j, 0.5],
             [0.1j, 0.7, 1.2, -0.8]], 300)])
    def test_adaptive_samples(self, mu, path, steps, monkeypatch):
        # the samples are the first waypoint, then each segment's uniform
        # samples k/steps (the last one its end) in order, with midpoints
        # inserted until every interval passes the step test
        refined = spy_refine(monkeypatch)
        chunks = list(_path_values(mu, path, steps, WalkStats()))
        got = np.concatenate([V for V, _ in chunks])
        W = np.array(path, dtype=complex)
        grid = [W[:1]]
        for a, b in zip(W, W[1:]):
            T = a + (np.arange(1, steps + 1) / steps)[:, None] * (b - a)
            T[-1] = b
            grid.append(T)
        want = _walk_values(mu, np.concatenate(grid))
        rows = [tuple(v) for v in got.tolist()]
        at = [rows.index(tuple(v)) for v in want.tolist()]
        assert at == sorted(at) and at[0] == 0 and at[-1] == len(rows) - 1
        # the refined samples are the yielded ones, and each yielded
        # prediction is its predecessor's Euler step
        assert np.array_equal(np.concatenate([V[1:] for _, _, s, V, dV
                                              in refined]), got[1:])
        preds = np.concatenate([V[:-1] + np.diff(s)[:, None] * dV[:-1]
                                for _, _, s, V, dV in refined])
        assert np.array_equal(np.concatenate([P for _, P in chunks[1:]]),
                              preds)
        for _, _, s, V, dV in refined:
            assert all(step_ok(V[k].tolist(), dV[k].tolist(),
                               V[k + 1].tolist(), dV[k + 1].tolist(),
                               s[k + 1] - s[k]) for k in range(len(s) - 1))
        if mu == 3:
            # the defect path's close approach needs bisection
            assert len(rows) > len(want)

    @pytest.mark.parametrize("mu", [1, 2, 3, 4, 5])
    def test_chunked_walk_matches_per_sample(self, mu):
        # 60 seeded round trips per mu, 300 in all, at steps from 20 to 2000
        # (20 * 100^(u^2) for uniform u); every seventh path is real
        rng = random.Random(71 + mu)
        seen = set()
        for k in range(60):
            steps = round(20 * 100 ** rng.random() ** 2)
            im = 0 if k % 7 == 3 else 2
            path = [[complex(rng.uniform(-2, 2), rng.uniform(-im, im))
                     for _ in range(mu)] for _ in range(rng.choice((2, 3)))]
            path += path[-2::-1]
            got = walk_outcome(lambda: wall_walk_A(mu, path, steps).letters)
            want = walk_outcome(lambda: per_sample_walk(mu, path, steps))
            assert got == want, (path, steps)
            seen.add(type(got))
        # both words and errors were compared
        assert seen == ({tuple} if mu == 1 else {tuple, str})

    @pytest.mark.parametrize("mu,path,steps", [
        (2, [[0.5, -1.0], [-0.5, 1.0 + 0.1j]], 0),
        (2, [[0.5, -1.0], [-0.5, 1.0 + 0.1j]], -3),
        (0, [[], []], 10)])
    def test_meaningless_counts_rejected(self, mu, path, steps):
        with pytest.raises(ValueError, match="at least 1"):
            wall_walk_A(mu, path, steps=steps)

    @pytest.mark.parametrize("steps", [True, False, 2.5, 8.0, "8", None])
    def test_steps_must_be_an_integer(self, steps):
        # a bool, a float or a string is no step count, even when it
        # compares or converts like one
        path = [[0.5, -1.0], [-0.5, 1.0 + 0.1j]]
        with pytest.raises(ValueError, match="steps must be an integer"):
            wall_walk_A(2, path, steps=steps)
        with pytest.raises(ValueError, match="steps must be an integer"):
            _walk(2, path, steps)

    def test_numpy_integer_steps(self):
        path = [[0.5, -1.0], [-0.5, 1.0 + 0.1j]]
        assert wall_walk_A(2, path, np.int64(16)) == wall_walk_A(2, path, 16)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     complex(0.5, float("-inf"))])
    def test_non_finite_waypoint_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            wall_walk_A(2, [[0.5, -1.0], [bad, 1.0 + 0.1j]], steps=50)

    @pytest.mark.parametrize("path", [[[1e308, 1], [-1e308, 1]],
                                      [[0.5, 1e308], [0.5, -1e308]]])
    def test_overflowing_segment_rejected(self, path):
        # finite waypoints whose difference is not: every sample between
        # them would be NaN or infinite
        with pytest.raises(ValueError, match="finite difference"):
            wall_walk_A(2, path, steps=10)

    def test_overflowing_critical_values_rejected(self):
        # t_2 = 1e308 puts the critical points near 6e153 i, and their
        # values beyond the float range
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflow"):
                wall_walk_A(2, [[0.5, 1e308], [0.5, 1e307]], steps=10)

    # default-steps words, each also the word of a fine uniform walk: 2000
    # steps for all but the fourth, whose close approach needs 200000
    @pytest.mark.parametrize("path,word", [
        ([((0.4163 - 0.5246j), (0.3856 - 1.9582j)),
          ((-1.2549 - 0.0183j), (0.5282 + 0.4691j)),
          ((0.749 + 0.2751j), (-1.7338 - 0.8939j))], (1, 1, 1)),
        ([((0.4897 + 1.1454j), (0.6544 - 0.3457j)),
          ((0.6297 - 2.04j), (1.0221 + 0.8555j)),
          ((1.2285 - 0.5984j), (0.8538 - 1.855j))], (-1,)),
        ([((-2.0611 - 0.0176j), (1.7857 + 1.2372j)),
          ((-1.8477 + 0.1725j), (-1.4335 - 0.53j)),
          ((0.3106 - 1.3667j), (1.146 - 0.6049j))], (1, 1, 1)),
        ([((1.234 + 0.2532j), (-0.5 - 2.098j), (0.2828 + 0.1983j)),
          ((-0.2864 - 1.072j), (0.401 + 2.9293j), (-1.1822 + 0.1983j)),
          ((0.7201 - 0.7798j), (0.5374 + 1.5729j), (1.2325 - 0.4227j))],
         (-1, -2, -1, -1, -2)),
        ([((0.3049 - 0.5892j), (0.5335 - 0.0508j), (0.7508 + 0.6878j)),
          ((0.6442 + 2.0206j), (-1.0975 + 1.1077j), (0.1413 + 0.4755j)),
          ((-1.1823 - 0.74j), (0.0654 + 0.5675j), (-0.4078 - 0.0155j))],
         (2, 1, 2, -1)),
        ([((0.9198 - 0.2086j), (-0.3944 - 0.9488j), (-1.829 + 1.3378j)),
          ((-0.8919 - 0.6204j), (0.2798 - 0.7176j), (-1.3918 + 1.3054j)),
          ((-0.0895 + 0.1894j), (0.2466 - 0.1594j), (1.0509 - 0.7146j))],
         (-1, 2, -1)),
        ([((-0.3612 - 2.4337j), (0.3037 - 0.0112j), (0.1318 - 0.9957j),
           (0.0083 - 0.9743j)),
          ((0.7345 - 1.6142j), (0.8514 + 0.6763j), (0.2621 + 0.3851j),
           (0.1777 + 0.5793j)),
          ((2.0513 - 0.325j), (0.8676 - 1.9023j), (1.5143 + 0.4771j),
           (0.7028 + 1.1929j))], (-1, -2, -1, -3, -2, -3)),
        ([((-1.0699 - 0.8857j), (-0.169 + 0.8983j), (-1.231 - 0.454j),
           (-0.0011 - 0.3406j)),
          ((0.6779 + 1.3548j), (-0.7071 + 1.5911j), (3.3124 + 0.8322j),
           (-0.7517 + 1.5682j)),
          ((1.5245 - 0.1057j), (0.3283 - 0.6019j), (1.1132 + 1.1291j),
           (-0.7739 - 1.0828j))], (1, 2, -2, -3, -2, 1, 2, 3)),
        ([((-0.6229 + 0.7857j), (0.454 + 0.6242j), (-0.4291 + 1.0035j),
           (-0.0561 + 1.2477j)),
          ((0.2786 - 0.6524j), (-0.1738 - 1.1874j), (-0.2418 - 0.2327j),
           (1.2759 + 0.2744j)),
          ((1.2558 + 0.7651j), (-1.3029 - 0.9919j), (-0.3807 + 2.6947j),
           (0.6636 + 0.7174j))],
         (-3, -2, -1, -2, -1, -3, -2, -3, 3, -1, 2, 2)),
    ])
    def test_words_pinned(self, path, word):
        assert wall_walk_A(len(path[0]), path).letters == word

    # the benchmark's known-defect path, whose segment 0 passes within
    # 1.65e-5 of the discriminant
    DEFECT_PATH = [(0.9409 + 0.7478j, 0.7288 - 0.4045j, 0.4341 - 0.3422j),
                   (0.2149 - 0.1355j, -0.8713 + 1.977j, 0.7238 - 2.0566j),
                   (0.8936 - 1.3942j, -0.2321 - 0.5818j, -0.5345 + 0.2408j)]

    def test_defect_round_trip_pinned(self):
        # A null-homotopic mu = 3 round trip (the benchmark's known-defect
        # walk): the word of 1024000 uniform steps, freely reducing to ()
        p = self.DEFECT_PATH
        word = wall_walk_A(3, p + p[-2::-1]).letters
        assert word == (1, 2, 1, 2, 1, 2, -2, -1, -2, -1, -2, -1)
        assert free_reduce(word) == ()
        # near the fold the close pair moves as the velocities predict, so
        # the walk does not bisect down to its separation (the absolute
        # rule took 1127 samples)
        stats = _walk(3, p + p[-2::-1], 64)[1]
        assert stats.samples <= 500

    # analytic benchmark paths (seeds 9 and 18, A2; seed 40, A3) whose
    # round trips 2000 uniform steps walk to words of exponent sum 13, -10
    # and -3
    BENCH_PATHS = [
        [(0.8012 + 0.1756j, 1.5158 - 0.5572j),
         (-1.2993 - 1.0449j, -0.8511 + 0.3049j),
         (0.2356 + 0.6407j, -0.6105 + 0.403j)],
        [(0.0775 + 0.6553j, 0.7186 - 0.1474j),
         (-0.5711 + 0.2817j, -0.4091 - 0.6242j),
         (-0.1192 - 0.2387j, 0.2524 + 0.3684j)],
        [(0.5578 - 0.0789j, 0.3404 + 0.2449j, -0.1994 - 0.3002j),
         (-1.3689 - 0.1872j, 0.2191 - 0.7934j, 0.5414 - 1.376j),
         (1.6923 + 0.0634j, -0.938 - 0.0124j, 0.6133 - 0.5131j)]]

    def test_round_trips_reduce_to_empty(self):
        # a retraced path p, then p reversed, is null-homotopic: its word
        # freely reduces to the empty word (30 seeded paths, mu = 2, 3, 4,
        # waypoints as the analytic benchmark draws them)
        rng = random.Random(20261018)
        paths = [[[complex(round(rng.gauss(0, 1), 4),
                           round(rng.gauss(0, 1), 4)) for _ in range(mu)]
                  for _ in range(3)] for mu in (2, 3, 4) for _ in range(10)]
        for path in self.BENCH_PATHS + paths:
            word = wall_walk_A(len(path[0]), path + path[-2::-1]).letters
            assert word and free_reduce(word) == (), (path, word)

    def test_predicted_matching_is_the_bisected_one(self, monkeypatch):
        # on every accepted interval of the defect and benchmark round trips
        # whose separation is below 1e-2, the matching to the predictions
        # equals the composed nearest matchings of a bisection under the
        # absolute rule, where no value moves half the separation
        refined = spy_refine(monkeypatch)
        checked = 0
        for path in [self.DEFECT_PATH] + self.BENCH_PATHS:
            mu = len(path[0])
            del refined[:]
            _walk(mu, path + path[-2::-1], 64)
            for a, b, s, V, dV in refined:
                sep = _separations(V)
                for k in np.flatnonzero(np.minimum(sep[:-1], sep[1:]) < 1e-2):
                    predicted = _matched(V[k + 1:k + 2], V[k:k + 1] + (
                        s[k + 1] - s[k]) * dV[k:k + 1])[0]
                    want = bisected_matching(mu, a, b, s[k], s[k + 1],
                                             V[k], V[k + 1])
                    assert (predicted == want).all(), (path, s[k])
                    checked += 1
        assert checked >= 250

    def test_loops_fix_a_common_basis(self):
        # a closed loop at t0 fixes the distinguished basis of t0's Stokes
        # region: the words of seeded loops at one mu = 3 base point share
        # a fixed class among the 16 sign classes of A3 bases, while most
        # words move some class.  The common fixed set is one whole fiber
        # of the map to Stokes matrices mod signs, whose fibers are the
        # G_Z / +-1 orbits, of |G_Z| / 2 = 4 classes for A3
        start = sign_canonical_tuple(
            VanishingTuple.standard(StokesMatrix.chain(3)))
        classes, todo = {start}, [start]
        while todo:
            t = todo.pop()
            for g in (1, -1, 2, -2):
                u = sign_canonical_tuple(braid_apply(t, g))
                if u not in classes:
                    classes.add(u)
                    todo.append(u)
        assert len(classes) == 16
        rng = random.Random(20261025)

        def point():
            return tuple(complex(round(rng.gauss(0, 1), 4),
                                 round(rng.gauss(0, 1), 4)) for _ in range(3))

        t0, common, moving = point(), set(classes), 0
        for _ in range(8):
            loop = [t0] + [point() for _ in range(rng.choice((2, 3)))] + [t0]
            word = wall_walk_A(3, loop)
            fixed = {c for c in classes
                     if sign_canonical_tuple(braid_apply_word(c, word)) == c}
            moving += fixed != classes
            common &= fixed
        assert common and moving >= 4

        def stokes(c):
            return sign_canonical_stokes(stokes_of_tuple(c))
        region = stokes(next(iter(common)))
        assert common == {c for c in classes if stokes(c) == region}
        assert len(common) == gz_order("A3") // 2 == 4

    @pytest.mark.parametrize("mu", [1, 2, 3, 4, 5])
    def test_stacked_values_match_np_roots(self, mu):
        # reference: the per-sample evaluation through np.roots; rows with
        # t2 = 0 (and t3 = 0) are the ones np.roots deflates
        rng = random.Random(47 + mu)
        T = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(mu)] for _ in range(60)])
        T[5, 1:2] = 0
        T[7, 1:3] = 0
        got = list(_walk_values(mu, T))
        for row, vals in zip(T, got):
            t = [complex(z) for z in row]
            desc = [mu + 1, 0] + [(j - 1) * t[j - 1] for j in range(mu, 1, -1)]
            xs = np.roots(desc)
            ref = [x ** (mu + 1) + sum(t[j - 1] * x ** (j - 1)
                                       for j in range(1, mu + 1)) for x in xs]
            assert len(vals) == mu
            assert np.allclose(vals, ref, rtol=1e-12, atol=1e-12)


def walk_outcome(walk):
    """The word a walk returns, or the message of the ValueError it raises."""
    try:
        return walk()
    except ValueError as exc:
        return str(exc)


def free_reduce(letters):
    """The letters with every adjacent pair g, -g cancelled."""
    out = []
    for g in letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def spy_refine(monkeypatch):
    """Record each chunk of segment samples that `_refine` returns in the
    walks that follow: the segment's ends a, b and the refined samples s,
    values V and velocities dV."""
    refined, refine = [], llmap._refine

    def spy(mu, a, b, *args):
        out = refine(mu, a, b, *args)
        refined.append((a, b) + out[:3])
        return out

    monkeypatch.setattr(llmap, "_refine", spy)
    return refined


def step_ok(left, dleft, right, dright, h):
    """Reference step test on an interval of length h between samples with
    values left and right and velocities dleft and dright, one value at a
    time: each left value's Euler prediction left + h dleft has its nearest
    right value within half the right end's separation, and that value's
    backward prediction lies within half the left end's separation of the
    left value; the difference of every pair of matched values moves by
    less than half the smaller of its lengths at the two ends; every pair
    whose good-order key flips keeps its real-part order (which the walker
    does not test, as the pair condition implies it); and at most one pair
    flips with imaginary parts at least TOL_WALL apart at both ends."""
    def half_sep(v):
        return min((abs(x - y) for x, y in itertools.combinations(v, 2)),
                   default=float("inf")) / 2

    near = []
    for x, dx in zip(left, dleft):
        p = x + h * dx
        k = min(range(len(right)), key=lambda k: abs(right[k] - p))
        if abs(right[k] - p) >= half_sep(right) or \
                abs(right[k] - h * dright[k] - x) >= half_sep(left):
            return False
        near.append(right[k])
    order = sorted(range(len(left)),
                   key=lambda k: (left[k].imag, -left[k].real))
    crossings = 0
    for i, j in itertools.combinations(order, 2):
        before, after = left[i] - left[j], near[i] - near[j]
        if abs(after - before) >= min(abs(before), abs(after)) / 2:
            return False
        lo, hi = near[i], near[j]
        if (lo.imag, -lo.real) > (hi.imag, -hi.real):
            if (left[i].real > left[j].real) != (lo.real > hi.real):
                return False
            crossings += min(abs(left[i].imag - left[j].imag),
                             abs(lo.imag - hi.imag)) >= TOL_WALL
    return crossings <= 1


def bisected_matching(mu, a, b, s0, s1, L, R):
    """The matching of the values L at a + s0 (b - a) to the values R at
    a + s1 (b - a), as the index in R of each value of L: the nearest
    matching where every value moves less than half the smaller separation
    of the two ends (the absolute step rule of the first adaptive walker),
    else the composed matchings of the two halves of the interval."""
    sep = min(abs(x - y) for v in (L, R)
              for x, y in itertools.combinations(v, 2))
    near = np.abs(R[None, :] - L[:, None]).argmin(axis=1)
    if np.abs(R[near] - L).max() < sep / 2:
        return near
    assert s1 - s0 > 2.0 ** -50
    m = (s0 + s1) / 2
    M = _walk_values(mu, (a + m * (b - a))[None])[0]
    first = bisected_matching(mu, a, b, s0, m, L, M)
    return bisected_matching(mu, a, b, m, s1, M, R)[first]


def per_sample_walk(mu, path, steps):
    """Reference: the walk's rules applied to every adaptive sample in
    turn, the loop that the chunked walker replaced (with good_order's key
    as the swap rule), over the same sampled values, each previous value
    matched greedily to the value nearest to its prediction.  Returns the
    letters."""
    letters, prev, contact = [], None, {}
    for vals, pred in ((v, p) for V, P in _path_values(mu, path, steps,
                                                       WalkStats())
                       for v, p in zip(V.tolist(), [None] * len(V)
                                       if P is None else P.tolist())):
        for a, b in itertools.combinations(vals, 2):
            if abs(a - b) < TOL_DISC:
                raise ValueError("hit discriminant: critical values collide")
        if prev is None:
            prev, raw = [vals[k] for k in good_order(vals)], vals
            continue
        remaining, matched = list(vals), []
        for pv in prev:   # the prediction of pv, by its place in its sample
            p = pred[raw.index(pv)]
            k = min(range(len(remaining)),
                    key=lambda i: abs(remaining[i] - p))
            matched.append(remaining.pop(k))
        changed = True
        while changed:
            changed = False
            for i in range(len(matched) - 1):
                lo, hi = matched[i], matched[i + 1]
                if lo.imag > hi.imag or (lo.imag == hi.imag and
                                         lo.real < hi.real):
                    letters.append(i + 1 if lo.real > hi.real else -(i + 1))
                    matched[i], matched[i + 1] = hi, lo
                    changed = True
        for i in range(len(matched) - 1):
            if abs(matched[i].imag - matched[i + 1].imag) < TOL_WALL:
                contact[i] = contact.get(i, 0) + 1
                if contact[i] >= 3:
                    raise ValueError(
                        "tangential crossing: a wall contact did not "
                        "resolve at this sample resolution; refine steps")
            else:
                contact[i] = 0
        prev, raw = matched, vals
    return tuple(letters)


class TestCompiledSystem:
    """The compiled residual and Jacobian against term-by-term evaluation
    with MultiPoly.eval_complex."""

    @staticmethod
    def assert_close(got, want):
        want = np.asarray(want)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1, abs(want)))

    def check(self, polys, names, target, GJ, rows):
        g, jac = GJ(rows)
        assert g.shape == (len(rows), len(polys))
        assert jac.shape == (len(rows), len(polys), len(names))
        for r, z in enumerate(rows):
            at = dict(zip(names, z))
            self.assert_close(g[r], [p.eval_complex(at) - c
                                     for p, c in zip(polys, target)])
            self.assert_close(jac[r], [[p.partial(v).eval_complex(at)
                                        for v in names] for p in polys])

    @pytest.mark.parametrize("label", ["D4", "D5", "D6", "E6", "E7", "E8",
                                       "tE7", "tE8"])
    def test_two_variable_gradient(self, label):
        # the gradient of the unfolding in (x0, x1), with every variable of
        # the unfolding, t and la included, an unknown
        rng = random.Random(83)
        f = unfolding(sing_class(label))
        polys = [f.partial(v) for v in ("x0", "x1")]
        rows = np.array([[complex(rng.gauss(0, 1.5), rng.gauss(0, 1.5))
                          for _ in f.vars] for _ in range(40)])
        self.check(polys, f.vars, (0, 0),
                   _system(*_compile(polys, f.vars), 2, 0), rows)

    def test_negative_power_rejected(self):
        p = MultiPoly(("x", "y"), {(1, -1): F(1), (0, 2): F(3)})
        with pytest.raises(ValueError, match="negative power"):
            _compile([p], ("x", "y"))

    # SHA-256 of the compiled chain system's exponent matrix (as <i8) and
    # coefficient matrix (as <c16), with their shapes: pinned, since the
    # fiber counts and solutions rest on these arrays bit for bit
    @pytest.mark.parametrize("mu,shape,digest", [
        (2, (5, 6), "22a7e42d3c805ed9678af7770b15db6a"
                    "7ed3432edd6bc294954f2ac23b2ee3c2"),
        (3, (25, 12), "8c176f6f23791bbd04c0d0db38b42535"
                      "e7ca4da97a7548161d66615d590b7e52"),
        (4, (118, 20), "270cc58f446f404be72388745e51daef"
                       "09244f8953213aa7bc504d42cada82ca")])
    def test_ll_compiled_pinned(self, mu, shape, digest):
        E, C = _ll_compiled(mu)
        assert E.shape == (shape[0], mu) and C.shape == shape
        data = E.astype("<i8").tobytes() + C.astype("<c16").tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("mu", [2, 3, 4])
    def test_chain_coefficient_matching(self, mu):
        rng = random.Random(89 + mu)
        tv, coeffs = _symbolic_ll(mu)
        p = target_from_roots([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                               for _ in range(mu)])
        rows = np.array([[complex(rng.gauss(0, 2), rng.gauss(0, 2))
                          for _ in tv] for _ in range(40)])
        target = [complex(c) for c in p.coeffs[:mu]]
        self.check(coeffs, tv, target, _ll_system(mu, p), rows)
