import functools
import itertools
import math
import operator
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singlat import polyalg
from singlat.braid import orbit_enumerate
from singlat.lattice import StokesMatrix
from singlat.llmap import (LLPoint, critical_values_numeric,
                           discriminant_member, ll_exact_A, ll_fiber_count,
                           wall_walk_A)
from singlat.polyalg import (Cyclo, GAUSS, ZETA8, GradedPiece, MultiPoly,
                             RatFunc, WeightSystem, _pivot_columns, bareiss,
                             entries, exact_rational, finite_complex,
                             graded_columns,
                             graded_piece_rank, macaulay, parse_poly,
                             positive_int, resultant, sylvester)
from singlat.singdata import sing_class, weights
from singlat.verify import _jacobi_plan, jacobi_dimension


def P(text, vars):
    return parse_poly(text, vars)


class TestRingOps:
    def test_square_of_binomial(self):
        x = MultiPoly.var("x", ("x",))
        assert (x + 1) ** 2 == P("x^2 + 2*x + 1", ("x",))

    def test_ring_axioms_on_random_polys(self):
        rng = random.Random(42)
        vars = ("x", "y")

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 5)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                terms[e] = F(rng.randint(-9, 9))
            return MultiPoly(vars, terms)

        for _ in range(40):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a

    def test_subst_identity(self):
        f = P("x^3 - 2*x*y + 1/2", ("x", "y"))
        assert f.subst({"x": MultiPoly.var("x", ("x", "y"))}) == f

    def test_partial_derivative(self):
        f = P("x^4 + 3*x^2*y - y^2", ("x", "y"))
        assert f.partial("x") == P("4*x^3 + 6*x*y", ("x", "y"))

    def test_laurent_exponents(self):
        k = MultiPoly.var("k", ("k",))
        inv = k ** -1
        assert inv * k == MultiPoly.const(("k",), F(1))

    def test_division_by_polynomial_rejected(self):
        # the polynomial ring has no division; rational coefficients are the
        # supported escape hatch
        with pytest.raises(ValueError):
            P("x + 1", ("x",)) ** -1

    def test_subst_passes_free_terms_through(self):
        # terms without y keep their exponents, negative ones included
        vs = ("x", "y", "z")
        f = P("x^2 * z^-1 + 3 * y * z + 5", vs)
        got = f.subst({"y": P("x - 1", ("x",))})
        assert got.vars == ("x", "z")
        assert got == P("x^2 * z^-1 + 3 * x * z - 3 * z + 5", vs)

    def test_simultaneous_substitution(self):
        f = P("x*y", ("x", "y"))
        swapped = f.subst({"x": MultiPoly.var("y", ("x", "y")),
                           "y": MultiPoly.var("x", ("x", "y"))})
        assert swapped == f
        g = P("x^2 - y", ("x", "y")).subst(
            {"x": P("x + y", ("x", "y")), "y": P("x*y", ("x", "y"))})
        assert g == P("x^2 + 2*x*y + y^2 - x*y", ("x", "y"))


class TestTextForm:
    def test_round_trip(self):
        vars = ("x0", "la")
        rng = random.Random(7)
        for _ in range(25):
            terms = {(rng.randint(0, 4), rng.randint(0, 4)):
                     F(rng.randint(-20, 20), rng.randint(1, 7))
                     for _ in range(rng.randint(1, 6))}
            f = MultiPoly(vars, terms)
            assert parse_poly(f.format(), vars) == f

    def test_zero(self):
        assert parse_poly("0", ("x",)).is_zero
        assert MultiPoly.zero(("x",)).format() == "0"

    def test_zero_denominator_is_value_error(self):
        # as the parser's other errors, it names the factor
        with pytest.raises(ValueError, match=r"zero denominator in '1/0'"):
            parse_poly("1/0 * x", ("x",))


class TestExactDivision:
    def test_exact_quotients(self):
        vs = ("x", "y")
        assert P("x^2 - y^2", vs).exact_div(P("x + y", vs)) == P("x - y", vs)
        assert P("x^-1 + y", vs).exact_div(P("x^-1", vs)) == P("1 + x*y", vs)
        assert P("6*x*y", vs) // P("2*y", vs) == P("3*x", vs)

    @pytest.mark.parametrize("a, b, vs", [
        ("la^2 + 1", "la + 1", ("la",)),
        ("x", "x + y", ("x", "y")),
    ])
    def test_non_divisor_raises(self, a, b, vs):
        # Laurent quotient terms once let the remainder descend forever
        with pytest.raises(ArithmeticError):
            P(a, vs).exact_div(P(b, vs))


class TestResultant:
    def test_evaluation_property(self):
        vs = ("x", "a", "b")
        r = resultant(P("x^2 - a", vs), P("x - b", vs), "x")
        assert r == P("b^2 - a", vs)

    def test_chain_family_symbolic(self):
        # the configuration polynomial of the mu = 2 chain family, up to
        # the leading-coefficient normalization 27 = 3^3
        vs = ("x", "y", "t1", "t2")
        r = resultant(P("3*x^2 + t2", vs), P("y - x^3 - t1 - t2*x", vs), "x")
        assert r == P("27*y^2 - 54*y*t1 + 27*t1^2 + 4*t2^3", vs)

    def test_common_root_vanishes(self):
        vs = ("x", "u")
        rng = random.Random(3)
        for _ in range(10):
            a = F(rng.randint(-5, 5))
            p = P("x - u", vs) * P(f"x - {max(a,1)}", vs)
            q = P("x - u", vs) * P("x^2 + 1", vs)
            assert resultant(p, q, "x").is_zero

    def test_coprime_constants_nonzero(self):
        vs = ("x",)
        assert not resultant(P("3", vs), P("5", vs), "x").is_zero

    def test_sylvester_layout(self):
        # p = 1 + 2x + 3x^2, q = 4 + 5x: one row of p, two shifted rows of q
        assert sylvester([1, 2, 3], [4, 5]) == [[3, 2, 1],
                                                [5, 4, 0],
                                                [0, 5, 4]]

    def test_zero_input_rejected(self):
        vs = ("x",)
        with pytest.raises(ValueError):
            resultant(P("0", vs), P("0", vs), "x")


# ints and Fractions, 0 and negative values among them
_operands = st.one_of(st.integers(-5, 5), st.just(F(0)), st.fractions(
    min_value=-9, max_value=9, max_denominator=7))


def _assert_canonical(z):
    """z holds Cyclo's invariant: num is field.degree ints over one int
    den > 0 with gcd(den, *num) = 1, so that the equal element rebuilt from
    its coeffs, a tuple of field.degree Fractions, has the same (num, den)."""
    d = z.field.degree
    assert type(z.num) is tuple and len(z.num) == d
    assert all(type(n) is int for n in z.num)
    assert type(z.den) is int and z.den > 0
    assert math.gcd(z.den, *z.num) == 1
    cs = z.coeffs
    assert type(cs) is tuple and len(cs) == d
    assert all(type(c) is F for c in cs)
    w = Cyclo(z.field, cs)
    assert (w.num, w.den) == (z.num, z.den) and hash(w) == hash(z)


class TestCyclo:
    def test_gauss(self):
        i = Cyclo.gen(GAUSS)
        assert i * i == -1
        assert (1 + i) * (1 - i) == 2
        assert 1 / (1 + i) * (1 + i) == 1

    def test_rational_element_hashes_like_its_fraction(self):
        assert Cyclo(GAUSS, [3]) == F(3)
        assert hash(Cyclo(GAUSS, [3])) == hash(F(3))
        assert hash(Cyclo(ZETA8, [F(-1, 2)])) == hash(F(-1, 2))

    def test_zeta8(self):
        z = Cyclo.gen(ZETA8)
        assert z ** 4 == -1
        assert z ** 8 == 1
        assert (z ** 2) * (z ** 2) == -1  # zeta8^2 is a square root of -1

    def test_canonical_form(self):
        # one (num, den) per element, however it was reached: a common
        # factor of the numerator and den, a reduction modulo the minimal
        # polynomial that cancels a denominator, and a negative divisor
        for field in (GAUSS, ZETA8):
            d = field.degree
            half = Cyclo(field, [F(1, 2)] + [F(-1, 6)] * (d - 1))
            for z in (half + half, half * 2, half / F(1, 2), half / F(-1, 2),
                      2 / (1 / half), Cyclo(field, [F(1, 2)] * (d + 1))
                      - F(1, 2) + F(1, 2)):
                _assert_canonical(z)
            assert ((half + half).num, (half + half).den) == \
                ((3,) + (-1,) * (d - 1), 3)
            # z^d + 1 = 0: the d + 1 halves reduce to the integer 0
            zero = Cyclo(field, [F(1, 2)] + [0] * (d - 1) + [F(1, 2)])
            assert (zero.num, zero.den) == ((0,) * d, 1)
            for r in (-3, F(-2, 5), F(7, 3)):
                q, want = half / r, half * (1 / F(r))
                _assert_canonical(q)
                assert (q.num, q.den) == (want.num, want.den) and q * r == half
            with pytest.raises(ZeroDivisionError):
                half / 0

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((GAUSS, ZETA8)), st.data())
    def test_rational_operands(self, field, data):
        # +, -, * and / with an int or a Fraction on either side give what
        # the operand as a Cyclo gives, in canonical form
        d = field.degree
        z = Cyclo(field, data.draw(st.lists(_operands, max_size=d)))
        r = data.draw(_operands)
        rc = Cyclo(field, [r])
        pairs = [(z * r, z * rc), (r * z, rc * z),
                 (z + r, z + rc), (r + z, rc + z),
                 (z - r, z - rc), (r - z, rc - z), (-z, 0 - z)]
        if r:
            pairs.append((z / r, z * rc.inv()))
        if z:
            pairs.append((r / z, rc * z.inv()))
        for got, want in pairs:
            assert got == want and (got.num, got.den) == (want.num, want.den)
            _assert_canonical(got)
        # a rational result still equals its Fraction and hashes like it
        q = Cyclo(field, [z.coeffs[0]])
        for got, want in ((q * r, z.coeffs[0] * r), (r + q, z.coeffs[0] + r)):
            assert got == F(want) and hash(got) == hash(F(want))
        g = Cyclo.gen(field)
        assert g ** d * r == -r and hash(g ** d * r) == hash(F(-r))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((GAUSS, ZETA8)), st.data())
    def test_powers_and_inverse(self, field, data):
        # the power law, negative exponents included, and z * z.inv() = 1,
        # each result in canonical form and close to the complex value
        d = field.degree
        z = Cyclo(field, data.draw(st.lists(_operands, min_size=1,
                                            max_size=d)))
        m, n = data.draw(st.integers(-3, 4)), data.draw(st.integers(-3, 4))
        if not z:
            assert z ** max(m, 1) == 0
            with pytest.raises(ZeroDivisionError):
                z.inv()
            return
        zi = z.inv()
        assert z * zi == 1 and zi * z == 1 and zi.inv() == z
        assert z ** m * z ** n == z ** (m + n)
        assert z ** -n == zi ** n and z ** 0 == 1
        for w, k in ((zi, -1), (z ** m, m), (z ** -n, -n)):
            _assert_canonical(w)
            want = z.eval_complex() ** k
            assert abs(w.eval_complex() - want) <= 1e-9 * (1 + abs(want))


# ---------------------------------------------------------------------------
# the MultiPoly invariant: vars a tuple, terms int-tuple exponents of length
# len(vars) to nonzero coefficients, on every result of the arithmetic
# ---------------------------------------------------------------------------

def _assert_coefficient_form(c, field):
    """c is a nonzero MultiPoly coefficient: an int, a Fraction with
    denominator > 1 or a Cyclo of field; never a float or a bool."""
    assert c
    if isinstance(c, Cyclo):
        assert c.field is field and len(c.coeffs) == field.degree
        assert all(type(k) is F for k in c.coeffs)
    else:
        assert type(c) is int or (type(c) is F and c.denominator > 1), c


def _assert_clean(p, field):
    assert type(p.vars) is tuple
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == len(p.vars)
        assert all(type(k) is int for k in e)
        _assert_coefficient_form(c, field)
    rebuilt = MultiPoly(p.vars, p.terms)
    assert rebuilt == p and rebuilt.terms == p.terms


@st.composite
def _laurent_polys(draw, field, vars, low=-2):
    """Laurent polynomials in vars, exponents from low to 2, with Fraction
    coefficients, and with Cyclo ones too when field is given."""
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    if field is not None:
        coeff = st.one_of(coeff, st.lists(coeff, min_size=1,
                                          max_size=field.degree).map(
            lambda cs: Cyclo(field, cs)))
    expo = st.tuples(*[st.integers(low, 2)] * len(vars))
    return MultiPoly(vars, draw(st.dictionaries(expo, coeff, max_size=4)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((None, GAUSS, ZETA8)), st.data())
def test_arithmetic_keeps_the_multipoly_invariant(field, data):
    a = data.draw(_laurent_polys(field, ("x", "y")))
    b = data.draw(_laurent_polys(field, ("y", "z")))
    c = data.draw(_laurent_polys(field, ("x", "y")))
    p = data.draw(_laurent_polys(field, ("x", "y", "z"), low=0))
    x, y = MultiPoly.var("x", ("x", "y")), MultiPoly.var("y", ("x", "y"))
    n = data.draw(st.integers(0, 3))
    results = [a + b, a - b, a * b, b * a - a * b, a - a, a + (-a), -a,
               (x + 1) * (x - 1), (x + y) * (x - y) - x * x + y * y,
               a ** n, a + c, a * c, a * 0, a + F(1, 2), 3 * a, 0 + a,
               p.subst({"x": c, "z": a}), p.subst({"y": b}),
               p.subst({"z": F(-1, 3)}), a.subst({"x": F(2), "y": x * y}),
               a.with_vars(("z", "y", "x", "w")), b.with_vars(("x", "y", "z"))]
    if len(a.terms) == 1:
        results += [a ** -n, a.inv(), (a * b).exact_div(a)]
    for v in ("x", "y"):
        results += [a.partial(v), a.coeff_of(v, 1), (a * b).partial(v)]
    results += (a * b).coefficient_split(("x",)).values()
    results += p.coefficient_split(("y", "z")).values()
    if field is not None:
        i = Cyclo.gen(field)
        results += [a * i, (x - i) * (x + i) - x * x + i * i, a * i - i * a]
    for r in results:
        _assert_clean(r, field)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((None, GAUSS, ZETA8)), st.data())
def test_every_coefficient_is_an_int_a_fraction_or_a_cyclo(field, data):
    # a tripwire for the coefficient form: an integral rational is an int,
    # any other a Fraction with denominator > 1, on every result of the
    # arithmetic, the divisions included, so no float can appear
    a = data.draw(_laurent_polys(field, ("x", "y")))
    b = data.draw(_laurent_polys(field, ("y", "z")))
    p = data.draw(_laurent_polys(field, ("x", "y", "z"), low=0))
    mono = data.draw(_laurent_polys(field, ("x", "y")).filter(
        lambda m: len(m.terms) == 1))
    r = data.draw(_small_fracs)
    k = data.draw(st.integers(-6, 6).filter(bool))
    n = data.draw(st.integers(0, 3))
    x = MultiPoly.var("x", ("x", "y"))
    results = [a + b, a - b, a * b, a ** n, mono ** -n, mono.inv(),
               a / mono, b / mono, a / 2, a // k, a // (x * k),
               (a * b).exact_div(b) if b else b, (a * mono).exact_div(mono),
               ((x + 1) * a).exact_div(x + 1), a * r, a + r, a - r,
               p.subst({"x": r, "z": F(k, 3)}),
               p.subst({"x": a, "y": r}), b.subst({"z": F(1, k)})]
    for v in a.vars:
        results += [a.partial(v), (a * a).partial(v), a.coeff_of(v, 1)]
    results += p.coefficient_split(("x", "z")).values()
    if field is not None:
        i = Cyclo.gen(field)
        results += [a * i, i * b, (a * i).exact_div(i), a / (x * i)]
    for q in results:
        _assert_clean(q, field)
    if field is None:
        for q in results:
            assert parse_poly(q.format(), q.vars) == q


class TestPublicConstructor:
    def test_exponent_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="exponent length"):
            MultiPoly(("x", "y"), {(1,): F(1)})
        with pytest.raises(ValueError, match="exponent length"):
            MultiPoly(("x",), {(1, 0): F(1), (0,): F(2)})

    def test_zero_coefficients_dropped(self):
        p = MultiPoly(("x", "y"), {(1, 0): F(0), (0, 1): 0, (2, 2): F(3),
                                   (1, 1): Cyclo(GAUSS, [0, 0])})
        assert p.terms == {(2, 2): F(3)}
        assert MultiPoly(("x",), {(1,): F(0)}).is_zero

    def test_rational_coefficients_become_fractions(self):
        # a rational coefficient is an int when it is integral and a
        # Fraction otherwise, so the inverse and the quotient of a
        # monomial stay exact: the inverse of 2x is 1/2 x^-1, never 0.5
        x2 = MultiPoly(("x",), {(1,): 2})
        three = MultiPoly.const(("x",), F(6, 2))
        for p, want, kind in ((x2, {(1,): 2}, int),
                              (three, {(0,): 3}, int),
                              (MultiPoly(("x",), {(2,): F(4, 2)}),
                               {(2,): 2}, int),
                              (x2.inv(), {(-1,): F(1, 2)}, F),
                              (three / x2, {(-1,): F(3, 2)}, F),
                              (x2 // 2, {(1,): 1}, int),
                              (x2 // 4, {(1,): F(1, 2)}, F),
                              (x2.inv() * 4, {(-1,): 2}, int)):
            assert p.terms == want
            assert all(type(c) is kind for c in p.terms.values())

    def test_exponents_become_int_tuples(self):
        p = MultiPoly(["x", "y"], {(True, F(2)): F(1)})
        assert p.vars == ("x", "y")
        e, = p.terms
        assert all(type(k) is int for k in e) and e == (1, 2)


# ---------------------------------------------------------------------------
# resultants and cyclotomic arithmetic against sympy, a test-only oracle
# ---------------------------------------------------------------------------

_small_fracs = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
_RES_VARS = ("x", "a", "b")


@st.composite
def _res_polys(draw):
    """Polynomials in x of degree 1 to 3 with coefficients in Q[a, b]."""
    deg = draw(st.integers(1, 3))
    terms = {(k, i, j): draw(_small_fracs)
             for k in range(deg) for i in range(2) for j in range(2)
             if draw(st.booleans())}
    terms[(deg, draw(st.integers(0, 1)), 0)] = draw(
        _small_fracs.filter(bool))
    return MultiPoly(_RES_VARS, terms)


def _to_sympy(p):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(p.vars)
    out = sympy.Integer(0)
    for expo, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in zip(syms, expo):
            term *= v ** e
        out += term
    return out


class TestSympyOracle:
    @settings(max_examples=20, deadline=None)
    @given(_res_polys(), _res_polys(), st.booleans())
    def test_resultant(self, p, q, common):
        sympy = pytest.importorskip("sympy")
        if common:   # a shared factor x - a: the resultant vanishes
            shared = P("x - a", _RES_VARS)
            p, q = p * shared, q * shared
        got = resultant(p, q, "x")
        # larger degree first, by Res(p, q) = (-1)^(deg p deg q) Res(q, p):
        # sympy 1.14 has the opposite sign for a linear p and a cubic q
        dp, dq = p.degree("x"), q.degree("x")
        sp, sq, x = _to_sympy(p), _to_sympy(q), sympy.Symbol("x")
        want = sympy.resultant(sp, sq, x) if dp >= dq else \
            (-1) ** (dp * dq) * sympy.resultant(sq, sp, x)
        assert sympy.expand(_to_sympy(got) - want) == 0
        if common:
            assert got.is_zero

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from((GAUSS, ZETA8)), st.data())
    def test_cyclo_arithmetic(self, field, data):
        sympy = pytest.importorskip("sympy")
        z = sympy.Symbol("z")
        d = field.degree
        m = sympy.Poly([int(c) for c in reversed(field.min_poly)], z,
                       domain="QQ")
        elems = [data.draw(st.lists(_small_fracs, min_size=d, max_size=d))
                 for _ in range(2)]
        a, b = (Cyclo(field, cs) for cs in elems)
        sa, sb = (sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                              for c in reversed(cs)], z, domain="QQ")
                  for cs in elems)

        def same(x, poly):
            cs = poly.rem(m).all_coeffs()[::-1]
            cs = [F(int(c.p), int(c.q)) for c in cs] + [F(0)] * (d - len(cs))
            assert x.coeffs == tuple(cs)
            _assert_canonical(x)

        same(a + b, sa + sb)
        same(a - b, sa - sb)
        same(a * b, sa * sb)
        # an int or a Fraction on either side
        r = data.draw(_operands)
        sr = sympy.Rational(r.numerator, r.denominator)
        for x, poly in ((a + r, sa + sr), (r + a, sa + sr), (a - r, sa - sr),
                        (r - a, sr - sa), (a * r, sa * sr), (r * a, sa * sr)):
            same(x, poly)
        if r:
            same(a / r, sa * (1 / sr))
        n = data.draw(st.integers(-3, 6))
        if a:
            inv = sympy.Poly(sympy.invert(sa.as_expr(), m.as_expr(), z), z,
                             domain="QQ")
            same(a.inv(), inv)
            same(a ** n, inv ** -n if n < 0 else sa ** n)
            same(r / a, inv * sr)
            same(b / a, sb * inv)
        elif n >= 0:
            same(a ** n, sa ** n)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((GAUSS, ZETA8)), st.data())
    def test_cyclo_inverse(self, field, data):
        # the integer inverse against sympy's inverse modulo the minimal
        # polynomial, on wide numerators and denominators: the same
        # canonical (num, den) as the element sympy's coefficients give
        sympy = pytest.importorskip("sympy")
        z = sympy.Symbol("z")
        d = field.degree
        m = sum(int(c) * z ** k for k, c in enumerate(field.min_poly))
        cs = data.draw(st.lists(st.builds(
            F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3)),
            min_size=1, max_size=d).filter(any))
        a = Cyclo(field, cs)
        inv = sympy.Poly(sympy.invert(
            sum(sympy.Rational(c.numerator, c.denominator) * z ** k
                for k, c in enumerate(cs)), m, z), z, domain="QQ")
        want = Cyclo(field, [F(int(c.p), int(c.q))
                             for c in inv.all_coeffs()[::-1]])
        got = a.inv()
        _assert_canonical(got)
        assert (got.num, got.den) == (want.num, want.den)
        assert a * got == 1


class TestRatFunc:
    def test_field_inverse(self):
        la = RatFunc.gen("la")
        rng = random.Random(5)
        for _ in range(20):
            num = [F(rng.randint(-5, 5)) for _ in range(3)]
            den = [F(rng.randint(-5, 5)) for _ in range(2)] + [F(1)]
            f = RatFunc("la", num, den)
            if f:
                assert f * (1 / f) == 1

    def test_mobius_algebra(self):
        la = RatFunc.gen("la")
        f = la / (1 - la)
        assert f + 1 == 1 / (1 - la)
        assert (la ** -2) * la ** 2 == 1

    def test_exact_inputs_stay_exact(self):
        # int coefficients must not turn into floats in the gcd or the
        # monic normalisation
        for f in (RatFunc("nu", [2], [0, 2]), RatFunc.const("la", 3).inv(),
                  RatFunc.gen("la") * 2 / 3):
            assert all(type(c) is F for c in f.num + f.den), (f.num, f.den)
        assert RatFunc("nu", [2], [0, 2]) == RatFunc.gen("nu", -1)

    def test_hash_agrees_with_eq_over_cyclotomics(self):
        one = Cyclo(GAUSS, [1])
        nu = RatFunc("nu", [0 * one, one], [one], normalize=False)
        assert nu ** 1 == nu
        assert hash(nu ** 1) == hash(nu)


# ---------------------------------------------------------------------------
# -, / and ** derived once in _Ring, for every exact type
# ---------------------------------------------------------------------------

def _ring_elements(rng):
    """A seeded nonzero element of each exact type, and a MultiPoly
    monomial (the one MultiPoly a negative power or a divisor may be)."""
    def frac():
        return F(rng.randint(-9, 9) or 1, rng.randint(1, 5))

    xy = ("x", "y")
    la = RatFunc.gen("la")
    return {
        "gauss": Cyclo(GAUSS, [frac(), frac()]),
        "zeta8": Cyclo(ZETA8, [frac() for _ in range(4)]),
        "ratfunc": (la - frac()) / (la * la + frac() * la + 1),
        "multipoly": MultiPoly(xy, {(rng.randint(-2, 2), rng.randint(-2, 2)):
                                    frac() for _ in range(3)}),
        "monomial": MultiPoly(xy, {(rng.randint(-2, 2), rng.randint(-2, 2)):
                                   Cyclo(GAUSS, [frac(), frac()])}),
    }


_SAMPLES = _ring_elements(random.Random(8))
_DERIVED = {"-": operator.sub, "/": operator.truediv, "**": operator.pow}


@pytest.mark.parametrize("kind", ["gauss", "zeta8", "ratfunc", "multipoly"])
@pytest.mark.parametrize("sym", sorted(_DERIVED))
@pytest.mark.parametrize("foreign", ["x", 1.5])
def test_foreign_operand_raises_type_error(kind, sym, foreign):
    # on either side, the error names the operator and both operand types
    # in the order written
    a = _SAMPLES[kind]
    for left, right in ((a, foreign), (foreign, a)):
        with pytest.raises(TypeError) as err:
            _DERIVED[sym](left, right)
        msg = str(err.value)
        assert msg.startswith(f"unsupported operand type(s) for {sym}")
        assert msg.endswith(f"'{type(left).__name__}' and "
                            f"'{type(right).__name__}'")


@pytest.mark.parametrize("seed", range(4))
def test_power_is_repeated_multiplication(seed):
    for kind, a in _ring_elements(random.Random(seed)).items():
        for n in range(-4, 7):
            if n < 0 and kind == "multipoly" and len(a.terms) > 1:
                with pytest.raises(ValueError):
                    a ** n
                continue
            got = a ** n
            assert type(got) is type(a)
            if n == 0:
                assert got == 1
            elif n > 0:
                assert got == functools.reduce(operator.mul, [a] * n)
            else:
                assert got * functools.reduce(operator.mul, [a] * -n) == 1


@pytest.mark.parametrize("seed", range(4))
def test_division_by_a_monomial(seed):
    els = _ring_elements(random.Random(seed))
    p, m = els["multipoly"], els["monomial"]
    assert 1 / m == m ** -1 == m.inv()
    assert p / m == p.exact_div(m)
    assert (p / m) * m == p and F(2, 3) / m * m == F(2, 3)
    for a in ("gauss", "zeta8", "ratfunc"):
        assert els[a] / els[a] == 1 and 1 / els[a] * els[a] == 1
    if len(p.terms) > 1:
        with pytest.raises(ValueError, match="single-term"):
            m / p
    with pytest.raises(ValueError, match="single-term"):
        p / (MultiPoly.var("x", ("x", "y")) + 1)


class TestGradedRank:
    def wsys(self):
        return WeightSystem((("x0", F(1, 3)), ("x1", F(1, 3)),
                             ("x2", F(1, 3))), ())

    def test_empty_piece(self):
        assert graded_piece_rank([], self.wsys(), F(1, 7)) == 0

    def test_row_operations_invariance(self):
        vs = ("x0", "x1", "x2")
        w = self.wsys()
        g1 = P("x0^2 - x1^2", vs)
        g2 = P("x1*x2 + 2*x0*x1", vs)
        r = graded_piece_rank([g1, g2], w, F(2, 3))
        assert graded_piece_rank([g1 + g2, g2], w, F(2, 3)) == r
        assert graded_piece_rank([g1, g2 - 7 * g1], w, F(2, 3)) == r

    def test_inhomogeneous_rejected(self):
        vs = ("x0", "x1", "x2")
        with pytest.raises(ValueError):
            graded_piece_rank([P("x0 + x0^2", vs)], self.wsys(), F(1, 3))

    def test_parameter_rank_is_generic(self):
        # over Q(la) the rows (la, 1) and (1, la) are independent; at
        # la = 1 they coincide
        vs = ("x0", "x1", "x2", "la")
        gens = [P("la * x0 + x1", vs), P("x0 + la * x1", vs)]
        assert graded_piece_rank(gens, self.wsys(), F(1, 3)) == 2
        at_one = [g.subst({"la": 1}) for g in gens]
        assert graded_piece_rank(at_one, self.wsys(), F(1, 3)) == 1

    def test_denominators_do_not_change_the_rank(self):
        vs = ("x0", "x1", "x2")
        gens = [P("1/2 * x0 + 1/3 * x1", vs), P("3 * x0 + 2 * x1", vs),
                P("1/7 * x2", vs)]
        assert graded_piece_rank(gens, self.wsys(), F(1, 3)) == 2


_quadric_gens = st.lists(
    st.dictionaries(st.sampled_from([(2, 0, 0), (0, 2, 0), (0, 0, 2),
                                     (1, 1, 0), (1, 0, 1), (0, 1, 1)]),
                    st.fractions(min_value=-5, max_value=5,
                                 max_denominator=4), max_size=3),
    max_size=8)


@settings(max_examples=100, deadline=None)
@given(_quadric_gens, st.integers(0, 8), st.booleans())
def test_lead_rank_is_rank_of_leading_generators(terms, lead, repeat):
    # the pair from one elimination equals two separate ranks; with repeat
    # the later generators copy earlier ones, so the ranks often agree
    vs = ("x0", "x1", "x2")
    w = WeightSystem(tuple((v, F(1, 3)) for v in vs), ())
    gens = [MultiPoly(vs, t) for t in terms]
    if repeat:
        gens += gens[:lead]
    assert graded_piece_rank(gens, w, F(2, 3), lead=lead) == (
        graded_piece_rank(gens[:lead], w, F(2, 3)),
        graded_piece_rank(gens, w, F(2, 3)))


class TestMacaulay:
    w = WeightSystem((("x0", F(1, 3)), ("x1", F(1, 2))), ())
    vs = ("x0", "x1", "t", "la")

    def test_rows_and_outside_groups(self):
        g = P("x0^2 + t * x0 + la * x1 - 1/2 * la^-1", self.vs)
        index, entries = macaulay([((1, 0), g), ((0, 0), g)], self.w, 1)
        # rows by degree, then in monomial_basis order
        assert list(index) == [e for q in [0, *self.w.achievable_degrees(1)]
                               for e in self.w.monomial_basis(q)]
        r, half = index.__getitem__, F(-1, 2)
        assert entries == {
            (): {(r((3, 0)), 0): 1, (r((2, 0)), 1): 1},
            (("t", 1),): {(r((2, 0)), 0): 1, (r((1, 0)), 1): 1},
            (("la", 1),): {(r((1, 1)), 0): 1, (r((0, 1)), 1): 1},
            (("la", -1),): {(r((1, 0)), 0): half, (r((0, 0)), 1): half},
        }

    def test_terms_outside_the_rows_are_rejected(self):
        with pytest.raises(ValueError):   # x0^4 has degree 4/3
            macaulay([((2, 0), P("x0^2", self.vs))], self.w, 1)
        with pytest.raises(ValueError):   # a negative weighted exponent
            macaulay([((0, 0), P("x0^-1 * x1", self.vs))], self.w, 1)


JACOBI_LABELS = ("A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "D7", "D8",
                 "E6", "E7", "E8", "tE6", "tE7", "tE8")


@pytest.mark.parametrize("label", JACOBI_LABELS)
def test_monomial_basis_is_the_degree_filtered_box(label):
    # both enumerations against the box of all exponents up to qmax, with
    # degrees in Fractions: the achievable degrees, and the basis at every
    # q <= qmax with half the common denominator's step, so half of them
    # are no monomial's degree
    wsys = weights(sing_class(label))
    names = [v for v, _ in wsys.var_weights]
    ws = [w for _, w in wsys.var_weights]
    qmax = 1 + max(ws)
    box = list(itertools.product(*(range(int(qmax / w) + 1) for w in ws)))
    degree = {e: wsys.monomial_degree(names, e) for e in box}
    assert wsys.achievable_degrees(qmax) == sorted(
        {d for d in degree.values() if 0 < d <= qmax})
    den = 2 * math.lcm(*(w.denominator for w in ws))
    for k in range(int(qmax * den) + 1):
        q = F(k, den)
        want = [e for e in box if degree[e] == q]
        assert wsys.monomial_basis(q) == want, (label, q)


_laurent = st.dictionaries(
    st.tuples(*[st.integers(-3, 3)] * 3),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    max_size=6)


@settings(max_examples=150, deadline=None)
@given(_laurent)
def test_text_form_round_trips_laurent_polynomials(terms):
    vs = ("x", "y", "z")
    p = MultiPoly(vs, terms)
    assert parse_poly(p.format(), vs) == p


@settings(max_examples=100, deadline=None)
@given(_laurent, _laurent)
def test_exact_division_inverts_multiplication(a, b):
    vs = ("x", "y", "z")
    a, b = MultiPoly(vs, a), MultiPoly(vs, b)
    if not b.is_zero:
        assert (a * b).exact_div(b) == a


# ---------------------------------------------------------------------------
# bareiss against sympy's DomainMatrix, a test-only oracle
# ---------------------------------------------------------------------------

_ints = st.integers(-4, 4)
_zla = st.lists(st.integers(-3, 3), max_size=3).map(
    lambda cs: MultiPoly(("la",), {(k,): F(c) for k, c in enumerate(cs)}))


@st.composite
def _matrices(draw, entry):
    """n x m matrices, n, m <= 5; half are products of n x r and r x m
    matrices with r < min(n, m), so rank-deficient."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return [[draw(entry) for _ in range(m)] for _ in range(n)], False
    r = draw(st.integers(0, min(n, m) - 1))
    a = [[draw(entry) for _ in range(r)] for _ in range(n)]
    b = [[draw(entry) for _ in range(m)] for _ in range(r)]
    return [[sum((a[i][k] * b[k][j] for k in range(r)), 0)
             for j in range(m)] for i in range(n)], True


def _sympy(x):
    sympy = pytest.importorskip("sympy")
    if not isinstance(x, MultiPoly):
        return sympy.Integer(x)
    la = sympy.Symbol("la")
    return sum((sympy.Rational(c.numerator, c.denominator) * la ** e
                for (e,), c in x.terms.items()), sympy.Integer(0))


def _domain_matrix(rows, domain):
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix([[domain.from_sympy(_sympy(x)) for x in row]
                         for row in rows], (len(rows), len(rows[0])), domain)


def _check_bareiss(rows, deficient, ring, field):
    rank, det = bareiss(rows)
    n, m = len(rows), len(rows[0])
    assert rank == _domain_matrix(rows, field).rank()
    if deficient:
        assert rank < min(n, m)
    if n == m:
        want = ring.to_sympy(_domain_matrix(rows, ring).det())
        assert (_sympy(det) - want).expand() == 0
    else:
        assert det == 0


@settings(max_examples=150, deadline=None)
@given(_matrices(_ints))
def test_bareiss_over_z_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    _check_bareiss(*case, sympy.ZZ, sympy.QQ)


@settings(max_examples=100, deadline=None)
@given(_matrices(_zla))
def test_bareiss_over_z_la_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    la = sympy.Symbol("la")
    _check_bareiss(*case, sympy.ZZ[la], sympy.QQ.frac_field(la))


def _check_pivot_minor(rows, ring):
    """The pivot minor of _pivot_columns is nonzero and is +-1 times an
    r x r minor on its r pivot columns (the empty minor, 1, for r = 0);
    bareiss's determinant is that minor for a square matrix of full rank
    and 0 for any other matrix."""
    pivots, minor = _pivot_columns(rows)
    got = _sympy(minor)
    assert got != 0
    minors = [1]
    if pivots:
        minors = [ring.to_sympy(_domain_matrix(
            [[rows[i][c] for c in pivots] for i in sub], ring).det())
            for sub in itertools.combinations(range(len(rows)), len(pivots))]
    assert any((got - want).expand() == 0 or (got + want).expand() == 0
               for want in minors)
    full = len(pivots) == len(rows) == len(rows[0])
    assert bareiss(rows) == (len(pivots), minor if full else 0)


@settings(max_examples=150, deadline=None)
@given(_matrices(_ints))
def test_pivot_minor_over_z_is_a_pivot_column_minor(case):
    sympy = pytest.importorskip("sympy")
    _check_pivot_minor(case[0], sympy.ZZ)


@settings(max_examples=60, deadline=None)
@given(_matrices(_zla))
def test_pivot_minor_over_z_la_is_a_pivot_column_minor(case):
    sympy = pytest.importorskip("sympy")
    _check_pivot_minor(case[0], sympy.ZZ[sympy.Symbol("la")])


# ---------------------------------------------------------------------------
# graded ranks over Q(la), taken at one integer point, against bareiss on
# the polynomial entries (the resultants' elimination, an independent path)
# ---------------------------------------------------------------------------

def _zla_upto(degree):
    return st.lists(st.integers(-4, 4), max_size=degree + 1).map(
        lambda cs: MultiPoly(("la",), {(k,): F(c) for k, c in enumerate(cs)}))


_zla3, _zla1 = _zla_upto(3), _zla_upto(1)


@st.composite
def _zla_case(draw):
    """Up to 7 columns of length n <= 6 over Z[la] and a rational lam.  A
    column is random (entries of degree <= 3) or a Z[la]-combination of
    earlier ones, and the last may be such a combination plus (la - lam)
    times a random column, independent over Q(la) but not at la = lam."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    lam = draw(st.fractions(min_value=-9, max_value=9, max_denominator=9))
    zero = MultiPoly.zero(("la",))

    def combination():
        coef = [draw(_zla1) for _ in cols]
        return [sum((c * col[i] for c, col in zip(coef, cols)), zero)
                for i in range(n)]

    cols = []
    for _ in range(m):
        if cols and draw(st.booleans()):
            cols.append(combination())
        else:
            cols.append([draw(_zla3) for _ in range(n)])
    if draw(st.booleans()):
        factor = MultiPoly(("la",), {(1,): F(lam.denominator),
                                     (0,): F(-lam.numerator)})
        cols.append([c + factor * draw(_zla3) for c in combination()])
    return cols, lam


def _generators(cols):
    """Column j as the generator sum_i cols[j][i] x_i of degree 1, in a
    weight system of len(column) variables of weight 1."""
    xs = tuple(f"x{i}" for i in range(len(cols[0])))
    vs = xs + ("la",)
    w = WeightSystem(tuple((x, F(1)) for x in xs), ())
    gens = [sum((e.with_vars(vs) * MultiPoly.var(x, vs)
                 for x, e in zip(xs, col)), MultiPoly.zero(vs))
            for col in cols]
    return gens, w


def _oracle_rank(cols):
    rows = [list(r) for r in zip(*cols)] if cols else [[]]
    return bareiss(rows)[0]


@settings(max_examples=80, deadline=None)
@given(_zla_case())
def test_rank_at_the_certified_point_is_the_rank_over_q_la(case):
    cols, lam = case
    gens, w = _generators(cols)
    full = _oracle_rank(cols)
    assert graded_piece_rank(gens, w, 1) == full
    for k in range(len(cols) + 1):
        assert graded_piece_rank(gens, w, 1, lead=k) == (
            _oracle_rank(cols[:k]), full)
    # at la = lam: the rank of the evaluated generators, which hold no la
    piece = graded_columns(gens, w, 1, lead=len(gens) // 2)
    at = [g.subst({"la": lam}) for g in gens]
    assert piece.ranks(lam) == graded_piece_rank(at, w, 1,
                                                 lead=len(gens) // 2)


@pytest.mark.parametrize("text,rank", [
    ([["la - 2"]], 1),
    ([["la", "2"], ["2", "la"]], 2),              # det la^2 - 4
    ([["la - 11", "1"], ["1", "la - 11"]], 2),    # det (la - 10)(la - 12)
    ([["la^2 - 4", "la - 2"], ["la + 2", "1"]], 1),
    ([["la^3 - la", "0"], ["0", "la^2 + la"]], 2),
    ([["la^-1", "1"], ["1", "la"]], 1),           # Laurent columns
    ([["la^-2", "1"], ["1", "la"]], 2),
])
def test_minors_vanishing_at_small_integers(text, rank):
    cols = [[P(e, ("la",)) for e in col] for col in zip(*text)]
    gens, w = _generators(cols)
    assert graded_piece_rank(gens, w, 1) == rank == _oracle_rank(cols)
    # at every small integer, the ranks of the piece's (scaled) matrix
    # evaluated there: at the roots of the minors (2, -2, 10, 12, 0, 1, -1)
    # the certificate vanishes and ranks falls back to the elimination
    piece = graded_columns(gens, w, 1, lead=1)
    vanishing = set()
    for lam in range(-12, 13):
        if not sum(c * lam ** k for k, c in enumerate(piece._generic[1])):
            vanishing.add(lam)
        at = [[sum(c * lam ** k for k, c in enumerate(e)) for e in row]
              for row in piece.rows]
        assert piece.ranks(lam) == (bareiss([row[:1] for row in at])[0],
                                    bareiss(at)[0])
    assert vanishing and vanishing <= {2, -2, 10, 12, 0, 1, -1}


@pytest.mark.parametrize("label", ["tE6", "tE7", "tE8"])
def test_elliptic_certificates_have_no_rational_root_but_0_and_1(label):
    """Every lam that jacobi_dimension accepts takes the certified path:
    sympy factors each piece's certificate over Q, and every linear factor
    is la or la - 1."""
    sympy = pytest.importorskip("sympy")
    la = sympy.Symbol("la")
    for _, piece in _jacobi_plan(sing_class(label)):
        cert = sympy.Poly(piece._generic[1][::-1], la)
        _, factors = sympy.factor_list(cert)
        assert {f.as_expr() for f, _ in factors if f.degree() == 1} <= {
            la, la - 1}


def test_piece_ranks_and_certificate_from_one_elimination(monkeypatch):
    """On first use a piece evaluates its entries once and eliminates once;
    later calls, at a lam off the certificate's roots too, do neither."""
    calls = []
    for name in ("_evaluate", "_pivot_columns"):
        def counted(*a, _f=getattr(polyalg, name), _name=name):
            calls.append(_name)
            return _f(*a)
        monkeypatch.setattr(polyalg, name, counted)
    for _, p in _jacobi_plan(sing_class("tE6")):
        piece = GradedPiece(p.rows, p.lead, p.degree, p.bound)
        want = p.ranks()
        calls.clear()
        assert piece.ranks() == piece.ranks(F(1, 3)) == want
        assert piece.ranks(-7) == want
        assert calls == ["_evaluate", "_pivot_columns"]


def test_two_outside_variables_are_rejected():
    w = WeightSystem((("x0", F(1)), ("x1", F(1))), ())
    vs = ("x0", "x1", "la", "mu")
    with pytest.raises(ValueError):
        graded_piece_rank([P("la * mu * x0 + x1", vs)], w, 1)
    with pytest.raises(ValueError):
        graded_piece_rank([P("la * x0", vs), P("mu * x1", vs)], w, 1)
    # a variable that is listed but never occurs does not count
    assert graded_piece_rank([P("la * x0", vs), P("x1", vs)], w, 1) == 2


class TestArgumentRules:
    """positive_int, exact_rational, finite_complex and entries, the one
    check of each argument kind, and every entry point that applies them."""

    @pytest.mark.parametrize("v", [1, 7, np.int64(3), 10 ** 30])
    def test_positive_int(self, v):
        got = positive_int(v, "n")
        assert type(got) is int and got == v

    @pytest.mark.parametrize("v,want", [
        (F(-2, 3), F(-2, 3)), (5, F(5)), (np.int64(-5), F(-5)),
        (0.1, F(3602879701896397, 2 ** 55)), (-0.0, F(0))])
    def test_exact_rational(self, v, want):
        got = exact_rational(v, "x")
        assert type(got) is F and got == want
        assert type(got.numerator) is int

    @pytest.mark.parametrize("v,want", [
        (3, 3), (F(-1, 4), -0.25), (0.5, 0.5), (1 - 2j, 1 - 2j),
        (np.int64(-2), -2), (np.float32(0.5), 0.5),
        (np.complex64(1 + 2j), 1 + 2j)])
    def test_finite_complex(self, v, want):
        got = finite_complex(v, "z")
        assert type(got) is complex and got == want

    @pytest.mark.parametrize("v", [
        True, np.True_, "1", "1j", None, math.nan, math.inf,
        complex(0, math.nan), complex(-math.inf, 0), 10 ** 400,
        F(10 ** 400, 3)])
    def test_not_finite_complex(self, v):
        with pytest.raises(ValueError, match="z .* is not a finite complex"):
            finite_complex(v, "z")

    @pytest.mark.parametrize("v", [[1, 2], (1, 2), iter([1, 2]),
                                   (c for c in (1, 2)), np.array([1, 2])])
    def test_entries(self, v):
        assert entries(v, "xs", finite_complex) == (1 + 0j, 2 + 0j)

    def test_entries_are_read_once(self):
        got = entries(iter("ab"), "xs")
        assert got == ("a", "b") and type(got) is tuple

    @pytest.mark.parametrize("v", [0.5, 5, True, None, F(1, 2), 1j])
    def test_not_entries(self, v):
        with pytest.raises(ValueError, match="xs .* is not a container"):
            entries(v, "xs")

    def test_iterators_are_containers(self):
        assert critical_values_numeric("D4", iter([0.1, 0.2, 0, 0])) == \
            critical_values_numeric("D4", [0.1, 0.2, 0, 0])
        assert ll_exact_A(2, iter([1, 2])) == ll_exact_A(2, [1, 2])
        assert wall_walk_A(2, (iter(wp) for wp in _PATH)) == \
            wall_walk_A(2, _PATH)

    def test_exact_numeric_parameters_are_converted(self):
        assert critical_values_numeric("D4", [F(1, 10), 0.2, 1j, 0]) == \
            critical_values_numeric("D4", [0.1, 0.2, 1j, 0])
        assert critical_values_numeric("tE6", [0.1] * 7, lam=F(1, 2)) == \
            critical_values_numeric("tE6", [0.1] * 7, lam=0.5)
        assert wall_walk_A(2, [[F(1, 2), -1], [F(-1, 2), 1 + 0.1j]]) == \
            wall_walk_A(2, _PATH)

    def test_float_parameters_are_exact(self):
        assert ll_exact_A(2, [0.5, np.int64(3)]) == ll_exact_A(2, [F(1, 2), 3])
        assert jacobi_dimension("tE6", 0.25) == jacobi_dimension("tE6", F(1, 4))


_PATH = [[0.5, -1.0], [-0.5, 1.0 + 0.1j]]
# every entry point that takes a count (a positive integer), an exact
# rational or a finite complex number, each fed one argument of that kind
_COUNTS = {
    "ll_exact_A-mu": lambda v: ll_exact_A(v, [1, 2]),
    "ll_fiber_count-budget": lambda v: ll_fiber_count(
        "A2", LLPoint((F(2), F(-3), F(1))), budget=v),
    "orbit_enumerate-max_states": lambda v: orbit_enumerate(
        StokesMatrix.chain(3), "bases", max_states=v),
    "wall_walk_A-mu": lambda v: wall_walk_A(v, _PATH),
    "wall_walk_A-steps": lambda v: wall_walk_A(2, _PATH, steps=v),
}
_RATIONALS = {
    "ll_exact_A-t": lambda v: ll_exact_A(2, [v, 2]),
    "ll_exact_A-t-container": lambda v: ll_exact_A(2, v),
    "discriminant_member": lambda v: discriminant_member(
        LLPoint((F(1), v, F(1)))),
    "jacobi_dimension": lambda v: jacobi_dimension("tE6", v),
    "GradedPiece.ranks": lambda v: _jacobi_plan(sing_class("tE6"))[1][1]
    .ranks(v),
    "Cyclo": lambda v: Cyclo(GAUSS, [F(1, 2), v]),
}
# an exact polynomial's coefficient is an int, a Fraction or a Cyclo: a
# float is refused too, where exact_rational would read it
_COEFFICIENTS = {
    "MultiPoly": lambda v: MultiPoly(("x",), {(0,): F(1), (1,): v}),
    "MultiPoly.const": lambda v: MultiPoly.const(("x",), v),
    "MultiPoly.subst": lambda v: P("x + 1", ("x",)).subst({"x": v}),
}
_COMPLEXES = {
    "critical_values_numeric-t": lambda v: critical_values_numeric(
        "D4", [v, 0.2, 1j, 0]),
    "critical_values_numeric-t-container": lambda v: critical_values_numeric(
        "D4", v),
    "critical_values_numeric-lam": lambda v: critical_values_numeric(
        "tE6", [0.1] * 7, lam=v),
    "wall_walk_A-path": lambda v: wall_walk_A(2, [[v, -1.0], _PATH[1]]),
    "wall_walk_A-path-container": lambda v: wall_walk_A(2, v),
    "wall_walk_A-waypoint": lambda v: wall_walk_A(2, [v, _PATH[1]]),
    "ll_fiber_count-target": lambda v: ll_fiber_count(
        "A2", LLPoint((v, F(-3), F(1)))),
}
_BAD = [*((e, v) for e in _COUNTS
           for v in (True, False, "2", 2j, math.nan, 0, -1)),
        *((e, v) for e in _RATIONALS
          for v in (True, "1/2", "2/5", 1j, math.nan, math.inf)),
        *((e, v) for e in _COMPLEXES
          for v in (True, "0.5", "1j", math.nan, complex(0, math.inf))),
        *((e, v) for e in _COEFFICIENTS
          for v in (True, "2", "1/2", 0.5, 1j, math.nan))]


@pytest.mark.parametrize("entry,v", _BAD,
                         ids=[f"{e}-{v!r}" for e, v in _BAD])
def test_bad_argument_is_value_error(entry, v):
    call = {**_COUNTS, **_RATIONALS, **_COMPLEXES, **_COEFFICIENTS}[entry]
    with pytest.raises(ValueError, match="must be an integer|must be at "
                                         "least 1|is not rational|is not a "
                                         "finite complex|is not a container|"
                                         "is not an int, a Fraction or a "
                                         "Cyclo"):
        call(v)
