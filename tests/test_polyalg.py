import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from singlat.polyalg import (Cyclo, GAUSS, ZETA8, MultiPoly, RatFunc,
                             WeightSystem, graded_piece_rank, parse_poly,
                             resultant)


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

    def test_zero_input_rejected(self):
        vs = ("x",)
        with pytest.raises(ValueError):
            resultant(P("0", vs), P("0", vs), "x")


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
