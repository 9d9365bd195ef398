import cmath
import random
from fractions import Fraction as F

import numpy as np
import pytest

from singlat.braid import VanishingTuple, braid_apply_word, \
    sign_canonical_stokes, stokes_of_tuple
from singlat.lattice import StokesMatrix
from singlat.llmap import (IncompleteFiber, LLPoint, UnfoldingPoint,
                           _symbolic_ll, critical_values_numeric,
                           discriminant_member, good_order, ll_exact_A,
                           ll_fiber_count, wall_walk_A)
from singlat.singdata import weights, sing_class


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
            tv, coeffs, _ = _symbolic_ll(mu)
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


class TestUnfoldingPoint:
    def test_elliptic_needs_valid_parameter(self):
        cls = sing_class("tE6")
        with pytest.raises(ValueError):
            UnfoldingPoint(cls, (F(1),) * 7, lam=F(1))
        UnfoldingPoint(cls, (F(1),) * 7, lam=F(1, 2))  # fine

    def test_simple_has_no_parameter(self):
        UnfoldingPoint(sing_class("A3"), (F(0), F(1), F(2)))


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
    def test_a2_hand_solved(self):
        cd = critical_values_numeric("A2", [0, -3])
        vs = sorted(cd.values, key=lambda z: z.real)
        assert abs(vs[0] + 2) < 1e-12 and abs(vs[1] - 2) < 1e-12

    def test_d4_count(self):
        cd = critical_values_numeric(
            "D4", [F(1, 3), F(-2, 5), F(1, 2), F(2, 7)], starts=300)
        assert len(cd.values) == 4

    def test_e6_count(self):
        cd = critical_values_numeric(
            "E6", [F(1, 3), F(-2, 5), F(1, 2), F(2, 7), F(-1, 4), F(3, 5)],
            starts=500)
        assert len(cd.values) == 6

    def test_incomplete_fiber_detected(self):
        with pytest.raises(IncompleteFiber):
            critical_values_numeric("D4", [0, 0, 0, 0], starts=40)


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

    def test_double_root_flagged(self):
        with pytest.raises(ValueError):
            ll_fiber_count("A2", LLPoint((0j, 0j, 1)), budget=10)

    def test_unsupported_rank(self):
        with pytest.raises(ValueError):
            ll_fiber_count("A4", LLPoint((1j, 0j, 0j, 0j, 1)), budget=10)


class TestWallWalk:
    def test_constant_path_empty_word(self):
        assert wall_walk_A(2, [[0.5, -1.0]], steps=10).letters == ()
        assert wall_walk_A(3, [[0.5, -1.0, 0.25], [0.5, -1.0, 0.25]],
                           steps=50).letters == ()

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
