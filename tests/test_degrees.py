from fractions import Fraction as F

import pytest

from singlat.degrees import (cone_weights, counts_row, deg_ll,
                             deg_ll_elliptic, deg_ll_simple, deg_ll_via_segre,
                             degC_from_lambda_orders, factorize,
                             full_basis_count, gz_order, quotient_degree,
                             segre_degree, stokes_class_count, stokes_total,
                             u1_size)


class TestSimpleDegrees:
    def test_chain_closed_form(self):
        for mu in range(2, 9):
            assert deg_ll_simple(f"A{mu}").deg_ll == (mu + 1) ** (mu - 1)

    def test_fork_closed_form(self):
        for mu in range(4, 9):
            assert deg_ll_simple(f"D{mu}").deg_ll == 2 * (mu - 1) ** mu

    def test_exceptional_values(self):
        assert deg_ll_simple("E6").deg_ll == 41472
        assert deg_ll_simple("E6").factorization == {2: 9, 3: 4}
        assert deg_ll_simple("E7").deg_ll == 1062882 == 2 * 3 ** 12
        assert deg_ll_simple("E8").deg_ll == 37968750 == 2 * 3 ** 5 * 5 ** 7

    def test_a5_explicit(self):
        assert deg_ll_simple("A5").deg_ll == 1296 == 6 ** 4

    def test_d5_explicit(self):
        assert deg_ll_simple("D5").deg_ll == 2048

    def test_elliptic_rejected(self):
        with pytest.raises(ValueError):
            deg_ll_simple("tE6")


class TestEllipticDegrees:
    def test_values(self):
        assert deg_ll_elliptic("tE6").deg_ll == 24800580
        assert deg_ll_elliptic("tE6").factorization == {2: 2, 3: 11, 5: 1, 7: 1}
        assert deg_ll_elliptic("tE7").deg_ll == 2 ** 18 * 3 * 5 ** 3 * 7
        assert deg_ll_elliptic("tE8").deg_ll == 2 ** 9 * 3 ** 10 * 7 * 101

    def test_dispatch(self):
        assert deg_ll("tE7").deg_ll == deg_ll_elliptic("tE7").deg_ll
        assert deg_ll("D4").deg_ll == deg_ll_simple("D4").deg_ll


class TestSegreRoute:
    def test_zero_map(self):
        assert segre_degree((1, 2), (2, 4, 6), {1: 0, 2: 0}) == 0

    def test_single_level(self):
        # degC = -k at a single level makes the sum 1
        assert segre_degree((2, 3), (2, 4, 6), {2: -2}) == F(2 * 4 * 6, 6)

    def test_lambda_order_tables(self):
        assert degC_from_lambda_orders("tE6") == {1: F(3, 2), 2: F(3, 2)}
        assert degC_from_lambda_orders("tE7") == {1: F(1), 2: F(3, 2), 3: F(1)}
        assert degC_from_lambda_orders("tE8") == \
            {1: F(1, 2), 2: F(1), 3: F(1), 4: F(1), 5: F(1, 2)}

    def test_half_multiplicity_identity(self):
        # -deg C_(k)/deg p = (1/2) |{j : a_j = k}| holds per level
        for label in ("tE6", "tE7", "tE8"):
            si = cone_weights(label)
            for k, v in si.degC_over_degp.items():
                assert v == F(len([a for a in si.a if a == k]), 2)

    def test_cone_weights(self):
        assert cone_weights("tE6").a == (1, 1, 1, 2, 2, 2)
        assert cone_weights("tE7").a == (1, 1, 2, 2, 2, 3, 3)
        assert cone_weights("tE8").a == (1, 2, 2, 3, 3, 4, 4, 5)
        assert cone_weights("tE6").b == tuple(3 * k for k in range(2, 9))

    def test_segre_reproduces_elliptic_degrees(self):
        for label in ("tE6", "tE7", "tE8"):
            assert deg_ll_via_segre(label) == deg_ll_elliptic(label).deg_ll


class TestGroupData:
    def test_u1_sizes(self):
        assert u1_size(3, 3, 3) == 9
        assert u1_size(4, 4, 2) == 8
        assert u1_size(6, 3, 2) == 6

    def test_u1_size_matches_fraction_count(self):
        # reference: the triples whose Fraction sum a/p + b/q + c/r is an
        # integer
        def by_fractions(p, q, r):
            return sum((F(a, p) + F(b, q) + F(c, r)) % 1 == 0
                       for a in range(p) for b in range(q) for c in range(r))

        sizes = range(1, 7)
        for p in sizes:
            for q in sizes:
                for r in sizes:
                    assert u1_size(p, q, r) == by_fractions(p, q, r), (p, q, r)

    def test_quotient_degree_te6_is_324_not_326(self):
        # 6 * 9 * 6 = 324; the cross-check 24800580 / 324 = 76545 pins the
        # printed 326 as an arithmetic slip
        assert quotient_degree("tE6") == 324
        assert 24800580 // 324 == 76545
        assert 24800580 % 324 == 0

    def test_quotient_degrees(self):
        assert quotient_degree("tE7") == 96
        assert quotient_degree("tE8") == 36

    def test_gz_orders(self):
        assert gz_order("A3") == 8
        assert gz_order("D4") == 36
        assert gz_order("D6") == 20
        assert (gz_order("E6"), gz_order("E7"), gz_order("E8")) == (24, 18, 30)


class TestCounts:
    def test_stokes_class_counts_simple(self):
        assert stokes_class_count("A2") == 1
        assert stokes_class_count("A4") == 25
        assert stokes_class_count("D4") == 9
        for mu in (5, 6, 7):
            assert stokes_class_count(f"D{mu}") == (mu - 1) ** (mu - 1)
        assert stokes_class_count("E6") == 3456 == 2 ** 7 * 3 ** 3
        assert stokes_class_count("E7") == 118098 == 2 * 3 ** 10
        assert stokes_class_count("E8") == 2531250 == 2 * 3 ** 4 * 5 ** 6

    def test_stokes_class_counts_elliptic(self):
        assert stokes_class_count("tE6") == 76545 == 3 ** 7 * 5 * 7
        assert stokes_class_count("tE7") == 7168000 == 2 ** 13 * 5 ** 3 * 7
        assert stokes_class_count("tE8") == 593744256 == 2 ** 7 * 3 ** 8 * 7 * 101

    def test_full_basis_and_total(self):
        assert full_basis_count("A2") == 4 * 3
        assert stokes_total("A2") == 2
        assert stokes_total("tE6") == 2 ** 7 * 76545

    def test_bases_infinite_for_elliptic(self):
        with pytest.raises(ValueError):
            full_basis_count("tE6")

    def test_counts_row_shape(self):
        row = counts_row("E6")
        assert row["bases_classes"] == 41472 and row["stokes_classes"] == 3456
        row = counts_row("tE7")
        assert row["quotient_degree"] == 96
        assert row["bases_classes"] is None


def test_factorize():
    assert factorize(1) == {}
    assert factorize(593744256) == {2: 7, 3: 8, 7: 1, 101: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorization_multiplies_back():
    import math
    for label in ("A5", "D6", "E7", "tE6", "tE7", "tE8"):
        d = deg_ll(label)
        assert math.prod(p ** e for p, e in d.factorization.items()) == d.deg_ll


def test_a1_outside_count_tables():
    with pytest.raises(ValueError):
        gz_order("A1")
