import json
from fractions import Fraction as F

import pytest

from singlat.braid import VanishingTuple
from singlat.lattice import (StokesMatrix, coxeter_dynkin, definiteness,
                             is_connected, is_quasiunipotent, mat_neg,
                             monodromy_from_stokes, monodromy_product,
                             symmetrized_form, tensor_rows)
from singlat.polyalg import GAUSS, Cyclo, MultiPoly, parse_poly
from singlat.singdata import (ALL_LABELS, SeedError, normal_form, seed_stokes,
                              sing_class, sym_field, symmetry_data,
                              tensor_stokes, unfolding, unfolding_monomials,
                              validate_seed, weights)


class TestClasses:
    def test_parse(self):
        assert sing_class("A3").mu == 3
        assert sing_class("D6").mu == 6
        assert sing_class("E8").mu == 8
        assert sing_class("tE7").mu == 9
        assert sing_class("tE6").nvars == 3

    def test_aliases(self):
        assert sing_class("E~6").label == "tE6"

    def test_invalid(self):
        for bad in ("A0", "D3", "E5", "tE9", "Q7", "", " ", "E 6", "E06",
                    "D04", "A03", "tE06", "A+3", "A 3", "A٣", "A1_0", "E9"):
            with pytest.raises(ValueError):
                sing_class(bad)

    @pytest.mark.parametrize("text, label", [
        *((x, x) for x in ALL_LABELS + ("A1", "A12", "D12")),
        (" D4 ", "D4"), ("Ẽ6", "tE6"), ("Ẽ7", "tE7"), ("Ẽ8", "tE8"),
        ("E~6", "tE6"), ("E~7", "tE7"), ("E~8", "tE8")])
    def test_label_round_trip(self, text, label):
        # the label is canonical, and parsing it gives the class back
        c = sing_class(text)
        assert c.label == label
        assert sing_class(c.label) == c and sing_class(c) is c

    def test_spellings_share_the_cached_tables(self):
        assert symmetry_data(sing_class(" D4 ")) is \
            symmetry_data(sing_class("D4"))


class TestNormalForms:
    def test_a3_is_quartic(self):
        assert normal_form(sing_class("A3")) == parse_poly("x0^4", ("x0",))

    def test_d4(self):
        assert normal_form(sing_class("D4")) == \
            parse_poly("x0^3 + x0*x1^2", ("x0", "x1"))

    def test_te7_factored_form(self):
        # x0 x1 (x1 - x0)(x1 - la x0)
        vs = ("x0", "x1", "la")
        x0, x1, la = (MultiPoly.var(v, vs) for v in vs)
        assert normal_form(sing_class("tE7")) == x0 * x1 * (x1 - x0) * (x1 - la * x0)

    def test_te6_partial_display(self):
        # d/dx0 of the tE6 family: -(la+1) x1^2 + 2 la x0 x1 - x2^2
        f = normal_form(sing_class("tE6"))
        vs = ("x0", "x1", "x2", "la")
        want = parse_poly("- x1^2 - la*x1^2 + 2*la*x0*x1 - x2^2", vs)
        assert f.partial("x0") == want

    def test_quasihomogeneous_of_degree_one(self):
        for label in ALL_LABELS:
            cls = sing_class(label)
            w = weights(cls)
            f = normal_form(cls)
            vw = dict(w.var_weights)
            for expo in f.terms:
                d = sum(vw.get(v, F(0)) * e for v, e in zip(f.vars, expo))
                assert d == 1, (label, expo)


class TestUnfoldings:
    # the variable order is x..., t..., then the family parameter la
    @pytest.mark.parametrize("label, vs, text", [
        ("A2", ("x0", "t1", "t2"), "x0^3 + t1 + t2*x0"),
        ("tE7", ("x0", "x1") + tuple(f"t{j}" for j in range(1, 9)) + ("la",),
         "x0 * x1^3 - x0^2 * x1^2 - la * x0^2 * x1^2 + la * x0^3 * x1"
         " + t1 + t2 * x0 + t3 * x1 + t4 * x0^2 + t5 * x0 * x1"
         " + t6 * x1^2 + t7 * x0^2 * x1 + t8 * x0 * x1^2"),
    ], ids=["A2", "tE7"])
    def test_unfolding(self, label, vs, text):
        u = unfolding(sing_class(label))
        assert u.vars == vs
        assert u == parse_poly(text, vs)

    def test_monomial_counts(self):
        for label in ALL_LABELS:
            cls = sing_class(label)
            want = cls.mu - 1 if cls.is_elliptic else cls.mu
            assert len(unfolding_monomials(cls)) == want, label

    def test_te6_last_monomial(self):
        ms = unfolding_monomials(sing_class("tE6"))
        assert ms[-1] == parse_poly("x1*x2", ("x0", "x1", "x2"))

    # deg_w t_j for every class, written out: weights derives them from
    # the unfolding monomials, so this table is the independent oracle
    T_WEIGHTS = {
        "A2": (1, F(2, 3)),
        "A3": (1, F(3, 4), F(1, 2)),
        "A4": (1, F(4, 5), F(3, 5), F(2, 5)),
        "A5": (1, F(5, 6), F(2, 3), F(1, 2), F(1, 3)),
        "D4": (1, F(2, 3), F(2, 3), F(1, 3)),
        "D5": (1, F(5, 8), F(3, 4), F(1, 2), F(1, 4)),
        "E6": (1, F(3, 4), F(2, 3), F(1, 2), F(5, 12), F(1, 6)),
        "E7": (1, F(7, 9), F(2, 3), F(5, 9), F(4, 9), F(1, 3), F(1, 9)),
        "E8": (1, F(4, 5), F(2, 3), F(3, 5), F(7, 15), F(2, 5), F(4, 15),
               F(1, 15)),
        "tE6": (1, F(2, 3), F(2, 3), F(2, 3), F(1, 3), F(1, 3), F(1, 3)),
        "tE7": (1, F(3, 4), F(3, 4), F(1, 2), F(1, 2), F(1, 2), F(1, 4),
                F(1, 4)),
        "tE8": (1, F(5, 6), F(2, 3), F(2, 3), F(1, 2), F(1, 2), F(1, 3),
                F(1, 3), F(1, 6)),
    }

    def test_degree_pairing(self):
        assert set(self.T_WEIGHTS) == set(ALL_LABELS)
        for label, want in self.T_WEIGHTS.items():
            cls = sing_class(label)
            w = weights(cls)
            assert w.t_weights == want, label
            for j, m in enumerate(unfolding_monomials(cls), start=1):
                assert w.poly_degree(m) == 1 - want[j - 1], (label, j)


class TestWeights:
    def test_t1_always_one(self):
        for label in ALL_LABELS:
            assert weights(sing_class(label)).t_weights[0] == 1

    def test_e8_row(self):
        assert weights(sing_class("E8")).t_weights == \
            (F(1), F(4, 5), F(2, 3), F(3, 5), F(7, 15), F(2, 5), F(4, 15),
             F(1, 15))

    def test_elliptic_half_sums(self):
        for label, val in (("tE6", F(27, 4)), ("tE7", F(25, 3)),
                           ("tE8", F(101, 10))):
            w = weights(sing_class(label))
            assert sum(F(1) / t for t in w.t_weights[1:]) / 2 == val

    def test_coxeter_numbers(self):
        assert weights(sing_class("A5")).coxeter_number == 6
        assert weights(sing_class("D6")).coxeter_number == 10
        assert weights(sing_class("E8")).coxeter_number == 30

    def test_derived_invariants(self):
        for label, h in (("A1", 2), ("A6", 7), ("A9", 10), ("D4", 6),
                         ("D7", 12), ("D9", 16), ("E6", 12), ("E7", 18)):
            w = weights(sing_class(label))
            assert w.coxeter_number == h and w.cone_d is None, label
        for label, d in (("tE6", 3), ("tE7", 4), ("tE8", 6)):
            w = weights(sing_class(label))
            assert w.cone_d == d and w.coxeter_number is None, label

    def test_weights_are_cached(self):
        cls = sing_class("E7")
        assert weights(cls) is weights(cls)


class TestSymmetryData:
    def test_te6_psi2_scales_t5(self):
        datum = {d.label: d for d in symmetry_data(sing_class("tE6"))}["psi2"]
        # la = nu^2; the t5 component is la^-2 t5 = nu^-4 t5
        comp = datum.psi["t5"]
        assert comp.vars == tuple(f"t{j}" for j in range(1, 8)) + ("nu",)
        (expo, coeff), = comp.terms.items()
        assert expo == (0, 0, 0, 0, 1, 0, 0, -4)
        assert coeff == 1

    def test_d_family_phi2(self):
        datum = symmetry_data(sing_class("D6"))[0]
        assert datum.label == "phi2"
        assert datum.psi["t2"] == parse_poly("- t2", sing_class("D6").tvars)
        assert datum.psi["t3"] == parse_poly("t3", sing_class("D6").tvars)

    def test_d4_has_phi3_over_gauss(self):
        data = {d.label: d for d in symmetry_data(sing_class("D4"))}
        assert set(data) == {"phi2", "phi3"}
        # phi3 has Gaussian coefficients: x0 -> -x0/2 - i x1/2
        assert data["phi3"].phi["x0"].terms[(0, 1)] == \
            Cyclo(GAUSS, [0, F(-1, 2)])
        assert all(isinstance(c, F) for v in data["phi2"].phi.values()
                   for c in v.terms.values())

    def test_one_minus_realisation(self):
        # la = 1 - a^-1 with a = 1/(1 - la): 1 - la is the monomial a^-1
        a, la = sym_field("one-minus")
        assert 1 - la == a ** -1
        assert (1 - la) ** -1 == a

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_inv_realisation(self, m):
        nu, la = sym_field("inv", m)
        assert la == nu ** m
        assert la ** -1 == nu ** -m

    def test_te7_psi3_coefficient_is_a_squared(self):
        # the tabulated A^2 = 1/(1-la)^2 is the monomial a^2
        a, _ = sym_field("one-minus")
        datum = {d.label: d for d in symmetry_data(sing_class("tE7"))}["psi3"]
        t1 = datum.psi["t1"]
        split = t1.coefficient_split(sing_class("tE7").tvars)
        assert split[(0, 0, 0, 0, 0, 1, 2, 0)] == a ** 2

    def test_unfolding_is_cached(self):
        cls = sing_class("tE8")
        assert unfolding(cls) is unfolding(cls)

    def test_te7_root_orders(self):
        data = {d.label: d for d in symmetry_data(sing_class("tE7"))}
        assert data["psi2"].root_order == 4    # la = nu^4 clears la^(1/4)
        assert data["psi3"].root_order == 1

    def test_te8_partial_print(self):
        data = {d.label: d for d in symmetry_data(sing_class("tE8"))}
        # a partially printed map is one with exclusions
        assert "t1" in data["psi3"].exclusions
        assert data["psi2"].exclusions == {}


class TestSeeds:
    def test_a_family_builtin(self):
        rec = seed_stokes("A6")
        assert rec.provenance == "builtin"
        assert rec.stokes.rows == StokesMatrix.chain(6).rows

    def test_d4_is_tensor_square(self):
        rec = seed_stokes("D4")
        assert rec.provenance == "tensor-derived"
        a2 = StokesMatrix.chain(2)
        assert rec.stokes.rows == tensor_stokes(a2, a2).rows

    def test_builtin_seeds_validate(self):
        provenance = {"D5": "builtin", "D6": "builtin", "D7": "builtin",
                      "D8": "builtin", "E7": "builtin",
                      "E6": "tensor-derived", "E8": "tensor-derived",
                      "tE6": "tensor-derived", "tE7": "tensor-derived",
                      "tE8": "tensor-derived"}
        for label, want in provenance.items():
            rec = seed_stokes(label)
            assert rec.provenance == want, label
            assert rec.source, label

    def test_d_family_trees(self):
        # mu-1 simple edges with a single branch vertex: the D_mu tree
        for mu in range(5, 11):
            g = coxeter_dynkin(seed_stokes(f"D{mu}").stokes)
            assert len(g.edges) == mu - 1, mu
            assert all(w == 1 and style == "plain"
                       for _, _, w, style in g.edges), mu
            degs = [len(nbrs) for nbrs in g.adjacency().values()]
            assert degs.count(3) == 1 and max(degs) == 3, mu

    def test_entry_bounds(self):
        for label in ALL_LABELS:
            cls = sing_class(label)
            bound = 2 if cls.is_elliptic else 1
            assert seed_stokes(label).stokes.entry_bound() <= bound

    def test_missing_seed_dir_errors(self, tmp_path):
        with pytest.raises(SeedError):
            seed_stokes("E7", seed_dir=str(tmp_path))

    def test_corrupt_seed_rejected(self, tmp_path):
        doc = {"class": "E7", "mu": 7, "source": "test",
               "upper": [[0] * (6 - i) for i in range(6)]}  # disconnected
        (tmp_path / "e7.json").write_text(json.dumps(doc))
        with pytest.raises(SeedError):
            seed_stokes("E7", seed_dir=str(tmp_path))


def stokes_from_upper(upper):
    mu = len(upper) + 1
    return StokesMatrix(tuple(
        tuple([0] * k + [1] + (upper[k] if k < mu - 1 else []))
        for k in range(mu)))


# Seeds with an indefinite form and monodromy that is not quasiunipotent.
# A4 with all six edges plain: the form 3 Id - J has eigenvalue -1.  The
# tree T_{2,3,7} on ten nodes: its monodromy has Lehmer's polynomial as
# characteristic polynomial.
REJECTED_SEEDS = (
    ("A4", [[-1, -1, -1], [-1, -1], [-1]]),
    ("A10", [[-1 if j == i + 1 < 9 or (i, j) == (2, 9) else 0
              for j in range(i + 1, 10)] for i in range(9)]),
)


class TestQuasiunipotentMonodromy:
    """validate_seed does not check the monodromy: a seed whose form passes
    has quasiunipotent monodromy (see its docstring).  These tests check
    the two facts the argument rests on, and the verdict itself."""

    LABELS = ALL_LABELS + ("A6", "D6", "D7", "D8")

    @staticmethod
    def coxeter_element(s):
        # the product of the reflections in the seed's own basis
        return monodromy_product(VanishingTuple.standard(s)).rows

    def test_sixteen_classes(self):
        assert len(set(self.LABELS)) == 16

    @pytest.mark.parametrize("label", LABELS)
    def test_seed_monodromy_is_coxeter_and_quasiunipotent(self, label):
        s = seed_stokes(label).stokes
        m = monodromy_from_stokes(s)
        assert m.rows == self.coxeter_element(s)
        assert is_quasiunipotent(m)

    @pytest.mark.parametrize("label,upper", REJECTED_SEEDS,
                             ids=[lab for lab, _ in REJECTED_SEEDS])
    def test_rejected_seeds_fail_the_form_check(self, label, upper):
        s = stokes_from_upper(upper)
        m = monodromy_from_stokes(s)
        assert m.rows == self.coxeter_element(s)
        assert definiteness(symmetrized_form(s)) == "indefinite"
        # the monodromy is not quasiunipotent, and the form check that
        # runs without it rejects the seed
        assert not is_quasiunipotent(m)
        with pytest.raises(SeedError, match="positive definite"):
            validate_seed(sing_class(label), s)


class TestTensor:
    def test_unit(self):
        s = seed_stokes("A3").stokes
        assert tensor_stokes(s, StokesMatrix.identity(1)).rows == s.rows

    def test_a2_square_entries(self):
        k = tensor_stokes(StokesMatrix.chain(2), StokesMatrix.chain(2))
        assert k.rows == ((1, -1, -1, 1), (0, 1, 0, -1),
                          (0, 0, 1, -1), (0, 0, 0, 1))
        assert is_connected(k)

    def test_monodromy_tensors_with_suspension_sign(self):
        # at the fixed dimension parity, adding variables contributes the
        # suspension sign: M(S1 x S2) = -(M1 x M2)
        for l1, l2 in (("A2", "A2"), ("A3", "A2"), ("A2", "A4")):
            s1 = seed_stokes(l1).stokes
            s2 = seed_stokes(l2).stokes
            mk = monodromy_from_stokes(tensor_stokes(s1, s2)).rows
            m1 = monodromy_from_stokes(s1).rows
            m2 = monodromy_from_stokes(s2).rows
            assert mk == mat_neg(tensor_rows(m1, m2))

    def test_factor_blocks_in_diagram(self):
        # vertices {0..mu2-1} carry a copy of the second factor's diagram
        s1, s2 = seed_stokes("A3").stokes, seed_stokes("A2").stokes
        k = tensor_stokes(s1, s2)
        for i in range(2):
            for j in range(i + 1, 2):
                assert k.rows[i][j] == s2.rows[i][j]
