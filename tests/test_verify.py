import dataclasses
from fractions import Fraction as F

import pytest

from singlat import singdata, verify
from singlat.polyalg import MultiPoly, graded_columns
from singlat.singdata import (normal_form, sing_class, sym_field,
                              symmetry_data, symmetry_forms, unfolding,
                              weights)
from singlat.verify import (JacobiRankError, check_kappa_extension,
                            check_lambda_projection, check_simple_symmetry,
                            check_unfolding_identity, identity_suite,
                            jacobi_dimension, jacobi_suite, symmetry_checks,
                            _check_unfolding, _composed_substitution,
                            _kappa_data)

SYMMETRY_LABELS = ("D4", "D5", "D6", "D7", "D8", "tE6", "tE7", "tE8")
ELLIPTIC_LABELS = ("tE6", "tE7", "tE8")


@pytest.fixture
def cold_plans():
    # jacobi_dimension's graded pieces are views of singdata.jacobi_system,
    # which is cached per class like the unfolding and the weights it is
    # built from, and symmetry_forms realises la in the unfolding; a test
    # that patches singdata.unfolding_monomials starts and ends with all
    # five caches empty, so nothing built under the patch outlives it
    caches = (verify._jacobi_plan, singdata.jacobi_system,
              singdata.unfolding, singdata.weights, singdata.symmetry_forms)
    for c in caches:
        c.cache_clear()
    yield
    for c in caches:
        c.cache_clear()


class TestJacobiDimension:
    def test_chain_family(self):
        for mu in (2, 3, 5, 7):
            assert jacobi_dimension(f"A{mu}") == mu

    def test_simple_families(self):
        for label, mu in (("D4", 4), ("D5", 5), ("E6", 6), ("E7", 7),
                          ("E8", 8)):
            assert jacobi_dimension(label) == mu

    def test_elliptic_symbolic(self):
        assert jacobi_dimension("tE6") == 8
        assert jacobi_dimension("tE7") == 9
        assert jacobi_dimension("tE8") == 10

    def test_elliptic_at_reference_value(self):
        assert jacobi_dimension("tE8", F(1, 2)) == 10

    def test_symbolic_equals_specializations(self):
        for label in ("tE6", "tE7", "tE8"):
            d = jacobi_dimension(label)
            for lam in (F(2, 3), F(-1, 5), F(7, 11), F(5, 2), F(9, 13)):
                assert jacobi_dimension(label, lam) == d

    def test_forbidden_parameter(self):
        with pytest.raises(ValueError):
            jacobi_dimension("tE6", F(1))

    @pytest.mark.parametrize("lam", ["junk", F(1, 2), F(1)])
    def test_parameter_on_an_ade_class_raises(self, lam):
        # an ADE class has no family parameter, so no lam is silently dropped
        with pytest.raises(ValueError, match="D4 has no family parameter"):
            jacobi_dimension("D4", lam)

    @pytest.mark.parametrize("label", ["A1", "A2", "D4", "E8", "tE6"])
    def test_checked_pieces_are_the_achievable_degrees(self, label):
        # every achievable degree up to 1 + max w is checked, including
        # A1's q = 3/2 above the multiplication view's cut at D = 1
        cls = sing_class(label)
        wsys = weights(cls)
        qmax = 1 + max(w for _, w in wsys.var_weights)
        assert [q for q, _ in verify._jacobi_plan(cls)] == \
            wsys.achievable_degrees(qmax)

    def test_rank_deficiency_names_the_degree(self, monkeypatch, cold_plans):
        # dropping an unfolding monomial leaves its graded piece unspanned
        # and the failure reports that degree
        real = singdata.unfolding_monomials

        def crippled(cls):
            ms = real(cls)
            return ms[:1] + ms[2:]   # drop m_2 = x0

        monkeypatch.setattr(singdata, "unfolding_monomials", crippled)
        with pytest.raises(JacobiRankError) as err:
            jacobi_dimension("A3")
        assert err.value.q == F(1, 4)   # the weight of x0 in the quartic

    def test_symbolic_rank_deficiency_on_an_elliptic_class(self, monkeypatch,
                                                           cold_plans):
        # at q = 3/4 the two partials of the tE7 quartic (la-dependent) and
        # the cobasis monomials x0^2*x1, x0*x1^2 span the four cubics; with
        # x0*x1^2 dropped the rank over Q(la) is 3
        real = singdata.unfolding_monomials
        monkeypatch.setattr(singdata, "unfolding_monomials",
                            lambda cls: real(cls)[:-1])
        assert real(sing_class("tE7"))[-1] == MultiPoly(("x0", "x1"),
                                                        {(1, 2): F(1)})
        with pytest.raises(JacobiRankError, match="rank 3, needs 4") as err:
            jacobi_dimension("tE7")
        assert err.value.q == F(3, 4)


@pytest.mark.parametrize("label", ["A1", "A4", "D5", "E7", "tE6", "tE8"])
def test_pieces_are_the_generator_products(label):
    # each piece, a block of the compiled system, equals the graded piece of
    # the generators built as MultiPoly products: x^e d_k f of degree q,
    # then the unfolding monomials of degree q and (q = 1) df/dla
    cls = sing_class(label)
    wsys, f = weights(cls), singdata.normal_form(cls)
    for q, piece in verify._jacobi_plan(cls):
        gens = [MultiPoly(cls.xvars, {e: F(1)}) * f.partial(v)
                for v, w in wsys.var_weights if q >= 1 - w
                for e in wsys.monomial_basis(q - 1 + w)]
        cobasis = [m for m in singdata.unfolding_monomials(cls)
                   if wsys.poly_degree(m) == q]
        if cls.is_elliptic and q == 1:
            cobasis.append(f.partial("la"))
        assert piece == graded_columns(gens + cobasis, wsys, q,
                                       lead=len(gens)), q


class TestUnfoldingIdentities:
    @pytest.mark.parametrize("label", ["tE6", "tE7", "tE8"])
    @pytest.mark.parametrize("which", ["psi2", "psi3"])
    def test_identity_passes(self, label, which):
        out = check_unfolding_identity(label, which)
        assert out.passed, (out.detail, out.witness)

    def test_te8_psi3_records_remainders(self):
        out = check_unfolding_identity("tE8", "psi3")
        assert out.passed
        assert "unprinted remainder" in out.detail

    def test_dropped_leading_term_touches_excluded_parameters(self,
                                                              monkeypatch):
        # without its printed leading term t1, the t1 remainder holds t1
        import singlat.verify as V
        real = V.symmetry_data

        def dropped(cls):
            return tuple(dataclasses.replace(
                d, psi=dict(d.psi, t1=MultiPoly.zero(cls.tvars)))
                if d.label == "psi3" else d for d in real(cls))

        monkeypatch.setattr(V, "symmetry_data", dropped)
        out = V.check_unfolding_identity("tE8", "psi3")
        assert not out.passed
        assert out.detail == "remainder of t1 touches excluded parameters"

    def test_perturbed_shift_fails(self):
        cls = sing_class("tE6")
        datum = {d.label: d for d in symmetry_data(cls)}["psi3"]
        bad_shift = dict(datum.psi_shift)
        bad_shift["x2"] = bad_shift["x2"] + MultiPoly.const(
            bad_shift["x2"].vars, F(1, 3))
        bad = dataclasses.replace(datum, psi_shift=bad_shift)
        _, f_full, f_target = symmetry_forms(cls, bad.lam_image,
                                             bad.root_order)
        lhs = f_full.subst(_composed_substitution(cls, bad))
        assert not (lhs - f_target.with_vars(lhs.vars)).is_zero

    def test_lambda_projections(self):
        # f_la o phi2 = f_{1/la} and f_la o phi3 = f_{1-la}, exactly
        for label in ("tE6", "tE7", "tE8"):
            assert check_lambda_projection(label, "psi2").passed
            assert check_lambda_projection(label, "psi3").passed

    def test_unknown_symmetry(self):
        with pytest.raises(ValueError, match="no stored"):
            check_unfolding_identity("tE6", "psi9")

    # the other checks share check_unfolding_identity's lookup
    @pytest.mark.parametrize("check,args,message", [
        (check_lambda_projection, ("tE6", "psi9"), "no stored"),
        (check_lambda_projection, ("E6", "psi2"), "no stored"),
        (symmetry_checks, ("tE6", "psi9"), "no stored"),
        # the D-family symmetries are one check; none of them is psi3
        (symmetry_checks, ("D4", "psi3"), "checked together"),
        (symmetry_checks, ("A3",), "no tabulated"),
        # D4 stores phi2, but has no family parameter to project
        (check_lambda_projection, ("D4", "phi2"), "no family")],
        ids=["la-projection-tE6-psi9", "la-projection-E6-psi2",
             "symmetry-checks-tE6-psi9", "symmetry-checks-D4-psi3",
             "symmetry-checks-A3", "la-projection-D4-phi2"])
    def test_symmetry_lookup_error(self, check, args, message):
        with pytest.raises(ValueError, match=message):
            check(*args)


def _third_on_x2(shift):
    return {**shift, "x2": shift["x2"] + MultiPoly.const(shift["x2"].vars,
                                                         F(1, 3))}


def _negated(shift):
    return {k: -v for k, v in shift.items()}


class TestResidualBranch:
    """A broken shift leaves monomials outside the unfolding basis, and
    the public checks report them with the residual as the witness."""

    @pytest.mark.parametrize("label,which,perturb", [
        ("tE6", "psi3", _third_on_x2), ("D4", "phi3", _negated)],
        ids=["tE6-psi3-shift-plus-a-third", "D4-phi3-shift-negated"])
    def test_uncancelled_monomials(self, monkeypatch, label, which,
                                   perturb):
        cls = sing_class(label)
        data = tuple(dataclasses.replace(d, psi_shift=perturb(d.psi_shift))
                     if d.label == which else d for d in symmetry_data(cls))
        monkeypatch.setattr(verify, "symmetry_data", lambda c: data)
        bad, = (d for d in data if d.label == which)
        # the residual lhs - f_target - sum_j m_j t_j, term by term
        _, f_full, f_target = symmetry_forms(cls, bad.lam_image,
                                             bad.root_order)
        lhs = f_full.subst(_composed_substitution(cls, bad))
        split = lhs.coefficient_split(cls.xvars)
        want = lhs - f_target
        for m in singdata.unfolding_monomials(cls):
            want = want - m * split.get(next(iter(m.terms)),
                                        MultiPoly.zero(cls.tvars))
        assert not want.is_zero
        detail = "uncancelled monomials outside the unfolding basis"
        outs = [check_unfolding_identity(label, which)]
        if label == "D4":
            outs.append(check_simple_symmetry(label))
        for out in outs:
            assert not out.passed and out.detail == detail
            assert out.witness == want and out.witness.vars == want.vars

    @pytest.mark.parametrize("label", SYMMETRY_LABELS)
    def test_unfolding_monomials_are_monic_and_distinct(self, label):
        # so m_j times its coefficient is the part of lhs at m_j's exponent
        cls = sing_class(label)
        ms = singdata.unfolding_monomials(cls)
        assert all(m.vars == cls.xvars and list(m.terms.values()) == [1]
                   for m in ms)
        assert len({next(iter(m.terms)) for m in ms}) == len(ms)


class TestSimpleSymmetries:
    def test_d5_sign_flip(self):
        assert check_simple_symmetry("D5").passed

    def test_d7_sign_flip(self):
        assert check_simple_symmetry("D7").passed

    def test_d4_full(self):
        out = check_simple_symmetry("D4")
        assert out.passed and out.name == "D4:phi2+phi3"

    @pytest.mark.parametrize("label,which", [("D4", "phi2"), ("D4", "phi3"),
                                             ("D6", "phi2")])
    def test_failure_keeps_the_outcome_name(self, monkeypatch, label, which):
        # a broken parameter map fails through check_unfolding_identity,
        # and the outcome keeps the name of the whole D-family check
        def broken(cls):
            return [dataclasses.replace(d, psi={**d.psi, "t1": -d.psi["t1"]})
                    if d.label == which else d for d in symmetry_data(cls)]
        monkeypatch.setattr(verify, "symmetry_data", broken)
        out = check_simple_symmetry(label)
        assert not out.passed and out.witness is not None
        assert out.name == ("D4:phi2+phi3" if label == "D4" else "D6:phi2")

    def test_d4_sign_flipped_shift_fails(self):
        cls = sing_class("D4")
        datum = {d.label: d for d in symmetry_data(cls)}["phi3"]
        bad_shift = {k: -v for k, v in datum.psi_shift.items()}
        bad = dataclasses.replace(datum, psi_shift=bad_shift)
        _, f_full, f_target = symmetry_forms(cls, bad.lam_image,
                                             bad.root_order)
        lhs = f_full.subst(_composed_substitution(cls, bad))
        # with the broken shift the non-basis coefficients survive
        split = lhs.coefficient_split(cls.xvars)
        bad_coeff = split.get((1, 1))  # x0*x1 is not an unfolding monomial
        assert bad_coeff is not None and not bad_coeff.is_zero

    def test_non_d_rejected(self):
        with pytest.raises(ValueError):
            check_simple_symmetry("E6")


class TestKappaExtension:
    @pytest.mark.parametrize("label", ["tE6", "tE7", "tE8"])
    def test_extension_identity(self, label):
        out = check_kappa_extension(label)
        assert out.passed, (out.detail, repr(out.witness)[:300])

    def test_kappa_zero_specialization_is_polynomial(self):
        # the stored extended forms have no negative powers, so setting
        # s = 0 and kappa = 0 stays polynomial
        for label in ELLIPTIC_LABELS:
            cls = sing_class(label)
            _, _, ext = _kappa_data(cls)
            assert ext.min_degree("ka") >= 0
            sub = {f"s{j}": 0 for j in range(1, cls.mu)}
            sub["ka"] = 0
            specialized = ext.subst(sub)
            assert all(e >= 0 for expo in specialized.terms for e in expo)

    def test_simple_rejected(self):
        with pytest.raises(ValueError):
            check_kappa_extension("E6")


class TestSharedTables:
    """symmetry_data, symmetry_forms and _kappa_data build each class's
    tables once per process; the shared tables are read-only, and no check
    changes them."""

    @pytest.mark.parametrize("label", SYMMETRY_LABELS)
    def test_symmetry_data_is_built_once(self, label):
        cls = sing_class(label)
        assert symmetry_data(cls) is symmetry_data(cls)

    @pytest.mark.parametrize("label", ELLIPTIC_LABELS)
    def test_kappa_data_is_built_once(self, label):
        cls = sing_class(label)
        assert _kappa_data(cls) is _kappa_data(cls)

    @pytest.mark.parametrize("label", SYMMETRY_LABELS)
    def test_symmetry_data_is_read_only(self, label):
        data = symmetry_data(sing_class(label))
        assert isinstance(data, tuple)
        with pytest.raises(TypeError):
            data[0] = data[-1]
        for d in data:
            for part in ("phi", "psi_shift", "psi", "exclusions"):
                with pytest.raises(TypeError):
                    getattr(d, part)["t1"] = None

    def test_replaced_datum_copies_its_mappings(self):
        datum = symmetry_data(sing_class("D5"))[0]
        psi = dict(datum.psi)
        copy = dataclasses.replace(datum, psi=psi)
        psi["t1"] = -psi["t1"]
        assert copy.psi == datum.psi
        with pytest.raises(TypeError):
            copy.psi["t1"] = psi["t1"]

    @pytest.mark.parametrize("label", ELLIPTIC_LABELS)
    def test_kappa_data_is_read_only(self, label):
        pullback, ydefs, _ = _kappa_data(sing_class(label))
        for table in (pullback, ydefs):
            with pytest.raises(TypeError):
                table["t1"] = None

    @pytest.mark.parametrize("label", SYMMETRY_LABELS)
    def test_symmetry_forms_are_the_substituted_forms(self, label):
        # built once per la-image, equal to la (and its image) substituted
        # into the cached normal form and unfolding, and unchanged by the
        # checks
        cls = sing_class(label)
        f, F_full = normal_form(cls), unfolding(cls)
        built = {}
        for d in symmetry_data(cls):
            key = (d.lam_image, d.root_order)
            built[key] = forms = symmetry_forms(cls, *key)
            assert all(a is b for a, b in
                       zip(forms, symmetry_forms(cls, *key)))
            if cls.is_elliptic:
                _, la = sym_field(*key)
                image = la ** -1 if d.lam_image == "inv" else 1 - la
                want = (f.subst({"la": la}), F_full.subst({"la": la}),
                        f.subst({"la": image}))
            else:
                want = (f, F_full, f)
            assert forms == want
            assert [p.vars for p in forms] == [p.vars for p in want]
        assert all(identity_suite())
        for key, forms in built.items():
            assert symmetry_forms(cls, *key) is forms
            assert repr(forms) == repr(symmetry_forms.__wrapped__(cls, *key))

    def test_cold_and_warm_suites_agree(self):
        # the suite reads the same outcomes whether the realised forms and
        # the kappa tables are built in it or read from the caches
        symmetry_forms.cache_clear()
        _kappa_data.cache_clear()

        def outcomes():
            return [(o.name, o.passed, o.detail, repr(o.witness),
                     getattr(o.witness, "vars", None))
                    for o in identity_suite()]
        assert outcomes() == outcomes()

    def test_checks_leave_the_tables_unchanged(self):
        assert all(identity_suite())
        # a perturbed copy of a cached datum fails, on its own data
        cls = sing_class("tE6")
        datum = {d.label: d for d in symmetry_data(cls)}["psi3"]
        bad = dataclasses.replace(datum,
                                  psi={**datum.psi, "t1": -datum.psi["t1"]})
        assert not _check_unfolding(cls, bad)
        assert _check_unfolding(cls, datum)
        for label in SYMMETRY_LABELS:
            cls = sing_class(label)
            assert repr(symmetry_data(cls)) == \
                repr(symmetry_data.__wrapped__(cls))
        for label in ELLIPTIC_LABELS:
            cls = sing_class(label)
            assert repr(_kappa_data(cls)) == repr(_kappa_data.__wrapped__(cls))


class TestSuites:
    def test_identity_suite_green(self):
        outcomes = identity_suite()
        assert outcomes and all(o.passed for o in outcomes)

    @pytest.mark.parametrize("label,which,names", [
        ("D5", None, ["D5:phi2"]),
        ("tE6", "psi3", ["tE6:psi3:la-projection", "tE6:psi3"])])
    def test_symmetry_checks_dispatch(self, label, which, names):
        outcomes = symmetry_checks(label, which)
        assert [o.name for o in outcomes] == names
        assert all(o.passed for o in outcomes)

    def test_jacobi_suite_green(self):
        # the scorecard's plan: every class symbolically, and each
        # elliptic class also at two seeded rational la
        outcomes = jacobi_suite()
        assert len(outcomes) == 8 + 3 * 3
        assert all(o.passed for o in outcomes)
