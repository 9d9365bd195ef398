"""Exact symbolic verification of the tabulated polynomial identities.

Three families of checks, all exact:

 * jacobi_dimension     - the graded spanning identity that makes the
                          chosen unfolding universal, i.e. the Jacobi
                          algebra has dimension mu (symbolically in the
                          family parameter or at a rational value);
 * check_unfolding_identity / check_simple_symmetry
                        - the coordinate change phi, the shift Psi and the
                          parameter map psi satisfy
                          F(Psi(phi(x), t), t) = F(x, psi(t)),
                          with psi re-derived from (phi, Psi) and compared
                          against its printed components;
 * check_kappa_extension - the family pulled back along la = kappa^c and
                          rescaled extends holomorphically to kappa = 0,
                          verified against the tabulated extended form in
                          the auxiliary y-variables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .polyalg import MultiPoly, exact_rational, graded_block, parse_poly
from .singdata import (jacobi_system, sing_class, symmetry_data,
                       symmetry_forms, unfolding, unfolding_monomials,
                       weights)

F = Fraction


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    witness: object = None   # offending difference on failure
    detail: str = ""

    def __bool__(self):
        return self.passed


class JacobiRankError(ArithmeticError):
    def __init__(self, label, q, got, want):
        self.q = q
        super().__init__(f"{label}: graded piece q={q} has rank {got}, "
                         f"needs {want}")


# ---------------------------------------------------------------------------
# Jacobi dimension
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _jacobi_plan(cls):
    """The graded pieces `jacobi_dimension` ranks, built once per class:
    (q, GradedPiece) for every achievable degree q up to 1 + max_i w_i, the
    t = 0 diagonal block of `singdata.jacobi_system` at q, in (1, la).

    The partial columns x^a d_k f of degree q lead, then come the unfolding
    monomials of degree q and (elliptic, q = 1) the la-derivative of f;
    every entry is an integer polynomial in la of degree at most 1.  Each
    piece caches its ranks over Q(la) and its certificate, both from one
    elimination (`polyalg.GradedPiece.ranks`), so a call with a lam
    eliminates only at a root of the certificate."""
    wsys = weights(cls)
    basis, degrees, index, entries = jacobi_system(cls)
    at_t0 = {k: v for k, v in entries.items() if k in ((), (("la", 1),))}
    plan = []
    for q in wsys.achievable_degrees(1 + max(w for _, w in wsys.var_weights)):
        cols = [j for j, d in enumerate(degrees) if d == q]
        rows = [index[e] for e in wsys.monomial_basis(q)]
        lead = sum(j < len(degrees) - len(basis) for j in cols)
        plan.append((q, graded_block(at_t0, rows, cols, lead)))
    return tuple(plan)


def jacobi_dimension(cls_or_label, lam=None) -> int:
    """Dimension of the Jacobi algebra certified by graded spanning.

    For every weighted degree q up to 1 + max_i w_i with a nonzero graded
    piece, the partial derivatives (times monomials), the unfolding
    monomials of degree q and (elliptic, q = 1) the la-derivative must span
    the piece; by induction on the degree this pins the dimension to mu.

    lam = None runs the elliptic families symbolically: the ranks are taken
    over Q(la), by one integer elimination at a point where no nonzero
    minor of the piece vanishes (see `polyalg.GradedPiece.ranks`).  An
    `exact_rational` lam outside {0, 1} evaluates there; any other lam (a
    string included) raises ValueError.  An ADE class has no lam, and a
    lam given for one raises ValueError.
    The pieces come from `_jacobi_plan`, built once per class.  At a lam
    each piece evaluates its cached certificate minor and returns its
    ranks over Q(la) where it is nonzero; only at a root does it evaluate
    its entries at lam and eliminate.  For tE6-tE8 the certificates have
    no rational root outside {0, 1}, so every accepted lam takes the
    first path.
    """
    cls = sing_class(cls_or_label)
    if lam is not None:
        if not cls.is_elliptic:
            raise ValueError(f"{cls.label} has no family parameter")
        lam = exact_rational(lam, "family parameter")
        if lam in (0, 1):
            raise ValueError("family parameter must avoid 0 and 1")
    dim = 0
    for q, piece in _jacobi_plan(cls):
        ideal, got = piece.ranks(lam)
        if got != piece.want:
            raise JacobiRankError(cls.label, q, got, piece.want)
        dim += piece.want - ideal
    # degree-0 piece (the constants) is spanned by m_1 = 1
    return dim + 1


# ---------------------------------------------------------------------------
# unfolding symmetry identities
# ---------------------------------------------------------------------------

def _composed_substitution(cls, datum):
    """x_k -> Psi_k(phi(x), t) as polynomials in (x, t)."""
    xv = cls.xvars
    out = {}
    for k, v in enumerate(xv):
        shift = datum.psi_shift.get(v)
        if shift is None:
            expr = datum.phi[v]
        else:
            expr = shift.subst({u: datum.phi[u] for u in xv if u in shift.vars})
        out[v] = expr
    return out


def check_unfolding_identity(cls_or_label, which: str) -> CheckOutcome:
    """F(Psi(phi(x), t), t, la) must be the unfolding at psi(t, la'):
    every non-tabulated x-monomial cancels and the coefficients of the
    tabulated monomials reproduce the printed parameter map exactly.

    For the partially printed map (tE8, psi3) the printed components and
    leading terms are compared; the unprinted remainders are only required
    to avoid the excluded parameters, and are reported in `detail`.
    """
    cls = sing_class(cls_or_label)
    return _check_unfolding(cls, *_symmetries(cls, [which]))


def _symmetries(cls, names):
    """The stored symmetry data of cls with the given names, in that order,
    from one `symmetry_data` call; an unknown name raises ValueError."""
    data = {d.label: d for d in symmetry_data(cls)}
    for w in names:
        if w not in data:
            raise ValueError(f"{cls.label} has no stored symmetry {w!r}")
    return [data[w] for w in names]


def _check_unfolding(cls, datum) -> CheckOutcome:
    """`check_unfolding_identity` on one symmetry datum of cls.

    F and f_target are read from `singdata.symmetry_forms`, realised once
    per class and la-image; phi and Psi are composed and substituted on
    every call.  The computed t_j is the coefficient of the j-th
    unfolding monomial in lhs = F(Psi(phi(x), t), t), read off one
    `coefficient_split` on the x-variables.  The unfolding monomials are
    monic and distinct, so m_j times its coefficient is exactly the part
    of lhs at m_j's exponent, and the residual
    lhs - f_target - sum_j m_j t_j is lhs without the tabulated
    x-monomials, minus f_target, over the variables of lhs - f_target."""
    _, F_full, f_target = symmetry_forms(cls, datum.lam_image,
                                         datum.root_order)
    name = f"{cls.label}:{datum.label}"
    lhs = F_full.subst(_composed_substitution(cls, datum))
    split = lhs.coefficient_split(cls.xvars)
    basis = [next(iter(m.terms)) for m in unfolding_monomials(cls)]
    computed = {f"t{j}": split.get(e, MultiPoly.zero(cls.tvars))
                for j, e in enumerate(basis, start=1)}
    on, tabulated = [lhs.vars.index(v) for v in cls.xvars], set(basis)
    residual = MultiPoly(lhs.vars, {
        e: c for e, c in lhs.terms.items()
        if tuple(e[i] for i in on) not in tabulated}) - f_target
    if not residual.is_zero:
        return CheckOutcome(name, False, residual,
                            "uncancelled monomials outside the unfolding basis")
    details = []
    for tname, got in computed.items():
        want = datum.psi[tname]
        if tname in datum.exclusions:
            diff = got - want
            remainder = diff.coefficient_split(cls.tvars)
            banned = [cls.tvars.index(t) for t in datum.exclusions[tname]]
            if any(expo[i] for expo in remainder for i in banned):
                return CheckOutcome(
                    name, False, diff,
                    f"remainder of {tname} touches excluded parameters")
            details.append(f"{tname}: unprinted remainder with "
                           f"{len(remainder)} terms recorded")
            continue
        if got != want:
            return CheckOutcome(name, False, got - want,
                                f"computed {tname} disagrees with the table")
    return CheckOutcome(name, True, None, "; ".join(details))


def check_lambda_projection(cls_or_label, which: str) -> CheckOutcome:
    """The la-component of the symmetry: f_la(phi(x)) = f_{la'}(x) with
    la' = 1/la (psi2) or 1 - la (psi3), exactly in the datum's Laurent
    ring.  A class without la, or an unknown name, raises ValueError."""
    cls = sing_class(cls_or_label)
    return _check_projection(cls, *_symmetries(cls, [which]))


def _check_projection(cls, datum) -> CheckOutcome:
    """`check_lambda_projection` on one symmetry datum of cls."""
    if not cls.is_elliptic:
        raise ValueError(f"{cls.label} has no family parameter la")
    f, _, f_target = symmetry_forms(cls, datum.lam_image, datum.root_order)
    lhs = f.subst({v: datum.phi[v] for v in cls.xvars})
    diff = lhs - f_target.with_vars(lhs.vars)
    ok = diff.is_zero
    return CheckOutcome(f"{cls.label}:{datum.label}:la-projection", ok,
                        None if ok else diff)


def symmetry_checks(cls_or_label, which=None) -> list:
    """The stored symmetry identities of a class, as CheckOutcomes, the one
    place that maps a class to its checks.

    A D class gives the one `check_simple_symmetry` outcome.  An elliptic
    class gives the la-projection and the unfolding identity of psi2 and
    psi3, or of the one symmetry which names, in that order, from one
    `symmetry_data` call.  A class with no tabulated symmetry data
    (A, E), which on a D class, or an unknown name raises ValueError."""
    cls = sing_class(cls_or_label)
    if cls.family == "D":
        if which is not None:
            raise ValueError(f"{cls.label}'s symmetries are checked "
                             f"together; {which!r} names none of them")
        return [check_simple_symmetry(cls)]
    if not cls.is_elliptic:
        raise ValueError(f"{cls.label} carries no tabulated symmetry data")
    out = []
    for d in _symmetries(cls, ["psi2", "psi3"] if which is None else [which]):
        out += [_check_projection(cls, d), _check_unfolding(cls, d)]
    return out


def check_simple_symmetry(cls_or_label) -> CheckOutcome:
    """The D-family identities, each by `check_unfolding_identity`: the
    sign flip phi2 for every D_mu, and for D_4 also the order-3 coordinate
    change phi3 with its tabulated shift.  One outcome, named after all of
    them (D4:phi2+phi3, D5:phi2), carrying the first failure."""
    cls = sing_class(cls_or_label)
    if cls.family != "D":
        raise ValueError("check_simple_symmetry covers the D families")
    data = symmetry_data(cls)
    name = f"{cls.label}:" + "+".join(d.label for d in data)
    for d in data:
        out = _check_unfolding(cls, d)
        if not out:
            return CheckOutcome(name, False, out.witness, out.detail)
    return CheckOutcome(name, True)


# ---------------------------------------------------------------------------
# extension to kappa = 0
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _kappa_data(cls):
    """(pullback, ydefs, ext) of an elliptic class: pullback maps la to
    kappa^c (c the cover degree), x0 to kappa^e x0 (e the x0 rescale
    exponent) and t_j to rho_j, the tabulated parameter rescale, a Laurent
    polynomial in (s, kappa); ydefs gives the auxiliary y-variables in
    (x, s, kappa), and ext is the extended form over (x, s, kappa, y).

    Parsed and tabulated once per class per process and shared read-only:
    pullback and ydefs are types.MappingProxyType views.  Only the tables
    are cached; `check_kappa_extension` pulls back, rewrites and compares
    on every call."""
    xv = cls.xvars
    sv = tuple(f"s{j}" for j in range(1, cls.mu))
    vs = xv + sv + ("ka",)
    ka = MultiPoly.var("ka", vs)

    def P(text):
        return parse_poly(text, vs)

    if cls.label == "tE6":
        rho = {
            "t1": P("s1"),
            "t2": P("ka^2 * s2 + ka * s5 * s6 - s5^2"),
            "t3": P("s3"), "t4": P("s4"),
            "t5": P("ka^3 * s5"),
            "t6": P("ka * s6 - 2 * s5"),
            "t7": P("s7"),
        }
        x0_scale = -2
        c = 3
        yv = ("y0", "y1", "y2")
        ydefs = {
            "y0": P("x0 * x1 + x0 * s5") * ka ** -1,
            "y1": (P("x0 * x1^2 + 2 * x0 * x1 * s5 + x0 * s5^2")
                   * ka ** -2),
            "y2": P("x0 * x2^2") * ka ** -2,
        }
        ext = parse_poly(
            "x0 * y0 + s6 * y0 - y1 - ka * x0 * x1^2 + x1^3 - y2"
            " + s1 + x0 * s2 + x1 * s3 + x2 * s4 + x1 * x2 * s7",
            vs + yv)
    elif cls.label == "tE7":
        rho = {
            "t1": P("s1"), "t2": P("ka * s2"), "t3": P("s3"),
            "t4": P("ka^2 * s4"), "t5": P("s5"), "t6": P("s6"),
            "t7": P("ka * s7"), "t8": P("s8"),
        }
        x0_scale = -1
        c = 2
        yv = ("y",)
        ydefs = {"y": P("x0 * x1") * ka ** -1}
        ext = parse_poly(
            "x0^2 * y - ka^2 * y^2 - y^2 + x1^2 * y"
            " + s1 + x0 * s2 + x1 * s3 + x0^2 * s4 + y * s5 + x1^2 * s6"
            " + x0 * y * s7 + x1 * y * s8",
            vs + yv)
    elif cls.label == "tE8":
        rho = {
            "t1": P("s1"), "t2": P("ka * s2"), "t3": P("ka^2 * s3"),
            "t4": (P("s4") - (P("s6 * s9") * F(1, 2) + P("s7 * s9^2") * F(1, 4)
                              + P("s9^4") * F(1, 16)) * ka ** -1),
            "t5": P("ka^3 * s5"),
            "t6": P("s6"), "t7": P("ka * s7"),
            "t8": P("s8") - P("s9^2") * F(1, 4) * ka ** -2,
            "t9": P("s9") * ka ** -1,
        }
        x0_scale = -1
        c = 3
        yv = ("y",)
        ydefs = {"y": (P("x0 * x1") - P("x1 * s9") * F(1, 2))
                 * ka ** -1}
        ext = parse_poly(
            "x0^3 * y + 1/2 * x0^2 * s9 * y + 1/4 * x0 * s9^2 * y"
            " + 1/8 * s9^3 * y + x0 * s7 * y + 1/2 * s9 * s7 * y + s6 * y"
            " - ka * x0^2 * x1^2 - y^2 + x1^3"
            " + s1 + x0 * s2 + x0^2 * s3 + x1 * s4 + x0^3 * s5 + x1^2 * s8",
            vs + yv)
    else:
        raise ValueError("kappa extension is defined for the elliptic classes")
    pullback = {"la": ka ** c, "x0": MultiPoly.var("x0", vs) * ka ** x0_scale,
                **rho}
    return MappingProxyType(pullback), MappingProxyType(ydefs), ext


def check_kappa_extension(cls_or_label) -> CheckOutcome:
    """Pull the unfolding back along la = kappa^c and x0 -> kappa^e x0 with
    the tabulated parameter rescale rho; the result, rewritten through the
    auxiliary y-variables, must equal the tabulated extended form, which is
    polynomial in kappa (so the family extends to kappa = 0).

    The pull-back map is tabulated once per class by `_kappa_data`; the
    pull-back, the kappa-polynomial test, the rewrite and the comparison
    run on every call."""
    cls = sing_class(cls_or_label)
    pullback, ydefs, ext = _kappa_data(cls)
    name = f"{cls.label}:kappa-extension"
    pulled = unfolding(cls).subst(pullback)
    if ext.min_degree("ka") < 0:
        return CheckOutcome(name, False, ext,
                            "stored extended form is not polynomial in kappa")
    rewritten = ext.subst(ydefs)
    diff = pulled - rewritten
    ok = diff.is_zero
    detail = "extended form is kappa-polynomial and matches the pullback"
    return CheckOutcome(name, ok, None if ok else diff,
                        detail if ok else "pullback disagrees with the table")


# ---------------------------------------------------------------------------
# suite helpers
# ---------------------------------------------------------------------------

def identity_suite() -> list:
    """Every stored symmetry and extension identity, as CheckOutcomes: the
    `symmetry_checks` of D4, D5, tE6, tE7 and tE8, each elliptic class
    followed by its `check_kappa_extension`."""
    out = []
    for lab in ("D4", "D5", "tE6", "tE7", "tE8"):
        cls = sing_class(lab)
        out += symmetry_checks(cls)
        if cls.is_elliptic:
            out.append(check_kappa_extension(cls))
    return out


def jacobi_suite() -> list:
    """Jacobi dimensions of A2, A3, A5, D4, D5, E6, E7, E8 and the elliptic
    classes, symbolically, and for each elliptic class also at two random
    rational la from random.Random(20240229)."""
    rng = random.Random(20240229)
    out = []
    for lab in ("A2", "A3", "A5", "D4", "D5", "E6", "E7", "E8",
                "tE6", "tE7", "tE8"):
        cls = sing_class(lab)
        dim = jacobi_dimension(cls)
        ok = dim == cls.mu
        out.append(CheckOutcome(f"{lab}:jacobi-dim", ok,
                                None, f"symbolic dimension {dim}"))
        if cls.is_elliptic:
            for _ in range(2):
                lam = F(rng.randint(2, 60), rng.randint(61, 120))
                dim = jacobi_dimension(cls, lam)
                out.append(CheckOutcome(f"{lab}:jacobi-dim@{lam}",
                                        dim == cls.mu, None,
                                        f"dimension {dim}"))
    return out
