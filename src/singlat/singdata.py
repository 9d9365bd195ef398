"""Data tables for the eight singularity families.

Normal forms, unfolding monomials, weight systems, symmetry morphisms and
seed Stokes matrices for A_mu, D_mu, E_6..E_8 and the three one-parameter
elliptic families tE6, tE7, tE8 (Legendre normal forms; the family
parameter is the variable `la`, excluded from {0, 1}).

Every seed Stokes matrix is built in code: the chain for A_mu, the
classical tree for D_mu (mu >= 5) and E7, and Kronecker products of chains
for D4, E6, E8 and the elliptic families (sums of one-variable
singularities in separated variables).  Seeds are validated when built;
the finite orbits are certified by the braid-orbit counts.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from types import MappingProxyType

from .lattice import (StokesMatrix, symmetrized_form, is_connected,
                      definiteness, radical_rank, tensor_rows)
from .polyalg import (MultiPoly, WeightSystem, Cyclo, GAUSS, ZETA8, macaulay,
                      parse_poly)

F = Fraction


@dataclass(frozen=True)
class SingularityClass:
    """One of the eight tabulated families, at minimal variable count."""
    family: str          # A | D | E | tE
    mu: int
    label: str
    nvars: int           # minimal n+1

    @property
    def xvars(self):
        return tuple(f"x{i}" for i in range(self.nvars))

    @property
    def is_elliptic(self):
        """True for the simple elliptic families tE6, tE7, tE8."""
        return self.family == "tE"

    @property
    def n_unfolding(self):
        """Number of unfolding parameters t_j."""
        return self.mu - 1 if self.is_elliptic else self.mu

    @property
    def tvars(self):
        return tuple(f"t{j}" for j in range(1, self.n_unfolding + 1))


# The six exceptional classes, their one table: mu, the variable weights
# in variable order (nvars is their number), the normal form, over (x, la)
# for tE, and the unfolding monomials m_1 .. m_mu, or m_1 .. m_(mu-1).
_EXCEPTIONAL = {
    "E6": (6, (F(1, 4), F(1, 3)), "x0^4 + x1^3",
           ("1", "x0", "x1", "x0^2", "x0 * x1", "x0^2 * x1")),
    "E7": (7, (F(2, 9), F(1, 3)), "x0^3 * x1 + x1^3",
           ("1", "x0", "x1", "x0^2", "x0 * x1", "x0^3", "x0^4")),
    "E8": (8, (F(1, 5), F(1, 3)), "x0^5 + x1^3",
           ("1", "x0", "x1", "x0^2", "x0 * x1", "x0^3", "x0^2 * x1",
            "x0^3 * x1")),
    # x1 (x1 - x0) (x1 - la x0) - x0 x2^2
    "tE6": (8, (F(1, 3),) * 3,
            "x1^3 - x0 * x1^2 - la * x0 * x1^2 + la * x0^2 * x1 - x0 * x2^2",
            ("1", "x0", "x1", "x2", "x0^2", "x0 * x1", "x1 * x2")),
    # x0 x1 (x1 - x0) (x1 - la x0)
    "tE7": (9, (F(1, 4), F(1, 4)),
            "x0 * x1^3 - x0^2 * x1^2 - la * x0^2 * x1^2 + la * x0^3 * x1",
            ("1", "x0", "x1", "x0^2", "x0 * x1", "x1^2", "x0^2 * x1",
             "x0 * x1^2")),
    # x1 (x1 - x0^2) (x1 - la x0^2)
    "tE8": (10, (F(1, 6), F(1, 3)),
            "x1^3 - x0^2 * x1^2 - la * x0^2 * x1^2 + la * x0^4 * x1",
            ("1", "x0", "x0^2", "x1", "x0^3", "x0 * x1", "x0^2 * x1", "x1^2",
             "x0 * x1^2")),
}

_ALIASES = {"Ẽ6": "tE6", "Ẽ7": "tE7", "Ẽ8": "tE8",
            "E~6": "tE6", "E~7": "tE7", "E~8": "tE8"}


def sing_class(label) -> SingularityClass:
    """The class of a label; a SingularityClass comes back unchanged.

    The label, stripped of surrounding white space, is E6, E7, E8, tE6,
    tE7, tE8 (or an alias Ẽ6, E~6, ...), A<mu> with mu >= 1 or D<mu> with
    mu >= 4, mu in ASCII digits without a leading zero.  Anything else
    raises ValueError, so the label of the class is canonical and
    sing_class(c.label) == c."""
    if isinstance(label, SingularityClass):
        return label
    label = str(label).strip()
    label = _ALIASES.get(label, label)
    if label in _EXCEPTIONAL:
        mu, vw, _, _ = _EXCEPTIONAL[label]
        return SingularityClass(label[:-1], mu, label, len(vw))
    m = re.fullmatch(r"([AD])([1-9][0-9]*)", label)
    if m and int(m[2]) >= (1 if m[1] == "A" else 4):
        return SingularityClass(m[1], int(m[2]), label, 1 if m[1] == "A" else 2)
    raise ValueError(f"unknown class {label!r}")


ALL_LABELS = ("A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8",
              "tE6", "tE7", "tE8")


# ---------------------------------------------------------------------------
# normal forms and unfoldings
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def normal_form(cls: SingularityClass) -> MultiPoly:
    """The tabulated polynomial at minimal variable count.

    Elliptic families come back as polynomials in (x..., la) over Q.
    Parsed once per class and shared read-only, like `unfolding`: no code
    writes MultiPoly.terms or .vars in place."""
    xv = cls.xvars
    if cls.family == "A":
        return parse_poly(f"x0^{cls.mu + 1}", xv)
    if cls.family == "D":
        return parse_poly(f"x0^{cls.mu - 1} + x0 * x1^2", xv)
    return parse_poly(_EXCEPTIONAL[cls.label][2],
                      xv + (("la",) if cls.is_elliptic else ()))


@lru_cache(maxsize=None)
def unfolding_monomials(cls: SingularityClass) -> tuple:
    """The tabulated monomials m_1 .. m_mu (ADE) or m_1 .. m_{mu-1}, a
    tuple of MultiPolys parsed once per class and shared read-only."""
    if cls.family == "A":
        texts = ["1"] + [f"x0^{k}" for k in range(1, cls.mu)]
    elif cls.family == "D":
        texts = ["1", "x1", "x0"] + [f"x0^{k}" for k in range(2, cls.mu - 1)]
    else:
        texts = _EXCEPTIONAL[cls.label][3]
    return tuple(parse_poly(t, cls.xvars) for t in texts)


@lru_cache(maxsize=None)
def unfolding(cls: SingularityClass) -> MultiPoly:
    """f + sum_j t_j m_j over (x, t) and, for the elliptic families, la.

    Built once per class and shared: no code writes MultiPoly.terms or
    .vars in place, so callers cannot change the cached polynomial."""
    f = normal_form(cls)
    vs = cls.xvars + cls.tvars + (("la",) if cls.is_elliptic else ())
    out = f.with_vars(vs)
    for j, m in enumerate(unfolding_monomials(cls), start=1):
        out = out + MultiPoly.var(f"t{j}", out.vars) * m.with_vars(out.vars)
    return out


@lru_cache(maxsize=None)
def weights(cls: SingularityClass) -> WeightSystem:
    """The variable weights w, for which the normal form has degree 1, and
    what follows from them: the parameter weights deg_w t_j = 1 - deg_w m_j
    of the unfolding monomials m_j, the Coxeter number 2 / min_j deg_w t_j
    (ADE), and the elliptic common denominator d of the parameter weights.
    Built once per class and shared; a WeightSystem is immutable."""
    mu = cls.mu
    if cls.family == "A":
        vw = (F(1, mu + 1),)
    elif cls.family == "D":
        vw = (F(1, mu - 1), F(mu - 2, 2 * (mu - 1)))
    else:
        vw = _EXCEPTIONAL[cls.label][1]
    vw = tuple(zip(cls.xvars, vw))
    degree = WeightSystem(vw, ()).poly_degree
    tw = tuple(F(1) - degree(m) for m in unfolding_monomials(cls))
    if cls.is_elliptic:
        return WeightSystem(vw, tw,
                            cone_d=math.lcm(*(t.denominator for t in tw)))
    return WeightSystem(vw, tw, coxeter_number=int(2 / min(tw)))


@lru_cache(maxsize=None)
def jacobi_system(cls: SingularityClass):
    """The Macaulay system of the Jacobi algebra Q[x]/(d_x F), compiled once
    per class by `polyalg.macaulay`; `verify._jacobi_plan` and
    `llmap._multiplication_plan` are its views.  The basis b is m_1..m_mu,
    or m_1..m_(mu-1) and df/dla for an elliptic class.  The columns are
    x^a d_k F for every x^a of degree at most top - 1 + w_k, then the b_j,
    with top = 1 + max(deg b_j, w_k).  Returns (basis, degrees, index,
    entries), degrees[j] the degree of column j at t = 0."""
    wsys, Fu = weights(cls), unfolding(cls)
    basis = unfolding_monomials(cls)
    if cls.is_elliptic:
        basis = (*basis, normal_form(cls).partial("la"))
    bdeg = [wsys.poly_degree(b) for b in basis]
    top = 1 + max(*bdeg, *(w for _, w in wsys.var_weights))
    dF = {v: Fu.partial(v) for v, _ in wsys.var_weights}
    cols = [(a, dF[v], q + 1 - w) for v, w in wsys.var_weights
            for a, q in wsys.monomials(top - 1 + w)]
    cols += [((0,) * cls.nvars, b, d) for b, d in zip(basis, bdeg)]
    return (tuple(basis), tuple(d for *_, d in cols),
            *macaulay([(a, g) for a, g, _ in cols], wsys, top))


# ---------------------------------------------------------------------------
# symmetry morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryDatum:
    """One tabulated unfolding symmetry, immutable: the four mapping fields
    are read-only views (types.MappingProxyType) of copies of what the
    constructor, or dataclasses.replace, was given.  So `symmetry_data`
    builds each class's data once per process and shares it read-only;
    the family parameter and its image are realised once per class and
    la-image by `symmetry_forms`, from lam_image and root_order alone, and
    `verify` re-derives every identity from them on every call.

    phi            coordinate change on x (var -> MultiPoly)
    psi_shift      the accompanying shift Psi on x, may involve (t, la)
    psi            stored parameter map components t_j -> expression;
                   for partially printed maps only the printed parts,
                   with `exclusions` naming the t-variables the unprinted
                   remainder of each component must avoid (empty when
                   every component is printed)
    lam_image      'inv' (la -> 1/la) or 'one-minus' (la -> 1-la)
    root_order     m with la realized as nu^m for 'inv' (minimal power
                   clearing the printed fractional exponents); 1 for
                   'one-minus', where la = 1 - a^-1 with a = 1/(1-la).
                   Both realisations embed the parameter ring injectively
                   (see sym_field), so the tables hold exactly when they
                   hold over the family parameter
    """
    label: str
    phi: dict
    psi_shift: dict
    psi: dict
    lam_image: str
    root_order: int
    exclusions: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("phi", "psi_shift", "psi", "exclusions"):
            object.__setattr__(self, name,
                               MappingProxyType(dict(getattr(self, name))))


def sym_field(lam_image, m=1):
    """(g, la): the Laurent generator g of a symmetry's parameter ring and
    la written in it, both MultiPolys over Q.  The one builder of nu and a.

    'inv' (la -> 1/la): g = nu with la = nu^m.  Q(la) embeds in Q(nu), and
    1/la = nu^-m.
    'one-minus' (la -> 1 - la): g = a = 1/(1 - la) with la = 1 - a^-1
    (m is 1).  This identifies Q[la, 1/(1 - la)] with Q[a, 1/a], and
    1 - la = a^-1.

    Both maps are injective ring homomorphisms, so an identity holds in
    the Laurent ring exactly when it holds over la.  Every inverse the
    tables take is a monomial; a non-monomial inverse raises.
    `symmetry_forms` realises la and its image in this ring once per class
    and la-image for the checks."""
    if lam_image == "inv":
        nu = MultiPoly.var("nu")
        return nu, nu ** m
    if lam_image == "one-minus":
        a = MultiPoly.var("a")
        return a, 1 - a ** -1
    raise ValueError(f"no parameter field for the la-image {lam_image!r}")


@lru_cache(maxsize=None)
def symmetry_forms(cls: SingularityClass, lam_image, root_order) -> tuple:
    """(f, F, f_target) for a symmetry of cls with the given la-image and
    root order: the normal form f and the unfolding F with la written in
    the Laurent ring of sym_field(lam_image, root_order), and the la-image
    normal form f_{la'}, la' = 1/la ('inv') or 1 - la ('one-minus').  A
    class without la gets (f, F, f).  The one home of the la-image rule.

    Realised once per class and la-image and shared read-only, like
    `normal_form` and `unfolding`; `verify` composes, substitutes and
    compares on every call."""
    f, F_full = normal_form(cls), unfolding(cls)
    if not cls.is_elliptic:
        return f, F_full, f
    _, la = sym_field(lam_image, root_order)
    la_image = la ** -1 if lam_image == "inv" else 1 - la
    return (f.subst({"la": la}), F_full.subst({"la": la}),
            f.subst({"la": la_image}))


def _poly(terms, vs):
    """A table entry over the variables vs from {exponent: coefficient}.
    A coefficient is rational, cyclotomic or a Laurent polynomial in the
    field generator of sym_field, whose variable then joins vs."""
    out = MultiPoly.zero(vs)
    for e, c in terms.items():
        out = out + MultiPoly(vs, {e: F(1)}) * c
    return out


def _scalings(tv, scale):
    """The diagonal parameter map t_j -> scale[j] t_j."""
    return {t: _poly({tuple(int(u == t) for u in tv): scale[j]}, tv)
            for j, t in enumerate(tv, start=1)}


@lru_cache(maxsize=None)
def symmetry_data(cls: SingularityClass) -> tuple:
    """The tabulated morphism data, a tuple of SymmetryDatum; D families
    carry phi2 (and phi3 for D4), elliptic families carry psi2 and psi3,
    the other classes none.

    Built from Cyclo and Laurent arithmetic once per class per process and
    shared read-only: the tuple and its data are immutable.  Only the
    tables, and the forms `symmetry_forms` realises in each datum's
    Laurent ring, are cached; `verify` re-derives every identity from them
    on every call."""
    if cls.family == "D":
        return _d_family_symmetries(cls)
    if cls.is_elliptic:
        return (_elliptic_symmetry(cls, "psi2"),
                _elliptic_symmetry(cls, "psi3"))
    return ()


def _d_family_symmetries(cls):
    xv = cls.xvars
    out = []
    phi2 = {"x0": parse_poly("x0", xv), "x1": parse_poly("- x1", xv)}
    psi2 = {f"t{j}": (parse_poly(f"- t{j}" if j == 2 else f"t{j}", cls.tvars))
            for j in range(1, cls.mu + 1)}
    out.append(SymmetryDatum("phi2", phi2, {}, psi2, "id", 1))
    if cls.mu == 4:
        i_ = Cyclo.gen(GAUSS)
        # phi3(x) = (-x0/2 - i x1/2, 3i x0/2 + x1/2)
        phi3 = {
            "x0": _poly({(1, 0): F(-1, 2), (0, 1): F(-1, 2) * i_}, xv),
            "x1": _poly({(1, 0): F(3, 2) * i_, (0, 1): F(1, 2)}, xv),
        }
        # Phi3 shifts by multiples of t4; the tabulated x1-shift is i/4 * t4
        # (the unique ansatz making the identity close, as
        # verify.check_unfolding_identity checks).
        vs = xv + ("t4",)
        psi_shift3 = {
            "x0": _poly({(1, 0, 0): 1, (0, 0, 1): F(-1, 4)}, vs),
            "x1": _poly({(0, 1, 0): 1, (0, 0, 1): F(1, 4) * i_}, vs),
        }
        tv = cls.tvars
        psi3 = {
            "t1": _poly({(1, 0, 0, 0): 1, (0, 1, 0, 1): F(1, 4) * i_,
                         (0, 0, 1, 1): F(-1, 4), (0, 0, 0, 3): F(1, 16)}, tv),
            "t2": _poly({(0, 1, 0, 0): F(1, 2), (0, 0, 1, 0): F(-1, 2) * i_,
                         (0, 0, 0, 2): F(1, 8) * i_}, tv),
            "t3": _poly({(0, 1, 0, 0): F(3, 2) * i_, (0, 0, 1, 0): F(-1, 2),
                         (0, 0, 0, 2): F(3, 8)}, tv),
            "t4": _poly({(0, 0, 0, 1): 1}, tv),
        }
        out.append(SymmetryDatum("phi3", phi3, psi_shift3, psi3, "id", 1))
    return tuple(out)


def _elliptic_symmetry(cls, which):
    builders = {"tE6": _te6_symmetry, "tE7": _te7_symmetry, "tE8": _te8_symmetry}
    return builders[cls.label](which)


def _te6_symmetry(which):
    xv = ("x0", "x1", "x2")
    tv = tuple(f"t{j}" for j in range(1, 8))
    if which == "psi2":
        m = 2
        half, la = sym_field("inv", m)      # half = la^(1/2)
        phi = {"x0": _poly({(1, 0, 0): la ** -1}, xv),
               "x1": _poly({(0, 1, 0): 1}, xv),
               "x2": _poly({(0, 0, 1): half}, xv)}
        scale = {1: 1, 2: la ** -1, 3: 1, 4: half, 5: la ** -2, 6: la ** -1,
                 7: half}
        return SymmetryDatum("psi2", phi, {}, _scalings(tv, scale), "inv", m)
    i_ = Cyclo.gen(GAUSS)
    phi = {"x0": _poly({(1, 0, 0): -1}, xv),
           "x1": _poly({(0, 1, 0): 1, (1, 0, 0): -1}, xv),
           "x2": _poly({(0, 0, 1): i_}, xv)}
    # shift in the changed coordinates (the tabulated pre-change shift
    # x2 - (i/2) t7 conjugated through phi)
    vs = xv + ("t7",)
    shift = {"x2": _poly({(0, 0, 1, 0): 1, (0, 0, 0, 1): F(1, 2)}, vs)}
    e = lambda *idx: tuple(idx)
    psi = {
        "t1": _poly({e(1, 0, 0, 0, 0, 0, 0): 1,
                     e(0, 0, 0, 1, 0, 0, 1): F(1, 2)}, tv),
        "t2": _poly({e(0, 1, 0, 0, 0, 0, 0): -1, e(0, 0, 1, 0, 0, 0, 0): -1,
                     e(0, 0, 0, 0, 0, 0, 2): F(-1, 4)}, tv),
        "t3": _poly({e(0, 0, 1, 0, 0, 0, 0): 1,
                     e(0, 0, 0, 0, 0, 0, 2): F(1, 2)}, tv),
        "t4": _poly({e(0, 0, 0, 1, 0, 0, 0): i_}, tv),
        "t5": _poly({e(0, 0, 0, 0, 1, 0, 0): 1, e(0, 0, 0, 0, 0, 1, 0): 1}, tv),
        "t6": _poly({e(0, 0, 0, 0, 0, 1, 0): -1}, tv),
        "t7": _poly({e(0, 0, 0, 0, 0, 0, 1): i_}, tv),
    }
    return SymmetryDatum("psi3", phi, shift, psi, "one-minus", 1)


def _te7_symmetry(which):
    xv = ("x0", "x1")
    tv = tuple(f"t{j}" for j in range(1, 9))
    if which == "psi2":
        m = 4
        q, _ = sym_field("inv", m)          # q = la^(1/4)
        phi = {"x0": _poly({(1, 0): q ** -3}, xv), "x1": _poly({(0, 1): q}, xv)}
        scale = {1: 1, 2: q ** -3, 3: q, 4: q ** -6,
                 5: q ** -2, 6: q ** 2, 7: q ** -5, 8: q ** -1}
        return SymmetryDatum("psi2", phi, {}, _scalings(tv, scale), "inv", m)
    xi = Cyclo.gen(ZETA8)
    _, la = sym_field("one-minus")
    A = (1 - la) ** -1                      # 1/(1-la), the generator a

    phi = {"x0": _poly({(1, 0): -xi}, xv),
           "x1": _poly({(0, 1): xi, (1, 0): -xi}, xv)}
    vs = xv + ("t7", "t8")
    shift = {"x1": _poly({(0, 1, 0, 0): 1,
                          (0, 0, 1, 0): -A, (0, 0, 0, 1): -A}, vs)}

    def e(**kw):
        return tuple(kw.get(f"t{j}", 0) for j in range(1, 9))

    x2, x3 = xi ** 2, xi ** 3
    psi = {
        "t1": _poly({e(t1=1): 1, e(t3=1, t7=1): -A, e(t3=1, t8=1): -A,
                     e(t6=1, t7=2): A * A, e(t6=1, t7=1, t8=1): 2 * A * A,
                     e(t6=1, t8=2): A * A}, tv),
        "t2": _poly({e(t2=1): -xi, e(t3=1): -xi,
                     e(t5=1, t7=1): xi * A, e(t5=1, t8=1): xi * A,
                     e(t6=1, t7=1): 2 * xi * A, e(t6=1, t8=1): 2 * xi * A,
                     e(t7=3): xi * A ** 3,
                     e(t7=2, t8=1): -xi * A * A + 3 * xi * A ** 3,
                     e(t7=1, t8=2): -2 * xi * A * A + 3 * xi * A ** 3,
                     e(t8=3): -xi * A * A + xi * A ** 3}, tv),
        "t3": _poly({e(t3=1): xi, e(t6=1, t7=1): -2 * xi * A,
                     e(t6=1, t8=1): -2 * xi * A}, tv),
        "t4": _poly({e(t4=1): x2, e(t5=1): x2, e(t6=1): x2,
                     e(t7=2): -x2 * A + x2 * (2 - la) * A * A,
                     e(t7=1, t8=1): (-x2 * A - 2 * x2 * A
                                     + x2 * (2 - la) * 2 * A * A),
                     e(t8=2): -2 * x2 * A + x2 * (2 - la) * A * A}, tv),
        "t5": _poly({e(t5=1): -x2, e(t6=1): -2 * x2,
                     e(t7=1, t8=1): 2 * x2 * A - 3 * x2 * 2 * A * A,
                     e(t8=2): 2 * x2 * A - 3 * x2 * A * A,
                     e(t7=2): -3 * x2 * A * A}, tv),
        "t6": _poly({e(t6=1): x2}, tv),
        "t7": _poly({e(t7=1): x3 * A * (la - 3), e(t8=1): -2 * x3 * A}, tv),
        "t8": _poly({e(t7=1): 3 * x3 * A, e(t8=1): x3 * A * (2 + la)}, tv),
    }
    return SymmetryDatum("psi3", phi, shift, psi, "one-minus", 1)


def _te8_symmetry(which):
    xv = ("x0", "x1")
    tv = tuple(f"t{j}" for j in range(1, 10))
    if which == "psi2":
        m = 2
        h, la = sym_field("inv", m)         # h = la^(1/2)
        phi = {"x0": _poly({(1, 0): h ** -1}, xv), "x1": _poly({(0, 1): 1}, xv)}
        scale = {1: 1, 2: h ** -1, 3: la ** -1, 4: 1, 5: h ** -3,
                 6: h ** -1, 7: la ** -1, 8: 1, 9: h ** -1}
        return SymmetryDatum("psi2", phi, {}, _scalings(tv, scale), "inv", m)
    i_ = Cyclo.gen(GAUSS)
    _, la = sym_field("one-minus")
    A = (1 - la) ** -1             # 1/(1-la)
    B = A * A                      # 1/(1-la)^2

    phi = {"x0": _poly({(1, 0): i_}, xv),
           "x1": _poly({(0, 1): 1, (2, 0): -1}, xv)}
    # shift in the changed coordinates; the parameter-map components t7..t9
    # it produces reproduce the printed table exactly, certifying the signs
    vs = xv + ("t7", "t8", "t9")
    shift = {
        "x0": _poly({(1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1): F(1, 2) * B}, vs),
        "x1": _poly({(0, 1, 0, 0, 0): 1,
                     (0, 0, 1, 0, 0): -A, (0, 0, 0, 1, 0): -A,
                     (1, 0, 0, 0, 1): la * B,
                     (0, 0, 0, 0, 2): F(1, 4) * (4 * la * la - 2 * la - 1)
                     * B * B}, vs),
    }

    def e(**kw):
        return tuple(kw.get(f"t{j}", 0) for j in range(1, 10))

    # fully printed components (1/(la-1) = -A throughout), then the printed
    # leading terms of the rest
    psi = {
        "t7": _poly({e(t7=1): -(la - 3) * A, e(t8=1): 2 * A,
                     e(t9=2): F(1, 2) * (6 * la + 1) * A ** 3}, tv),
        "t8": _poly({e(t7=1): -3 * A, e(t8=1): -(la + 2) * A,
                     e(t9=2): F(1, 4) * (14 * la * la - 11 * la - 2) * B * B},
                    tv),
        "t9": _poly({e(t9=1): i_ * la * la * B}, tv),
    }
    leading = {
        "t1": _poly({e(t1=1): 1}, tv),
        "t2": _poly({e(t2=1): i_}, tv),
        "t3": _poly({e(t3=1): -1, e(t4=1): -1}, tv),
        "t4": _poly({e(t4=1): 1}, tv),
        "t5": _poly({e(t5=1): -i_, e(t6=1): -i_}, tv),
        "t6": _poly({e(t6=1): i_}, tv),
    }
    psi.update(leading)
    exclusions = {"t1": ("t1",), "t2": ("t1", "t2"),
                  "t3": ("t1", "t2", "t3", "t4"),
                  "t4": ("t1", "t2", "t3", "t4", "t5"),
                  "t5": ("t1", "t2", "t3", "t4", "t5", "t6"),
                  "t6": ("t1", "t2", "t3", "t4", "t5", "t6")}
    return SymmetryDatum("psi3", phi, shift, psi, "one-minus", 1, exclusions)


# ---------------------------------------------------------------------------
# seed Stokes matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedRecord:
    cls: SingularityClass
    stokes: StokesMatrix
    provenance: str
    source: str = ""


class SeedError(ValueError):
    pass


def tensor_stokes(s1: StokesMatrix, s2: StokesMatrix) -> StokesMatrix:
    """Kronecker product matching the lexicographic vanishing-cycle order
    of a sum of singularities in separated variables."""
    return StokesMatrix(tensor_rows(s1.rows, s2.rows))


# Classes with a sum-of-separated-variables representative: chain lengths
# of the summands and the representative.  The seed is the Kronecker
# product of the chain seeds (Thom-Sebastiani; Gabrielov's tensor rule).
TENSOR_SEEDS = {
    "D4": ((2, 2), "x^3 + y^3"),
    "E6": ((3, 2), "x^4 + y^3"),
    "E8": ((4, 2), "x^5 + y^3"),
    "tE6": ((2, 2, 2), "x^3 + y^3 + z^3"),
    "tE7": ((3, 3), "x^4 + y^4"),
    "tE8": ((2, 5), "x^3 + y^6"),
}


def _tree_stokes(mu, edges):
    """Unitriangular Stokes matrix with entry -1 on every tree edge."""
    rows = [[1 if i == j else 0 for j in range(mu)] for i in range(mu)]
    for i, j in edges:
        rows[min(i, j)][max(i, j)] = -1
    return StokesMatrix(tuple(tuple(r) for r in rows))


def _builtin_seed(cls):
    mu = cls.mu
    if cls.family == "A":
        return SeedRecord(cls, StokesMatrix.chain(mu), "builtin",
                          "one-variable chain diagram")
    if cls.label in TENSOR_SEEDS:
        factors, poly = TENSOR_SEEDS[cls.label]
        stokes = reduce(tensor_stokes, map(StokesMatrix.chain, factors))
        names = " x ".join(f"A{m}" for m in factors)
        return SeedRecord(cls, stokes, "tensor-derived",
                          f"Kronecker product {names} of chain seeds from "
                          f"the separated-variables representative {poly} "
                          "(Thom-Sebastiani/Gabrielov tensor rule)")
    if cls.family == "D":
        # a chain of mu-1 vertices, the last vertex forking off the
        # second-to-last chain vertex
        edges = [(i, i + 1) for i in range(mu - 2)] + [(mu - 3, mu - 1)]
    else:
        # E7: a chain of six, the last vertex forking off the fourth
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]
    return SeedRecord(cls, _tree_stokes(mu, edges), "builtin",
                      "classical tree diagram of the family (A'Campo/"
                      "Gabrielov 1973-74, Ebeling, Funktionentheorie ch. 5)")


def _seed_from_file(cls, seed_dir):
    path = os.path.join(seed_dir, cls.label.lower() + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SeedError(f"{cls.label}: cannot read seed file {path}: {exc}")
    if not isinstance(doc, dict):
        raise SeedError(f"{cls.label}: seed file {path} is not a JSON object")
    for key in ("class", "mu", "upper", "source"):
        if key not in doc:
            raise SeedError(f"{cls.label}: seed file missing field {key!r}")
    try:
        if doc["class"] != cls.label or _strict_int(doc["mu"]) != cls.mu:
            raise SeedError(f"{cls.label}: seed file metadata mismatch in "
                            f"{path}")
        stokes = _stokes_from_upper(cls.mu, doc["upper"])
    except (TypeError, KeyError) as exc:
        raise SeedError(f"{cls.label}: malformed seed file {path}: {exc!r}")
    return SeedRecord(cls, stokes, "external-file", doc["source"])


def _strict_int(v):
    """A JSON integer; floats, booleans and strings are rejected rather
    than truncated."""
    if type(v) is not int:
        raise SeedError(f"expected an integer, got {v!r}")
    return v


def _stokes_from_upper(mu, upper):
    if len(upper) != mu - 1:
        raise SeedError("upper part must have mu-1 rows")
    rows = []
    for i in range(mu):
        if i < mu - 1 and len(upper[i]) != mu - 1 - i:
            raise SeedError(f"row {i} of upper part has wrong length")
        row = [0] * i + [1] + ([_strict_int(v) for v in upper[i]]
                               if i < mu - 1 else [])
        rows.append(tuple(row))
    return StokesMatrix(tuple(rows))


def validate_seed(cls: SingularityClass, s: StokesMatrix):
    """Triangularity, entry bounds, connectivity, and positive
    (semi)definiteness with the right radical rank: the kind of the form
    I = S + S^t is read off its characteristic polynomial
    (`lattice.definiteness`), the radical rank off one fraction-free
    elimination (`lattice.radical_rank`).

    The monodromy M = -S^{-1} S^t of a seed that passes is quasiunipotent,
    so it is not checked here.  M is the Coxeter element s_1 ... s_mu of the
    reflections s_k(v) = v - I(e_k, v) e_k of the form I = S + S^t.  Each
    s_k preserves I and the lattice Z^mu, and fixes the radical R of I
    pointwise, since I(e_k, r) = 0 for r in R.  R is a saturated
    sublattice, and I induces a positive definite form on the free quotient
    Z^mu / R, which the reflections preserve.  The automorphisms of a
    lattice preserving a positive definite form make a finite group, so M
    acts on the quotient with finite order and as the identity on R.  Its
    characteristic polynomial is therefore (t - 1)^rank(R) times a divisor
    of t^N - 1 for some N: a product of cyclotomic polynomials."""
    if s.mu != cls.mu:
        raise SeedError(f"{cls.label}: seed rank {s.mu} != mu {cls.mu}")
    bound = 2 if cls.is_elliptic else 1
    if s.entry_bound() > bound:
        raise SeedError(f"{cls.label}: off-diagonal entries exceed {bound}")
    if not is_connected(s):
        raise SeedError(f"{cls.label}: diagram is disconnected")
    i = symmetrized_form(s)
    kind = definiteness(i.rows)   # one cache entry, shared with braid
    if cls.is_elliptic:
        if kind != "positive-semidefinite" or radical_rank(i) != 2:
            raise SeedError(f"{cls.label}: form must be psd with radical 2")
    else:
        if kind != "positive-definite":
            raise SeedError(f"{cls.label}: form must be positive definite")
    return True


def seed_stokes(cls, seed_dir=None) -> SeedRecord:
    """Seed Stokes matrix of the class, strictly validated.

    Built in code: the chain for A_mu, Kronecker products of chains for
    the classes in TENSOR_SEEDS, the classical tree for D_mu (mu >= 5) and
    E7.  With seed_dir, the seed is read from <seed_dir>/<label>.json
    (lower-case label; fields class, mu, upper, source) instead."""
    cls = sing_class(cls)
    rec = _builtin_seed(cls) if seed_dir is None \
        else _seed_from_file(cls, seed_dir)
    validate_seed(cls, rec.stokes)
    return rec
