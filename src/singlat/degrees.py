"""Closed-form covering degrees and class counts.

Degrees of the parameter-space covering by critical-value configurations
(deg LL) for all eight families, the weighted-cone Segre-class route that
independently reproduces the elliptic degrees from tabulated parameter
orders, and the distinguished-basis / Stokes-class count tables derived
from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .singdata import sing_class, weights

F = Fraction


def factorize(n: int) -> dict:
    """Prime factorization by trial division (our values are small-smooth)."""
    n = int(n)
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class DegreeBreakdown:
    label: str
    deg_ll: int
    factorization: dict
    inputs: dict

    def as_doc(self):
        return {
            "class": self.label,
            "deg_ll": self.deg_ll,
            "factorization": {str(p): e for p, e in
                              sorted(self.factorization.items())},
            "inputs": {k: str(v) for k, v in self.inputs.items()},
        }


def deg_ll_simple(cls_or_label) -> DegreeBreakdown:
    """mu! / prod_j deg_w t_j, an exact integer for every ADE class."""
    cls = sing_class(cls_or_label)
    if cls.is_elliptic:
        raise ValueError("deg_ll_simple needs an ADE class")
    tw = weights(cls).t_weights
    prod = math.prod(tw, start=F(1))
    val = F(math.factorial(cls.mu)) / prod
    if val.denominator != 1:
        raise ArithmeticError(f"{cls.label}: weight table corrupt")
    n = int(val)
    return DegreeBreakdown(cls.label, n, factorize(n),
                           {"mu_factorial": math.factorial(cls.mu),
                            "prod_deg_t": prod})


def deg_ll_elliptic(cls_or_label) -> DegreeBreakdown:
    """mu! * (1/2) sum_{j=2}^{mu-1} 1/deg_w t_j / prod_{j=2}^{mu-1} deg_w t_j."""
    cls = sing_class(cls_or_label)
    if not cls.is_elliptic:
        raise ValueError("deg_ll_elliptic needs an elliptic class")
    tw = weights(cls).t_weights[1:]  # j = 2 .. mu-1
    prod = math.prod(tw, start=F(1))
    half_sum = sum((F(1) / w for w in tw), start=F(0)) / 2
    val = F(math.factorial(cls.mu)) * half_sum / prod
    if val.denominator != 1:
        raise ArithmeticError(f"{cls.label}: weight table corrupt")
    n = int(val)
    return DegreeBreakdown(cls.label, n, factorize(n),
                           {"mu_factorial": math.factorial(cls.mu),
                            "prod_deg_t": prod, "half_sum_inv": half_sum})


def deg_ll(cls_or_label) -> DegreeBreakdown:
    cls = sing_class(cls_or_label)
    return deg_ll_elliptic(cls) if cls.is_elliptic else deg_ll_simple(cls)


# ---------------------------------------------------------------------------
# Segre route for the elliptic degrees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegreInputs:
    label: str
    a: tuple        # cone weights upstairs, mu-2 integers
    b: tuple        # cone weights downstairs, mu-1 integers
    degC_over_degp: dict  # k -> -deg C_(k) / deg p, a positive rational


def segre_degree(a, b, degc) -> Fraction:
    """Weighted-cone covering degree (prod b / prod a) * (-sum_k degC_k / k)."""
    pa = math.prod(a, start=F(1))
    pb = math.prod(b, start=F(1))
    total = sum((F(-1) * F(v) / k for k, v in degc.items()), start=F(0))
    return F(pb) / pa * total


# Parameter orders of la in the three gluing maps, per weight level k.
# Each row: k -> (orders in rho, orders in psi3, orders in psi2); rho enters
# the assembled degree three times, psi3 and psi2 once each.
LAMBDA_ORDERS = {
    "tE6": {
        1: ((F(0), F(1, 3), F(1)), (F(0), F(0), F(0)), (F(1, 2), F(-1), F(-2))),
        2: ((F(0), F(0), F(2, 3)), (F(0), F(0), F(0)), (F(1, 2), F(0), F(-1))),
    },
    "tE7": {
        1: ((F(0), F(1, 2)), (F(1),), (F(-1, 4), F(-5, 4))),
        2: ((F(0), F(0), F(1)), (F(0), F(0), F(0)),
            (F(1, 2), F(-1, 2), F(-3, 2))),
        3: ((F(0), F(1, 2)), (F(0), F(0)), (F(1, 4), F(-3, 4))),
    },
    "tE8": {
        1: ((F(-1, 3),), (F(2),), (F(-1, 2),)),
        2: ((F(0), F(1, 3)), (F(1),), (F(0), F(-1))),
        3: ((F(0), F(1)), (F(0), F(0)), (F(-1, 2), F(-3, 2))),
        4: ((F(0), F(2, 3)), (F(0), F(0)), (F(0), F(-1))),
        5: ((F(1, 3),), (F(0),), (F(-1, 2),)),
    },
}


def cone_weights(cls_or_label) -> SegreInputs:
    """a = d * (deg_w t_{mu-1} .. t_2), b = d * (2 .. mu)."""
    cls = sing_class(cls_or_label)
    if not cls.is_elliptic:
        raise ValueError("cone weights are defined for the elliptic classes")
    w = weights(cls)
    d = w.cone_d
    a = tuple(int(d * t) for t in reversed(w.t_weights[1:]))
    if any(d * t != int(d * t) for t in w.t_weights[1:]):
        raise ArithmeticError("cone denominator does not clear the weights")
    b = tuple(d * k for k in range(2, cls.mu + 1))
    return SegreInputs(cls.label, a, b, degC_from_lambda_orders(cls))


def degC_from_lambda_orders(cls_or_label) -> dict:
    """Per weight level k: 3*(rho orders) + (psi3 orders) + (psi2 orders),
    which must equal half the number of cone weights at that level."""
    cls = sing_class(cls_or_label)
    rows = LAMBDA_ORDERS[cls.label]
    w = weights(cls)
    d = w.cone_d
    a = [int(d * t) for t in reversed(w.t_weights[1:])]
    out = {}
    for k, (rho, psi3, psi2) in rows.items():
        val = 3 * sum(rho) + sum(psi3) + sum(psi2)
        expected = F(len([x for x in a if x == k]), 2)
        if val != expected:
            raise ArithmeticError(
                f"{cls.label}, k={k}: parameter-order table gives {val}, "
                f"weight multiplicity demands {expected}")
        out[k] = val
    if sorted(out) != sorted(set(a)):
        raise ArithmeticError(f"{cls.label}: weight levels do not match table")
    return out


def deg_ll_via_segre(cls_or_label) -> int:
    """Independent elliptic degree: assemble the cone data and apply the
    Segre-class formula; must agree with deg_ll_elliptic."""
    si = cone_weights(cls_or_label)
    val = segre_degree(si.a, si.b, {k: -v for k, v in si.degC_over_degp.items()})
    if val.denominator != 1:
        raise ArithmeticError("Segre route produced a non-integer")
    return int(val)


# ---------------------------------------------------------------------------
# class counts
# ---------------------------------------------------------------------------

def u1_size(p, q, r) -> int:
    """|{(a,b,c) in Z/p x Z/q x Z/r : a/p + b/q + c/r = 0 mod Z}|, counted
    in integers: a/p + b/q + c/r is an integer iff
    a qr + b pr + c pq = 0 mod pqr."""
    n = p * q * r
    return sum((a * q * r + b * p * r + c * p * q) % n == 0
               for a in range(p) for b in range(q) for c in range(r))


U_DATA = {  # (p, q, r), |U2|
    "tE6": ((3, 3, 3), 6),
    "tE7": ((4, 4, 2), 2),
    "tE8": ((6, 3, 2), 1),
}


def quotient_degree(cls_or_label) -> int:
    """|S_3| * |U_1^0| * |U_2|; the generic degree of the parameter space
    over the marked moduli quotient.  For tE6 this is 324 (the printed 326
    is an arithmetic slip: 6*2*3*3^2 = 324, and 24800580/324 = 76545
    matches the independently known Stokes-class count)."""
    cls = sing_class(cls_or_label)
    (p, q, r), u2 = U_DATA[cls.label]
    return 6 * u1_size(p, q, r) * u2


def gz_order(cls_or_label) -> int:
    """Order of the symmetry group of the Milnor lattice, ADE classes."""
    cls = sing_class(cls_or_label)
    if cls.family == "A":
        if cls.mu < 2:
            raise ValueError("the count tables start at mu = 2 for the "
                             "chain family")
        return 2 * (cls.mu + 1)
    if cls.family == "D":
        return 36 if cls.mu == 4 else 4 * (cls.mu - 1)
    return {6: 24, 7: 18, 8: 30}[cls.mu]


def bases_class_count(cls_or_label) -> int:
    """|distinguished bases / sign group| = deg LL for the ADE classes.
    Infinite for the elliptic classes."""
    cls = sing_class(cls_or_label)
    if cls.is_elliptic:
        raise ValueError(f"{cls.label}: the set of distinguished bases is "
                         "infinite")
    return deg_ll_simple(cls).deg_ll


def stokes_class_count(cls_or_label) -> int:
    """|Stokes matrices / sign group|.

    ADE: 2 * deg LL / |G_Z|;  elliptic: deg LL / quotient_degree."""
    cls = sing_class(cls_or_label)
    if cls.is_elliptic:
        num, den = deg_ll_elliptic(cls).deg_ll, quotient_degree(cls)
    else:
        num, den = 2 * deg_ll_simple(cls).deg_ll, gz_order(cls)
    if num % den :
        raise ArithmeticError(f"{cls.label}: count is not integral")
    return num // den


def full_basis_count(cls_or_label) -> int:
    """|distinguished bases| = 2^mu * |bases / sign group| (ADE only)."""
    cls = sing_class(cls_or_label)
    return (2 ** cls.mu) * bases_class_count(cls)


def stokes_total(cls_or_label) -> int:
    """|Stokes matrices| = 2^(mu-1) * |Stokes matrices / sign group|;
    the sign group acts with the single global-sign kernel because every
    diagram in the orbit is connected."""
    cls = sing_class(cls_or_label)
    return (2 ** (cls.mu - 1)) * stokes_class_count(cls)


def counts_row(cls_or_label) -> dict:
    """The full count-table row for the class."""
    cls = sing_class(cls_or_label)
    row = {"class": cls.label, "mu": cls.mu,
           "deg_ll": deg_ll(cls).deg_ll,
           "stokes_classes": stokes_class_count(cls),
           "stokes_total": stokes_total(cls)}
    if cls.is_elliptic:
        row["quotient_degree"] = quotient_degree(cls)
        row["bases_classes"] = None  # infinite
        row["deg_ll_segre"] = deg_ll_via_segre(cls)
    else:
        row["gz_order"] = gz_order(cls)
        row["bases_classes"] = bases_class_count(cls)
        row["bases_total"] = full_basis_count(cls)
    return row
