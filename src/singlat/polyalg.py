"""Exact multivariate polynomial arithmetic and fraction-free elimination.

Everything here is exact: coefficients are rationals or elements of small
cyclotomic extensions of Q (for i and the primitive 8th root of unity).
A cyclotomic element, a Cyclo, is an integer coefficient vector over one
positive denominator in lowest terms, so its arithmetic is integer
arithmetic and equal elements are stored alike.
MultiPoly is a sparse Laurent polynomial in named variables over either
domain; a rational coefficient is an int when it is integral and a
Fraction otherwise, so integer coefficients stay Python ints, and every
coefficient division is exact (`_quotient`).  The domains only need +, -,
*, / and a truthiness test, so they mix freely through Python's operator
coercion.  Cyclo, RatFunc and MultiPoly
derive -, / and ** from one base, `_Ring`.  Cyclo and MultiPoly each keep
an invariant (see their docstrings) that the public constructor checks
and establishes for outside data; the arithmetic produces only values that
hold it and stores them through the private `_raw`, without a re-check.
`macaulay` is the one weighted Macaulay compiler, and a graded piece is
one block of it (`graded_block`).
Fraction-free (Bareiss) elimination, `_pivot_columns`, is the one exact
rank and determinant routine: the resultant (on the Sylvester matrix),
the discriminant test (on a Hankel matrix of Newton sums), the
Milnor-lattice determinants and the graded Jacobi ranks all run it, the
resultant alone on polynomial entries.  A graded rank over Q(la) is an
elimination over Z at one integer value of la where no nonzero minor
vanishes, and the pivot minor of that elimination is cached as a
certificate: at a given la the ranks are read off it, with an elimination
only at its roots (`GradedPiece.ranks`).
The argument rules shared across the package live here too: a count is
a `positive_int`, an exact input is an `exact_rational`, a numeric one is
a `finite_complex`, and a container is read once by `entries`.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import numbers
import operator
import re
from dataclasses import dataclass
from fractions import Fraction


# ---------------------------------------------------------------------------
# argument checks
# ---------------------------------------------------------------------------

def positive_int(v, name):
    """v as an int, for an integer of at least 1; a bool, a float, a
    string or any other non-integer, or an integer below 1, raises
    ValueError naming the argument."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {v!r}")
    if v < 1:
        raise ValueError(f"{name} must be at least 1, got {v}")
    return operator.index(v)


def exact_rational(v, name):
    """v as a Fraction, for any rational number (numbers.Rational, a bool
    excepted) and for a finite float, at its exact binary value.  A
    string, a bool, a complex number, NaN, an infinity or anything else
    raises ValueError naming the argument: nothing is parsed."""
    if type(v) is Fraction:
        return v
    if type(v) is int:   # the common case, without the ABC check
        return Fraction(v)
    if isinstance(v, numbers.Rational) and not isinstance(v, bool):
        return Fraction(operator.index(v.numerator),
                        operator.index(v.denominator))
    if isinstance(v, float) and math.isfinite(v):
        return Fraction(v)
    raise ValueError(f"{name} {v!r} is not rational")


def finite_complex(v, name):
    """v as a complex, for any complex number (numbers.Complex, a bool
    excepted) with finite real and imaginary parts.  A string, a bool, NaN,
    an infinity, a number beyond the float range or anything else raises
    ValueError naming the argument: nothing is parsed."""
    if isinstance(v, numbers.Complex) and not isinstance(v, bool):
        with contextlib.suppress(OverflowError):
            z = complex(v)
            if cmath.isfinite(z):
                return z
    raise ValueError(f"{name} {v!r} is not a finite complex number")


def entries(v, name, read=None):
    """The entries of the container v (an iterator included), read once
    into a tuple, each through read(entry, name) when a read is given.  A
    v that is not iterable raises ValueError naming the argument."""
    try:
        it = iter(v)
    except TypeError:
        raise ValueError(f"{name} {v!r} is not a container") from None
    return tuple(it if read is None else (read(c, name) for c in it))


# ---------------------------------------------------------------------------
# small cyclotomic fields Q[z]/(m(z))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycloField:
    """Descriptor of Q[z]/(m(z)) for a monic irreducible m with integer
    coefficients, together with the complex root used for numeric output.
    min_poly holds m's coefficients as ints, so that a Cyclo product is
    reduced modulo m in integer arithmetic."""
    name: str
    min_poly: tuple  # monic, ascending ints, e.g. (1, 0, 1) for z^2+1
    root: complex

    @property
    def degree(self):
        return len(self.min_poly) - 1


GAUSS = CycloField("i", (1, 0, 1), 1j)
ZETA8 = CycloField("zeta8", (1, 0, 0, 0, 1), complex(2 ** -0.5, 2 ** -0.5))


def _poly_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _poly_add(a, b):
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        x = a[k] if k < len(a) else 0
        y = b[k] if k < len(b) else 0
        out.append(x + y)
    return _poly_trim(out)


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    """Division with remainder over a field; b nonzero."""
    a = _poly_trim(a)
    b = _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    while r and len(r) >= len(b):
        c = r[-1] / lb
        d = len(r) - len(b)
        q[d] = c
        for k in range(len(b)):
            r[d + k] = r[d + k] - c * b[k]
        r = _poly_trim(r[:-1])
    return _poly_trim(q), r


def _poly_gcd(a, b):
    a = _poly_trim(a)
    b = _poly_trim(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


class _Ring:
    """The operators -, / and ** of Cyclo, RatFunc and MultiPoly, derived
    from each type's primitives: `_co` (an operand as the type, or None for
    a foreign one: NotImplemented), negation, +, *, `inv` and `_one`.
    x / y is x * y.inv(); a negative power is a power of the inverse."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return -(self - o)

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base, n = (self, n) if n >= 0 else (self.inv(), -n)
        out = self._one()
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out


class Cyclo(_Ring):
    """Element of a CycloField, stored as num / den: num a tuple of
    field.degree ints, the coefficients of a polynomial in the root of
    degree below field.degree, over one common denominator den, an int;
    the standard representation of a number-field element (Cohen, A Course
    in Computational Algebraic Number Theory, GTM 138, section 4.2).

    Invariant: den > 0 and gcd(den, *num) = 1, so equal elements have
    equal (num, den).  The public constructor establishes it from a
    container of `exact_rational` coefficients, reducing modulo the
    minimal polynomial.  The arithmetic works on integers and brings its
    result to that form in `_make`: a product is one integer `_poly_mul`,
    one `_reduce` and one gcd, and a sum, or an int or Fraction operand
    of +, - or *, one cross-multiplication and one gcd.
    Negation and an int or Fraction read as a Cyclo hold the invariant
    already and are stored with `_raw`, unchecked.  `coeffs` reads the
    element back as field.degree Fractions."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, coeffs):
        cs = entries(coeffs, "coefficient", exact_rational)
        den = math.lcm(*(c.denominator for c in cs))
        z = self._make(field, [c.numerator * (den // c.denominator)
                               for c in cs], den)
        self.field, self.num, self.den = field, z.num, z.den

    @classmethod
    def _raw(cls, field, num, den):
        """The element num / den, for a tuple num of field.degree ints and
        an int den that hold the invariant, stored unchecked."""
        z = object.__new__(cls)
        z.field = field
        z.num = num
        z.den = den
        return z

    @classmethod
    def _make(cls, field, num, den):
        """The element num / den, for a list num of ints of any length and
        an int den > 0, brought to the form of the invariant."""
        d = field.degree
        if len(num) > d:
            num = cls._reduce(field, num)
        num += [0] * (d - len(num))
        g = math.gcd(den, *num)
        if g != 1:
            num, den = [n // g for n in num], den // g
        return cls._raw(field, tuple(num), den)

    @staticmethod
    def _reduce(field, cs):
        m = field.min_poly
        d = len(m) - 1
        cs = list(cs)
        for k in range(len(cs) - 1, d - 1, -1):
            c = cs[k]
            if c:   # z^d = -(m_0 + ... + m_(d-1) z^(d-1)); cs[k] is dropped
                for j in range(d):
                    if m[j]:
                        cs[k - d + j] = cs[k - d + j] - c * m[j]
        return cs[:d]

    @classmethod
    def gen(cls, field):
        return cls(field, [0, 1])

    @property
    def coeffs(self):
        """The coefficients in the root, a tuple of field.degree Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    # -- coercion -----------------------------------------------------------
    def _co(self, other):
        if isinstance(other, Cyclo):
            if other.field is not self.field:
                raise TypeError("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo._raw(self.field, (other.numerator,) + (0,) * (
                self.field.degree - 1), other.denominator)
        return None

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a rational element equals its Fraction, so it hashes like one
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field.name, self.coeffs))

    def __neg__(self):
        return Cyclo._raw(self.field, tuple(-n for n in self.num), self.den)

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        return Cyclo._make(self.field, [x * b + y * a for x, y
                                        in zip(self.num, o.num)], a * b)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return Cyclo._make(self.field, [n * p for n in self.num],
                               self.den * other.denominator)
        o = self._co(other)
        if o is None:
            return NotImplemented
        return Cyclo._make(self.field, _poly_mul(self.num, o.num),
                           self.den * o.den)

    __rmul__ = __mul__

    def inv(self):
        """The inverse, over Z by Cramer's rule.  Multiplication by num is
        the integer matrix M whose column j holds num z^j reduced modulo
        the minimal polynomial; M is invertible as the field has no zero
        divisors, and num^-1 is the solution x of M x = e_0, x_i = det M_i /
        det M with column i of M replaced by e_0.  The determinants are
        those of the transposes, whose rows are the columns (`bareiss`).
        The inverse of num / den is den x."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        field, d = self.field, self.field.degree
        cols = [self._reduce(field, [0] * j + list(self.num))
                for j in range(d)]
        e0 = [1] + [0] * (d - 1)
        det = bareiss(cols)[1]
        x = [bareiss(cols[:i] + [e0] + cols[i + 1:])[1] for i in range(d)]
        if det < 0:
            det, x = -det, [-v for v in x]
        return Cyclo._make(field, [self.den * v for v in x], det)

    def _one(self):
        return self._co(1)

    def eval_complex(self):
        z = self.field.root
        return sum(complex(c) * z ** k for k, c in enumerate(self.coeffs))

    def __repr__(self):
        z = self.field.name
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            parts.append(f"{c}" if k == 0 else f"{c}*{z}^{k}")
        return "(" + (" + ".join(parts) if parts else "0") + ")"


# ---------------------------------------------------------------------------
# univariate rational functions over Q or a cyclotomic field
# ---------------------------------------------------------------------------

def to_complex(c):
    """An exact coefficient (int, Fraction or Cyclo) as a Python complex."""
    return c.eval_complex() if isinstance(c, Cyclo) else complex(c)


class RatFunc(_Ring):
    """num/den of univariate polynomials, gcd-reduced with monic denominator.

    No singlat computation uses it.  It and `_poly_gcd` are kept only for
    the `polyalg.ratfunc_ops` probe of the benchmark, and go with that
    probe (ROADMAP.md, the benchmark item)."""

    __slots__ = ("var", "num", "den")

    def __init__(self, var, num, den=(1,), normalize=True):
        # int coefficients become Fractions, so that the gcd and the monic
        # normalisation below divide exactly
        num = _poly_trim([Fraction(c) if isinstance(c, int) else c for c in num])
        den = _poly_trim([Fraction(c) if isinstance(c, int) else c for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        if normalize and num:
            g = _poly_gcd(num, den)
            if len(g) > 1:
                num, _ = _poly_divmod(num, g)
                den, _ = _poly_divmod(den, g)
        if not num:
            den = [self._one_like(den[-1])]
        lead = den[-1]
        if lead != 1:
            num = [c / lead for c in num]
            den = [c / lead for c in den]
        self.var = var
        self.num = tuple(num)
        self.den = tuple(den)

    @staticmethod
    def _one_like(sample):
        if isinstance(sample, Cyclo):
            return Cyclo(sample.field, [1])
        return Fraction(1)

    @classmethod
    def const(cls, var, c):
        return cls(var, [c])

    @classmethod
    def gen(cls, var, power=1):
        if power >= 0:
            return cls(var, [0] * power + [1])
        return cls(var, [1], [0] * (-power) + [1])

    # -- coercion -----------------------------------------------------------
    def _co(self, other):
        if isinstance(other, RatFunc):
            if other.var != self.var:
                raise TypeError("mixed rational-function variables")
            return other
        if isinstance(other, (int, Fraction, Cyclo)):
            return RatFunc(self.var, [other], normalize=False)
        return None

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.var, self.num, self.den))

    def __neg__(self):
        return RatFunc(self.var, [-c for c in self.num], self.den, normalize=False)

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        num = _poly_add(_poly_mul(list(self.num), list(o.den)),
                        _poly_mul(list(o.num), list(self.den)))
        return RatFunc(self.var, num, _poly_mul(list(self.den), list(o.den)))

    __radd__ = __add__

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.var, _poly_mul(list(self.num), list(o.num)),
                       _poly_mul(list(self.den), list(o.den)))

    __rmul__ = __mul__

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.var, self.den, self.num)

    def _one(self):
        return RatFunc(self.var, self.den[-1:], normalize=False)  # den monic

    def eval_complex(self, value):
        def ev(cs):
            acc = 0j
            for c in reversed(cs):
                acc = acc * value + to_complex(c)
            return acc

        return ev(self.num) / ev(self.den)

    def __repr__(self):
        def fmt(cs):
            parts = []
            for k, c in enumerate(cs):
                if not c:
                    continue
                if k == 0:
                    parts.append(f"{c}")
                else:
                    parts.append(f"{c}*{self.var}^{k}")
            return " + ".join(parts) if parts else "0"

        if self.den == (Fraction(1),) or self.den == (1,):
            return f"({fmt(self.num)})"
        return f"(({fmt(self.num)}) / ({fmt(self.den)}))"


# ---------------------------------------------------------------------------
# sparse multivariate (Laurent) polynomials
# ---------------------------------------------------------------------------

def _grlex_key(expo):
    return (sum(expo), expo)


def _rational(c):
    """c in the form of a MultiPoly coefficient: an integral Fraction as
    its int, and an int, any other Fraction or a Cyclo as it is."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _quotient(a, b):
    """a / b for MultiPoly coefficients a and b, b nonzero, in the form of
    `_rational`.  The one coefficient division: an int over an int is a
    Fraction or an int, never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _rational(a / b)


def _coefficient(c):
    """A MultiPoly coefficient from outside data: a Cyclo as it is, and an
    int or a Fraction (any numbers.Rational, a bool excepted) read by
    `exact_rational` and stored as an int when it is integral, as a
    Fraction otherwise (`_rational`).  Anything else, a float or a string
    included, raises ValueError: nothing is parsed or rounded."""
    if isinstance(c, Cyclo) or type(c) is int:
        return c
    if isinstance(c, numbers.Rational):
        return _rational(exact_rational(c, "coefficient"))
    raise ValueError(f"coefficient {c!r} is not an int, a Fraction or a "
                     "Cyclo")


class MultiPoly(_Ring):
    """Sparse polynomial in named variables; exponents may be negative.

    Coefficients live in any exact domain supporting +,-,*,/ and bool().
    Binary operations align variable sets by name automatically.  p / q
    is p * q.inv(), so q must be a monomial; `exact_div` takes any divisor.

    Invariant: vars is a tuple, and terms maps tuples of len(vars) ints to
    nonzero coefficients, each an int, a Fraction with denominator > 1 or
    a Cyclo: a rational coefficient is an int exactly when it is integral,
    so integer coefficients multiply and add as ints.  The public
    constructor and `const` establish it: they raise on an exponent of the
    wrong length, convert exponents to int tuples, read each coefficient
    with `_coefficient` and drop zero coefficients.  The arithmetic builds
    its results from terms that already hold it, brings every new rational
    coefficient to that form (`_rational`, and `_quotient` for a division,
    so no float appears) and stores them with `_raw`, unchecked.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        clean = {}
        for expo, c in terms.items():
            if len(expo) != len(self.vars):
                raise ValueError("exponent length mismatch")
            c = _coefficient(c)
            if c:
                clean[tuple(int(e) for e in expo)] = c
        self.terms = clean

    @classmethod
    def _raw(cls, vars, terms):
        """The polynomial with vars, a tuple, and terms, a dict that holds
        the invariant for it, stored unchecked."""
        p = object.__new__(cls)
        p.vars = vars
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, vars=()):
        return cls._raw(tuple(vars), {})

    @classmethod
    def const(cls, vars, c):
        vars = tuple(vars)
        c = _coefficient(c)
        return cls._raw(vars, {(0,) * len(vars): c} if c else {})

    @classmethod
    def var(cls, name, vars=None):
        vars = (name,) if vars is None else tuple(vars)
        expo = tuple(1 if v == name else 0 for v in vars)
        if name not in vars:
            raise ValueError(f"{name} not among {vars}")
        return cls._raw(vars, {expo: 1})

    # -- variable alignment --------------------------------------------------
    def with_vars(self, newvars):
        newvars = tuple(newvars)
        if newvars == self.vars:
            return self
        idx = []
        for v in self.vars:
            if v not in newvars:
                raise ValueError(f"cannot drop variable {v}")
            idx.append(newvars.index(v))
        terms = {}
        for expo, c in self.terms.items():
            ne = [0] * len(newvars)
            for k, e in enumerate(expo):
                ne[idx[k]] = e
            terms[tuple(ne)] = c
        return MultiPoly._raw(newvars, terms)

    @staticmethod
    def _aligned(a, b):
        if a.vars == b.vars:
            return a, b
        merged = list(a.vars) + [v for v in b.vars if v not in a.vars]
        return a.with_vars(merged), b.with_vars(merged)

    def _co(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction, Cyclo)):
            return MultiPoly.const(self.vars, other)
        return None

    # -- ring operations ----------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        a, b = self._aligned(self, o)
        return a.terms == b.terms

    def __neg__(self):
        return MultiPoly._raw(self.vars,
                              {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        a, b = self._aligned(self, o)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            if e in terms:
                s = terms[e] + c
                if s:
                    terms[e] = _rational(s)
                else:
                    del terms[e]
            else:
                terms[e] = c
        return MultiPoly._raw(a.vars, terms)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        a, b = self._aligned(self, o)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(map(operator.add, e1, e2))
                c = c1 * c2
                if e in terms:
                    s = terms[e] + c
                    if s:
                        terms[e] = _rational(s)
                    else:
                        del terms[e]
                elif c:
                    terms[e] = _rational(c)
        return MultiPoly._raw(a.vars, terms)

    __rmul__ = __mul__

    def _one(self):
        return MultiPoly.const(self.vars, 1)

    def inv(self):
        """The inverse of a monomial; any other polynomial raises ValueError."""
        if len(self.terms) != 1:
            raise ValueError("only single-term polynomials are invertible")
        (expo, c), = self.terms.items()
        return MultiPoly._raw(self.vars, {tuple(-e for e in expo):
                                          _quotient(1, c)})

    # -- calculus / substitution ---------------------------------------------
    def partial(self, name):
        i = self.vars.index(name)
        terms = {}
        for expo, c in self.terms.items():
            e = expo[i]
            if e == 0:
                continue
            ne = list(expo)
            ne[i] = e - 1
            terms[tuple(ne)] = _rational(c * e)
        return MultiPoly._raw(self.vars, terms)

    def subst(self, mapping):
        """Simultaneous substitution name -> MultiPoly or scalar.  Terms are
        grouped by their exponents on the substituted variables; the kept
        exponents are copied, and each group is multiplied by cached powers
        of the images."""
        sub = [i for i, v in enumerate(self.vars) if v in mapping]
        keep = [i for i, v in enumerate(self.vars) if v not in mapping]
        images = [m if isinstance(m, MultiPoly) else MultiPoly.const((), m)
                  for m in (mapping[self.vars[i]] for i in sub)]
        out_vars = [self.vars[i] for i in keep]
        for img in images:
            out_vars += [u for u in img.vars if u not in out_vars]
        out_vars = tuple(out_vars)
        images = [img.with_vars(out_vars) for img in images]
        tail = (0,) * (len(out_vars) - len(keep))
        groups = {}
        for expo, c in self.terms.items():
            kept = tuple(expo[i] for i in keep) + tail
            groups.setdefault(tuple(expo[i] for i in sub), {})[kept] = c
        powers = {}
        out = MultiPoly.zero(out_vars)
        for key, terms in groups.items():
            part = MultiPoly._raw(out_vars, terms)
            for k, e in enumerate(key):
                if e:
                    if (k, e) not in powers:
                        powers[k, e] = images[k] ** e
                    part = part * powers[k, e]
            out = out + part
        return out

    def coefficient_split(self, on_vars):
        """Split into {exponent-on-on_vars: MultiPoly in remaining vars}."""
        on_vars = tuple(on_vars)
        rest = tuple(v for v in self.vars if v not in on_vars)
        idx_on = [self.vars.index(v) for v in on_vars]
        idx_rest = [self.vars.index(v) for v in rest]
        out = {}
        for expo, c in self.terms.items():
            eon = tuple(expo[i] for i in idx_on)
            ere = tuple(expo[i] for i in idx_rest)
            out.setdefault(eon, {})[ere] = c
        return {eon: MultiPoly._raw(rest, t) for eon, t in out.items()}

    def degree(self, name):
        i = self.vars.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def min_degree(self, name):
        i = self.vars.index(name)
        if not self.terms:
            return 0
        return min(e[i] for e in self.terms)

    def coeff_of(self, name, power):
        """Coefficient of name**power, as a MultiPoly in the other variables."""
        i = self.vars.index(name)
        rest = tuple(v for v in self.vars if v != name)
        terms = {}
        for expo, c in self.terms.items():
            if expo[i] == power:
                terms[tuple(e for k, e in enumerate(expo) if k != i)] = c
        return MultiPoly._raw(rest, terms)

    def eval_complex(self, values):
        """Numeric evaluation; values maps every variable to a complex."""
        acc = 0j
        for expo, c in self.terms.items():
            cv = to_complex(c)
            for v, e in zip(self.vars, expo):
                if e:
                    cv *= values[v] ** e
            acc += cv
        return acc

    # -- exact division (for fraction-free elimination) ----------------------
    def exact_div(self, other):
        """The quotient self/other in the Laurent ring, or ArithmeticError.

        An exact quotient has lowest exponent min_a - min_b in each
        variable, so the long division stops at the first quotient term
        below that floor instead of descending without end."""
        o = self._co(other)
        a, b = self._aligned(self, o)
        if b.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if a.is_zero:
            return a
        if len(b.terms) == 1:  # a unit of the Laurent ring
            (be, bc), = b.terms.items()
            return MultiPoly._raw(a.vars, {tuple(map(operator.sub, e, be)):
                                           _quotient(c, bc)
                                           for e, c in a.terms.items()})
        floor = [min(x) - min(y) for x, y in zip(zip(*a.terms), zip(*b.terms))]
        quo = {}
        rem = dict(a.terms)
        b_lead = max(b.terms, key=_grlex_key)
        b_lc = b.terms[b_lead]
        while rem:
            lead = max(rem, key=_grlex_key)
            qe = tuple(x - y for x, y in zip(lead, b_lead))
            if any(x < y for x, y in zip(qe, floor)):
                raise ArithmeticError("not exactly divisible")
            qc = _quotient(rem[lead], b_lc)
            quo[qe] = qc
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(qe, e2))
                c = rem.get(e, 0) - qc * c2
                if c:
                    rem[e] = _rational(c)
                elif e in rem:
                    del rem[e]
            if lead in rem:
                raise ArithmeticError("not exactly divisible")
        return MultiPoly._raw(a.vars, quo)

    __floordiv__ = exact_div  # the exact division step of `bareiss`

    # -- text form ------------------------------------------------------------
    def format(self):
        """Canonical plain-text form; rational (int or Fraction)
        coefficients only, exact round-trip."""
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[expo]
            if isinstance(c, Cyclo):
                raise ValueError("text form is defined for rational coefficients")
            mon = " * ".join(f"{v}^{e}" for v, e in zip(self.vars, expo) if e)
            mag = abs(c)
            body = f"{mag}" + (f" * {mon}" if mon else "")
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else ("-" + text[1:])

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[expo]
            mon = "*".join(f"{v}^{e}" for v, e in zip(self.vars, expo) if e)
            parts.append(f"{c}" + (f"*{mon}" if mon else ""))
        return " + ".join(parts)


def parse_poly(text, vars):
    """Parse the plain-text grammar `c * x^2 * y^1` joined by +/-.

    Coefficients are integers or fractions p/q; a term may omit the
    coefficient (`x^2`) or the exponent (`x`).
    """
    vars = tuple(vars)
    text = text.strip()
    if text in ("", "0"):
        return MultiPoly.zero(vars)
    # a '-' directly after '^' belongs to a negative exponent
    tokens = re.sub(r"(?<!\^)-", "+-", text).split("+")
    poly = MultiPoly.zero(vars)
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        sign = 1
        if tok.startswith("-"):
            sign = -1
            tok = tok[1:].strip()
        coeff = Fraction(sign)
        expo = [0] * len(vars)
        for factor in tok.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in {tok!r}")
            if factor[0].isdigit():
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {factor!r}") \
                        from None
            else:
                if "^" in factor:
                    name, _, p = factor.partition("^")
                    power = int(p)
                else:
                    name, power = factor, 1
                name = name.strip()
                if name not in vars:
                    raise ValueError(f"unknown variable {name!r}")
                expo[vars.index(name)] += power
        poly = poly + MultiPoly(vars, {tuple(expo): coeff})
    return poly


# ---------------------------------------------------------------------------
# resultants and graded linear algebra
# ---------------------------------------------------------------------------

def _pivot_columns(rows):
    """Pivot columns and pivot minor of fraction-free (Bareiss) elimination
    on rows; see `bareiss`.  The columns are found left to right, so the
    number of pivots among the first k columns is their rank.  The pivot
    minor, the signed last pivot, is +-1 times the minor on the pivot rows
    and columns (Sylvester's identity), never 0 (1 for no pivots), and the
    determinant of a square matrix of full rank."""
    rows = [list(row) for row in rows]
    n = len(rows)
    cols = len(rows[0]) if rows else 0
    sign, prev, pivots = 1, 1, []
    for c in range(cols):
        rank = len(pivots)
        piv = next((i for i in range(rank, n) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        top = rows[rank]
        p = top[c]
        for r in rows[rank + 1:]:
            f = r[c]
            if f:
                r[c + 1:] = [(p * a - f * b) // prev
                             for a, b in zip(r[c + 1:], top[c + 1:])]
            else:
                r[c + 1:] = [p * a // prev for a in r[c + 1:]]
        prev = p
        pivots.append(c)
        if rank + 1 == n:
            break
    return pivots, sign * prev


def bareiss(rows):
    """Rank and determinant of a matrix over Z or a polynomial ring, by
    fraction-free (Bareiss) elimination; Bareiss, Math. Comp. 22 (1968).

    Entries are ints or MultiPolys (the resultant's Sylvester matrices),
    and `//` is exact division for both.
    Every entry after a step is a minor of the input, so the division by
    the previous pivot is exact.  A step rewrites only the entries right of
    the pivot column; those left of it are never read again.  The
    determinant is the pivot minor of `_pivot_columns` for a square matrix
    of full rank, and 0 otherwise."""
    pivots, minor = _pivot_columns(rows)
    n = len(pivots)
    return n, minor if n == len(rows) == len(rows[0] if rows else ()) else 0


def sylvester(pc, qc, zero=0):
    """Sylvester matrix of p and q, given by their ascending coefficient
    lists with nonzero last entries: deg q shifted copies of p's
    coefficients, leading one first, then deg p shifted copies of q's.
    Its determinant is the resultant of p and q."""
    dp, dq = len(pc) - 1, len(qc) - 1
    rows = []
    for cs, copies in ((pc, dq), (qc, dp)):
        for i in range(copies):
            row = [zero] * (dp + dq)
            row[i:i + len(cs)] = cs[::-1]
            rows.append(row)
    return rows


def resultant(p, q, var):
    """Sylvester resultant of p and q with respect to var, exact.

    Degrees are taken from the sparse support, so vanishing formal leading
    coefficients cannot occur.  Both inputs must have positive degree in var.
    """
    p, q = MultiPoly._aligned(p, q)
    dp, dq = p.degree(var), q.degree(var)
    if min(p.min_degree(var), q.min_degree(var)) < 0:
        raise ValueError("resultant needs polynomial (non-Laurent) inputs")
    if dp <= 0 or dq <= 0:
        if dp == 0 and not p.is_zero:
            return p ** dq if dq > 0 else MultiPoly.const(p.vars, 1)
        if dq == 0 and not q.is_zero:
            return q ** dp if dp > 0 else MultiPoly.const(p.vars, 1)
        raise ValueError("resultant requires positive degree in the variable")
    pc = [p.coeff_of(var, k) for k in range(dp + 1)]
    qc = [q.coeff_of(var, k) for k in range(dq + 1)]
    zero = MultiPoly.zero(pc[0].vars)
    rank, det = bareiss(sylvester(pc, qc, zero))
    return det if rank == dp + dq else zero


@dataclass(frozen=True)
class WeightSystem:
    """Rational weights for the variables and the unfolding parameters."""
    var_weights: tuple          # ((name, Fraction), ...) in variable order
    t_weights: tuple            # deg_w t_j, j = 1..mu (or mu-1)
    coxeter_number: int = None  # ADE only
    cone_d: int = None          # common denominator used on the elliptic side

    def monomial_degree(self, vars, expo):
        """A variable outside the system (the family parameter la) has
        weight 0."""
        w = dict(self.var_weights)
        return sum(w.get(v, 0) * e for v, e in zip(vars, expo) if e)

    def poly_degree(self, poly):
        """Weighted degree if quasihomogeneous, else None."""
        degs = {self.monomial_degree(poly.vars, e) for e in poly.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def monomials(self, top):
        """All exponent tuples over the weighted variables of degree at most
        top, each with its degree, ordered by degree and then
        lexicographically; the product runs on the weights scaled to
        integers by their common denominator."""
        den = math.lcm(*(w.denominator for _, w in self.var_weights))
        total = math.floor(top * den)
        out = [((), 0)]
        for w in [int(w * den) for _, w in self.var_weights]:
            out = [(e + (k,), s + w * k) for e, s in out
                   for k in range((total - s) // w + 1)]
        out.sort(key=lambda es: es[1])   # stable: lexicographic within
        degree = [Fraction(s, den) for s in range(total + 1)]
        return [(e, degree[s]) for e, s in out]

    def achievable_degrees(self, qmax):
        """All weighted degrees q in (0, qmax] of monomials in the weighted
        variables, ascending."""
        return sorted({q for _, q in self.monomials(qmax) if q > 0})

    def monomial_basis(self, q):
        """All exponent tuples over the weighted variables of degree q, in
        lexicographic order."""
        return [e for e, d in self.monomials(q) if d == q]


def _homogeneous(coeffs, a, b):
    """b^d p(a/b) for the integer polynomial p with ascending coefficients
    coeffs of length d + 1: sum_k c_k a^k b^(d-k), by Horner's rule, an
    integer that is zero exactly where p is."""
    terms = reversed(coeffs)
    value, scale = next(terms), 1
    for c in terms:
        scale *= b
        value = value * a + c * scale
    return value


def _evaluate(rows, a, b=1):
    """The matrix rows of integer polynomials in la, every entry as its
    ascending coefficients padded to one length d + 1, at la = a/b and
    scaled by b^d (`_homogeneous`): an integer matrix of the same ranks."""
    return [[_homogeneous(e, a, b) for e in row] for row in rows]


@dataclass(frozen=True)
class GradedPiece:
    """One graded piece of a Macaulay matrix as an integer matrix over Z[la].

    rows      one row per basis monomial of the piece, one entry per
              column: the ascending integer coefficients of a polynomial
              in the one variable la outside the weight system, padded to
              length degree + 1; each column is scaled once to clear its
              denominators
    lead      the number of leading columns (`graded_block`)
    degree    the largest la-degree d of an entry
    bound     B = prod over rows of max(1, sum of the entries' 1-norms)

    `ranks` reads the ranks over Q(la), and at a given la off the roots of
    a certificate minor, from one elimination, run once per piece on first
    use and cached on it (`_generic`)."""
    rows: tuple
    lead: int
    degree: int
    bound: int

    @property
    def want(self):
        """The dimension of the piece."""
        return len(self.rows)

    def _count(self, pivots):
        return sum(c < self.lead for c in pivots), len(pivots)

    @functools.cached_property
    def _generic(self):
        """`ranks` over Q(la) and the certificate, as ascending integer
        coefficients in la, from one elimination at la = 2B + 1 (`ranks`).

        Every coefficient of a minor is at most B in modulus, so the pivot
        minor's value at x = 2B + 1 is sum_k c_k x^k with each c_k in
        [-B, B]: the c_k are its balanced base-x digits (Kronecker
        substitution)."""
        x = 2 * self.bound + 1
        pivots, minor = _pivot_columns(_evaluate(self.rows, x))
        coeffs = []
        while minor:
            minor, digit = divmod(minor + self.bound, x)
            coeffs.append(digit - self.bound)
        return self._count(pivots), coeffs

    def ranks(self, lam=None):
        """(rank of the leading columns, rank of all columns), over Q(la)
        for lam = None and at la = lam, an `exact_rational`, otherwise.

        At lam = a/b an entry sum_k c_k la^k becomes sum_k c_k a^k b^(d-k),
        which scales the whole matrix by b^d and leaves every rank alone.

        Over Q(la) the entries are evaluated at the integer x = 2B + 1.  A
        minor is a sum over permutations of products of one entry per row,
        and the 1-norm is submultiplicative, so every coefficient of every
        minor is at most B in modulus.  A nonzero minor has an integer
        leading coefficient, so by Cauchy's bound each of its roots has
        modulus at most 1 + B < x: no nonzero minor vanishes at x, and the
        rank of every column prefix at x is its rank over Q(la).  One
        elimination gives both ranks, since `_pivot_columns` finds the
        pivots column by column, and its pivot minor, on the pivot rows and
        columns, is nonzero at x, hence over Q(la): the certificate.

        At la = lam the rank of a column set is at most its rank over
        Q(la), since a minor that is nonzero at lam is nonzero over Q(la).
        Where the certificate is nonzero at lam, the pivot columns over
        Q(la) stay independent at lam, the leading ones with them, so both
        ranks are those over Q(la).  Only at its finitely many roots are
        the entries evaluated at lam and ranked by `_pivot_columns`."""
        generic, certificate = self._generic
        if lam is not None:
            lam = exact_rational(lam, "lam")
            if not _homogeneous(certificate, lam.numerator,
                                lam.denominator):
                at = _evaluate(self.rows, lam.numerator, lam.denominator)
                return self._count(_pivot_columns(at)[0])
        return generic


def macaulay(columns, weights, top):
    """The exact weighted Macaulay matrix of columns (a, g), each standing
    for x^a g with a an exponent tuple over the weighted variables and g a
    MultiPoly.  Its rows are the monomials of degree at most top in the
    order of `WeightSystem.monomials`, so the rows up to any lower degree
    are a prefix; a term outside them raises ValueError.  Returns (index,
    entries): index maps each row's exponent tuple to its position, and
    entries maps each monomial in the variables outside the weight system,
    as its (name, exponent) pairs with nonzero exponent, to the
    coefficients {(row, column): c} of the terms that carry it."""
    index = {e: r for r, (e, _) in enumerate(weights.monomials(top))}
    entries = {}
    for j, (a, g) in enumerate(columns):
        for expo, c in g.terms.items():
            x = dict(zip(g.vars, expo))   # popped down to the outside ones
            row = index.get(tuple(e + x.pop(v, 0) for e, (v, _)
                                  in zip(a, weights.var_weights)))
            if row is None:
                raise ValueError(f"a term outside the degrees <= {top}")
            key = tuple((v, e) for v, e in x.items() if e)
            entries.setdefault(key, {})[row, j] = c
    return index, entries


def graded_block(entries, rows, cols, lead):
    """The GradedPiece of the block (rows, cols) of `macaulay`'s entries,
    in at most one variable la outside the weight system, with lead the
    number of leading columns.  A column is scaled once to clear its
    denominators and its negative powers of la, a unit of Q(la); an entry
    of a column outside the rows raises ValueError."""
    if len({v for key in entries for v, _ in key}) > 1:
        raise ValueError("more than one variable outside the weight system")
    rpos, cpos = ({x: i for i, x in enumerate(xs)} for xs in (rows, cols))
    cells = [{} for _ in cols]   # (row, power of la) -> c, per column
    for key, block in entries.items():
        for (r, j), c in block.items():
            if j in cpos:
                if r not in rpos:
                    raise ValueError("a column outside the block's degree")
                cells[cpos[j]][rpos[r], key[0][1] if key else 0] = c
    for j, cell in enumerate(cells):   # clear denominators and 1/la
        scale = math.lcm(*(c.denominator for c in cell.values()))
        shift = min(0, *(k for _, k in cell))
        cells[j] = {(i, k - shift): int(c * scale)
                    for (i, k), c in cell.items()}
    degree = max((k for cell in cells for _, k in cell), default=0)
    grid = tuple(tuple(tuple(cell.get((i, k), 0) for k in range(degree + 1))
                       for cell in cells) for i in range(len(rows)))
    bound = math.prod(max(1, sum(abs(c) for e in row for c in e))
                      for row in grid)
    return GradedPiece(grid, lead, degree, bound)


def graded_columns(gens, weights, q, lead=None):
    """The GradedPiece of quasihomogeneous generators in the weighted-degree
    q piece of the polynomial ring, the degree-q block (`graded_block`) of
    their `macaulay` matrix, with `lead` the number of leading generators
    (all of them for None).  Zero generators are dropped.  The generators
    may hold one variable outside the weight system (the family parameter
    la) between them, and no more; a column with negative powers of it is
    multiplied by the power of la that clears them, a unit of Q(la), and a
    term outside the piece raises ValueError."""
    lead = sum(not g.is_zero for g in gens[:lead])
    gens = [g for g in gens if not g.is_zero]
    index, entries = macaulay([((0,) * len(weights.var_weights), g)
                               for g in gens], weights, q)
    rows = [index[e] for e in weights.monomial_basis(q)]
    return graded_block(entries, rows, range(len(gens)), lead)


def graded_piece_rank(gens, weights, q, lead=None):
    """Rank over Q, or over Q(la), of the given quasihomogeneous generators
    inside the weighted-degree-q piece of the polynomial ring, by
    `graded_columns` and `GradedPiece.ranks`.  With lead=k the result is
    the pair (rank of gens[:k], rank of gens), both from one elimination."""
    ideal, rank = graded_columns(gens, weights, q, lead).ranks()
    return rank if lead is None else (ideal, rank)
