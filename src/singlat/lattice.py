"""Basis-relative linear algebra of the Milnor lattice.

Stokes matrices, the symmetrized intersection form, monodromy,
Picard-Lefschetz reflections and Coxeter-Dynkin diagrams, all as exact
integer matrix computations; definiteness is read off one exact
elimination, and quasiunipotence off the integer characteristic
polynomial.  A positive definite form has finitely many roots, tabulated
once per form together with their reflections (`roots`) when there are
at most ROOT_TABLE_MAX of them.  The sign conventions are fixed
once and for all at the dimension residue n = 0 mod 4, where

    I = S + S^t,   M = -S^{-1} S^t,   s_d(b) = b - I(d,b) d,

and the reference Seifert pairing of a seed is L = -S^t.  Every family
has a representative of this parity (the Stokes matrix is stable under
suspension), so no generality is lost for the counting problems.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .polyalg import MultiPoly, bareiss


# ---------------------------------------------------------------------------
# integer matrix helpers (tuples of tuples)
# ---------------------------------------------------------------------------

def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in bt)
                 for row in a)


def mat_neg(m):
    return tuple(tuple(-x for x in row) for row in m)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def form_pair(i_rows, a, b):
    """a^t I b for the symmetric form I given by its rows."""
    return sum(x * sum(r * y for r, y in zip(row, b))
               for x, row in zip(a, i_rows))


def mat_det(m):
    """Exact integer determinant."""
    return bareiss([[operator.index(x) for x in row] for row in m])[1]


def unit_upper_inverse(s):
    """Exact integer inverse of a unit upper triangular integer matrix."""
    n = len(s)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        for i in range(n - 2, -1, -1):
            acc = 0
            for k in range(i + 1, n):
                if s[i][k]:
                    acc += s[i][k] * inv[k][col]
            inv[i][col] = (1 if i == col else 0) - acc
    return tuple(tuple(row) for row in inv)


def char_poly(m):
    """Characteristic polynomial det(y*Id - M), ascending coefficients.

    Faddeev-LeVerrier: c_k = -tr(M A_k) / k is exact for a matrix over Z
    or over a polynomial ring Z[t].  Entries are ints or MultiPolys, and
    `//` is the exact division for both, as in `bareiss`; any other entry
    (a Fraction, say) raises TypeError.
    """
    mm = tuple(tuple(x if isinstance(x, MultiPoly) else operator.index(x)
                     for x in row) for row in m)
    n = len(mm)
    cs = [1]  # y^n + cs[1] y^{n-1} + ... + cs[n]
    a = mm
    for k in range(1, n + 1):
        tr = -sum(a[i][i] for i in range(n))
        ck = tr // k
        if ck * k != tr:
            raise ArithmeticError("characteristic polynomial not integral")
        cs.append(ck)
        if k < n:
            shifted = tuple(tuple(a[i][j] + ck if i == j else a[i][j]
                                  for j in range(n)) for i in range(n))
            a = mat_mul(mm, shifted)
    return tuple(reversed(cs))  # ascending: entry k is the coefficient of y^k


def matrix_order(m):
    """Multiplicative order of an integer matrix, or None if above 720."""
    n = len(m)
    ident = mat_identity(n)
    p = m
    for k in range(1, 721):
        if p == ident:
            return k
        p = mat_mul(p, m)
    return None


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StokesMatrix:
    """Upper triangular unimodular integer matrix with unit diagonal."""
    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError("matrix is not square")
            if row[i] != 1:
                raise ValueError("diagonal entries must equal 1")
            if any(row[j] != 0 for j in range(i)):
                raise ValueError("matrix is not upper triangular")

    @property
    def mu(self):
        return len(self.rows)

    @classmethod
    def chain(cls, mu):
        """Seed of the one-variable chain family: S[i][i+1] = -1."""
        return cls(tuple(tuple(1 if i == j else (-1 if j == i + 1 else 0)
                               for j in range(mu)) for i in range(mu)))

    @classmethod
    def identity(cls, mu):
        return cls(mat_identity(mu))

    def entry_bound(self):
        return max((abs(x) for row in self.rows for x in row), default=0)


@dataclass(frozen=True)
class IntersectionMatrix:
    """Symmetric integer matrix S + S^t with diagonal 2."""
    rows: tuple

    @property
    def mu(self):
        return len(self.rows)

    def pair(self, a, b):
        return form_pair(self.rows, a, b)


@dataclass(frozen=True)
class MonodromyMatrix:
    rows: tuple

    @property
    def mu(self):
        return len(self.rows)


@dataclass(frozen=True)
class DiagramGraph:
    """Coxeter-Dynkin diagram: weighted edges, plain or dotted."""
    mu: int
    edges: tuple  # (i, j, weight, style) with i < j, style in {plain, dotted}

    def adjacency(self):
        adj = {i: set() for i in range(self.mu)}
        for i, j, _, _ in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def to_dot(self):
        lines = ["graph diagram {"]
        for v in range(self.mu):
            lines.append(f'  v{v + 1} [label="{v + 1}"];')
        for i, j, w, style in self.edges:
            attr = " [style=dotted]" if style == "dotted" else ""
            for _ in range(w):
                lines.append(f"  v{i + 1} -- v{j + 1}{attr};")
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def symmetrized_form(s: StokesMatrix) -> IntersectionMatrix:
    """I = S + S^t; symmetric with diagonal 2."""
    return IntersectionMatrix(mat_add(s.rows, mat_transpose(s.rows)))


def monodromy_from_stokes(s: StokesMatrix) -> MonodromyMatrix:
    """M = -S^{-1} S^t; integral because S is unimodular."""
    inv = unit_upper_inverse(s.rows)
    return MonodromyMatrix(mat_neg(mat_mul(inv, mat_transpose(s.rows))))


def pl_reflect(i: IntersectionMatrix, delta, b):
    """Reflection s_delta(b) = b - I(delta, b) * delta.

    delta must be a root-like vector: I(delta, delta) = 2.
    """
    rows = i.rows if isinstance(i, IntersectionMatrix) else i
    if form_pair(rows, delta, delta) != 2:
        raise ValueError("reflection vector must have self-pairing 2")
    pairing = form_pair(rows, b, delta)
    return tuple(x - pairing * d for x, d in zip(b, delta))


def monodromy_product(t) -> MonodromyMatrix:
    """Composite s_{d_1} o ... o s_{d_mu} of the tuple's reflections
    (`pl_reflect`): column j is the image of the j-th basis vector under
    s_{d_mu} first and s_{d_1} last.

    Accepts any object with .vectors and .seed (a VanishingTuple).
    """
    i_rows = symmetrized_form(t.seed).rows
    cols = []
    for b in mat_identity(len(i_rows)):
        for d in reversed(t.vectors):
            b = pl_reflect(i_rows, d, b)
        cols.append(b)
    return MonodromyMatrix(mat_transpose(cols))


def coxeter_dynkin(s: StokesMatrix) -> DiagramGraph:
    """|S_ij| plain edges for S_ij < 0, S_ij dotted edges for S_ij > 0."""
    edges = []
    n = s.mu
    for i in range(n):
        for j in range(i + 1, n):
            v = s.rows[i][j]
            if v < 0:
                edges.append((i, j, -v, "plain"))
            elif v > 0:
                edges.append((i, j, v, "dotted"))
    return DiagramGraph(n, tuple(edges))


def is_connected(s: StokesMatrix) -> bool:
    g = coxeter_dynkin(s)
    if g.mu == 0:
        return True
    adj = g.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.mu


def radical_rank(i: IntersectionMatrix) -> int:
    rows = i.rows if isinstance(i, IntersectionMatrix) else i
    return len(rows) - bareiss([[operator.index(x) for x in row]
                                for row in rows])[0]


def definiteness(i: IntersectionMatrix):
    """'positive-definite', 'positive-semidefinite' or 'indefinite'.

    Exact, by symmetric fraction-free (Bareiss) elimination, one O(mu^3)
    pass.  A positive pivot is eliminated.  A zero pivot must head a zero
    row, as every 2 x 2 principal minor of a psd form is >= 0, and is then
    dropped; a zero pivot with a nonzero row, or a negative pivot, makes
    the form indefinite.  Every entry after a step is the minor of the
    pivots kept so far and its own row and column (Sylvester's identity),
    so a pivot has the sign of the Schur complement's diagonal entry; the
    form is positive definite iff no pivot is dropped.
    """
    rows = i.rows if isinstance(i, IntersectionMatrix) else i
    a = [[operator.index(x) for x in row] for row in rows]
    prev, kind = 1, "positive-definite"
    for k, top in enumerate(a):
        p = top[k]
        if p < 0 or (p == 0 and any(top[k + 1:])):
            return "indefinite"
        if p == 0:
            kind = "positive-semidefinite"
            continue
        for r in a[k + 1:]:
            f = r[k]
            r[k + 1:] = [(p * x - f * y) // prev
                         for x, y in zip(r[k + 1:], top[k + 1:])]
        prev = p
    return kind


# Most roots, up to sign, that lattice.roots tabulates.  The reflection
# table has N^2 entries, each one reflection of a mu-vector and one dict
# lookup, so its cost grows as N^2 mu; at 512 (A31, D16 and every smaller
# simple class, E8 with 120 among them) it is at most a few hundred
# thousand entries, built in well under a second.  A larger positive
# definite form (A100 has 5050 roots) is only ever run under a budget,
# where the table would cost far more than the run.
ROOT_TABLE_MAX = 512

# Entries of one temporary (rows, mu) block while roots are reflected.
_ROOT_BLOCK = 1 << 18


@functools.lru_cache(maxsize=None)
def roots(form_rows):
    """The roots of a positive definite form, up to sign, and their
    reflection table; None for a form that is not positive definite or
    has more than ROOT_TABLE_MAX roots up to sign.

    form_rows is an intersection form I (diagonal 2) in the basis e_0, ...,
    e_(mu-1) as a tuple of row tuples.  Returns read-only arrays V, R:

    * V, (N, mu) int64: the closure of the basis under the reflections
      s_(e_i), every vector made sign canonical (first nonzero coordinate
      positive), with V[k] = e_k for k < mu.  The s_(e_i) generate the
      group W of the reflections in all of V, so V holds one of +-v for
      every v in the W-orbit of the basis: every vanishing cycle of a
      distinguished basis that the braid group reaches from e.  A positive
      definite form has finitely many vectors with I(v, v) = 2, so the
      closure ends; for any other form (the elliptic classes, whose root
      set is infinite) there is no table.
    * R, (N, N): R[a, b] is the index of s_(V[a])(V[b]) = V[b] - I(V[a],
      V[b]) V[a] up to sign, in the narrowest unsigned dtype that holds
      N - 1 (uint8 up to N = 256).

    Every temporary array holds at most about _ROOT_BLOCK entries (or one
    row of R), so a large form costs no more memory than its tables.  The
    definiteness test and the tables are computed once per form."""
    if definiteness(form_rows) != "positive-definite":
        return None
    n = len(form_rows)
    form = np.array(form_rows, dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    index = {key: k for k, key in enumerate(row_keys(eye))}
    found, frontier = [eye], eye
    step = max(1, _ROOT_BLOCK // n ** 2)
    while len(frontier):
        new = []
        for lo in range(0, len(frontier), step):
            block = frontier[lo:lo + step]
            # s_(e_i)(v) = v - I(e_i, v) e_i for every i and every new v
            moved = _sign_canonical((block[None] - (block @ form).T[
                :, :, None] * eye[:, None]).reshape(-1, n))
            for j, key in enumerate(row_keys(moved)):
                if key not in index:
                    index[key] = len(index)
                    new.append(moved[j])
            if len(index) > ROOT_TABLE_MAX:
                return None
        frontier = np.array(new, dtype=np.int64).reshape(-1, n)
        found.append(frontier)
    found = np.concatenate(found)
    size = len(found)
    table = np.empty((size, size), np.min_scalar_type(size - 1))
    pair = found @ form @ found.T
    step = max(1, _ROOT_BLOCK // (size * n))
    for lo in range(0, size, step):
        moved = found[None] - pair[lo:lo + step, :, None] * \
            found[lo:lo + step, None]
        table[lo:lo + step] = np.array([index[key] for key in row_keys(
            _sign_canonical(moved.reshape(-1, n)))]).reshape(-1, size)
    found.flags.writeable = table.flags.writeable = False
    return found, table


def row_keys(a):
    """The bytes of each row of the 2-D array a, as a list: hashable keys
    that are equal exactly when the rows are, for arrays of one dtype."""
    a = np.ascontiguousarray(a)
    if not a.shape[1]:
        return [b""] * len(a)
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel() \
        .tolist()


def _sign_canonical(rows):
    """The nonzero integer rows, each times the sign of its first nonzero
    entry."""
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return rows * np.sign(lead)[:, None]


def is_quasiunipotent(m: MonodromyMatrix) -> bool:
    """True iff every eigenvalue is a root of unity: the characteristic
    polynomial p, of degree n, is a product of cyclotomic polynomials.

    Exact Graeffe root squaring, p(y^2) <- (-1)^n p(y) p(-y), squares the
    roots.  If they are roots of unity, coefficient k of every iterate is
    at most C(n, k) in modulus, so an iterate repeats.  Otherwise p(0) = 0,
    or by Kronecker's theorem (J. reine angew. Math. 53, 1857) a root lies
    outside the unit disc and the iterates' coefficients grow without
    bound; and none repeats, for p_a = p_(a+b) makes y -> y^(2^b) permute
    the roots of p_a, which are then roots of unity."""
    rows = m.rows if isinstance(m, MonodromyMatrix) else m
    p = char_poly(rows)
    n = len(p) - 1
    if p[0] == 0:
        return False
    bound = [math.comb(n, k) for k in range(n + 1)]
    sign = (-1) ** n
    seen = set()
    while p not in seen:
        if any(abs(c) > b for c, b in zip(p, bound)):
            return False
        seen.add(p)
        # coefficient j of p(y) p(-y) at y^(2j)
        p = tuple(sign * sum((-1) ** k * p[k] * p[2 * j - k]
                             for k in range(max(0, 2 * j - n),
                                            min(2 * j, n) + 1))
                  for j in range(n + 1))
    return True


def tensor_rows(a, b):
    """Kronecker product in the lexicographic (row-major) block order."""
    n1, n2 = len(a), len(b)
    return tuple(tuple(a[i1][j1] * b[i2][j2]
                       for j1 in range(n1) for j2 in range(n2))
                 for i1 in range(n1) for i2 in range(n2))
