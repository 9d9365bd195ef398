"""Basis-relative linear algebra of the Milnor lattice.

Stokes matrices, the symmetrized intersection form, monodromy,
Picard-Lefschetz reflections and Coxeter-Dynkin diagrams, all as exact
integer matrix computations; definiteness and quasiunipotence are both
read off the integer characteristic polynomial (`char_poly`), ranks and
determinants come from `polyalg.bareiss`, and every inverse, S^{-1} and
that of G_Z's Krylov basis, from one fraction-free Gauss-Jordan
elimination (`_adjugate`).  The roots of every form, up to sign, and
their reflections are tabulated once per form and filled on demand
(`roots`), and so is G_Z, the automorphism group of the Seifert form of
a positive definite seed (`gz`).  The sign
conventions are fixed once and for all at the dimension residue n = 0
mod 4, where

    I = S + S^t,   M = -S^{-1} S^t,   s_d(b) = b - I(d,b) d,

and the reference Seifert pairing of a seed is L = -S^t.  Every family
has a representative of this parity (the Stokes matrix is stable under
suspension), so no generality is lost for the counting problems.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from collections import namedtuple
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


def char_poly(m):
    """Characteristic polynomial det(y*Id - M), ascending coefficients.

    From the power sums p_k = tr(M^k), k <= n, by Newton's identities
    k c_k = -(c_(k-1) p_1 + ... + c_0 p_k), where y^n + c_1 y^(n-1) + ...
    + c_n is the polynomial.  Only M^1, ..., M^h, h = ceil(n/2), are
    formed, h - 1 matrix products: beyond h, p_(h+b) = sum_ij (M^h)_ij
    (M^b)_ji, one entrywise product.  The division by k is exact for a
    matrix over Z or over a polynomial ring Z[t].  Entries are ints or
    MultiPolys, and `//` is the exact division for both, as in `bareiss`;
    any other entry (a Fraction, say) raises TypeError.
    """
    mm = tuple(tuple(x if isinstance(x, MultiPoly) else operator.index(x)
                     for x in row) for row in m)
    n = len(mm)
    powers = [mm]
    for _ in range((n + 1) // 2 - 1):
        powers.append(mat_mul(powers[-1], mm))
    p = [sum(a[i][i] for i in range(n)) for a in powers]
    top = list(itertools.chain.from_iterable(powers[-1]))
    for a in powers[:n - len(powers)]:
        p.append(sum(map(operator.mul, top,
                         itertools.chain.from_iterable(zip(*a)))))
    cs = [1]  # y^n + cs[1] y^{n-1} + ... + cs[n]
    for k in range(1, n + 1):
        s = -sum(map(operator.mul, cs, reversed(p[:k])))
        ck = s // k
        if ck * k != s:
            raise ArithmeticError("characteristic polynomial not integral")
        cs.append(ck)
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
    """M = -S^{-1} S^t; integral because S is unimodular (_adjugate
    returns S^{-1} with the factor 1)."""
    _, inv = _adjugate(s.rows)
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


@functools.lru_cache(maxsize=None)
def definiteness(i: IntersectionMatrix):
    """'positive-definite', 'positive-semidefinite' or 'indefinite',
    computed once per form and process (i, or its row tuples, is the key).

    Exact, from the characteristic polynomial det(y - I) = sum_k c_k y^k
    (`char_poly`), whose roots, the eigenvalues of the symmetric I, are
    real.  If none is negative, c_k = (-1)^(n-k) e_(n-k)(roots) gives
    (-1)^(n-k) c_k >= 0 for every k; conversely, under those signs
    (-1)^n p(-u) = sum_k (-1)^(n-k) c_k u^k >= u^n > 0 for u > 0, so no
    root is negative (Basu, Pollack and Roy, Algorithms in Real Algebraic
    Geometry, ch. 2).  The nullity of a semidefinite I is the multiplicity
    of the root 0, the index of the lowest nonzero c_k, so I is positive
    definite iff c_0 != 0 as well.
    """
    rows = i.rows if isinstance(i, IntersectionMatrix) else i
    c = char_poly(rows)
    n = len(c) - 1
    if any((-1) ** (n - k) * x < 0 for k, x in enumerate(c)):
        return "indefinite"
    return "positive-definite" if c[0] else "positive-semidefinite"


_INT8_MAX = 127
_INT16_MAX = 2 ** 15 - 1
_INT64_MAX = 2 ** 63 - 1
_MAX_ROOTS = 4096    # uint16 tables: refl at most 4096^2 x 2 B = 32 MiB


def _work_dtype(bound):
    """Narrowest exact dtype for values of absolute value <= bound."""
    if bound <= _INT16_MAX:
        return np.int16
    if bound <= _INT64_MAX:
        return np.int64
    return object


class RootTable:
    """The roots up to sign that reflections reach from the basis of the
    intersection form form_rows (diagonal 2), and their reflections, both
    filled on demand.

    Root k is V[k], sign canonical, with V[k] = e_k for k < mu; any other
    root is interned, keyed by its entries, when a reflection first makes
    it.  refl[a, b] is the index of s_(V[a])(V[b]) = V[b] - I(V[a], V[b])
    V[a] up to sign, or sentinel, the dtype's largest value, if unfilled.
    Indices are uint8 for a positive definite form of rank <= 16 (an ADE
    lattice, at most 240 roots up to sign: D16, E8 + E8), else uint16; a
    form of higher rank never has its `definiteness` computed here.
    The table holds at most limit roots, the sentinel 255 for uint8 and
    _MAX_ROOTS for uint16, which keeps the dense refl in memory; interning
    past it raises OverflowError.  Writes hold a lock; V and the dense
    square refl are replaced when they grow (by doubling), never resized
    in place, so a reader without the lock sees a filled entry or the
    sentinel, and every index it reads fits the next table."""

    def __init__(self, form_rows):
        n = self.mu = len(form_rows)
        small = n <= 16 and definiteness(form_rows) == "positive-definite"
        self.dtype = np.dtype(np.uint8 if small else np.uint16)
        self.sentinel = int(np.iinfo(self.dtype).max)
        self.limit = min(self.sentinel, _MAX_ROOTS)
        self.sentinel_bytes = b"\xff" * self.dtype.itemsize
        form = np.array(form_rows, dtype=object)
        self.f = int(np.abs(form).max(initial=0))
        self.form = form.astype(np.int64) if self.f <= _INT64_MAX else form
        cap = min(self.limit, max(16, 2 * n))
        self.vectors = np.zeros((cap, n), np.int64)
        self.refl = np.full((cap, cap), self.sentinel, self.dtype)
        self.top, self.size, self.index = 0, 0, {}   # top: max |entry|
        self.lock = threading.RLock()
        self.groups = {}                # gz of this form's seeds, by rows
        self.intern(np.eye(n, dtype=np.int64))

    def fill(self, a, b):
        """Fill the entries refl[a, b] of the index arrays a, b that are
        still the sentinel.  The moved roots are computed in int64 while
        |V| <= M and M + mu^2 F M^3 <= 2^63 - 1 (F = max |I|) bound every
        pairing and entry, else in Python ints."""
        with self.lock:
            miss = self.refl[a, b] == self.sentinel
            a, b = a[miss], b[miss]
            va, vb, form = self.vectors[a], self.vectors[b], self.form
            m = self.top
            if _work_dtype(m + self.mu ** 2 * self.f * m ** 3) is object:
                va, vb, form = (x.astype(object) for x in (va, vb, form))
            c = ((va @ form) * vb).sum(axis=1)
            self.refl[a, b] = self.intern(
                _sign_canonical(vb - c[:, None] * va))

    def intern(self, rows):
        """The indices of the sign canonical roots rows, (k, mu), interning
        those not yet in the table."""
        out = np.empty(len(rows), self.dtype)
        with self.lock:
            for j, key in enumerate(map(tuple, rows.tolist())):
                k = self.index.get(key)
                if k is None:
                    k = self.size
                    if k >= self.limit:
                        raise OverflowError(f"more than {self.limit} roots do "
                                            "not fit this form's root table")
                    if k == len(self.vectors):
                        cap = min(2 * k, self.limit)
                        grown = np.zeros((cap, self.mu), self.vectors.dtype)
                        grown[:k] = self.vectors
                        refl = np.full((cap, cap), self.sentinel, self.dtype)
                        refl[:k, :k] = self.refl
                        self.refl, self.vectors = refl, grown
                    self.top = max(self.top, *map(abs, key))
                    if self.top > _INT64_MAX and \
                            self.vectors.dtype != object:
                        self.vectors = self.vectors.astype(object)
                    self.vectors[k] = key
                    self.index[key] = k
                    self.size = k + 1
                    self.V = self.vectors[:k + 1]     # read-only roots
                    self.V.flags.writeable = False
                out[j] = k
        return out

    def close(self):
        """Intern every root the reflections s_(e_i) of the basis reach
        from it, batch by batch of new roots: `fill` makes refl[i, r] for
        the basis indices i and each batch's roots r, r-major, so new
        roots are interned in that order.  Over a positive definite form
        reached from a distinguished basis by braid moves the s_(e_i)
        generate the Weyl group, which is transitive on the roots of a
        connected diagram, so the table then holds all of them (120 up to
        sign for E8)."""
        with self.lock:
            lo, basis = 0, np.arange(self.mu)
            while lo < self.size:
                r = np.arange(lo, self.size)
                lo = self.size
                self.fill(np.tile(basis, len(r)), np.repeat(r, self.mu))


GroupZ = namedtuple("GroupZ", "elements perms")


def gz(seed_rows):
    """G_Z, the automorphisms g of the lattice that keep the Seifert form
    of the seed S (g^t S g = S), for a positive definite form of rank <= 16
    (uint8 root indices), computed once per seed and cached with the
    process's RootTable of its form, whose roots it closes (close).

    elements holds G_Z as (|G_Z|, mu, mu) int64 matrices, g and -g in its
    two halves; perms[k], over the table's roots, is the root index of
    elements[k] V[r] up to sign, the action of G_Z/+-1.  Both read-only.

    Every g commutes with M = -S^(-1) S^t and maps roots to roots.  The
    basis vectors e_i whose chains e_i, M e_i, ... are taken, up to
    dependence, make a basis K (one vector for A and E, whose e_0 is
    cyclic, two for D_even, whose M has a double eigenvalue), and g is
    fixed by the roots r_i = g e_i: g = K' K^(-1), K' the chains of the r_i.
    A candidate must match every Seifert pairing u^t S M^k w, |k| < mu, of
    the e_i, which prunes the stack to about |G_Z|/2; it is built exactly
    over the adjugate of K, and kept iff it is integral and keeps S."""
    rows = tuple(map(tuple, seed_rows))
    table = roots(mat_add(rows, mat_transpose(rows)))
    if table.dtype != np.uint8:
        raise ValueError("G_Z is computed for positive definite forms of "
                         "rank <= 16")
    with table.lock:
        if rows not in table.groups:
            table.close()
            table.groups[rows] = _gz(rows, table)
        return table.groups[rows]


def _gz(rows, table):
    n = len(rows)
    s = np.array(rows, np.int64)
    si = np.array(_adjugate(rows)[1], np.int64)
    m, back = -si @ s.T, -si.T @ s                    # M and M^(-1)
    powers, inverse = [np.eye(n, dtype=np.int64)], [np.eye(n, dtype=np.int64)]
    for _ in range(n - 1):
        powers.append(m @ powers[-1])
        inverse.append(back @ inverse[-1])
    sm = s @ np.stack(inverse[:0:-1] + powers)        # S M^k, |k| < mu
    chains = np.stack(powers).transpose(2, 0, 1)      # chains[i]: e_i's
    # the generators by exact rank: one cyclic e_i, else a pair that spans
    # (on D seeds, more often with the last e_j, so they are tried first)
    d = {}
    for i in reversed(range(n)):
        d[i] = bareiss(chains[i].tolist())[0]
        if d[i] == n:
            gens = [i]
            break
    else:
        i = max(d, key=d.get)
        gens = next(([i, j] for j in reversed(range(n)) if bareiss(
            chains[[i, j]].reshape(-1, n).tolist())[0] == n), None)
        if gens is None:
            raise ValueError("no one or two basis vectors generate the "
                             "lattice under the monodromy")
    dims = [d[gens[0]], n - d[gens[0]]][:len(gens)]
    k = np.vstack([chains[i, :c] for i, c in zip(gens, dims)]).T
    det, adj = _adjugate(k.tolist())
    adj = np.array(adj, np.int64)
    v = table.V.astype(np.int64)
    # every product below is at most n^2 x^3; elements keep S, so their
    # columns are roots, and entries past table.top are no element's
    x = max(table.top, abs(det),
            *(int(np.abs(a).max()) for a in (sm, m, adj)))
    if n * n * x ** 3 > _INT64_MAX:
        raise OverflowError("G_Z of this seed does not fit int64")
    rs = np.vstack([v, -v])                           # the signed roots
    prof = ((rs @ sm) * rs).sum(axis=2)               # (2 mu - 1, 2N)
    for t, i in enumerate(gens):
        ok = np.flatnonzero((prof.T == sm[:, i, i]).all(axis=1))
        if t:
            cross = rs[cands[:, 0]] @ sm @ rs[ok].T
            c, r = np.nonzero((cross == sm[:, gens[0], i, None, None]).all(
                axis=0))
            cands = np.hstack([cands[c], ok[r, None]])
        else:
            cands = ok[ok < len(v), None]
    kp = np.concatenate([np.stack([rs[cands[:, t]] @ p.T for p in powers[:c]],
                                  axis=2) for t, c in enumerate(dims)], axis=2)
    num = kp @ adj
    g = num // det
    g = g[(g * det == num).all(axis=(1, 2)) &
          (np.abs(g).max(axis=(1, 2)) <= table.top)]
    g = g[(g.transpose(0, 2, 1) @ s @ g == s).all(axis=(1, 2))]
    img = _sign_canonical((g @ v.T).transpose(0, 2, 1).reshape(-1, n))
    index = dict(zip(row_keys(v), range(len(v))))
    perms = np.array([index[key] for key in row_keys(img)],
                     table.dtype).reshape(len(g), len(v))
    out = GroupZ(np.concatenate([g, -g]), perms)
    for a in out:
        a.flags.writeable = False
    return out


def _adjugate(m):
    """p and p m^(-1) of an invertible integer matrix m, p = +-det m, by
    fraction-free Gauss-Jordan elimination: every entry is a minor of
    [m | 1] up to sign, so each division by the last pivot is exact.

    The one exact inverse of the library: it serves M = -S^(-1) S^t
    (monodromy_from_stokes, _gz) and the Krylov basis of _gz.  On a unit
    upper triangular S no row is swapped and every pivot, a leading
    principal minor, is 1, so it returns (1, S^(-1))."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ArithmeticError("the matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        top, p = a[k], a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
    return prev, [row[n:] for row in a]


def process_cache(build):
    """functools.lru_cache(maxsize=None), but a miss builds under a lock:
    threads that ask for one key at once share one value, where lru_cache
    builds one per thread and keeps the last."""
    cache, lock = {}, threading.Lock()

    def get(key):
        with lock:
            if key not in cache:
                cache[key] = build(key)
            return cache[key]
    get.cache_clear = cache.clear
    return functools.update_wrapper(get, build)


@process_cache
def roots(form_rows):
    """The process's one RootTable of the form form_rows (row tuples)."""
    return RootTable(form_rows)


@functools.lru_cache(maxsize=None)
def _void(width):
    """The np.void dtype of width bytes, built once per width."""
    return np.dtype((np.void, width))


def row_keys(a):
    """The bytes of each row of the 2-D array a, as a list: hashable keys
    that are equal exactly when the rows are, for arrays of one dtype.
    The rows are viewed as one np.void dtype of their byte width, built
    once per width (_void), so a call costs the view and the list."""
    a = np.ascontiguousarray(a)
    if not a.shape[1]:
        return [b""] * len(a)
    return a.view(_void(a.itemsize * a.shape[1])).ravel().tolist()


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
