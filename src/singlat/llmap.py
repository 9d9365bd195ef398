"""Critical-value configuration maps at desk scale.

For the one-variable chain family the map sending unfolding parameters to
the monic polynomial with the critical values as roots is computed exactly.
By Stickelberger's theorem that polynomial, prod_i (y - f(x_i)) over the
critical points x_i counted with multiplicity, is the characteristic
polynomial of multiplication by f in Q[x]/(f'), taken over Z (or, for
the symbolic map, Z[t]) from power sums by Newton's identities after the
weighted C*-scaling of the parameters that makes the matrix integral
(`_config_coeffs`).  Discriminant membership is exact as well: the
Hankel matrix of the Newton sums of the roots, scaled to integers, is
singular over Z exactly when a root repeats.  By the
same theorem (Cox, Little and O'Shea, Using Algebraic Geometry, ch. 2
section 4) the critical values of every other class are the eigenvalues
of multiplication by the unfolding F on its Jacobi algebra, a matrix that
one least-squares solve gives.  Numeric companions: fiber counts over
generic targets for mu = 2, 3, by one batched multistart Newton on a
polynomial system compiled to exponent and coefficient matrices, whose
residuals and Jacobians come from one matmul and whose steps are
closed-form adjugate solves, and a wall walker that tracks the good
ordering of the critical values along a path in parameter space and emits
a braid letter at every transversal crossing of adjacent imaginary
parts.  The walker samples each segment
adaptively, with the predictor step of path tracking in the spirit of
the certified tracking of Beltran and Leykin (Exp. Math. 21, 2012): the
velocity of each critical value along a segment is exact, as f' vanishes
at the critical points, so each sample is matched to the Euler
predictions of its predecessor's values.  From a uniform grid the walker
bisects every interval in which a value strays half the separation from
its prediction, a pair's difference moves half its length, or the order
of the letters is uncertain; a close pair that moves fast together, as
near a fold, does not force steps of its separation.  It matches whole
chunks of the samples to their predecessors with the step test's own
array matching, and applies its per-sample step only to the samples
whose matched values leave good order or touch a wall.  It walks the
whole path in windows of WALK_CHUNK grid intervals across segment ends:
the grid samples of a window, with the left end of its first interval in
each segment, and then the midpoints of each round of bisection, are
evaluated in one stacked call each, so a window carries nothing from the
one before it.  A path of one waypoint is its start alone, which the
walker checks as it checks every start.  The chain-family
roots come from stacked companion-matrix eigenvalues (`_companion_roots`).
A coefficient or critical value beyond the float range raises ValueError.
The arguments of a fiber count and of a walk are read by one reader each,
`_fiber_target` and `_waypoints`, which the CLI calls on the vectors it
decodes, so a rule and its message have one home.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .braid import BraidWord
from .degrees import deg_ll_simple
from .lattice import char_poly
from .polyalg import (MultiPoly, bareiss, entries, exact_rational,
                      finite_complex, macaulay, positive_int, to_complex)
from .singdata import jacobi_system, sing_class, unfolding, weights

F = Fraction

TOL_DEDUP = 1e-6
TOL_WALL = 1e-9
TOL_DISC = 1e-9

_OVERFLOW = "critical values overflow the float range"


def _companion_roots(P):
    """Roots of the polynomials whose descending coefficients are the rows
    of P, as an (n, degree) complex array: the eigenvalues of each row's
    companion matrix, from stacked eigenvalue calls.  The one root kernel
    of this module.

    Like np.roots, a row ending in d zero coefficients gets the eigenvalues
    of its degree - d companion followed by d zeros, and rows with the same
    d share one call.  Raises ValueError when a companion coefficient is
    not finite."""
    deg = P.shape[1] - 1
    with np.errstate(all="ignore"):
        C = -P[:, 1:] / P[:, :1]
    if not np.isfinite(C).all():
        raise ValueError("polynomial coefficients overflow the float range")
    zeros = np.cumprod(P[:, :0:-1] == 0, axis=1).sum(axis=1)
    X = np.zeros((len(P), deg), dtype=complex)
    for d in sorted(set(zeros.tolist()) - {deg}):   # d = deg: only zeros
        rows, n = np.flatnonzero(zeros == d), deg - d
        A = np.zeros((len(rows), n, n), dtype=complex)
        A[:, 0, :] = C[rows, :n]
        A[:, np.arange(1, n), np.arange(n - 1)] = 1
        X[rows, :n] = np.linalg.eigvals(A)
    return X


@dataclass(frozen=True)
class LLPoint:
    """Monic polynomial in one variable, coefficients ascending (constant
    first, leading 1 included)."""
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def roots(self):
        """The roots, in the order of `_companion_roots`."""
        P = np.array([[complex(c) for c in reversed(self.coeffs)]])
        return _companion_roots(P)[0]


@dataclass(frozen=True)
class CriticalData:
    values: tuple   # critical values, with multiplicity, in kernel order
    sigma: tuple    # good permutation (values[sigma[0]], ... is good-ordered),
                    # or None when the parameter sits on a Stokes wall


# ---------------------------------------------------------------------------
# exact chain-family map
# ---------------------------------------------------------------------------

def _config_coeffs(mu, n, d):
    """Coefficients c_0, ..., c_(mu-1) of the configuration polynomial
    y^mu + sum_k c_k y^k = prod_i (y - f(x_i)) of the chain family
    f = x^(mu+1) + t_1 + t_2 x + ... + t_mu x^(mu-1) at t = n / d, the
    product over the mu critical points x_i of f counted with multiplicity,
    each as a pair (a_k, s^e_k) with c_k = a_k / s^e_k.

    The entries of n are ints over the common denominator d, or MultiPolys
    in the parameter names over d = 1 for the symbolic map.  By
    Stickelberger's theorem (Cox, Little and O'Shea, Using Algebraic
    Geometry, ch. 2 section 4) the product is the characteristic polynomial
    of multiplication by f in Q[x]/(f'), where f equals its remainder
    r = sum_j (mu+2-j)/(mu+1) t_j x^(j-1) modulo the monic g = f'/(mu+1);
    column j of the matrix is r x^j mod g.

    f is weighted homogeneous, x of weight 1 and t_j of weight mu+2-j, so
    c_k has weight (mu+1)(mu-k): scaling t_j by s^(mu+2-j) scales every
    critical value by s^(mu+1) and c_k by s^((mu+1)(mu-k)).  At
    s = (mu+1) d the scaled g_i = (i+1) s^(mu-1-i) n_(i+2) and
    r_i = (mu+1-i) s^(mu-i) n_(i+1) are integral, and so is every column,
    as g is monic: the matrix is over Z or Z[t], a_k is coefficient k of
    its characteristic polynomial (`lattice.char_poly`, by power sums) and
    e_k = (mu+1)(mu-k); the caller divides once."""
    s = (mu + 1) * d
    zero = n[0] * 0
    # g = x^mu + sum_i g_i x^i, with g_(mu-1) = 0
    g = [(i + 1) * s ** (mu - 1 - i) * n[i + 1]
         for i in range(mu - 1)] + [zero]
    col = [(mu + 1 - i) * s ** (mu - i) * n[i] for i in range(mu)]
    cols = [col]
    for _ in range(mu - 1):
        top = col[-1]
        col = [zero] + col[:-1]
        if top:
            col = [c - top * gi for c, gi in zip(col, g)]
        cols.append(col)
    cp = char_poly(list(zip(*cols)))
    return [(c, s ** ((mu + 1) * (mu - k))) for k, c in enumerate(cp[:mu])]


def ll_exact_A(mu, t) -> LLPoint:
    """Exact configuration polynomial prod_i (y - f(x_i)) for the chain
    family f = x^(mu+1) + t_1 + t_2 x + ... + t_mu x^(mu-1), the product
    over the critical points x_i counted with multiplicity: its roots are
    the critical values.  It is the characteristic polynomial of
    multiplication by f in Q[x]/(f') (Stickelberger; see `_config_coeffs`),
    computed over Z: the weighted C*-scaling t_j -> s^(mu+2-j) t_j,
    s = (mu+1) lcm(denominators of t), makes the matrix integral and
    multiplies c_k, of weight (mu+1)(mu-k), by s^((mu+1)(mu-k)), which one
    Fraction per coefficient divides out.  Equal to the monic
    Res_x(f', y - f).  A mu that is not a `positive_int`, a t that is not
    a container (`entries`), or a parameter that is not an
    `exact_rational` (a string included), raises ValueError."""
    mu = positive_int(mu, "mu")
    t = entries(t, "t", exact_rational)
    if len(t) != mu:
        raise ValueError(f"need {mu} parameters")
    d = math.lcm(*(v.denominator for v in t))
    coeffs = _config_coeffs(mu, [v.numerator * (d // v.denominator)
                                 for v in t], d)
    return LLPoint(tuple(F(a, e) for a, e in coeffs) + (F(1),))


def discriminant_member(p: LLPoint) -> bool:
    """True iff the polynomial has a multiple root.  Decided exactly over
    Z: p, monic of degree n with rational coefficients c_k, is scaled to
    the monic integer q(y) = d^n p(y/d), d the lcm of their denominators,
    whose roots are d times those of p.  The n x n Hankel matrix
    [s_(i+j)] of the Newton sums s_k of q's roots is V^t V for the
    Vandermonde matrix V of the roots, so its determinant is
    prod_(i<j) (x_i - x_j)^2, the discriminant of q (Hermite; Basu,
    Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 4), and
    `polyalg.bareiss` tests it for zero.  A coefficient that is not an
    `exact_rational` (a finite float is one, exactly) raises ValueError."""
    cs = [exact_rational(c, "coefficient") for c in p.coeffs]
    n = len(cs) - 1
    d = math.lcm(*(c.denominator for c in cs))
    # q = y^n + a[n-1] y^(n-1) + ... + a[0]
    a = [c.numerator * (d ** (n - k) // c.denominator)
         for k, c in enumerate(cs)]
    # Newton: s_k = -(a[n-1] s_(k-1) + ... + a[n-k+1] s_1) - k a[n-k] for
    # k <= n, and s_k = -(a[n-1] s_(k-1) + ... + a[0] s_(k-n)) beyond
    s = [n]
    for k in range(1, 2 * n - 1):
        s.append(-sum(a[n - i] * s[k - i] for i in range(1, min(k, n + 1)))
                 - (k * a[n - k] if k <= n else 0))
    return bareiss([s[i:i + n] for i in range(n)])[1] == 0


# ---------------------------------------------------------------------------
# good ordering
# ---------------------------------------------------------------------------

def good_order(values):
    """Permutation sigma ordering the values by imaginary part ascending,
    ties broken by real part descending.  A pair equal in both parts
    (within TOL_WALL) cannot be ordered: that parameter sits on a wall."""
    idx = sorted(range(len(values)),
                 key=lambda k: (values[k].imag, -values[k].real))
    for a, b in zip(idx, idx[1:]):
        if abs(values[a].imag - values[b].imag) < TOL_WALL and \
           abs(values[a].real - values[b].real) < TOL_WALL:
            raise ValueError("on a Stokes wall: values collide within tolerance")
    return tuple(idx)


# ---------------------------------------------------------------------------
# numeric critical values
# ---------------------------------------------------------------------------

def critical_values_numeric(cls_or_label, t, lam=None) -> CriticalData:
    """Critical values of the unfolding at t, with multiplicity, in kernel
    order: a row of the walk's kernel (`_walk_values`) for the chain family,
    else the eigenvalues of multiplication by F on the Jacobi algebra
    (`_multiplication_values`), degenerate t included.  t, a container
    (`entries`), needs one entry per parameter, an elliptic class a lam
    outside {0, 1}, each a `finite_complex`, and an ADE class takes no lam:
    else ValueError."""
    cls = sing_class(cls_or_label)
    t = entries(t, "t", finite_complex)
    if len(t) != len(cls.tvars):
        raise ValueError(f"{cls.label} needs {len(cls.tvars)} parameters, "
                         f"got {len(t)}")
    if not cls.is_elliptic and lam is not None:
        raise ValueError(f"{cls.label} has no family parameter")
    if cls.is_elliptic and (lam is None or
                            finite_complex(lam, "lam") in (0, 1)):
        raise ValueError(f"{cls.label} needs a family parameter lam "
                         "outside {0, 1}")
    T = np.array([t])
    values = tuple((_walk_values(cls.mu, T)[0] if cls.family == "A" else
                    _multiplication_values(cls, T[0], lam)).tolist())
    try:
        return CriticalData(values, good_order(values))
    except ValueError:   # the parameter sits on a Stokes wall
        return CriticalData(values, None)


@lru_cache(maxsize=None)
def _multiplication_plan(cls):
    """The truncated Macaulay system of multiplication by F on Q[x]/(d_x F)
    (Telen, Mourrain and Van Barel, SIAM J. Matrix Anal. Appl. 39, 2018),
    the float view of `singdata.jacobi_system`, built once per class:
    stacked real arrays A, B, with A[k], B[k] the coefficients of p_k in
    p = (1, t, la), and the floats d_j = deg t_j.  With t_j of weight
    1 - deg b_j > 0, F is homogeneous of degree 1 in (x, t), so
    F b_i = sum_k c_k d_k F + sum_j M_ji b_j has a solution with
    deg c_k <= D - (1 - w_k), D = 1 + max deg b_j.  A keeps the columns and
    rows of degree at most D, and B holds the F b_i in the same rows."""
    wsys, Fu = weights(cls), unfolding(cls)
    basis, degrees, _, entries = jacobi_system(cls)
    D = 1 + max(degrees[-len(basis):])
    rows, rhs = macaulay([((0,) * cls.nvars, Fu * b) for b in basis], wsys, D)
    at = {((v, 1),): k for k, v in enumerate(Fu.vars[cls.nvars:], 1)}
    at[()] = 0   # F is affine in (t, la)
    keep = {j: k for k, j in enumerate(
        j for j, q in enumerate(degrees) if q <= D)}
    A = np.zeros((len(at), len(rows), len(keep)))
    B = np.zeros(A.shape[:2] + (len(basis),))
    for out, ents, cols in ((A, entries, keep), (B, rhs, range(len(basis)))):
        for key, block in ents.items():
            for (r, j), c in block.items():
                if j in cols:
                    out[at[key], r, cols[j]] = float(c)
    d = np.array([float(w) for w in wsys.t_weights])
    A.flags.writeable = B.flags.writeable = d.flags.writeable = False
    return A, B, d


def _multiplication_values(cls, t, lam):
    """Eigenvalues of the matrix M of multiplication by F at (t, lam), the
    critical values with multiplicity.  M is the b-part of one least-squares
    solve of `_multiplication_plan`, unique as the null space holds only
    syzygies of the d_k F columns.  By Euler's relation the values at t are
    s times those at t / s^d; the monomial basis is well conditioned where
    the largest is about 1, so s is first max_j |t_j|^(1/d_j), then the
    largest value found.  A value that is not finite raises ValueError."""
    A, B, d = _multiplication_plan(cls)
    la = [complex(lam)] if cls.is_elliptic else []
    with np.errstate(all="ignore"):
        lt = np.log(t)   # t / s^d is exp(lt - d ls), also where s^d is not
        ls = np.nan_to_num(np.max(lt.real / d), neginf=0.0)   # t = 0: s = 1
        for _ in range(2):
            p = np.concatenate([[1], np.exp(lt - d * ls), la])
            # einsum's own loop: np.tensordot's BLAS call can stall for ms
            X = np.linalg.lstsq(_finite(np.einsum("k,kij->ij", p, A)),
                                _finite(np.einsum("k,kij->ij", p, B)))[0]
            V = _finite(np.linalg.eigvals(_finite(X[-B.shape[2]:])))
            s, ls = np.exp(ls), ls + np.log(np.abs(V).max() or 1.0)
        return _finite(s * V)


def _finite(X):
    if not np.isfinite(X).all():
        raise ValueError(_OVERFLOW)
    return X


# ---------------------------------------------------------------------------
# fiber counting (mu = 2, 3)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _symbolic_ll(mu):
    """Parameter names and coefficient polynomials c_k(t), k < mu, of the
    exact configuration polynomial for the chain family: `_config_coeffs`
    with the parameters as variables over d = 1, so the characteristic
    polynomial is taken over Z[t] after scaling t_j by (mu+1)^(mu+2-j)."""
    tv = sing_class(f"A{mu}").tvars
    return tv, [a * F(1, e) for a, e in
                _config_coeffs(mu, [MultiPoly.var(tn, tv) for tn in tv], 1)]


@dataclass
class FiberCount:
    count: int
    saturated: bool
    starts: int
    solutions: tuple


# Flat indices into the row-major entries a of an m x m matrix that give
# its cofactors, row by row: cofactor (i, j) is a[p] a[q] - a[r] a[s] for
# m = 3, the indices mod 3 carrying the signs, and the sign times a[p] for
# m = 2.
_COFACTORS = {
    2: (np.array([3, 2, 1, 0]), np.array([[1.0], [-1.0], [-1.0], [1.0]])),
    3: tuple(np.array([(i + u) % 3 * 3 + (j + v) % 3
                       for i, j in itertools.product(range(3), repeat=2)])
             for u, v in ((1, 1), (2, 2), (1, 2), (2, 1))),
}


def _solve(jac, g):
    """The Newton steps jac^-1 g of a stack of m x m systems, m = 2 or 3,
    as an (n, m) array: jac is (n, m, m) and g is (n, m).

    Each step is the adjugate of its Jacobian times g over the determinant,
    every row at once; the determinant is the cofactor expansion along the
    first row.  An exactly singular row gets a non-finite step, without a
    numpy warning.  The arithmetic reads each entry as one row over the n
    systems, so every operation is elementwise over the stack."""
    n, m = g.shape
    if m not in _COFACTORS:
        raise ValueError(f"adjugate steps cover 2 x 2 and 3 x 3 systems, "
                         f"not {m} x {m}")
    a = jac.transpose(1, 2, 0).reshape(m * m, n)
    with np.errstate(all="ignore"):
        if m == 2:
            p, sign = _COFACTORS[2]
            cof = a[p] * sign
        else:
            p, q, r, s = _COFACTORS[3]
            cof = a[p] * a[q] - a[r] * a[s]
        cof = cof.reshape(m, m, n)
        det = (a[:m] * cof[0]).sum(axis=0)
        return ((cof * g.T[:, None]).sum(axis=0) / det).T


def _newton_steps(GJ, starts):
    """Newton's method on every row of starts at once, as a generator.

    GJ maps an (n, m) array of points to the (n, m) residuals and the
    (n, m, m) Jacobians, from one evaluation (`_system`); the step is the
    adjugate solve of `_solve`.  A row converges when max|g| < 1e-11 and is
    dropped when its step is not finite, as on an exactly singular
    Jacobian, or exceeds 1e6 in modulus; after 120 iterations the rest are
    dropped.  After each iteration in which rows converge it yields their
    start indices and points, in start order.  The live rows are kept as
    one array, compacted at every step.  numpy's floating-point warnings
    are off inside each iteration (a start near the float range overflows,
    and its row is dropped), but not across the yield."""
    X = np.array(starts, dtype=complex)
    live = np.arange(len(X))
    for _ in range(120):
        with np.errstate(all="ignore"):
            g, jac = GJ(X)
            done = (np.abs(g) < 1e-11).all(axis=1)
            step = _solve(jac, g)
            keep = ~done & (np.abs(step) <= 1e6).all(axis=1)   # and not NaN
            nxt = X[keep] - step[keep]
        if done.any():
            yield live[done], X[done]
        X, live = nxt, live[keep]
        if not live.size:
            return


# Starts per batched Newton call in _distinct_zeros.  The search stops at
# the iteration that completes its count of zeros, wherever that falls in
# a chunk, so the chunk size sets only how many starts iterate together:
# at 128 an A2 count is done within its first chunk, and an A3 count that
# needs all 600 starts takes about as long as one batched pass over them.
NEWTON_CHUNK = 128

# Starts of a fiber count when the caller gives none (the CLI's too).
FIBER_BUDGET = 600


def _compile(polys, names):
    """The polys and their partials in names as one exponent matrix over the
    unknowns names and one coefficient matrix; every variable of the polys
    is an unknown.

    Row r of the exponent matrix E (integer, shape (M, len(names))) is a
    distinct monomial in the unknowns, the rows in ascending order of their
    exponent tuples, so that the arrays depend only on the polys' values
    and not on the order of their terms; column k of the coefficient matrix
    C (complex, shape (M, K)) holds output k's coefficients of those
    monomials.  The outputs are the polys, then the partials row by row:
    output len(polys) + i len(names) + j is d polys[i] / d names[j]."""
    pos = {v: i for i, v in enumerate(names)}
    outs = list(polys) + [p.partial(v) for p in polys for v in names]
    entries = []
    for k, p in enumerate(outs):
        for expo, c in p.terms.items():
            key = [0] * len(names)
            for v, e in zip(p.vars, expo):
                if e < 0:
                    raise ValueError(f"negative power of unknown {v}")
                key[pos[v]] = e
            entries.append((tuple(key), k, to_complex(c)))
    rows = {key: r for r, key in enumerate(sorted({e[0] for e in entries}))}
    E = np.array(list(rows), dtype=np.intp).reshape(len(rows), len(names))
    C = np.zeros((len(rows), len(outs)), dtype=complex)
    for key, k, cv in entries:
        C[rows[key], k] += cv
    return E, C


def _system(E, C, m, target):
    """The m compiled polys (`_compile`) = target as one callable GJ.  On an
    (n, number of unknowns) array of points GJ returns the (n, m) residuals
    and the (n, m, number of unknowns) Jacobians, both from one power
    table, one product over the unknowns and one matmul against the whole
    coefficient matrix.  That matmul holds each output as a row over the n
    points, and the residuals and Jacobians are transposed views of it, so
    `_solve` reads each Jacobian entry as one contiguous row."""
    nv = E.shape[1]
    deg = E.max(initial=1)   # the table holds at least T^0 and T^1
    var = np.arange(nv)
    CT = C.T
    target = np.asarray(target, dtype=complex).reshape(-1, 1)

    def GJ(T):
        pw = np.empty((deg + 1, nv, len(T)), dtype=complex)
        pw[0], pw[1] = 1, T.T
        for d in range(2, deg + 1):
            np.multiply(pw[d - 1], pw[1], out=pw[d])
        # pw[E, var] has shape (monomials, unknowns, points)
        out = np.dot(CT, pw[E, var].prod(axis=1))
        return ((out[:m] - target).T,
                out[m:].reshape(m, nv, -1).transpose(2, 0, 1))

    return GJ


@lru_cache(maxsize=None)
def _ll_compiled(mu):
    tv, coeffs = _symbolic_ll(mu)
    return _compile(coeffs, tv)


def _ll_system(mu, p: LLPoint):
    """The callable GJ (`_system`) of the chain family's coefficient-matching
    system c_k(t) = p_k (k < mu) on rows of parameters; the system is
    compiled once per mu."""
    return _system(*_ll_compiled(mu), mu, p.coeffs[:mu])


# mu -> (the random.Random(5) that drew it, the start table drawn so far)
_STARTS = {}


def _start_table(mu, n):
    """The first n starts of mu's fiber start stream as a read-only (n, mu)
    complex array: start r is mu complex(gauss(0, 2), gauss(0, 2)) from
    random.Random(5), drawn once per process.  The table grows by whole
    NEWTON_CHUNK blocks, continuing the saved generator, only when n
    reaches past it."""
    rng, table = _STARTS.get(mu) or (random.Random(5),
                                     np.zeros((0, mu), complex))
    if n > len(table):
        m = -(-n // NEWTON_CHUNK) * NEWTON_CHUNK - len(table)
        # real and imaginary parts alternate, so the floats view as complex
        new = np.array([rng.gauss(0, 2) for _ in range(2 * mu * m)])
        table = np.concatenate([table, new.view(complex).reshape(m, mu)])
        table.flags.writeable = False
        _STARTS[mu] = rng, table
    return table[:n]


def _distinct_zeros(GJ, mu, budget, want):
    """Distinct zeros of the system GJ (`_system`) that Newton reaches
    from the first budget rows of mu's start table (`_start_table`),
    sliced NEWTON_CHUNK rows at a time.

    Converged rows are taken in convergence order: chunk, then Newton
    iteration (`_newton_steps`), then start index.  A row is kept when it
    differs from every zero kept so far by more than TOL_DEDUP in max
    norm.  Returns at the iteration that brings the kept zeros to want."""
    found = []
    for k in range(0, budget, NEWTON_CHUNK):
        chunk = _start_table(mu, min(k + NEWTON_CHUNK, budget))[k:]
        for _, Z in _newton_steps(GJ, chunk):
            if found:   # drop the rows within TOL_DEDUP of a kept zero
                d = np.abs(Z[:, None, :] - np.array(found)).max(axis=2)
                Z = Z[(d > TOL_DEDUP).all(axis=1)]
            kept = len(found)
            for z in Z:   # survivors: test against this iteration's zeros
                if all(np.max(np.abs(z - z0)) > TOL_DEDUP
                       for z0 in found[kept:]):
                    found.append(z)
                    if len(found) == want:
                        return found
    return found


@lru_cache(maxsize=None)
def _deg_ll(cls):
    """deg LL of an ADE class as an int, built once per class."""
    return deg_ll_simple(cls).deg_ll


def ll_fiber_count(cls_or_label, p: LLPoint,
                   budget=FIBER_BUDGET) -> FiberCount:
    """Number of parameter points mapping to the target configuration,
    located by multistart Newton on the coefficient-matching system.

    Only mu = 2 and 3 are supported; the target must be square-free.  The
    starts are the first budget rows of one stream per mu, drawn from
    random.Random(5) once per process (`_start_table`), read NEWTON_CHUNK
    at a time as the search reaches them; a converged point within
    TOL_DEDUP, a constant, in max norm of one kept before is dropped.
    Over a square-free target the A_mu fiber has exactly
    deg LL = (mu+1)^(mu-1) points (`degrees.deg_ll_simple`): the map is
    finite (Looijenga) and weighted homogeneous, c_k of weight
    (mu+1)(mu-k) in the t_j of weight mu+2-j, so the count is the
    weighted Bezout number prod_k (mu+1)(mu-k) / prod_j (mu+2-j).  The
    search stops at the Newton iteration that finds the last of them, and
    the saturation flag records that it did.  The solutions come in
    convergence order (`_distinct_zeros`): chunk, then iteration, then
    start index.  A budget that is not a `positive_int`, or a class or a
    target that `_fiber_target` refuses, raises ValueError, and so does a
    target with a root pair closer than 1e-5."""
    budget = positive_int(budget, "budget")
    cls, p = _fiber_target(cls_or_label, p.coeffs[:-1])
    if _separations(p.roots()[None])[0] < 1e-5:
        raise ValueError("target has a (near-)multiple root")
    deg = _deg_ll(cls)
    sols = _distinct_zeros(_ll_system(cls.mu, p), cls.mu, budget, deg)
    return FiberCount(count=len(sols), saturated=len(sols) == deg,
                      starts=budget, solutions=tuple(tuple(v) for v in sols))


def _fiber_target(cls_or_label, target):
    """The class and the monic target LLPoint of a fiber count, read from
    target, the container (`entries`) of its mu coefficients below the
    leading 1, ascending.  A class other than A2 or A3, a target of
    another degree, or a coefficient that is not a `finite_complex` (a
    string or NaN included) raises ValueError."""
    cls = sing_class(cls_or_label)
    if cls.family != "A" or cls.mu not in (2, 3):
        raise ValueError("fiber counting is desk-scale: chain family, mu in {2, 3}")
    target = entries(target, "target")
    if len(target) != cls.mu:
        raise ValueError("target degree mismatch")
    return cls, LLPoint(tuple(finite_complex(c, "target") for c in target)
                        + (1 + 0j,))


# ---------------------------------------------------------------------------
# wall walking
# ---------------------------------------------------------------------------

# Grid intervals of the path that the walk samples, refines and yields
# together, its grid samples in one stacked eigenvalue call and each round
# of bisection in one more; bounds the walk's working memory whatever the
# step count.
WALK_CHUNK = 256

# Uniform grid samples of each segment when the caller gives none (the
# CLI's too).
WALK_STEPS = 64

# The shortest interval, as a fraction of its segment, that the walk
# bisects: an interval that still fails the step test at this length is
# taken to cross the discriminant.  A separation below this fraction of the
# largest critical value's modulus is taken to be beyond what floats resolve.
WALK_FLOOR = 2.0 ** -40

_COLLIDE = "hit discriminant: critical values collide"
_UNRESOLVED = ("critical values too large for floats to resolve their "
               "separation; shift or rescale the path")


@dataclass
class WalkStats:
    """What a walk evaluated: the path samples whose critical values were
    computed, the intervals bisected, and the smallest distance between
    two critical values at any sample (inf for mu = 1)."""
    samples: int = 0
    bisected: int = 0
    min_separation: float = math.inf


def _walk_points(mu, T):
    """Critical points and unpolished critical values of the chain
    unfolding at each row of T, as two (n, mu) complex arrays in row order,
    the values in the points' order; the one chain-family kernel, shared
    by the walk and critical_values_numeric.

    The critical points are the `_companion_roots` of the derivative.
    Evaluated with numpy's floating-point warnings off: a coefficient or a
    critical value beyond the float range raises ValueError instead."""
    with np.errstate(all="ignore"):
        # descending coefficients of (mu+1) x^mu + sum_j (j-1) t_j x^(j-2)
        P = np.zeros((len(T), mu + 1), dtype=complex)
        P[:, 0] = mu + 1
        for j in range(2, mu + 1):
            P[:, mu + 2 - j] += (j - 1) * T[:, j - 1]
        X = _companion_roots(P)   # the values x^(mu+1) + sum_j t_j x^(j-1)
        V = X ** (mu + 1) + sum(T[:, j - 1, None] * X ** (j - 1)
                                for j in range(1, mu + 1))
    return X, _finite(V)


def _walk_values(mu, T):
    """The critical values of `_walk_points`."""
    return _walk_points(mu, T)[1]


def _velocities(X, d):
    """Derivatives of the critical values at the critical points X (one
    row per sample) along the directions d in parameter space, one row per
    sample: as f'(x_k) = 0, dv_k = sum_j x_k^(j-1) d_j.  A derivative beyond
    the float range raises ValueError."""
    dV = np.zeros_like(X)
    with np.errstate(all="ignore"):
        for c in d.T[::-1]:   # Horner, from d_mu x^(mu-1) down
            dV = dV * X + c[:, None]
    return _finite(dV)


@lru_cache(maxsize=None)
def _pairs(mu):
    """Index arrays i, j of the pairs i < j of mu values, read-only."""
    i, j = np.triu_indices(mu, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _separations(V):
    """Smallest distance between two critical values in each row of V (inf
    when a row holds a single value)."""
    i, j = _pairs(V.shape[1])
    return np.abs(V[:, i] - V[:, j]).min(axis=1, initial=np.inf)


def _inverted(lo, hi):
    """Whether the pair lo, hi of critical values (complex numbers or
    arrays of them) is out of good order: good_order's key, imaginary part
    ascending and real part descending, is strict."""
    return (lo.imag > hi.imag) | ((lo.imag == hi.imag) & (lo.real < hi.real))


def _matched(R, P):
    """The one matching of the walk across intervals between path samples:
    for each row r, the index in R[r] of the value nearest to each
    prediction in P[r], the Euler predictions at R[r]'s point of the values
    at the interval's left end."""
    return np.abs(R[:, None, :] - P[:, :, None]).argmin(axis=2)


def _steps_ok(L, R, P, Q, sep_l, sep_r):
    """Mask of the intervals (L[r], R[r]) between path samples that pass the
    step test.  P[r] holds the forward Euler predictions of L[r]'s values
    at R[r]'s point, Q[r] the backward ones of R[r]'s values at L[r]'s
    point, along the values' velocities.

    Under the matching of `_matched`, of each value of L to the value B of
    R nearest to its prediction, three conditions must hold.
    1. Every B lies within half of R's separation of its forward
       prediction, and every value of L within half of L's separation of
       its B's backward prediction.  The discs of that radius about one
       end's values are disjoint, so no two values of L can share a B:
       both would lie within half of L's separation of that B's backward
       prediction.  So the matching is a bijection, and it follows the
       values' motion.
    2. Every pair's difference moves by less than half its smaller length
       at the two ends.  So it turns by less than 30 degrees, and a pair
       whose good-order key flips keeps its real-part order: flipping both
       orders moves the difference by at least its length.  The sign of
       every letter is certain.
    3. At most one pair flips its imaginary order with imaginary parts at
       least TOL_WALL apart at both ends, so the order of the letters is
       certain; a flip inside that band is a wall contact, which
       `_walk_step` judges.
    No condition bounds how far a pair moves together, so two close values
    that move fast side by side, as near a fold, pass in steps of the
    scale of their motion, not of their separation."""
    r = np.arange(len(L))[:, None]
    near = _matched(R, P)
    B = R[r, near]
    ok = (np.abs(B - P).max(axis=1) < 0.5 * sep_r) & \
        (np.abs(L - Q[r, near]).max(axis=1) < 0.5 * sep_l)
    i, j = _pairs(L.shape[1])
    dA, dB = L[:, i] - L[:, j], B[:, i] - B[:, j]
    ok &= (np.abs(dB - dA) <
           0.5 * np.minimum(np.abs(dA), np.abs(dB))).all(axis=1)
    # with both imaginary gaps nonzero, the good-order key of a pair flips
    # where the sign of its difference's imaginary part does
    crossing = ((dA.imag > 0) != (dB.imag > 0)) & \
        (np.abs(dA.imag) >= TOL_WALL) & (np.abs(dB.imag) >= TOL_WALL)
    return ok & (crossing.sum(axis=1) <= 1)


def _intervals_ok(s, V, dV, sep, k):
    """`_steps_ok` on the intervals k, from sample k to sample k + 1, of the
    samples s of a segment with values V, velocities dV and separations
    sep."""
    h = (s[k + 1] - s[k])[:, None]
    L, R = V[k], V[k + 1]
    return _steps_ok(L, R, L + h * dV[k], R - h * dV[k + 1],
                     sep[k], sep[k + 1])


def _lost(V, sep):
    """Mask of the samples, with values V and separations sep, at which the
    walk ends: two values closer than TOL_DISC (the path hit the
    discriminant), or than WALK_FLOOR of the largest value's modulus, a
    separation floats do not resolve."""
    return (sep < TOL_DISC) | (sep < WALK_FLOOR * np.abs(V).max(axis=1))


def _lost_error(sep):
    """The error that ends a walk at a `_lost` sample of separation sep."""
    return ValueError(_COLLIDE if sep < TOL_DISC else _UNRESOLVED)


def _guarded(f, seg, *rows):
    """f(*rows) and None, for arrays rows of one row per sample, the samples
    in path order on the segments seg.  When f raises ValueError: f on the
    rows of the segments before the first one whose own rows raise, and
    that segment's error."""
    try:
        return f(*rows), None
    except ValueError:
        pass
    for i in np.unique(seg):
        try:
            f(*(x[seg == i] for x in rows))
        except ValueError as exc:
            return f(*(x[seg < i] for x in rows)), exc


def _sample(mu, W, seg, s, stats):
    """Critical values, velocities d/ds and separations at the points
    W[i] + s (W[i + 1] - W[i]) of the segments i = seg (W[i + 1] itself at
    s = 1, and W[i] at s = 0 on the segments after the start's segment 0),
    all in one `_walk_points` call, and the error of `_guarded`, which
    leaves out the rows from the segment that raised on."""
    def evaluate(T, d):
        X, V = _walk_points(mu, T)
        return V, _velocities(X, d)

    a, b = W[seg], W[seg + 1]
    T = a + s[:, None] * (b - a)
    end, start = s == 1, (s == 0) & (seg > 0)
    T[end], T[start] = b[end], a[start]
    (V, dV), err = _guarded(evaluate, seg, T, b - a)
    sep = _separations(V)
    stats.samples += len(V)
    stats.min_separation = min(stats.min_separation,
                               float(sep.min(initial=np.inf)))
    return V, dV, sep, err


def _merged(x, y, old, at):
    """The rows of x at the places old (a mask) and those of y at the
    indices at, of one array."""
    out = np.empty((len(old),) + x.shape[1:], dtype=x.dtype)
    out[old], out[at] = x, y
    return out


def _refine(mu, W, s, seg, V, dV, sep, err, stats):
    """Bisect the intervals between consecutive samples of one segment, in
    the samples s on the segments seg of a window, until each passes
    `_steps_ok`; each segment's first row is the left end of its first
    interval in the window.  err is the error that ends the walk after
    these rows, or None.  Returns the samples, segments, values,
    velocities and separations, the number of rows the walk yields and
    the error that ends it there.

    Each round evaluates the midpoints of all failing intervals in one
    stacked call.  The walk ends at the first `_lost` sample and at the
    right end of the first failing interval shorter than WALK_FLOOR (the
    path hit the discriminant), which the walk does not yield, and before
    a segment whose midpoints raise: the earliest end holds."""
    ok = seg[1:] != seg[:-1]
    k = np.flatnonzero(~ok)
    ok[k] = _intervals_ok(s, V, dV, sep, k)
    end, new = len(s), np.arange(len(s))

    def cut(n):
        return (s[:n], seg[:n], V[:n], dV[:n], sep[:n]), ok[:max(n - 1, 0)]

    while True:
        lost = _lost(V[new], sep[new])
        if lost.any():
            end = int(new[np.argmax(lost)])
            err = _lost_error(sep[end])
            (s, seg, V, dV, sep), ok = cut(end + 1)
        bad = np.flatnonzero(~ok)
        short = s[bad + 1] - s[bad] < WALK_FLOOR
        if short.any():
            k = int(bad[np.argmax(short)])
            if k + 1 < end:
                end, err = k + 1, ValueError(_COLLIDE)
                (s, seg, V, dV, sep), ok = cut(end + 1)
            ok[k] = True
            bad = bad[bad < k]
        if not len(bad):
            return s, seg, V, dV, sep, end, err
        mid = (s[bad] + s[bad + 1]) / 2
        Vm, dVm, sepm, e = _sample(mu, W, seg[bad], mid, stats)
        if e is not None:   # end before the segment that raised
            end, err = int(np.searchsorted(seg, seg[bad[len(Vm)]])), e
            (s, seg, V, dV, sep), ok = cut(end)
            bad, mid = bad[:len(Vm)], mid[:len(Vm)]
        stats.bisected += len(bad)
        # the midpoint of interval bad[k] lands at index bad[k] + k + 1
        new = bad + np.arange(1, len(bad) + 1)
        old = np.ones(len(s) + len(bad), dtype=bool)
        old[new] = False
        s, seg, V, dV, sep = (_merged(x, y, old, new) for x, y in (
            (s, mid), (seg, seg[bad]), (V, Vm), (dV, dVm), (sep, sepm)))
        end += len(bad)   # every midpoint lies before the end
        ok = _merged(ok, False, old[:-1], new)   # one entry per interval
        k = np.concatenate([new - 1, new])
        ok[k] = _intervals_ok(s, V, dV, sep, k)


def _path_values(mu, waypoints, steps, stats):
    """Critical values at adaptive samples of the piecewise-linear path,
    with the predictions they are matched to, in path order: pairs (V, P)
    of (n, mu) arrays.  The first pair is the first waypoint alone, with P
    None, also on a path of one waypoint; then one pair per window, its
    samples after each segment's start (a segment's last sample is its
    end), and none for a window without such samples.  Row r of P holds
    the forward predictions at sample r of the previous sample's values,
    in that sample's order, the ones `_steps_ok` matched.

    Each segment starts from the uniform samples k/steps and bisects every
    interval between adjacent samples that fails the step test
    (`_steps_ok`).  The grid intervals of the whole path are taken in
    windows of WALK_CHUNK across segment ends, so memory does not grow
    with steps.  A window evaluates in one stacked call the right end of
    each of its intervals, the left end of its first interval in each
    segment (so it carries nothing from the window before it), and on the
    first window the start, segment 0 of its own; the midpoints of each
    round of bisection (`_refine`) take one stacked call as well.  A
    sample whose critical values are closer than TOL_DISC or than floats
    resolve (`_lost`), the start included, or an interval that still fails
    at WALK_FLOOR of its segment, ends the walk: the samples before it are
    yielded, then ValueError is raised.
    An overflow in a segment's samples of a window raises after the
    samples of the earlier segments, before any of its own.  stats, a
    WalkStats, counts the points evaluated, each left end once: it is the
    start, the end of the segment before or a grid sample of the window
    before."""
    # segment i runs from W[i] to W[i + 1]; segment 0 holds the start alone
    W = np.array([waypoints[0], *waypoints], dtype=complex)
    n = (len(W) - 2) * steps   # grid intervals
    for lo in range(0, max(n, 1), WALK_CHUNK):
        k = np.arange(lo, min(lo + WALK_CHUNK, n))
        # in the first segment's windows k < steps: no integer division by
        # a steps beyond the int64 range
        seg, k = np.divmod(k, steps) if lo + WALK_CHUNK > steps else (0 * k, k)
        # each interval's right end, after its left end where the interval
        # starts the window or a segment
        left = k == 0
        left[:1] = True
        i = np.flatnonzero(left)
        seg = np.insert(seg, i, seg[i]) + 1
        s = np.insert(k + 1, i, k[i]) / steps
        if not lo:   # the start, at s = 0 of segment 0
            seg, s = np.concatenate([[0], seg]), np.concatenate([[0.0], s])
        V, dV, sep, err = _sample(mu, W, seg, s, stats)
        seg, s = seg[:len(V)], s[:len(V)]
        # each segment's left end but the start is a point counted before
        # (a set, as np.unique would import numpy.ma, a megabyte, into
        # every walk)
        stats.samples -= len(set(seg.tolist()) - {0})
        s, seg, V, dV, sep, end, err = _refine(mu, W, s, seg, V, dV, sep,
                                               err, stats)
        if not lo and end > 0:
            yield V[:1], None
        # bit for bit the predictions _intervals_ok matched
        P = V[:-1] + (s[1:] - s[:-1])[:, None] * dV[:-1]
        r = np.flatnonzero(seg[1:end] == seg[:end][:-1])
        if len(r):
            yield V[r + 1], P[r]
        if err is not None:
            raise err


def _walk_step(matched, letters, contact):
    """One sample of the walk that may change it, the only definition of
    its rules.

    matched holds the sample's values matched to the previous sample's
    values in good order (`_matched`).  The list is bubbled into good
    order, and every adjacent swap appends a letter to letters, signed by
    the real-part order at the crossing.  contact counts, per adjacent
    pair, the consecutive samples spent within TOL_WALL of a wall."""
    changed = True
    while changed:   # good_order's key is a strict order, so the bubble ends
        changed = False
        for i in range(len(matched) - 1):
            lo, hi = matched[i], matched[i + 1]
            if _inverted(lo, hi):
                letters.append((i + 1) if lo.real > hi.real else -(i + 1))
                matched[i], matched[i + 1] = hi, lo
                changed = True
    # a single sample may kiss a wall during a transversal crossing;
    # lingering inside the band means a tangential contact
    for i in range(len(matched) - 1):
        if abs(matched[i].imag - matched[i + 1].imag) < TOL_WALL:
            contact[i] = contact.get(i, 0) + 1
            if contact[i] >= 3:
                raise ValueError(
                    "tangential crossing: a wall contact did not resolve "
                    "at this sample resolution; refine steps")
        else:
            contact[i] = 0


def wall_walk_A(mu, path, steps=WALK_STEPS) -> BraidWord:
    """Track the good-ordered critical values along a piecewise-linear path
    of parameter vectors; emit one braid letter per transversal crossing of
    adjacent imaginary parts.  The letter sign comes from the real-part
    order at the crossing.

    Each segment is sampled adaptively (`_path_values`): from a uniform
    grid of steps samples, a positive integer, every interval is bisected
    until it passes the step test (`_steps_ok`).  The values at each end
    are predicted at the other by an Euler step along their exact
    velocities, and the values of the right end are matched to the
    nearest predictions of the left end's values.  The test asks
    1. each value to lie within half its end's separation of its
       prediction, both forward and backward, so the matching is a
       bijection;
    2. each pair's difference to move by less than half its smaller
       length at the two ends, so it turns by less than 30 degrees and a
       pair that crosses a wall keeps its real-part order: the sign of
       every letter is certain;
    3. at most one pair to cross a wall with imaginary gaps of at least
       TOL_WALL at both ends, so the order of the letters is certain.
    A close pair that moves fast together passes in steps of its motion,
    not of its separation.  The path is sampled in windows of WALK_CHUNK
    grid intervals across segment ends, each window's grid samples and
    each round's midpoints in one stacked call.  A path of one waypoint
    gives the empty word, after the checks of its start.
    Aborts when two critical values come closer than TOL_DISC or an
    interval cannot be resolved above WALK_FLOOR (the path hit the
    discriminant), or closer than WALK_FLOOR of their largest modulus,
    which floats do not resolve, or when a wall contact, an adjacent
    imaginary gap below TOL_WALL, does not resolve within the sample
    resolution (tangential crossing).  Both bands are absolute constants:
    scaling each t_j by s^(deg t_j), s > 0, scales every critical value by
    s and keeps the word, so a path can be rescaled away from them, and
    shifting t_1 shifts every critical value alike and keeps the word.
    Samples are read a
    chunk at a time and matched to their predecessors' predictions in one
    array call (`_matched`), the step test's own matching; a still sample,
    whose matched values are in good order with every adjacent imaginary
    gap at least TOL_WALL, changes nothing, and every other one goes
    through `_walk_step`.  A mu or a steps that is not a `positive_int`,
    or a path that `_waypoints` refuses, raises ValueError."""
    return _walk(mu, path, steps)[0]


def _walk(mu, path, steps=WALK_STEPS):
    """`wall_walk_A`'s word, and the WalkStats of its sampling."""
    mu = positive_int(mu, "mu")
    steps = positive_int(steps, "steps")
    waypoints = _waypoints(mu, path)
    stats = WalkStats()
    letters, contact = [], {}   # contact: adjacent pair -> samples on the wall
    prev = None                 # the previous sample's values
    for V, P in _path_values(mu, waypoints, steps, stats):
        if prev is None:   # the start, alone in its chunk: raises on a wall
            good_order(V[0].tolist())
        else:
            L = np.concatenate([prev, V[:-1]])
            r = np.arange(len(V))[:, None]
            # each sample's values matched to its predecessor's, in the
            # predecessor's good order
            B = V[r, _matched(V, P)[r, np.lexsort((-L.real, L.imag))]]
            lo, hi = B[:, :-1], B[:, 1:]
            still = ~_inverted(lo, hi).any(axis=1) & \
                (np.abs(hi.imag - lo.imag) >= TOL_WALL).all(axis=1)
            for r in np.flatnonzero(~still):
                if r and still[r - 1]:
                    contact = {}
                _walk_step(B[r].tolist(), letters, contact)
            if still[-1]:
                contact = {}
        prev = V[-1:]
    return BraidWord(tuple(letters)), stats


def _waypoints(mu, path):
    """The waypoints of a walk's path, a container (`entries`) of
    containers of mu `finite_complex` entries, as tuples of complex
    numbers.  Any other entry, an empty path, a waypoint of another
    length, or two consecutive waypoints whose difference is not finite,
    so that the segment between them cannot be sampled, raises
    ValueError."""
    waypoints = [entries(wp, "path", finite_complex)
                 for wp in entries(path, "path")]
    if not waypoints:
        raise ValueError("empty path")
    if any(len(wp) != mu for wp in waypoints):
        raise ValueError("waypoints must have mu components")
    if not all(cmath.isfinite(y - x) for a, b in zip(waypoints, waypoints[1:])
               for x, y in zip(a, b)):
        raise ValueError("consecutive waypoints must have a finite "
                         "difference")
    return waypoints
