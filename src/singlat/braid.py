"""Hurwitz action of the braid group and the sign group on distinguished
basis tuples and Stokes matrices, with exact orbit enumeration.

Generator conventions (fixed):

    +i : (d_i, d_{i+1}) -> (d_{i+1}, s_{d_{i+1}}(d_i))
    -i : (d_i, d_{i+1}) -> (s_{d_i}(d_{i+1}), d_i)

with s the reflection of lattice.pl_reflect.  The two are mutually inverse,
and all orbit counts are independent of which of the two standard
conventions is chosen.

Orbit enumeration is a deterministic breadth-first closure over all
2(mu-1) signed generators, with states canonicalized modulo the sign group
before deduplication.

Engine: the search is level-synchronous, and each run uses one of three
engines, fixed by its mode and seed (_engine).  A run on root indices
holds a state as the (B, mu) tuple of the indices of its vectors in the
process's root table of the seed's form (lattice.roots), and a move is
one gather from the table's reflections (_expand_roots), which computes
and interns only the reflections met for the first time: every vector of
the orbit is a root up to sign, a simple seed ends with its whole table,
and an elliptic seed holds the few roots its budget reaches.  Every bases
run is one, and so is a Stokes run over a positive definite form of rank
<= 16 with m = mu(mu-1)/2 > 10 packed entries (A6-A16, D6-D16, E6-E8),
whose table holds every root and whose tuples are canonical modulo G_Z
(see Keys).  A Stokes run over a positive definite form with m <= 10
(A1-A5, D4, D5) runs on codes: a state is the uint16 base-3 code of its
packed tree sign normal form, and a move is one row of a move table
(_CodeTable).  Every other Stokes run, over an indefinite or semidefinite
form (the elliptic classes), holds packed Stokes matrices, one
(B, m) array per level, int8 while the entries fit, and applies every
generator (S' = P S P^t) to a chunk of states in one numpy pass, in
int16, int64 or Python ints as a bound on the entries requires, so
arithmetic is exact at every width.  Chunks hold about 2^16 entries,
counting mu^2 per candidate.  The packed kernels (_stokes_moves,
_tree_sign_form) work batch-minor, on arrays whose last, contiguous axis
is the batch: numpy runs every broadcast and reduction as an inner loop
over that axis, and with the batch first each inner loop would be a row
of length mu with its per-row cost (on an E6 chunk of 1820 candidates,
nb * e[:, None, :] in int8 takes 81 us in that layout and 3.8 us over the
batch).  Every engine lays out its candidates state-major, generator-
minor, which numbers the classes exactly as a FIFO queue would.  The
rounds read the first nonzero entry of a {-1, 0, 1} row as the sign of
its dot product with the one cached weighting _pow3 = (3^(mu-1), ..., 3,
1): no gather, one product and one sum over the batch.

Packed Stokes states: a Stokes matrix is unit upper triangular, so only
its m = mu(mu-1)/2 strict upper entries vary, and a Stokes state is that
triangle in np.triu_indices(mu, 1) order, batch-minor (m, B) inside the
kernels.  A move is two gathers over the extended rows (u; 0; 1): with
P = P0 + c P1, P0 the swap of slots i and i+1 and P1 = -E_tt, the c^2
term of P S P^t lies on the diagonal, so every new upper entry is
S[sigma a, sigma b] - c S[p, q] for index tables built once per mu
(_stokes_tables; a lower entry reads the 0 row, a diagonal one the 1 row).
The full P S P^t of a unit upper triangular S is unit upper triangular
again, so a packed state cannot leave the distinguished shape and the
kernel has nothing to check; the shape is checked where a matrix enters,
in StokesMatrix and stokes_of_tuple.  _sign_rounds reads the symmetric
neighbour signs from the packed signs, and _tree_sign_form writes packed,
C-ordered results.

Keys: a bases state indexes sign-canonical roots, each interned once, so
it is its own key, the bytes of its mu indices.  Two distinguished bases
have one Stokes matrix exactly when an element of G_Z, the automorphisms
of the lattice that keep the Seifert form, maps one to the other; so a
Stokes class is a bases class modulo G_Z/+-1, and a Stokes run on root
indices holds each class as its least image tuple under the action of
G_Z/+-1 on the roots (lattice.gz, _gz_canon), keyed by its bytes as a
bases state is.  A packed Stokes state is put in
the tree sign normal form of _tree_sign_form, signs propagated along a
spanning tree that depends only on the support pattern.  The support is
sign-invariant, so the tree is too, and on a connected diagram the
tree-edge signs fix the conjugating signs up to a global sign; so that
form is a complete sign-class invariant, and sign_canonical_stokes (which
packs, normalizes and unpacks) returns it.  The conjugating signs are a
function of the m entry signs alone, computed by the rounds of
_sign_rounds, the one definition of the form.  A packed Stokes key is the
int8 bytes of the state's m entries, or b"P" and their canonical hex
(_hex) when an entry exceeds 127, so widths never collide and nothing
overflows; a code is its own key, as a Python int.  Keys are compared by full
equality (Python set semantics), so counts are exact.

Codes: over a positive definite form every Stokes entry S_ij, i < j, is
the pairing I(v_i, v_j) of two roots of a basis, which are distinct and
not opposite, so by Cauchy-Schwarz |I(v_i, v_j)| < sqrt(I(v_i, v_i)
I(v_j, v_j)) = 2 and the entry lies in {-1, 0, 1}.  A packed state u is
then the code sum_q (u_q + 1) 3^q, below 3^10 = 59049 for m <= 10, and
the code is a bijection on {-1, 0, 1}^m, so it is its own key.  Row c
of the move table holds the codes of the tree sign forms of the moves
of the state of code c, in _generators order; a row is filled, by the
packed engine's kernel _expand_stokes on the decoded states, the first
time its state is expanded, and kept for the life of the process.  An
expansion is then one gather, rows[slot[x]].ravel(), state-major and
generator-minor, as FIFO order requires.  So the code and packed engines
move and canonicalise with one kernel: on every packed (indefinite or
semidefinite) chunk, and on the states of every new row.  Codes stay for
m <= 10, where they are faster than root indices (_engine).

Budgets are exact: a run stopped by max_states reports exactly that many
classes, the first ones in FIFO order, and is truncated only if the orbit
is larger.

Open levels: every move has its inverse among the generators, so
expanding level d meets only classes of levels d - 1, d and d + 1 (Korf,
Zhang, Thayer and Hohwald, JACM 52(5), 2005).  A run's search state is
those open levels: the window, from the first class of level d - 1 to
the last one found, in FIFO order.  A fresh run starts from the start's
window of one class, a resumed one from the saved window, and both
dedup against the keys of the open levels alone: each level keeps the
list of its classes' keys, and a level swap drops level d - 1's from the
visited set.

Checkpoints (format 9, _save_checkpoint) are one file under one SHA-256:
a JSON manifest, with the seed in canonical hex, then the raw bytes of the
arrays it describes, which are the window and a root-index run's root
vectors.  Loading unpickles
nothing, checks every saved class, remaps saved root indices to this
process's and redoes a Stokes run's canonical tuples (_load_checkpoint).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import tempfile
import threading
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .lattice import (StokesMatrix, symmetrized_form, mat_det, is_connected,
                      definiteness, form_pair, mat_mul, mat_neg,
                      mat_transpose, process_cache, roots, row_keys, gz,
                      _INT8_MAX, _INT64_MAX, _sign_canonical, _work_dtype)
from .polyalg import positive_int


@dataclass(frozen=True)
class BraidWord:
    """Sequence of signed generator indices, 1-based, 1 <= |g| <= mu-1."""
    letters: tuple

    def inverse(self):
        return BraidWord(tuple(-g for g in reversed(self.letters)))


@dataclass(frozen=True)
class VanishingTuple:
    """Ordered tuple of integer coordinate vectors over a seed Stokes matrix.

    The seed fixes the reference Seifert pairing L = -S^t and the
    intersection form I = S + S^t in which all reflections are computed.
    """
    vectors: tuple
    seed: StokesMatrix

    @property
    def mu(self):
        return len(self.vectors)

    def validate(self):
        i_rows = symmetrized_form(self.seed).rows
        if abs(mat_det(self.vectors)) != 1:
            raise ValueError("tuple is not a Z-basis")
        for v in self.vectors:
            if form_pair(i_rows, v, v) != 2:
                raise ValueError("tuple member without self-pairing 2")
        return True

    @classmethod
    def standard(cls, seed: StokesMatrix):
        n = seed.mu
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n))
                         for i in range(n)), seed)


def _apply_gen(vectors, i_rows, g):
    """Raw generator action on a tuple of coordinate vectors."""
    i = abs(g) - 1
    if not 0 <= i < len(vectors) - 1:
        raise IndexError(f"generator index {g} out of range")
    vs = list(vectors)
    a, b = vs[i], vs[i + 1]
    if g > 0:
        c = form_pair(i_rows, b, a)
        vs[i] = b
        vs[i + 1] = tuple(x - c * y for x, y in zip(a, b))
    else:
        c = form_pair(i_rows, a, b)
        vs[i] = tuple(x - c * y for x, y in zip(b, a))
        vs[i + 1] = a
    return tuple(vs)


def braid_apply(t: VanishingTuple, g: int) -> VanishingTuple:
    """Apply one signed braid generator to a tuple."""
    i_rows = symmetrized_form(t.seed).rows
    return VanishingTuple(_apply_gen(t.vectors, i_rows, g), t.seed)


def braid_apply_word(t: VanishingTuple, word: BraidWord) -> VanishingTuple:
    i_rows = symmetrized_form(t.seed).rows
    vs = t.vectors
    for g in word.letters:
        vs = _apply_gen(vs, i_rows, g)
    return VanishingTuple(vs, t.seed)


def stokes_of_tuple(t: VanishingTuple) -> StokesMatrix:
    """Stokes matrix of the tuple: S' = -G^t for the Seifert Gram matrix G
    of the tuple with respect to the seed pairing L = -S^t."""
    rows = _stokes_rows_of_vectors(t.vectors, t.seed.rows)
    return StokesMatrix(rows)


def _stokes_rows_of_vectors(vectors, seed_rows):
    # G = V L V^t with L = -S^t, lower triangular with diagonal -1
    g = mat_mul(mat_mul(vectors, mat_neg(mat_transpose(seed_rows))),
                mat_transpose(vectors))
    if any(row[a] != -1 or any(row[a + 1:]) for a, row in enumerate(g)):
        raise ValueError("tuple is not distinguished-shaped")
    return mat_neg(mat_transpose(g))


def sign_canonical_tuple(t: VanishingTuple) -> VanishingTuple:
    """Normalize every vector so its first nonzero coordinate is positive."""
    return VanishingTuple(_canon_vectors(t.vectors), t.seed)


def _canon_vectors(vectors):
    out = []
    for v in vectors:
        lead = next((x for x in v if x), 0)
        out.append(tuple(-x for x in v) if lead < 0 else v)
    return tuple(out)


def sign_canonical_stokes(s: StokesMatrix) -> StokesMatrix:
    """The tree sign normal form of _tree_sign_form: diag(e) S diag(e) with
    e_0 = +1 and every edge of the support's spanning tree positive.

    Requires a connected diagram (otherwise per-component sign freedom would
    leave the form ill-defined)."""
    if not is_connected(s):
        raise ValueError("sign canonicalization requires a connected diagram")
    return _unpack(_tree_sign_form(_pack(s))[:, 0])


# ---------------------------------------------------------------------------
# orbit enumeration
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = 9          # 8 held the seed as JSON; 7 saved E6-E8,
                               # A6+ and D6+ Stokes runs packed and wide
                               # entries as JSON; 6 saved
                               # every visited key; 5 lacked the roots its
                               # indices name; 4 nested .npy files; 3 a
                               # pickle; 2 mu x mu
_CHECKPOINT_MAGIC = f"singlat checkpoint {CHECKPOINT_FORMAT}".encode()
CHECKPOINT_EVERY = 250_000     # expanded states between checkpoint saves
_CHUNK_ELEMENTS = 2 ** 16      # per numpy pass, counting mu^2 per
                               # candidate: a bases chunk's entries; a
                               # packed Stokes chunk holds about 2^15
_CODE_MAX_M = 10               # Stokes codes of m <= 10 entries are
                               # below 3^10 = 59049 and fit uint16


@dataclass
class OrbitReport:
    """Outcome of orbit_enumerate.  states_visited counts the states fully
    expanded; levels[d] is the number of classes found at braid distance d
    from the seed."""
    mode: str
    class_count: int
    states_visited: int
    wall_clock: float
    truncated: bool
    levels: tuple = ()

    def to_json(self, label=None):
        """The report as one line of JSON with sorted keys.  wall_clock is
        left out, so the same run prints the same bytes."""
        doc = {
            "mode": self.mode,
            "count": self.class_count,
            "visited": self.states_visited,
            "truncated": self.truncated,
            "levels": list(self.levels),
        }
        if label is not None:
            doc["class"] = label
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _generators(n):
    """The 2(mu-1) signed generators in expansion order."""
    return [g for k in range(1, n) for g in (k, -k)]


@functools.lru_cache(maxsize=None)
def _move_tables(n):
    """Index arrays of the generators: the pair (i, i+1) a generator mixes,
    the slot t that receives the combination, t followed by the other
    slots 2 i + 1 - t in one array, and the row permutation swapping i and
    i+1.

    +k (i = k-1): (v_i, v_{i+1}) -> (v_{i+1}, v_i - c v_{i+1}), t = i+1
    -k          : (v_i, v_{i+1}) -> (v_{i+1} - c v_i, v_i),     t = i
    so in both cases  new[t] = old[other] - c old[t]  and the rest is the
    swap.  c = I(v_i, v_{i+1}) is symmetric in the pair.  _move_index joins
    the swap and slot t into the root engine's one gather."""
    gens = _generators(n)
    i = np.array([abs(g) - 1 for g in gens], dtype=np.intp)
    t = np.array([abs(g) if g > 0 else abs(g) - 1 for g in gens],
                 dtype=np.intp)
    perm = np.tile(np.arange(n), (len(gens), 1))
    perm[np.arange(len(gens)), i] = i + 1
    perm[np.arange(len(gens)), i + 1] = i
    return _frozen(np.arange(len(gens)), i, t,
                   np.concatenate([t, 2 * i + 1 - t]), perm)


@functools.lru_cache(maxsize=None)
def _move_index(n):
    """The one gather of _expand_roots, (G, n) intp, read-only: row g is
    generator g's swap perm[g] (_move_tables) with slot t[g] replaced by
    n + g, so that taking it along the columns of (x | moved), moved[:, g]
    the root generator g puts into slot t[g], gives every move of x."""
    gi, _, t, _, perm = _move_tables(n)
    index = perm.copy()
    index[gi, t] = n + gi
    return _frozen(index)[0]


@functools.lru_cache(maxsize=None)
def _stokes_tables(n):
    """Index arrays of the packed Stokes kernels, read-only.

    A packed state u holds the m = n(n-1)/2 strict upper entries of a unit
    upper triangular S in np.triu_indices(n, 1) order: entry q is S[a[q],
    b[q]].  The kernels read u extended by two rows, (u; 0; 1), so that
    index m reads 0 and index m + 1 reads 1, and pos[a, b] is the index of
    S[a, b] in that extension (lower entries m, the diagonal m + 1).
    Returns a, b, pos; then the move gathers src, cross (shape (m, G)) and
    the index cpos (G,) of c = S[i, i+1] for _stokes_moves; then sym
    (n, n), the index of the edge (j, i) in either order, with the
    diagonal at the zero row, for _sign_rounds."""
    _, i, t, _, perm = _move_tables(n)
    a, b = np.triu_indices(n, 1)
    m = len(a)
    pos = np.full((n, n), m, np.intp)
    pos[a, b] = np.arange(m)
    np.fill_diagonal(pos, m + 1)
    sa, sb = perm.T[a], perm.T[b]                     # sigma(a), sigma(b)
    cross = np.where(a[:, None] == t, pos[t, sb],
                     np.where(b[:, None] == t, pos[sa, t], m))
    sym = np.minimum(pos, pos.T)
    np.fill_diagonal(sym, m)
    return _frozen(a, b, pos, pos[sa, sb], cross, pos[i, i + 1], sym)


def _mu_of(m):
    """mu of a packed Stokes state of m = mu(mu-1)/2 entries."""
    return (1 + math.isqrt(1 + 8 * m)) // 2


def _pack(s: StokesMatrix):
    """The strict upper triangle of s as a packed batch of one, (m, 1)."""
    a, b = _stokes_tables(s.mu)[:2]
    return np.array(s.rows, dtype=object)[a, b][:, None]


def _unpack(u):
    """The Stokes matrix of a packed state u, shape (m,)."""
    ext = u.tolist() + [0, 1]
    pos = _stokes_tables(_mu_of(len(u)))[2]
    return StokesMatrix(tuple(tuple(ext[k] for k in row)
                              for row in pos.tolist()))


@functools.lru_cache(maxsize=None)
def _pow3(n):
    """The column (3^(n-1), ..., 3, 1), shape (n, 1), read-only.  For w in
    {-1, 0, 1}^n along the first axis, sign(w . pow3) is the sign of w's
    first nonzero entry: each power of 3 outweighs the sum of all smaller
    ones, and the dot product stays below 3^n / 2, which the dtype holds."""
    pow3, = _frozen(np.array([[3 ** k] for k in range(n - 1, -1, -1)],
                             dtype=_work_dtype(3 ** n // 2)))
    return pow3


def _frozen(*arrays):
    """Read-only arrays, safe to share from a cache."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _stokes_moves(x):
    """Every generator move of a batch of packed Stokes matrices.

    Batch-minor, like every orbit kernel: x has shape (m, B), the packed
    matrix k in x[:, k], and the result (m, G, B), C-ordered, holds in
    [:, g, k] the packed S' = P S P^t of generator g (in _generators
    order) on matrix k, the layout _tree_sign_form reads.  P is the
    identity with the (i, i+1) block [[0, 1], [1, -c]] (+k) or
    [[-c, 1], [1, 0]] (-k), c = S[i, i+1], so P = P0 + c P1 with P0 the
    swap sigma of i and i+1 and P1 = -E_tt.  Then

        P S P^t = P0 S P0^t - c (E_tt S P0^t + P0 S E_tt) + c^2 S_tt E_tt

    and the c^2 term lies on the diagonal, so every new upper entry is
    S[sigma a, sigma b] - c S[p, q], with (p, q) = (t, sigma b) in row t,
    (sigma a, t) in column t and a zero elsewhere: two gathers of
    _stokes_tables over (x; 0; 1).  This is the tuple-local step: the
    moved standard basis only touches slots i, i+1, and the reflection data
    is a function of S alone, so the matrix is its own seed.  Entries stay
    within M (1 + M)^2 for |S| <= M, which the caller must fit into
    x.dtype."""
    m, b = x.shape
    _, _, _, src, cross, cpos, _ = _stokes_tables(_mu_of(m))
    ext = np.empty((m + 2, b), x.dtype)
    ext[:m] = x
    ext[m] = 0
    ext[m + 1] = 1
    return ext[src] - ext[cpos] * ext[cross]


def _tree_sign_form(u):
    """Sign normal form diag(e) S diag(e) of a batch (m, N) of packed
    Stokes matrices with connected diagrams, batch-minor.  The result is
    packed and C-ordered.

    e depends on the signs of the m entries alone, and _sign_rounds
    computes it.  The signs are read as int8, so int8, int16, int64 and
    object batches all take the same path.  On a disconnected diagram some
    vertex stays unsigned; that raises, since the form would no longer be
    complete."""
    a, b = _stokes_tables(_mu_of(len(u)))[:2]
    e = _sign_rounds(np.sign(u).astype(np.int8))
    if not e.all():
        raise AssertionError("orbit reached a disconnected diagram")
    return u * (e[a] * e[b])


def _sign_rounds(sg):
    """The conjugating signs e, (mu, N) int8, of the tree sign normal form
    of packed Stokes matrices whose entry signs are sg, (m, N) int8.
    Batch-minor: each round is one product and one sum over arrays whose
    last axis is the batch.

    e_0 = +1; then, at most mu-1 times, every vertex j still unsigned that
    has a signed neighbour gets e_j = e_i sign(S_ij), i its lowest-index
    signed neighbour (S_ij read from the upper triangle).  The rounds, and
    so the spanning tree of parents i, depend on the support of S alone; a
    vertex no round reaches (a disconnected diagram) keeps e_j = 0.

    Complete sign-class invariant: conjugating by D = diag(d) keeps the
    support, hence the tree, and turns every edge sign sign(S_ij) into
    d_i d_j sign(S_ij); by induction along the tree the new signs are
    e'_j = d_0 d_j e_j, so E' (D S D) E' = E S E and the form is constant on
    sign classes.  Conversely equal forms E S E = E' S' E' make S' the sign
    conjugate (E E') S (E E')."""
    m, k = sg.shape
    n = _mu_of(m)
    ext = np.zeros((m + 1, k), np.int8)
    ext[:m] = sg
    nb = ext[_stokes_tables(n)[6]]                    # edge signs, symmetric
    # nb[j, i] e_i lies in {-1, 0, 1}, so its lowest-index nonzero entry
    # is the sign of its dot product with _pow3(n)
    pow3 = _pow3(n)
    e = np.zeros((n, k), np.int8)
    e[0] = 1
    for _ in range(n - 1):
        unsigned = e == 0
        if not unsigned.any():
            break
        dot = (nb * (e * pow3)[None]).sum(axis=1, dtype=pow3.dtype)
        np.copyto(e, np.sign(dot), casting="unsafe", where=unsigned)
    return e


def _expand_stokes(x):
    """Tree sign normal forms of every move of the packed Stokes matrices
    x, (B, m), as one (B * G, m) batch in FIFO order, computed exactly and
    stored as _narrow stores them."""
    b, m = x.shape
    g = 2 * (_mu_of(m) - 1)
    top = int(np.abs(x).max(initial=0))
    y = _stokes_moves(x.T.astype(_work_dtype(top * (1 + top) ** 2)))
    y = _narrow(_tree_sign_form(y.reshape(m, g * b)))
    return y.reshape(m, g, b).transpose(2, 1, 0).reshape(b * g, m)


@functools.lru_cache(maxsize=None)
def _code_weights(m):
    """The column (1, 3, ..., 3^(m-1)), shape (m, 1) int32, read-only: the
    weights of the base-3 code of a packed state with entries in
    {-1, 0, 1}."""
    w, = _frozen(3 ** np.arange(m, dtype=np.int32)[:, None])
    return w


def _encode(u):
    """The codes sum_q (u_q + 1) 3^q, (N,) uint16, of a batch u, (m, N),
    of packed states with entries in {-1, 0, 1}, m <= _CODE_MAX_M."""
    w = _code_weights(len(u))
    return ((u + 1) * w).sum(axis=0, dtype=np.int32).astype(np.uint16)


def _decode(codes, m):
    """The packed states, (m, N) int8, of the codes (N,): _encode's
    inverse."""
    return (codes // _code_weights(m) % 3 - 1).astype(np.int8)


class _CodeTable:
    """The move table of the Stokes code engine for one m, filled on
    demand and kept for the life of the process.

    Row r of rows holds, for every generator in _generators order, the code
    of the tree sign normal form of that move of one state, as
    _expand_stokes computes it; slot[c] is the row of the state of code c,
    or 0 while that row is unfilled (rows[0] is a placeholder), so T[x] =
    rows[slot[x]].  slot is 3^m uint16 zeros (118 KB at m = 10), and rows
    grows by doubling, one row per expanded class: a process that runs
    every A5 and D5 orbit holds 472 rows of 8 codes, where a dense table
    would hold 3^10.  rows grows, so rows are filled under a lock."""

    def __init__(self, m):
        self.m = m
        self.slot = np.zeros(3 ** m, np.uint16)
        self.rows = np.zeros((16, 2 * (_mu_of(m) - 1)), np.uint16)
        self.filled = 1
        self.lock = threading.Lock()

    def expand(self, x):
        """Every move of the codes x, (B,), as one (B * G,) batch of codes
        in FIFO order, filling the missing rows first."""
        at = self.slot[x]
        if not at.all():
            self.fill(x[at == 0])
            at = self.slot[x]
        return self.rows[at].ravel()

    def fill(self, codes):
        """Fill the rows of the codes in one batch: decode, _expand_stokes
        (the packed engine's kernel), encode.  A positive definite form
        keeps every entry in {-1, 0, 1} and every diagram connected; a move
        that does not raises AssertionError (a sign flip keeps every
        absolute value, so the narrowed forms show it)."""
        with self.lock:
            # distinct codes that no other thread filled meanwhile; a set,
            # for np.unique imports numpy.ma, about 10 ms and 1 MB of RSS
            codes = np.array(sorted(set(codes.tolist())), np.uint16)
            codes = codes[self.slot[codes] == 0]
            k, g = len(codes), self.rows.shape[1]
            y = _expand_stokes(_decode(codes, self.m).T)
            if np.abs(y).max(initial=0) > 1:
                raise AssertionError("a Stokes entry left {-1, 0, 1}")
            rows = _encode(y.T).reshape(k, g)
            lo, hi = self.filled, self.filled + k
            if hi > len(self.rows):
                grown = np.zeros((max(hi, 2 * len(self.rows)), g), np.uint16)
                grown[:lo] = self.rows[:lo]
                self.rows = grown
            self.rows[lo:hi] = rows
            self.filled = hi
            # the slots last: a reader that sees a row number finds its row
            self.slot[codes] = np.arange(lo, hi)


@process_cache
def _code_table(m):
    """The process's move table for Stokes codes of m packed entries."""
    return _CodeTable(m)


def _expand_roots(x, table):
    """Every move of the root-index tuples x, (B, mu), as one (B * G, mu)
    batch in FIFO order.  Every generator swaps slots i, i+1 and puts
    s_old[t](old[other]) into slot t (_move_tables): on indices up to sign
    table.refl[x[t], x[other]], one gather.  Only if its bytes hold the
    sentinel's (a third of a numpy reduction's cost; a false uint16 match
    needs an index >= 65280, past the table's limit) does the
    lattice.RootTable fill the missing pairs, and the gather is redone.
    The moves are then one take of _move_index along the columns of x with
    the moved roots appended, not a gather of the swaps and a scatter of
    the moved slots (an A4 chunk of 20 states: 13.0 against 15.1 us,
    timeit on a 2-core host)."""
    n = x.shape[1]
    _, _, t, slots, _ = _move_tables(n)
    pairs = x[:, slots]
    a, b = pairs[:, :len(t)], pairs[:, len(t):]
    moved = table.refl[a, b]
    if table.sentinel_bytes in moved.tobytes():
        table.fill(a, b)
        moved = table.refl[a, b]
    return np.concatenate([x, moved], axis=1).take(
        _move_index(n), axis=1).reshape(-1, n)


def _keys(states):
    """Dedup keys of a batch of packed Stokes states: the int8 bytes when
    every entry of the state has absolute value <= 127, else b"P" and the
    entries in the comma-separated canonical hex of _hex, of any size.
    The two kinds never compare equal: for m entries, an int8 key has m
    bytes and a b"P" key at least 2m, and the commas keep the entries of
    b"P" keys apart.  An int8 batch, which _narrow and _check_states keep
    within +-127, is keyed as it is.  States without entries (the packed
    Stokes matrix of mu = 1) key as b""."""
    if not states.size:
        return [b""] * len(states)
    flat = states.reshape(len(states), -1)
    if flat.dtype == np.int8:
        return row_keys(flat)
    return [_wide_key(v) for v in flat]


def _wide_key(v):
    v = v.tolist()
    if max(map(abs, v)) <= _INT8_MAX:
        return np.array(v, np.int8).tobytes()
    return b"P" + _hex(v)


def _narrow(states):
    """Store packed Stokes states as int8 when they fit, else int64, else
    Python ints."""
    m = int(np.abs(states).max(initial=0))
    if m <= _INT8_MAX:
        return states.astype(np.int8)
    return states.astype(np.int64 if m <= _INT64_MAX else object)


_Engine = namedtuple("_Engine", "start expand keys check table canon")


def _engine(seed, mode):
    """How one orbit run stores and moves its states: the start level, the
    batched expansion, which returns the candidates as the run stores
    them, the key function, the check of a checkpoint's saved states
    (_check_states, _check_bases), a root-index run's lattice.RootTable
    and a Stokes root-index run's canonical form (_gz_canon).

    A run on root indices starts from the index tuple (0, ..., mu-1) of
    its table's basis and moves with _expand_roots: every bases run, and
    a Stokes run over a positive definite form (lattice.definiteness, once
    per form) of rank <= 16, whose table has uint8 indices, with m =
    mu(mu-1)/2 > _CODE_MAX_M packed entries (A6-A16, D6-D16, E6-E8), which
    holds the canonical tuple of each class modulo G_Z (_expand_classes).
    The smaller positive definite Stokes runs (A1-A5, D4, D5), whose
    entries stay in {-1, 0, 1}, keep the codes of _CodeTable, which are
    faster there: a moved A5 orbit took 0.44 ms on codes and 1.04 ms on
    roots, D5 0.48 and 1.15 ms (medians).  Any other Stokes run holds packed
    states; the seed is connected, so its start is
    sign_canonical_stokes(seed), narrowed first: a sign flip keeps every
    entry's width."""
    n, form = seed.mu, symmetrized_form(seed).rows
    m = n * (n - 1) // 2
    definite = mode == "stokes" and n <= 16 and \
        definiteness(form) == "positive-definite"
    if mode == "stokes" and not (definite and m > _CODE_MAX_M):
        start = _tree_sign_form(_narrow(_pack(seed)))
        if definite:
            start = _encode(start)
            return _Engine(start, _code_table(m).expand, np.ndarray.tolist,
                           functools.partial(_check_states, start=start, m=m,
                                             bound=3 ** m), None, None)
        return _Engine(start.T, _expand_stokes, _keys,
                       functools.partial(_check_states, start=start.T, m=m),
                       None, None)
    table = roots(form)
    start = np.arange(n, dtype=table.dtype)[None]
    check = functools.partial(_check_bases, start=start, seed_rows=seed.rows,
                              limit=table.limit)
    if mode == "bases":
        return _Engine(start, functools.partial(_expand_roots, table=table),
                       row_keys, check, table, None)
    canon, free = _gz_canon(gz(seed.rows).perms)
    return _Engine(canon(start), functools.partial(
        _expand_classes, table=table, canon=canon, free=free), row_keys,
        check, table, canon)


def _gz_canon(perms):
    """The canonical form of root-index tuples modulo G_Z/+-1, whose action
    on the N roots is perms, (G, N) (lattice.gz): canon maps a batch of
    tuples (B, mu) to the least image tuple of each; free is True when
    only g = 1 fixes a root, so that each coset below has one element.

    The least image sends slot 0 to the least index of the orbit of a =
    x[0], so it lies in the coset of the g that do: one g for A6, A8, E7
    and E8, and at most two for every class that runs on roots (A6-A16,
    D6-D16, E6-E8), g1 and g2 (g1 = g2 for a coset of one).  table holds
    perms[g1] for every a, then perms[g2], and later[a, b] the sign of
    perms[g2, b] - perms[g1, b]; the first nonzero one along the tuple,
    the sign of a dot product with _pow3, says which image is least."""
    count, n = perms.shape
    lo = perms.min(axis=0)
    hit = perms == lo
    size = hit.sum(axis=0)
    if size.max() > 2:
        raise AssertionError("a coset of G_Z/+-1 of more than two elements")
    g1, g2 = hit.argmax(axis=0), count - 1 - hit[::-1].argmax(axis=0)
    table = np.concatenate([perms[g1], perms[g2]]).ravel()
    later = np.sign(perms[g2].astype(np.int16) - perms[g1]).astype(
        np.int8).ravel()
    row, free = np.arange(n) * n, size.max() == 1

    def canon(x):
        at = x + row[x[:, 0], None]
        if not free:
            at += (later.take(at) @ _pow3(x.shape[1]) < 0) * n * n
        return table.take(at)
    return canon, free


def _expand_classes(x, table, canon, free):
    """The canonical tuples (_gz_canon) of every move of the canonical
    tuples x, (B, mu), as one (B * G, mu) batch in FIFO order.  A move
    commutes with G_Z, and every generator but +-1 keeps slot 0, where
    x[0] is the least root of its orbit; so where only g = 1 fixes a root
    (free), the moves by +-1 alone need the canonical step."""
    y = _expand_roots(x, table)
    if not free:
        return canon(y)
    b, n = x.shape
    y3 = y.reshape(b, -1, n)
    y3[:, :2] = canon(y3[:, :2].reshape(-1, n)).reshape(b, 2, n)
    return y


def orbit_enumerate(seed: StokesMatrix, mode: str = "bases", *,
                    max_states: int = None,
                    checkpoint: str = None) -> OrbitReport:
    """Breadth-first closure under all signed braid generators.

    bases  : states are sign-canonical tuples over the fixed seed, held as
             indices into the root table of the seed's form (lattice.roots).
    stokes : states are Stokes matrices up to sign, in one of three
             engines (_engine).  Over a positive definite form of rank
             <= 16 with mu >= 6 (A6-A16, D6-D16, E6-E8), a class is a
             bases class modulo G_Z, held as its canonical tuple of root
             indices.  Over a positive definite form with mu <= 5 (A1-A5,
             D4, D5), it is the base-3 code of the tree sign normal form
             of the Stokes matrix, packed to its strict upper triangle.
             Over any other form, it is that packed normal form itself,
             and transitions treat the current matrix as its own seed.

    The search is level-synchronous: each level is one array and a chunk of
    it is expanded by all generators in one numpy pass, in entries wide
    enough to be exact, and its new classes are gathered by one take.
    Classes are numbered in FIFO order (state-major,
    generator-minor), so a budget keeps the first max_states classes:
    class_count = min(orbit size, max_states) and truncated is True iff the
    orbit is larger.  A run resumed from a checkpoint that already holds
    more classes than the budget keeps them and stops, truncated, at the
    first new class.  levels holds the sphere sizes of the orbit graph,
    which no choice of canonical form changes; a truncated run reports the
    classes found per level.  With a checkpoint path, a run resumes from
    the search state saved there, and saves it after every CHECKPOINT_EVERY
    expanded states and when the budget stops it.

    Every run starts from a window of open levels, the saved one or the
    start's level alone, and its visited set holds the keys of the open
    levels d - 1, d and d + 1 only: every move has its inverse among the
    generators, so expanding level d meets no class of level d - 2, and
    each level swap drops the keys of the level that leaves the window.
    """
    if mode not in ("bases", "stokes"):
        raise ValueError(f"unknown mode {mode!r}")
    if not seed.mu:
        raise ValueError("orbit enumeration requires a seed of mu >= 1")
    if not is_connected(seed):
        raise ValueError("orbit enumeration requires a connected seed diagram")
    if max_states is not None:
        max_states = positive_int(max_states, "max_states")
    n = seed.mu
    t0 = time.monotonic()
    limit = float("inf") if max_states is None else max_states

    engine = _engine(seed, mode)
    expand, keys = engine.expand, engine.keys
    g_count = 2 * (n - 1)
    chunk = max(1, _CHUNK_ELEMENTS // (max(1, g_count) * n * n))
    resumed = checkpoint and _load_checkpoint(checkpoint, mode, seed.rows,
                                              engine)
    window, window_keys, visited, levels, expanded = \
        resumed or (engine.start, *_keyed(engine.start, keys), [1], 0)
    # prev and cur are the whole levels d - 1 and d, level the rest of cur
    # to expand, nxt the classes found of level d + 1; each of the three
    # open levels keeps the list of its classes' keys beside it
    a = sum(levels[-2:-1])                  # level d - 1, none at d = 0
    b = a + levels[-1]
    prev, cur = window[:a], window[a:b]
    nxt = [window[b:]] if len(window) > b else []
    prev_keys, cur_keys, nxt_keys = \
        window_keys[:a], window_keys[a:b], window_keys[b:]
    del window_keys                         # its slices hold its keys
    level = cur[expanded - sum(levels[:-1]):]
    count = sum(levels) + len(nxt_keys)

    def save():
        doc = {"mode": mode, "seed": seed.rows, "levels": levels,
               "expanded": expanded,
               "window": np.concatenate([prev, cur] + nxt)}
        if engine.table is not None:
            doc["roots"] = engine.table.V
        _save_checkpoint(checkpoint, doc)

    truncated = False
    saved_at = expanded
    while len(level) or nxt:
        if not len(level):
            visited.difference_update(prev_keys)
            prev, cur = cur, np.concatenate(nxt)
            prev_keys, cur_keys, nxt_keys = cur_keys, nxt_keys, []
            level, nxt = cur, []
            levels.append(len(cur))
        x = level[:chunk]
        cands = expand(x)
        room = limit - count
        new = []
        for j, key in enumerate(keys(cands)):
            if key not in visited:
                if len(new) >= room:
                    truncated = True
                    break
                visited.add(key)
                nxt_keys.append(key)
                new.append(j)
        if new:
            nxt.append(cands.take(new, axis=0))
            count += len(new)
        if truncated:
            # the state in progress stays in the frontier: a resumed run
            # expands it again and finds its remaining classes in order
            level = level[j // g_count:]
            expanded += j // g_count
            break
        level = level[len(x):]
        expanded += len(x)
        if checkpoint and expanded - saved_at >= CHECKPOINT_EVERY:
            save()
            saved_at = expanded

    if checkpoint and truncated:
        save()
    if nxt:
        levels.append(len(nxt_keys))
    return OrbitReport(mode=mode, class_count=count,
                       states_visited=expanded,
                       wall_clock=time.monotonic() - t0,
                       truncated=truncated, levels=tuple(levels))


def _save_checkpoint(path, doc):
    """Write the search state doc to a temporary file beside path, fsync
    it, rename it over path and fsync the directory, so a reader sees the
    old checkpoint or the new one, never a partial write, and a crash
    after the save cannot undo the rename.

    The file is the line _CHECKPOINT_MAGIC, which names the format, a line
    with the SHA-256 of everything after it, one line of JSON manifest
    (mode, seed, levels, expanded, and the name, dtype, shape and byte
    size of every array), then the arrays' bytes in manifest order: the
    C-order bytes of an integer array, or the entries of an object array
    of Python ints in canonical hex (`_hex`).  The manifest holds the
    seed's entries, row by row, as one such hex string: json.dumps refuses
    an int of 4300 digits, and hex has no digit limit.  So every byte after
    the magic is under the one hash, and the manifest is the only
    description of each array.  The arrays are window, the
    classes of the open levels in FIFO order: every class of levels d - 1
    and d (levels[-2:], d the level in expansion) and those found so far
    of level d + 1; and in a run on root indices roots, the table's roots
    that the indices refer to."""
    arrays = [("window", doc["window"])]
    if "roots" in doc:
        arrays.append(("roots", doc["roots"]))
    entries, blobs = [], []
    for name, a in arrays:
        if a.dtype == object:
            blob = _hex(a.ravel().tolist())
        else:
            blob = np.ascontiguousarray(a).tobytes()
        entries.append({"name": name, "dtype": a.dtype.str,
                        "shape": list(a.shape), "size": len(blob)})
        blobs.append(blob)
    manifest = json.dumps({
        "mode": doc["mode"], "seed": _seed_hex(doc["seed"]),
        "levels": doc["levels"],
        "expanded": doc["expanded"], "arrays": entries},
        sort_keys=True).encode()
    digest = _sha256(manifest + b"\n", *blobs)
    folder = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(
            dir=folder, prefix=os.path.basename(path) + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(b"%s\n%s\n%s\n" % (_CHECKPOINT_MAGIC,
                                             digest.encode(), manifest))
                for blob in blobs:
                    fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        fd = os.open(folder, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        raise ValueError(f"cannot write checkpoint {path}: {exc}") from None


def _load_checkpoint(path, mode, seed_rows, engine):
    """The saved search state (window, window_keys, visited, levels,
    expanded), or None when path is missing or empty: window_keys lists
    the keys of the window's classes in order, and visited is their set
    (_keyed).

    Loading checks what it resumes: levels start with the seed's level of
    1 and hold no 0, sum(levels[:-1]) <= expanded <= sum(levels), the
    window holds at least the classes of the last two levels, engine.check
    (engine is the run's _Engine) accepts every saved class, and none
    repeats.  Anything unreadable, of another format, of another run or
    inconsistent raises ValueError; no byte of the file is unpickled.
    Only once every saved class passes engine.check are a root-index run's
    saved roots interned into its table, one gather maps the window if
    that moves them, and a Stokes run puts it in canonical form modulo
    this process's G_Z (_gz_canon); then the keys show any repeat."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise ValueError(f"cannot read checkpoint {path}: {exc}") from None
    if not data:
        return None
    magic, _, rest = data.partition(b"\n")
    if magic != _CHECKPOINT_MAGIC:
        if data.startswith(b"\x80"):
            # the pickle protocol opcode that format 3 files begin with
            raise ValueError(f"checkpoint {path} is not in checkpoint format "
                             f"{CHECKPOINT_FORMAT}: it begins as a pickle "
                             "does (formats 3 and older were pickles) and is "
                             "not loaded")
        if magic.startswith(b"singlat checkpoint"):
            raise ValueError(f"checkpoint {path} is not in checkpoint format "
                             f"{CHECKPOINT_FORMAT}")
        raise ValueError(f"checkpoint {path} is corrupt or not a singlat "
                         "checkpoint")
    digest, _, rest = rest.partition(b"\n")
    if _sha256(rest).encode() != digest:
        raise ValueError(f"checkpoint {path} is corrupt: it does not match "
                         "its SHA-256")
    head, _, body = rest.partition(b"\n")
    try:
        manifest = json.loads(head)
        run = manifest.get("mode"), manifest.get("seed")
    except (ValueError, AttributeError, RecursionError) as exc:
        raise ValueError(f"checkpoint {path} is corrupt: unreadable "
                         f"manifest ({exc})") from None
    if run != (mode, _seed_hex(seed_rows)):
        raise ValueError("checkpoint belongs to a different run "
                         "(mode or seed mismatch)")
    try:
        arrays = _checkpoint_arrays(manifest["arrays"], body)
        levels, expanded = manifest["levels"], manifest["expanded"]
        if not _is_int_list(levels) or not _is_int_list([expanded]):
            raise ValueError("levels and expanded must be integers")
        window = arrays["window"]
        if levels[:1] != [1] or 0 in levels:
            raise ValueError("levels do not start at the seed's level of "
                             "1, or hold an empty level")
        if not sum(levels[:-1]) <= expanded <= sum(levels):
            raise ValueError("expanded lies outside the last level")
        if len(window) < sum(levels[-2:]):
            raise ValueError("the window is shorter than its open levels")
        engine.check(window, arrays.get("roots"))
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise ValueError(f"checkpoint {path} is corrupt: {exc}") from None
    if engine.table is not None:
        # a table filled in another order holds the roots elsewhere, and
        # a Stokes run's canonical tuples follow its order
        index = engine.table.intern(arrays["roots"])
        if not np.array_equal(index, np.arange(len(index))):
            window = index[window]
        if engine.canon is not None:
            window = engine.canon(window)
    window_keys, visited = _keyed(window, engine.keys)
    if len(visited) != len(window):
        raise ValueError(f"checkpoint {path} is corrupt: saved classes "
                         "repeat")
    return window, window_keys, visited, list(levels), expanded


def _hex(values):
    """The Python ints values in canonical hex ("-1f"), comma separated:
    the one text form of a checkpoint's wide integers, which no digit
    limit applies to."""
    return b",".join(b"%x" % v for v in values)


def _seed_hex(seed_rows):
    """The manifest's seed: its entries, row by row, in `_hex`."""
    return _hex(itertools.chain.from_iterable(seed_rows)).decode()


def _keyed(window, keys):
    """The keys of the classes of window, in order, and their set."""
    window_keys = keys(window)
    return window_keys, set(window_keys)


def _checkpoint_arrays(entries, body):
    """The arrays of a checkpoint manifest, read from body.  The manifest's
    dtype and shape must account for each array's byte size before
    anything is read, so no claimed shape allocates anything: an integer
    array (dtype kind i or u) is np.frombuffer over exactly prod(shape)
    itemsize bytes, and an object array prod(shape) Python ints, each in
    the canonical hex that _save_checkpoint writes and nothing else."""
    arrays, offset = {}, 0
    for entry in entries:
        name, size, shape = entry["name"], entry["size"], entry["shape"]
        if type(name) is not str or not _is_int_list([size]) or \
                not _is_int_list(shape):
            raise ValueError(f"bad name, size or shape of {name!r}")
        blob = body[offset:offset + size]
        offset += size
        count = math.prod(shape)
        if entry["dtype"] == "|O":
            hexes = blob.split(b",") if blob else []
            try:
                flat = [int(h, 16) for h in hexes]
            except ValueError:
                flat = None
            if len(hexes) != count or flat is None or _hex(flat) != blob:
                raise ValueError(f"{name} is not {count} integers in hex")
            a = np.array(flat, dtype=object).reshape(shape)
        else:
            dtype = np.dtype(entry["dtype"])
            if dtype.kind not in "iu" or count * dtype.itemsize != size:
                raise ValueError(f"{name} does not have its recorded dtype, "
                                 "shape and size")
            a = np.frombuffer(blob, dtype).reshape(shape)
        arrays[name] = a
    if offset != len(body):
        raise ValueError("trailing bytes after the last array")
    return arrays


def _check_states(a, saved, start, m, bound=None):
    """Raise ValueError unless the saved Stokes states a pass as states of
    the run of m packed entries from start (saved roots: none): its shape
    per state, integer entries, on codes start's dtype and values below
    bound, packed entries above their signed dtype's minimum (whose
    negation wraps, so no sign flip or key would be exact), and tree sign
    normal forms, which a disconnected diagram has none of."""
    if a.shape[1:] != start.shape[1:] or \
            (a.dtype != object and a.dtype.kind not in "iu"):
        raise ValueError("saved states do not fit this run")
    if bound is not None and (a.dtype != start.dtype or
                              (a.size and int(a.max()) >= bound)):
        raise ValueError("saved Stokes codes do not fit this run")
    if bound is None and a.dtype.kind == "i" and a.size and \
            int(a.min()) == np.iinfo(a.dtype).min:
        raise ValueError("saved Stokes entries reach their dtype's minimum")
    step = max(1, _CHUNK_ELEMENTS // _mu_of(m) ** 2)
    for lo in range(0, len(a), step):
        x = a[lo:lo + step]
        u = _decode(x, m) if x.ndim == 1 else x.T
        try:
            canonical = np.array_equal(_tree_sign_form(u), u)
        except AssertionError:
            canonical = False
        if not canonical:
            raise ValueError("saved Stokes states are not sign normal forms "
                             "of connected diagrams")


def _check_bases(a, saved, start, seed_rows, limit):
    """Raise ValueError unless the saved bases states a, (B, mu) indices
    into the saved roots (N, mu), fit the run from start and are
    distinguished bases over the seed S.

    N is at most limit, the roots a table holds, before any arithmetic;
    indices are below N; saved roots are distinct, sign canonical and of
    I(v, v) = 2; and the Gram matrix V L V^t of each state, L = -S^t, is
    lower unitriangular with diagonal -1 (_stokes_rows_of_vectors).  So
    the diagonal -I(v, v)/2 of the pairings saved L saved^t must be -1,
    and P[x_a, x_b], a < b, gathered per chunk of states from the N x N
    table of nonzero pairings, False.  That table, N^2 bytes built a block
    of rows at a time, is no larger than the refl that interning the N
    roots makes."""
    n = start.shape[1]
    if a.shape[1:] != start.shape[1:] or a.dtype != start.dtype:
        raise ValueError("saved root indices do not fit this run")
    if saved is None or saved.ndim != 2 or saved.shape[1] != n:
        raise ValueError("saved roots do not fit this run")
    count = len(saved)
    if count > limit:
        raise ValueError(f"more than {limit} saved roots")
    if a.size and int(a.max()) >= count:
        raise ValueError("saved root indices are past the saved roots")
    exact = saved.astype(object)   # an int64 minimum negates to itself
    seifert = -np.array(seed_rows, dtype=object).T
    top = int(np.abs(exact).max(initial=0))
    w = _work_dtype(n * n * int(np.abs(seifert).max()) * top * top)
    v = saved.astype(w)
    vl = v @ seifert.astype(w)
    if not (np.array_equal(_sign_canonical(exact), exact) and
            ((vl * v).sum(axis=1) == -1).all()):
        raise ValueError("saved roots are not sign-canonical roots")
    upper = np.empty((count, count), bool)
    step = max(1, _CHUNK_ELEMENTS // (n * max(1, count)))
    for lo in range(0, count, step):
        upper[lo:lo + step] = vl[lo:lo + step] @ v.T != 0
    i, j = np.triu_indices(n, 1)
    step = max(1, _CHUNK_ELEMENTS // n ** 2)
    for lo in range(0, len(a), step):
        x = a[lo:lo + step]
        if upper[x[:, i], x[:, j]].any():
            raise ValueError("saved states are not sign-canonical "
                             "distinguished bases")
    if len(set(map(tuple, saved.tolist()))) != count:
        raise ValueError("saved roots repeat")


def _sha256(*parts):
    """The SHA-256 hex digest of the concatenated bytes parts.  hashlib is
    imported here, not with the module: it maps libcrypto, about 3 MB of
    RSS that a run without a checkpoint never needs."""
    import hashlib
    h = hashlib.sha256()
    for data in parts:
        h.update(data)
    return h.hexdigest()


def _is_int_list(values):
    return isinstance(values, list) and \
        all(type(v) is int and v >= 0 for v in values)
