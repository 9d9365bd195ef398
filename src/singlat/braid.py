"""Hurwitz action of the braid group and the sign group on distinguished
basis tuples and Stokes matrices, with exact orbit enumeration.

Generator conventions (fixed):

    +i : (d_i, d_{i+1}) -> (d_{i+1}, s_{d_{i+1}}(d_i))
    -i : (d_i, d_{i+1}) -> (s_{d_i}(d_{i+1}), d_i)

with s the reflection of lattice.pl_reflect.  The two are mutually inverse,
and all orbit counts are independent of which of the two standard
conventions is chosen.

Orbit enumeration is a deterministic FIFO breadth-first closure over all
2(mu-1) signed generators, with states canonicalized modulo the sign group
before deduplication.  Dedup keys are compared by full equality (Python
dict semantics), so counts are exact.
"""

from __future__ import annotations

import json
import pickle
import time
from collections import deque
from dataclasses import dataclass

from .lattice import (StokesMatrix, symmetrized_form, mat_det, is_connected,
                      form_pair)


@dataclass(frozen=True)
class BraidWord:
    """Sequence of signed generator indices, 1-based, 1 <= |g| <= mu-1."""
    letters: tuple

    def inverse(self):
        return BraidWord(tuple(-g for g in reversed(self.letters)))

    def __len__(self):
        return len(self.letters)


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
    n = len(seed_rows)
    # L = -S^t, lower triangular with diagonal -1
    l_rows = tuple(tuple(-seed_rows[j][i] for j in range(n)) for i in range(n))
    lv = [tuple(sum(r * y for r, y in zip(row, v)) for row in l_rows)
          for v in vectors]  # lv[j] = L . v_j  (column pairing vector)
    g = [[sum(x * y for x, y in zip(vectors[a], lv[b])) for b in range(n)]
         for a in range(n)]
    for a in range(n):
        if g[a][a] != -1:
            raise AssertionError("tuple is not distinguished-shaped")
        for b in range(a + 1, n):
            if g[a][b] != 0:
                raise AssertionError("tuple is not distinguished-shaped")
    return tuple(tuple(-g[j][i] for j in range(n)) for i in range(n))


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
    """Lexicographically minimal diag(e) S diag(e) with e_1 = +1.

    Requires a connected diagram (otherwise per-component sign freedom would
    make the greedy canonical form ill-defined)."""
    if not is_connected(s):
        raise ValueError("sign canonicalization requires a connected diagram")
    return StokesMatrix(_canon_stokes_rows(s.rows))


def _canon_stokes_rows_brute(rows):
    n = len(rows)
    best = None
    for bits in range(1 << (n - 1)):
        e = [1] + [1 - 2 * ((bits >> k) & 1) for k in range(n - 1)]
        cand = tuple(tuple(e[i] * e[j] * rows[i][j] for j in range(n))
                     for i in range(n))
        flat = tuple(x for r in cand for x in r)
        if best is None or flat < best[0]:
            best = (flat, cand)
    return best[1]


def _canon_stokes_rows(rows):
    """Exact lexicographic minimum over sign conjugations, by branch and
    bound over the row-major strictly-upper entries.  Candidate branches
    only appear while separate diagram components are still unanchored, so
    the live set stays tiny on connected diagrams; a blowup falls back to
    the brute-force scan."""
    n = len(rows)
    if n == 1:
        return ((1,),)
    cands = [[1] + [0] * (n - 1)]  # 0 marks an undetermined sign
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s = rows[i][j]
            if s == 0:
                continue
            best = None
            for e in cands:
                ei, ej = e[i], e[j]
                v = ei * ej * s if ei and ej else -abs(s)
                if best is None or v < best:
                    best = v
            new = []
            for e in cands:
                ei, ej = e[i], e[j]
                if ei and ej:
                    if ei * ej * s == best:
                        new.append(e)
                elif ei:
                    e2 = list(e)
                    e2[j] = best // (ei * s)
                    new.append(e2)
                elif ej:
                    e2 = list(e)
                    e2[i] = best // (ej * s)
                    new.append(e2)
                else:
                    e2 = list(e)
                    e2[i], e2[j] = 1, best // s
                    new.append(e2)
                    e3 = list(e)
                    e3[i], e3[j] = -1, -(best // s)
                    new.append(e3)
            seen = set()
            cands = []
            for e in new:
                key = tuple(e)
                if key not in seen:
                    seen.add(key)
                    cands.append(e)
            if len(cands) > 64:
                return _canon_stokes_rows_brute(rows)
            out[i][j] = best
    return tuple(tuple(r) for r in out)


# ---------------------------------------------------------------------------
# orbit enumeration
# ---------------------------------------------------------------------------

@dataclass
class OrbitReport:
    mode: str
    class_count: int
    states_visited: int
    wall_clock: float
    truncated: bool

    def to_json(self, label=None):
        doc = {
            "mode": self.mode,
            "count": self.class_count,
            "visited": self.states_visited,
            "truncated": self.truncated,
            "seconds": round(self.wall_clock, 3),
        }
        if label is not None:
            doc["class"] = label
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _stokes_step(rows, g):
    """Generator action on a Stokes matrix, computed tuple-locally with the
    matrix as its own seed; valid because the reflection data is a function
    of S alone.

    The moved standard-basis tuple only touches slots i, i+1, so the new
    Seifert Gram matrix is the old L = -S^t with rows and columns i, i+1
    recombined; everything stays O(mu^2)."""
    n = len(rows)
    i = abs(g) - 1
    c = rows[i][i + 1]  # = I(e_i, e_{i+1}) for the current matrix
    l = [[-rows[b][a] for b in range(n)] for a in range(n)]
    if g > 0:
        # rows/cols (i, i+1) <- (i+1, i - c*(i+1))
        ra, rb = l[i + 1], [x - c * y for x, y in zip(l[i], l[i + 1])]
    else:
        # rows/cols (i, i+1) <- (i+1 - c*i, i)
        ra, rb = [x - c * y for x, y in zip(l[i + 1], l[i])], l[i]
    l[i], l[i + 1] = ra, rb
    for row in l:
        a, b = row[i], row[i + 1]
        if g > 0:
            row[i], row[i + 1] = b, a - c * b
        else:
            row[i], row[i + 1] = b - c * a, a
    for a in range(n):
        if l[a][a] != -1:
            raise AssertionError("tuple is not distinguished-shaped")
        for b in range(a + 1, n):
            if l[a][b] != 0:
                raise AssertionError("tuple is not distinguished-shaped")
    return tuple(tuple(-l[j][i2] for j in range(n)) for i2 in range(n))


def _pack_state(flat):
    """Fixed-width byte stream for small entries, tuple fallback otherwise."""
    if all(-120 <= x <= 120 for x in flat):
        return bytes(x + 125 for x in flat)
    return tuple(flat)


def orbit_enumerate(seed: StokesMatrix, mode: str = "bases", *,
                    max_states: int = None, max_bytes: int = None,
                    checkpoint: str = None,
                    checkpoint_every: int = 250_000) -> OrbitReport:
    """Breadth-first closure under all signed braid generators.

    bases  : states are sign-canonical tuples over the fixed seed.
    stokes : states are sign-canonical Stokes matrices; transitions treat
             the current matrix as its own seed.

    Stops with truncated=True when a budget is exceeded; the partial count
    is still exact for the states discovered.
    """
    if mode not in ("bases", "stokes"):
        raise ValueError(f"unknown mode {mode!r}")
    if not is_connected(seed):
        raise ValueError("orbit enumeration requires a connected seed diagram")
    n = seed.mu
    gens = [g for k in range(1, n) for g in (k, -k)]
    t0 = time.monotonic()

    i_rows = symmetrized_form(seed).rows
    seed_rows = seed.rows

    if mode == "bases":
        start = _canon_vectors(VanishingTuple.standard(seed).vectors)

        def step(state, g):
            return _canon_vectors(_apply_gen(state, i_rows, g))

        def key(state):
            return _pack_state([x for v in state for x in v])
    else:
        start = _canon_stokes_rows(seed_rows)

        def step(state, g):
            return _canon_stokes_rows(_stokes_step(state, g))

        def key(state):
            return _pack_state([x for row in state for x in row])

    visited = {key(start)}
    frontier = deque([start])
    expanded = 0
    truncated = False
    state_bytes = n * n + 64

    if checkpoint:
        resumed = _load_checkpoint(checkpoint, mode, seed_rows)
        if resumed is not None:
            visited, frontier, expanded = resumed

    since_checkpoint = 0
    while frontier:
        if max_states is not None and len(visited) > max_states:
            truncated = True
            break
        if max_bytes is not None and len(visited) * state_bytes > max_bytes:
            truncated = True
            break
        state = frontier.popleft()
        expanded += 1
        for g in gens:
            nxt = step(state, g)
            k = key(nxt)
            if k not in visited:
                visited.add(k)
                frontier.append(nxt)
        since_checkpoint += 1
        if checkpoint and since_checkpoint >= checkpoint_every:
            _save_checkpoint(checkpoint, mode, seed_rows, visited, frontier,
                             expanded)
            since_checkpoint = 0

    if checkpoint and truncated:
        _save_checkpoint(checkpoint, mode, seed_rows, visited, frontier,
                         expanded)

    return OrbitReport(mode=mode, class_count=len(visited),
                       states_visited=expanded,
                       wall_clock=time.monotonic() - t0,
                       truncated=truncated)


def _save_checkpoint(path, mode, seed_rows, visited, frontier, expanded):
    with open(path, "wb") as fh:
        pickle.dump({"mode": mode, "seed": seed_rows, "visited": visited,
                     "frontier": list(frontier), "expanded": expanded},
                    fh, protocol=4)


def _load_checkpoint(path, mode, seed_rows):
    try:
        with open(path, "rb") as fh:
            doc = pickle.load(fh)
    except (OSError, EOFError):
        return None
    if doc.get("mode") != mode or doc.get("seed") != seed_rows:
        raise ValueError("checkpoint belongs to a different run "
                         "(mode or seed mismatch)")
    return doc["visited"], deque(doc["frontier"]), doc["expanded"]
