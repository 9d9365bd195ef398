import functools
import hashlib
import itertools
import json
import math
import os
import pickle
import random
import stat
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singlat import braid
from singlat.braid import (CHECKPOINT_FORMAT, _CODE_MAX_M, BraidWord,
                           VanishingTuple, _apply_gen, _canon_vectors,
                           _code_table, _decode, _encode, _engine,
                           _expand_roots, _expand_stokes, _generators, _keys,
                           _load_checkpoint, _mu_of, _narrow, _pack, _pow3,
                           _sign_rounds, _stokes_moves, _stokes_tables,
                           _tree_sign_form, _unpack, _work_dtype,
                           braid_apply, braid_apply_word, orbit_enumerate,
                           sign_canonical_stokes, sign_canonical_tuple,
                           stokes_of_tuple)
from singlat.lattice import (RootTable, StokesMatrix, gz, roots, row_keys,
                             symmetrized_form)
from singlat.singdata import ALL_LABELS, seed_stokes, tensor_stokes


def chain(mu):
    return StokesMatrix.chain(mu)


def random_word(rng, mu, length):
    return BraidWord(tuple(rng.choice([s * k for k in range(1, mu)
                                       for s in (1, -1)])
                           for _ in range(length)))


def manifest(path):
    """The JSON manifest of a checkpoint file, its third line."""
    return json.loads(path.read_bytes().split(b"\n")[2])


def saved_roots(path):
    """The root vectors a bases checkpoint holds, in index order."""
    head, body = path.read_bytes().split(b"\n", 3)[2:]
    return braid._checkpoint_arrays(json.loads(head)["arrays"],
                                    body)["roots"]


class TestBraidAction:
    def test_a2_positive_generator(self):
        t = VanishingTuple.standard(chain(2))
        t1 = braid_apply(t, 1)
        assert t1.vectors == ((0, 1), (1, 1))

    def test_generators_are_inverse(self):
        rng = random.Random(2)
        s = seed_stokes("A4").stokes
        t = VanishingTuple.standard(s)
        for _ in range(25):
            t = braid_apply_word(t, random_word(rng, 4, 5))
            for g in (1, -1, 2, -2, 3, -3):
                assert braid_apply(braid_apply(t, g), -g).vectors == t.vectors

    def test_braid_relation_adjacent(self):
        t = VanishingTuple.standard(chain(3))
        lhs = braid_apply_word(t, BraidWord((1, 2, 1)))
        rhs = braid_apply_word(t, BraidWord((2, 1, 2)))
        assert lhs.vectors == rhs.vectors

    def test_braid_relations_random_tuples(self):
        rng = random.Random(4)
        s = seed_stokes("D4").stokes
        base = VanishingTuple.standard(s)
        for _ in range(20):
            t = braid_apply_word(base, random_word(rng, 4, 6))
            for i in (1, 2):
                lhs = braid_apply_word(t, BraidWord((i, i + 1, i)))
                rhs = braid_apply_word(t, BraidWord((i + 1, i, i + 1)))
                assert lhs.vectors == rhs.vectors
            lhs = braid_apply_word(t, BraidWord((1, 3)))
            rhs = braid_apply_word(t, BraidWord((3, 1)))
            assert lhs.vectors == rhs.vectors

    def test_index_out_of_range(self):
        t = VanishingTuple.standard(chain(3))
        with pytest.raises(IndexError):
            braid_apply(t, 3)

    def test_tuple_invariants_preserved(self):
        rng = random.Random(6)
        s = seed_stokes("E6").stokes
        t = VanishingTuple.standard(s)
        for _ in range(10):
            t = braid_apply_word(t, random_word(rng, 6, 4))
            t.validate()


class TestStokesOfTuple:
    def test_seed_reproduces_seed(self):
        for label in ("A3", "D4", "E6", "tE6"):
            s = seed_stokes(label).stokes
            assert stokes_of_tuple(VanishingTuple.standard(s)).rows == s.rows

    def test_a2_after_move(self):
        # the raw Gram of the moved tuple is the sign conjugate of the chain
        # with a positive edge; both have that positive edge as normal form
        t = braid_apply(VanishingTuple.standard(chain(2)), 1)
        s = stokes_of_tuple(t)
        assert s.rows == ((1, 1), (0, 1))
        assert sign_canonical_stokes(s).rows == ((1, 1), (0, 1))
        assert sign_canonical_stokes(chain(2)).rows == ((1, 1), (0, 1))

    def test_triangular_on_reachable_states(self):
        rng = random.Random(8)
        s = seed_stokes("E6").stokes
        t = VanishingTuple.standard(s)
        for _ in range(30):
            t = braid_apply_word(t, random_word(rng, 6, 3))
            rows = stokes_of_tuple(t).rows   # asserts shape internally
            assert all(abs(v) <= 1 for row in rows for v in row)

    def test_non_distinguished_tuple_is_value_error(self):
        # the tuple (e_1, e_0) of A2 has the Gram matrix of no Stokes matrix
        s = chain(2)
        with pytest.raises(ValueError, match="not distinguished-shaped"):
            stokes_of_tuple(VanishingTuple(((0, 1), (1, 0)), s))


class TestSignCanonical:
    def test_tuple_first_nonzero_positive(self):
        s = chain(2)
        t = VanishingTuple(((-1, 0), (0, 1)), s)
        assert sign_canonical_tuple(t).vectors == ((1, 0), (0, 1))

    def test_tuple_idempotent_and_orbit_constant(self):
        s = chain(2)
        base = ((1, 0), (0, 1))
        for eps in itertools.product((1, -1), repeat=2):
            t = VanishingTuple(tuple(tuple(e * x for x in v)
                                     for e, v in zip(eps, base)), s)
            c = sign_canonical_tuple(t)
            assert c.vectors == base
            assert sign_canonical_tuple(c).vectors == base

    def test_stokes_tree_edge_positive(self):
        assert sign_canonical_stokes(
            StokesMatrix(((1, -1), (0, 1)))).rows == ((1, 1), (0, 1))

    def test_stokes_chain_edges_positive(self):
        # the chain is its own spanning tree, so every edge turns positive
        assert sign_canonical_stokes(chain(4)).rows == \
            tuple(tuple(-x if i != j else x for j, x in enumerate(row))
                  for i, row in enumerate(chain(4).rows))

    def test_stokes_matches_tree_rule(self):
        # brute force over all sign conjugates: exactly one has e_0 = +1
        # and every edge of the lowest-index-parent spanning tree positive
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(2, 6)
            rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for j in range(1, n):
                rows[rng.randrange(j)][j] = rng.choice([-2, -1, 1, 2])
            for _ in range(n // 2):
                i = rng.randrange(n - 1)
                j = rng.randrange(i + 1, n)
                rows[i][j] = rng.choice([-2, -1, 0, 1, 2]) or rows[i][j]
            s = tuple(tuple(r) for r in rows)
            tree = tree_edges(s)
            assert len(tree) == n - 1
            forms = []
            for eps in itertools.product((1, -1), repeat=n - 1):
                e = (1,) + eps
                cand = tuple(tuple(e[i] * e[j] * s[i][j] for j in range(n))
                             for i in range(n))
                if all(cand[i][j] > 0 for i, j in tree):
                    forms.append(cand)
            assert [sign_canonical_stokes(StokesMatrix(s)).rows] == forms

    def test_stokes_orbit_property(self):
        rng = random.Random(14)
        s = seed_stokes("tE6").stokes
        for _ in range(20):
            eps = [1] + [rng.choice([1, -1]) for _ in range(s.mu - 1)]
            conj = StokesMatrix(tuple(tuple(eps[i] * eps[j] * s.rows[i][j]
                                            for j in range(s.mu))
                                      for i in range(s.mu)))
            assert sign_canonical_stokes(conj).rows == \
                sign_canonical_stokes(s).rows

    def test_disconnected_rejected(self):
        s = StokesMatrix(((1, 0), (0, 1)))
        with pytest.raises(ValueError):
            sign_canonical_stokes(s)


class TestOrbits:
    def test_chain_family_counts(self):
        for mu, nb, ns in ((2, 3, 1), (3, 16, 4), (4, 125, 25)):
            rb = orbit_enumerate(chain(mu), "bases")
            rs = orbit_enumerate(chain(mu), "stokes")
            assert (rb.class_count, rb.truncated) == (nb, False)
            assert (rs.class_count, rs.truncated) == (ns, False)
            for rep in (rb, rs):
                assert rep.levels[0] == 1
                assert sum(rep.levels) == rep.states_visited == \
                    rep.class_count

    def test_rank_one_orbit(self):
        # no generators: the seed is the whole orbit
        for mode in ("bases", "stokes"):
            rep = orbit_enumerate(chain(1), mode)
            assert (rep.class_count, rep.truncated, rep.levels) == \
                (1, False, (1,))

    def test_rank_zero_seed_refused(self):
        for mode in ("bases", "stokes"):
            with pytest.raises(ValueError, match="mu >= 1"):
                orbit_enumerate(StokesMatrix(()), mode)

    def test_d4_tensor_counts(self):
        s = tensor_stokes(chain(2), chain(2))
        assert orbit_enumerate(s, "bases").class_count == 162
        assert orbit_enumerate(s, "stokes").class_count == 9

    def test_budget_truncation(self):
        rep = orbit_enumerate(chain(5), "bases", max_states=100)
        assert rep.truncated
        assert rep.class_count == 100 == sum(rep.levels)

    def test_elliptic_bases_hits_budget(self):
        s = seed_stokes("tE6").stokes
        rep = orbit_enumerate(s, "bases", max_states=3000)
        assert rep.truncated   # the orbit is infinite

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            orbit_enumerate(chain(2), "widgets")

    def test_report_json_deterministic(self):
        r1 = orbit_enumerate(chain(3), "stokes")
        r2 = orbit_enumerate(chain(3), "stokes")
        assert r1.to_json(label="A3") == r2.to_json(label="A3")

    def test_checkpoint_resume(self, tmp_path, monkeypatch):
        # a run with no budget dies right after its first save, so that
        # save came from the interval; the next run resumes from it
        class Killed(Exception):
            pass

        ck = str(tmp_path / "orbit.ck")
        save, saved_at = braid._save_checkpoint, []

        def save_then_die(path, doc):
            save(path, doc)
            saved_at.append(doc["expanded"])
            raise Killed

        monkeypatch.setattr(braid, "CHECKPOINT_EVERY", 10)
        monkeypatch.setattr(braid, "_save_checkpoint", save_then_die)
        with pytest.raises(Killed):
            orbit_enumerate(chain(4), "bases", checkpoint=ck)
        assert 10 <= saved_at[0] < 125
        monkeypatch.setattr(braid, "_save_checkpoint", save)
        resumed = orbit_enumerate(chain(4), "bases", checkpoint=ck)
        full = orbit_enumerate(chain(4), "bases")
        assert not resumed.truncated
        assert (resumed.class_count, resumed.levels) == (125, full.levels)
        assert resumed.states_visited == full.states_visited == 125

    @pytest.mark.parametrize("budget", [{"max_states": 20},
                                        {"max_states": 1}])
    def test_resume_over_budget_truncates(self, tmp_path, monkeypatch,
                                          budget):
        ck = str(tmp_path / "orbit.ck")
        monkeypatch.setattr(braid, "CHECKPOINT_EVERY", 7)
        orbit_enumerate(chain(5), "bases", max_states=50, checkpoint=ck)
        resumed = orbit_enumerate(chain(5), "bases", checkpoint=ck, **budget)
        assert resumed.truncated
        assert resumed.class_count == 50 == sum(resumed.levels)
        # nothing was lost: the checkpoint still completes the orbit
        full = orbit_enumerate(chain(5), "bases", checkpoint=ck)
        assert (full.truncated, full.class_count) == (False, 1296)

    def test_truncated_run_counts_expanded_states(self):
        rep = orbit_enumerate(chain(5), "bases", max_states=100)
        # a state is counted once all its moves are in; 8 moves per state
        assert rep.truncated and 0 < rep.states_visited < 100

    def test_checkpoint_mismatch_rejected(self, tmp_path):
        ck = str(tmp_path / "orbit.ck")   # written when the budget stops
        orbit_enumerate(chain(4), "bases", max_states=40, checkpoint=ck)
        with pytest.raises(ValueError, match="mismatch"):
            orbit_enumerate(chain(4), "stokes", checkpoint=ck)
        with pytest.raises(ValueError, match="mismatch"):
            orbit_enumerate(chain(5), "bases", checkpoint=ck)

    def test_entry_bounds_on_reachable_states(self):
        rng = random.Random(15)
        for label, bound in (("A4", 1), ("tE6", 2)):
            s = seed_stokes(label).stokes
            # packed: the diagonal 1 and the zero lower entries are within
            # every bound
            u = _pack(s).astype(np.int64)
            for _ in range(300):
                k = rng.randrange(2 * (s.mu - 1))
                u = _stokes_moves(u)[:, k]
                assert np.abs(u).max() <= bound

    def test_budget_equal_to_orbit_size(self):
        # an orbit exactly the size of the budget is complete
        rep = orbit_enumerate(chain(4), "stokes", max_states=25)
        assert (rep.class_count, rep.truncated) == (25, False)
        rep = orbit_enumerate(chain(4), "stokes", max_states=24)
        assert (rep.class_count, rep.truncated) == (24, True)

    def test_budget_keeps_fifo_prefix(self):
        full = orbit_enumerate(chain(4), "bases")
        for budget in (1, 7, 60):
            rep = orbit_enumerate(chain(4), "bases", max_states=budget)
            assert rep.class_count == budget and rep.truncated
            # the classes found are the first ones of the full search
            expect, left = [], budget
            for size in full.levels:
                expect.append(min(size, left))
                left -= expect[-1]
            assert rep.levels == tuple(x for x in expect if x)

    def test_bad_budgets_rejected(self):
        for budget in (0, -5):
            with pytest.raises(ValueError, match="at least 1"):
                orbit_enumerate(chain(3), "stokes", max_states=budget)
        for budget in (2.5, 3.0, True, False, "3"):
            with pytest.raises(ValueError, match="an integer"):
                orbit_enumerate(seed_stokes("A4").stokes, "stokes",
                                max_states=budget)
        rep = orbit_enumerate(seed_stokes("A4").stokes, "stokes",
                              max_states=np.int64(3))
        assert (rep.class_count, rep.truncated) == (3, True)

    @pytest.mark.parametrize("label", ["A4", "D4"])
    @pytest.mark.parametrize("mode", ["bases", "stokes"])
    def test_levels_match_scalar_bfs(self, label, mode):
        seed = seed_stokes(label).stokes
        gens = [g for k in range(1, seed.mu) for g in (k, -k)]
        if mode == "bases":
            def canon(t):
                return sign_canonical_tuple(t)

            def key(t):
                return t.vectors

            def step(t, g):
                return canon(braid_apply(t, g))
            start = canon(VanishingTuple.standard(seed))
        else:
            def key(s):
                return s.rows

            def step(s, g):
                return sign_canonical_stokes(stokes_of_tuple(
                    braid_apply(VanishingTuple.standard(s), g)))
            start = sign_canonical_stokes(seed)
        seen, level, sizes = {key(start)}, [start], [1]
        while level:
            nxt = []
            for state in level:
                for g in gens:
                    moved = step(state, g)
                    if key(moved) not in seen:
                        seen.add(key(moved))
                        nxt.append(moved)
            if nxt:
                sizes.append(len(nxt))
            level = nxt
        assert orbit_enumerate(seed, mode).levels == tuple(sizes)

    def test_checkpoint_resume_keeps_levels(self, tmp_path, monkeypatch):
        ck = str(tmp_path / "orbit.ck")
        full = orbit_enumerate(chain(5), "stokes")
        monkeypatch.setattr(braid, "CHECKPOINT_EVERY", 7)
        partial = orbit_enumerate(chain(5), "stokes", max_states=50,
                                  checkpoint=ck)
        assert sum(partial.levels) == 50
        resumed = orbit_enumerate(chain(5), "stokes", checkpoint=ck)
        assert resumed.levels == full.levels
        assert (resumed.class_count, resumed.states_visited) == (216, 216)

    def test_checkpoint_garbage_rejected(self, tmp_path):
        ck = tmp_path / "orbit.ck"
        ck.write_bytes(b"garbage, not a checkpoint")
        with pytest.raises(ValueError, match="corrupt"):
            orbit_enumerate(chain(4), "bases", checkpoint=str(ck))
        # refused by its leading pickle opcode, never unpickled
        ck.write_bytes(b"\x80\x04garbage, not a pickle")
        with pytest.raises(ValueError, match="not in checkpoint format 9"):
            orbit_enumerate(chain(4), "bases", checkpoint=str(ck))

    def test_checkpoint_old_format_rejected(self, tmp_path):
        # the layout the state-by-state engine wrote, with lex-min keys
        ck = tmp_path / "orbit.ck"
        seed = chain(4)
        ck.write_bytes(pickle.dumps({"mode": "stokes", "seed": seed.rows,
                                     "visited": set(), "frontier": [],
                                     "expanded": 0}))
        with pytest.raises(ValueError, match="format"):
            orbit_enumerate(seed, "stokes", checkpoint=str(ck))

    def test_checkpoint_format_2_rejected(self, tmp_path):
        # the layout of the full-matrix engine: mu x mu Stokes states and
        # keys of mu^2 bytes
        ck = tmp_path / "orbit.ck"
        seed = chain(4)
        start = np.array([sign_canonical_stokes(seed).rows], np.int8)
        ck.write_bytes(pickle.dumps({
            "format": 2, "mode": "stokes", "seed": seed.rows,
            "visited": set(_keys(start)), "frontier": start, "next": [],
            "levels": [1], "expanded": 0}))
        with pytest.raises(ValueError, match="not in checkpoint format 9"):
            orbit_enumerate(seed, "stokes", checkpoint=str(ck))

    def test_checkpoint_written_atomically(self, tmp_path, monkeypatch):
        ck = tmp_path / "orbit.ck"
        monkeypatch.setattr(braid, "CHECKPOINT_EVERY", 5)
        orbit_enumerate(chain(5), "bases", max_states=300,
                        checkpoint=str(ck))
        assert [p.name for p in tmp_path.iterdir()] == ["orbit.ck"]
        assert ck.read_bytes().startswith(b"singlat checkpoint 9\n")
        assert CHECKPOINT_FORMAT == 9

    def test_checkpoint_save_is_durable(self, tmp_path, monkeypatch):
        # the file is fsynced before the rename, and the directory that
        # holds the rename after it, last
        calls, fsync, replace = [], os.fsync, os.replace

        def spy_fsync(fd):
            calls.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))
            fsync(fd)

        def spy_replace(src, dst):
            calls.append(("replace", dst))
            replace(src, dst)

        monkeypatch.setattr(braid.os, "fsync", spy_fsync)
        monkeypatch.setattr(braid.os, "replace", spy_replace)
        ck = str(tmp_path / "orbit.ck")
        orbit_enumerate(chain(4), "bases", max_states=20, checkpoint=ck)
        assert calls == [("fsync", False), ("replace", ck), ("fsync", True)]


def random_signed_walk(rng, seed, steps):
    """A Stokes matrix a random braid word away from the seed, conjugated
    by a random sign vector."""
    n = seed.mu
    t = braid_apply_word(VanishingTuple.standard(seed),
                         random_word(rng, n, steps))
    rows = stokes_of_tuple(t).rows
    e = [rng.choice((1, -1)) for _ in range(n)]
    return StokesMatrix(tuple(tuple(e[i] * e[j] * rows[i][j]
                                    for j in range(n)) for i in range(n)))


def tree_edges(rows):
    """The spanning tree of the sign normal form, rebuilt from its rule:
    vertex 0 first; then, round by round, every vertex not yet reached
    that has a reached neighbour hangs from the lowest-index one.  Edges
    are (i, j) with i < j."""
    n = len(rows)
    reached, edges = {0}, []
    while len(reached) < n:
        parents = {j: min(i for i in reached if rows[min(i, j)][max(i, j)])
                   for j in range(n) if j not in reached
                   and any(rows[min(i, j)][max(i, j)] for i in reached)}
        edges += [(min(i, j), max(i, j)) for j, i in parents.items()]
        reached |= set(parents)
    return edges


def lex_min_form(s):
    """The lexicographically least of the 2^(mu-1) sign conjugates
    diag(e) S diag(e), e_0 = +1, by brute force: a second normal form of
    the sign class, independent of the tree rule."""
    rows = np.array(s.rows, dtype=np.int64)
    n = len(rows)
    bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1
    e = np.hstack([np.ones((len(bits), 1), np.int64), 1 - 2 * bits])
    flat = (e[:, :, None] * e[:, None, :] * rows).reshape(len(e), -1)
    return tuple(flat[np.lexsort(flat.T[::-1])[0]].tolist())


def packed(mats):
    """The packed states of Stokes matrices, one per row, object entries."""
    return np.hstack([_pack(m) for m in mats]).T


def scalar_moves(states, form):
    """Every move of the vector tuples states, state-major and
    generator-minor: _apply_gen, then _canon_vectors, one state and one
    generator at a time.  The oracle of the root engine."""
    return [_canon_vectors(_apply_gen(tuple(map(tuple, s)), form, g))
            for s in states for g in _generators(len(form))]


def engine_of(seed, mode):
    """mu, the batched expansion and the start state of an orbit run; in
    bases mode the scalar oracle on (B, mu, mu) vector tuples, each
    state's moves computed once."""
    if mode == "stokes":
        return seed.mu, _expand_stokes, _narrow(packed([
            sign_canonical_stokes(seed)]))
    form = symmetrized_form(seed).rows
    n = seed.mu

    @functools.lru_cache(maxsize=None)
    def moves(state):
        return scalar_moves([state], form)

    def expand(x):
        return _narrow(np.array([m for s in tuples(x) for m in moves(s)],
                                dtype=object).reshape(-1, n, n))
    return n, expand, np.eye(n, dtype=np.int8)[None]


def tuples(a):
    """The vector tuples of a (B, mu, mu) array, as tuples of tuples."""
    return [tuple(map(tuple, t)) for t in a.tolist()]


def interned(table, states):
    """The root-index tuples of the vector tuples states, each vector
    interned into table."""
    return np.array([table.intern(np.array(s, dtype=object))
                     for s in states], table.dtype)


def all_classes(expand, start):
    """Every state of the orbit of start, in FIFO order."""
    levels, seen = [start], set(_keys(start))
    while True:
        cands = expand(levels[-1])
        new = []
        for j, key in enumerate(_keys(cands)):
            if key not in seen:
                seen.add(key)
                new.append(j)
        if not new:
            return np.concatenate(levels)
        levels.append(_narrow(cands[new]))


def tree_key(s):
    return _keys(_tree_sign_form(_pack(s)).T)[0]


class TestBatchedEngine:
    @pytest.mark.parametrize("label", ["A5", "D5", "E6", "tE6", "tE8"])
    def test_tree_key_matches_lex_min(self, label):
        rng = random.Random(21)
        seed = seed_stokes(label).stokes
        mats = [random_signed_walk(rng, seed, rng.randint(0, 12))
                for _ in range(40)]
        for m in mats:
            # sign conjugates share the key, and the key is the class
            flip = random_signed_walk(rng, m, 0)
            assert tree_key(flip) == tree_key(m)
        keyed = [(tree_key(m), sign_canonical_stokes(m), lex_min_form(m))
                 for m in mats]
        for (ka, fa, la), (kb, fb, lb) in itertools.combinations(keyed, 2):
            assert (ka == kb) == (fa == fb) == (la == lb)
        # the walks reach several classes, so both outcomes are exercised
        assert len({tree_key(m) for m in mats}) > 5

    @pytest.mark.parametrize("label", ["A5", "D6", "E6", "tE7", "tE8"])
    def test_stokes_step_matches_scalar(self, label):
        rng = random.Random(22)
        seed = seed_stokes(label).stokes
        mats = [random_signed_walk(rng, seed, rng.randint(0, 10))
                for _ in range(25)]
        moved = _stokes_moves(packed(mats).T.astype(np.int16)) \
            .transpose(2, 1, 0)
        gens = _generators(seed.mu)
        for m, row in zip(mats, moved):
            std = VanishingTuple.standard(m)
            for g, got in zip(gens, row):
                assert _unpack(got) == stokes_of_tuple(braid_apply(std, g))

    @pytest.mark.parametrize("big, width", [(3, np.int16),
                                            (2 ** 10, np.int64),
                                            (2 ** 31, object)])
    @pytest.mark.parametrize("label", ["A5", "D5", "E6", "tE6", "tE7",
                                       "tE8"])
    def test_bases_step_matches_scalar(self, label, big, width):
        # the root engine on tuples interned into a fresh table: walked
        # bases, and crafted tuples supported on the last coordinates, so
        # the moved slot's first nonzero coordinate comes late: on a
        # v_a = a e_n tuple the pairing is 2ab and the moved slot
        # a (1 - 2b^2) e_n leads with a negative last coordinate.  width is
        # the exact dtype of the table's bound on the moved entries: below
        # int64 the fill computes in int64, past it in Python ints
        rng = random.Random(23)
        seed = seed_stokes(label).stokes
        n = seed.mu
        i_rows = symmetrized_form(seed).rows
        states = [_canon_vectors(braid_apply_word(
            VanishingTuple.standard(seed),
            random_word(rng, n, rng.randint(0, 15))).vectors)
            for _ in range(25)]
        zeros = (0,) * (n - 1)
        states.append(tuple(zeros + (big if a == 0 else rng.randint(1, 3),)
                            for a in range(n)))
        for _ in range(6):
            states.append(_canon_vectors([
                zeros[1:] + (rng.randint(-big, big), rng.randint(-big, big))
                for _ in range(n)]))
        moved = scalar_moves(states, i_rows)
        assert any(v[:-1] == zeros and v[-1] < 0
                   for m in (_apply_gen(s, i_rows, g) for s in states
                             for g in _generators(n)) for v in m)
        table = RootTable(i_rows)
        x = interned(table, states)
        top = table.top
        assert top == max(abs(c) for t in states for v in t for c in v)
        assert _work_dtype(top + n ** 2 * table.f * top ** 3) == width
        got = _expand_roots(x, table)
        assert (table.V.dtype == object) == (width is object)
        assert tuples(table.V[got]) == moved

    @pytest.mark.parametrize("big", [2, 5, 6, 127, 2 ** 20, 2 ** 31])
    def test_bases_widths_exact(self, big):
        # tuples of random vectors with entries up to big, interned into a
        # fresh table, move as the scalar oracle moves them
        rng = random.Random(big)
        seed = seed_stokes("D5").stokes
        i_rows = symmetrized_form(seed).rows
        states = []
        for _ in range(6):
            vs = [[rng.randint(-big, big) for _ in range(5)]
                  for _ in range(5)]
            vs[2][0] = big
            states.append(_canon_vectors([tuple(v) for v in vs]))
        table = RootTable(i_rows)
        got = _expand_roots(interned(table, states), table)
        assert tuples(table.V[got]) == scalar_moves(states, i_rows)

    @pytest.mark.parametrize("big", [31, 32, 127, 128, 2 ** 20, 2 ** 31,
                                     2 ** 40, 2 ** 70])
    def test_stokes_widths_exact(self, big):
        rng = random.Random(big)
        n = 5
        a, b = _stokes_tables(n)[:2]
        mats = []
        for _ in range(6):
            rows = [[int(i == j) if j <= i else
                     rng.choice((1, -1)) * rng.randint(1, big)
                     for j in range(n)] for i in range(n)]
            rows[0][1] = big
            mats.append(StokesMatrix(tuple(map(tuple, rows))))
        start = _narrow(packed(mats))
        assert (start.dtype == object) == (big > 2 ** 63)
        # these seeds are not positive definite, so an orbit run would
        # take the packed engine, and its rounds, at every width
        got = _expand_stokes(start)
        k = 0
        for m in mats:
            std = VanishingTuple.standard(m)
            for g in _generators(n):
                want = _pack(stokes_of_tuple(braid_apply(std, g)))
                e = _sign_rounds(np.sign(want).astype(np.int8))
                assert got[k].tolist() == (want * (e[a] * e[b]))[:, 0].tolist()
                assert _keys(_tree_sign_form(want).T) == _keys(got[k:k + 1])
                k += 1

    def test_key_widths(self):
        n = 3
        base = np.eye(n, dtype=object)
        for value in (127, -127, 128, -128, 2 ** 63):
            s = base.copy()
            s[0, 2] = value
            key = _keys(np.stack([base, s]))[1]
            if abs(value) <= 127:
                assert len(key) == n * n
                assert np.frombuffer(key, np.int8)[2] == value
            else:
                assert key == b"P" + braid._hex(s.ravel().tolist())
        # a narrow key never equals a wide one
        assert _keys(np.stack([base]))[0] != _keys(
            np.stack([base * 128]))[0]
        # an int64 batch keys its rows that fit int8 as the int8 batch does
        rows = np.array([[1, -1, 0], [127, -127, 2]])
        wide = np.vstack([rows, [[128, 0, 0]]]).astype(np.int64)
        assert _keys(wide)[:2] == _keys(rows.astype(np.int8))
        assert _keys(wide)[2] == b"P80,0,0"

    def test_long_entries_keyed(self):
        # entries past Python's 4300-digit int-to-string limit: the keys
        # hold their hex, so values that differ only in the last digit,
        # or only in sign, key apart, and equal values key alike
        big = 10 ** 5000
        base = np.eye(3, dtype=object)
        states = []
        # the last two concatenate to the same entry bytes, 2^64 and 1
        # against 0 and 2^64 + 2^56: the commas keep them apart
        for a, b in ((0, big), (0, big + 1), (0, big + 2), (0, -big),
                     (0, big + 1), (2 ** 64, 1), (0, 2 ** 64 + 2 ** 56)):
            s = base.copy()
            s[0, 1], s[0, 2] = a, b
            states.append(s)
        keys = _keys(np.stack(states))
        assert all(k.startswith(b"P") for k in keys)
        assert len(set(keys[:4])) == 4 and keys[4] == keys[1]
        assert keys[5] != keys[6]
        # an orbit run from such a seed keys its states
        seed = StokesMatrix(((1, -1, big), (0, 1, -1), (0, 0, 1)))
        rep = orbit_enumerate(seed, "stokes", max_states=50)
        assert rep.class_count == 50 and rep.truncated

    @pytest.mark.parametrize("big, width", [(3, np.int16),
                                            (127, np.int64),
                                            (128, np.int64),
                                            (2 ** 20, np.int64),
                                            (2 ** 31, object),
                                            (2 ** 40, object)])
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_stokes_moves_are_the_packed_conjugation(self, n, big, width):
        # for every generator, the full P S P^t of a unit upper triangular
        # S is unit upper triangular again, so its strict upper triangle is
        # the whole state, and that triangle is the packed kernel's output
        rng = random.Random(big * 10 + n)
        mats = []
        for _ in range(5):
            rows = [[int(i == j) if j <= i else
                     rng.choice((1, -1)) * rng.randint(0, big)
                     for j in range(n)] for i in range(n)]
            rows[0][1] = big
            mats.append(rows)
        assert _work_dtype(big * (1 + big) ** 2) == width
        got = _stokes_moves(packed(
            [StokesMatrix(tuple(map(tuple, r))) for r in mats]).T
            .astype(width))
        assert got.dtype == width and got.shape == (n * (n - 1) // 2,
                                                    2 * (n - 1), len(mats))
        upper = np.triu_indices(n, 1)
        for g, gen in enumerate(_generators(n)):
            i = abs(gen) - 1
            for k, rows in enumerate(mats):
                c = rows[i][i + 1]
                p = np.eye(n, dtype=object)
                p[i:i + 2, i:i + 2] = [[0, 1], [1, -c]] if gen > 0 else \
                    [[-c, 1], [1, 0]]
                full = p.dot(np.array(rows, dtype=object)).dot(p.T)
                assert (np.tril(full) == np.eye(n, dtype=object)).all()
                assert got[:, g, k].tolist() == full[upper].tolist()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pow3_reads_first_nonzero_sign(self, n):
        pow3 = _pow3(n)
        assert pow3.shape == (n, 1) and not pow3.flags.writeable
        w = np.array(list(itertools.product((-1, 0, 1), repeat=n)),
                     np.int8).T
        got = np.sign((w * pow3).sum(axis=0, dtype=pow3.dtype))
        want = [next((x for x in col if x), 0) for col in w.T.tolist()]
        assert got.tolist() == want

    def test_pow3_extremes_fit(self):
        pow3 = _pow3(10)
        top = sum(3 ** k for k in range(10))
        assert np.iinfo(pow3.dtype).max >= top
        for e in (1, -1):
            ones = np.full((10, 1), e, np.int8)
            assert (ones * pow3).sum(axis=0, dtype=pow3.dtype)[0] == e * top

    def test_disconnected_state_raises(self):
        with pytest.raises(AssertionError, match="disconnected"):
            _tree_sign_form(np.zeros((3, 1), np.int8))
        with pytest.raises(AssertionError, match="disconnected"):
            _tree_sign_form(np.zeros((15, 1), np.int8))

    @staticmethod
    def sign_patterns(m):
        """All 3^m sign patterns as an (m, 3^m) batch, and the code
        sum_q (s_q + 1) 3^q of each."""
        pats = list(itertools.product((-1, 0, 1), repeat=m))
        codes = [sum((s + 1) * 3 ** q for q, s in enumerate(p))
                 for p in pats]
        return np.array(pats, np.int8).reshape(3 ** m, m).T, codes

    @pytest.mark.parametrize("m", [0, 1, 3, 6, 10])
    def test_codes_round_trip(self, m):
        # the code is a bijection of {-1, 0, 1}^m onto range(3^m)
        pats, codes = self.sign_patterns(m)
        got = _encode(pats)
        assert got.dtype == np.uint16 and got.tolist() == codes
        assert sorted(codes) == list(range(3 ** m))
        assert np.array_equal(_decode(got, m), pats)

    def test_sign_rounds_rejects_every_disconnected_pattern(self):
        # the rounds leave a vertex unsigned on exactly the disconnected
        # patterns, and the form refuses each of them
        pats, _ = self.sign_patterns(10)
        cut = pats[:, ~_sign_rounds(pats).all(axis=0)]
        assert cut.shape == (10, 3801)
        for col in cut.T:
            with pytest.raises(AssertionError, match="disconnected"):
                _tree_sign_form(col[:, None])

    def test_sign_code_fits(self):
        m = _CODE_MAX_M
        top = 3 ** m - 1                              # the all-+1 code
        assert np.iinfo(np.uint16).max >= top
        ones = np.ones((m, 1), np.int8)
        assert _tree_sign_form(ones).tolist() == ones.tolist()
        assert _encode(ones).tolist() == [top]
        assert _encode(-ones).tolist() == [0]
        assert _decode(np.array([top], np.uint16), m).tolist() == \
            ones.tolist()

    @pytest.mark.parametrize("label, mode, size", [("D5", "stokes", 256),
                                                   ("E6", "stokes", 3456),
                                                   ("A5", "bases", 1296)])
    def test_moves_undone_by_inverse(self, label, mode, size):
        # the class graph is undirected: on every class of the orbit, each
        # generator move followed by its inverse returns the class's key
        seed = seed_stokes(label).stokes
        n, expand, start = engine_of(seed, mode)
        gens = _generators(n)
        inverse = [gens.index(-g) for g in gens]
        states = all_classes(expand, start)
        assert len(states) == size == orbit_enumerate(seed, mode).class_count
        for lo in range(0, size, 512):
            x = states[lo:lo + 512]
            back = expand(expand(x)).reshape(
                (len(x), len(gens), len(gens)) + x.shape[1:])
            back = back[:, np.arange(len(gens)), inverse]
            assert _keys(back.reshape((-1,) + x.shape[1:])) == \
                [k for k in _keys(x) for _ in gens]

    @pytest.mark.parametrize("big, width", [(2 ** 10, np.int64),
                                            (2 ** 31, object)])
    @pytest.mark.parametrize("mode", ["stokes", "bases"])
    def test_batch_independent(self, mode, big, width):
        # a mixed batch expands to the concatenated single-state
        # expansions: walked states of several classes, which alone run
        # at int16, with one state in the middle whose entry big makes the
        # whole batch run at int64 or in Python ints, and returns it
        # narrowed, in int64 since entries pass 127.  On root indices the
        # batch fills one fresh table and the single states another, and
        # the vectors of the moves agree
        rng = random.Random(big)
        seed = seed_stokes("E6").stokes
        if mode == "stokes":
            mats = [sign_canonical_stokes(random_signed_walk(
                rng, seed, rng.randint(0, 12))) for _ in range(9)]
            wide = [list(r) for r in mats[4].rows]
            wide[0][1] = big
            mats[4] = sign_canonical_stokes(
                StokesMatrix(tuple(map(tuple, wide))))
            states = list(packed(mats))
            batch = _narrow(np.array(states, dtype=object))
            assert len(set(_keys(batch))) > 5
            got = _expand_stokes(batch)
            assert _work_dtype(big * (1 + big) ** 2) == width
            assert got.dtype == np.int64
            alone = [_expand_stokes(_narrow(np.array([s], dtype=object)))
                     .tolist() for s in states]
            assert got.tolist() == sum(alone, [])
            return
        i_rows = symmetrized_form(seed).rows
        states = [_canon_vectors(braid_apply_word(
            VanishingTuple.standard(seed),
            random_word(rng, seed.mu, rng.randint(0, 15))).vectors)
            for _ in range(9)]
        wide = [list(v) for v in states[4]]
        wide[2][0] = big
        states[4] = _canon_vectors([tuple(v) for v in wide])
        assert len(set(states)) > 5
        batch, single = RootTable(i_rows), RootTable(i_rows)
        x = interned(batch, states)
        top = batch.top
        assert _work_dtype(top + 36 * batch.f * top ** 3) == width
        got = _expand_roots(x, batch)
        alone = []
        for s in states:
            moved = _expand_roots(interned(single, [s]), single)
            alone += tuples(single.V[moved])
        assert tuples(batch.V[got]) == alone


@st.composite
def walked_tuples(draw, min_mu=2):
    """A built-in class and a tuple a random braid word from its seed."""
    label = draw(st.sampled_from([x for x in ALL_LABELS
                                  if seed_stokes(x).stokes.mu >= min_mu]))
    seed = seed_stokes(label).stokes
    word = draw(st.lists(st.sampled_from(_generators(seed.mu)), max_size=12))
    return braid_apply_word(VanishingTuple.standard(seed), BraidWord(word))


def conjugate(s, e):
    return StokesMatrix(tuple(tuple(e[i] * e[j] * x for j, x in
                                    enumerate(row))
                              for i, row in enumerate(s.rows)))


def moved_seed(label, rng, steps=12):
    """The Stokes matrix of the class seed moved by a random braid word."""
    seed = seed_stokes(label).stokes
    return stokes_of_tuple(braid_apply_word(
        VanishingTuple.standard(seed),
        random_word(rng, seed.mu, rng.randint(1, steps)) if seed.mu > 1
        else BraidWord(())))


def saved_windows(monkeypatch):
    """The saves of the orbit runs that follow, one after every chunk, as
    a list that fills as they run: (position, window, roots), the window's
    classes, their FIFO position sum(levels[:-2]) and a bases run's roots.
    Nothing is written."""
    saves = []
    monkeypatch.setattr(braid, "CHECKPOINT_EVERY", 1)
    monkeypatch.setattr(braid, "_save_checkpoint", lambda path, doc: (
        saves.append((sum(doc["levels"][:-2]), doc["window"],
                      doc.get("roots")))))
    return saves


def fifo_classes(saves, count, rows):
    """The first count classes of a run, in FIFO order, read from the
    windows of its saves: rows(window, roots) lists the classes of a
    window.  Windows that overlap agree, and together they hold every
    class."""
    classes = [None] * count
    for pos, window, saved in saves:
        for k, c in enumerate(rows(window, saved), pos):
            assert classes[k] in (None, c)
            classes[k] = c
    assert None not in classes
    return classes


def scalar_prefix(seed, budget):
    """levels, expanded states and classes, in FIFO order, of a FIFO
    search on vector tuples by the scalar oracle, stopped at budget
    classes as orbit_enumerate stops."""
    form = symmetrized_form(seed).rows
    start = _canon_vectors(VanishingTuple.standard(seed).vectors)
    seen, order, level, levels, expanded = {start}, [start], [start], [1], 0
    while level:
        nxt = []
        for state in level:
            for moved in scalar_moves([state], form):
                if moved not in seen:
                    if len(seen) == budget:
                        return levels + [len(nxt)], expanded, order
                    seen.add(moved)
                    order.append(moved)
                    nxt.append(moved)
            expanded += 1
        if nxt:
            levels.append(len(nxt))
        level = nxt
    return levels, expanded, order


ELLIPTIC = ["tE6", "tE7", "tE8"]


def scatter_moves(x, table):
    """Every move of the root-index tuples x by a gather of the swaps and
    a scatter of the moved slots, the formulation _expand_roots had before
    its one take of braid._move_index: the oracle of that take."""
    gi, _, t, slots, perm = braid._move_tables(x.shape[1])
    pairs = x[:, slots]
    a, b = pairs[:, :len(t)], pairs[:, len(t):]
    moved = table.refl[a, b]
    if table.sentinel_bytes in moved.tobytes():
        table.fill(a, b)
        moved = table.refl[a, b]
    y = x[:, perm]
    y[:, gi, t] = moved
    return y.reshape(-1, x.shape[1])


class TestRootEngine:
    @pytest.mark.parametrize("mu", range(2, 17))
    def test_move_index_is_the_swap_with_the_moved_slot(self, mu):
        # row g of the one gather is generator g's swap with slot t[g]
        # reading column mu + g, where the moved root is appended; the
        # cached table is read-only
        gi, _, t, _, perm = braid._move_tables(mu)
        index = braid._move_index(mu)
        assert index is braid._move_index(mu)
        assert not index.flags.writeable
        assert index.shape == perm.shape == (2 * (mu - 1), mu)
        for g in gi.tolist():
            row = perm[g].tolist()
            row[t[g]] = mu + g
            assert index[g].tolist() == row
        with pytest.raises(ValueError, match="read-only"):
            index[0, 0] = 0

    @pytest.mark.parametrize("label", ["A4", "E6", "A23"])
    def test_one_take_matches_gather_and_scatter(self, label):
        # random walked tuples interned alike into two fresh tables: the
        # first moves fill missing pairs on both (the sentinel path), the
        # same moves again read them filled, and the moves of the moves
        # fill more; the take gives the oracle's indices and dtype, and
        # both tables number their roots alike.  A23 has uint16 indices
        rng = random.Random(label)
        seed = seed_stokes(label).stokes
        form = symmetrized_form(seed).rows
        std = VanishingTuple.standard(seed)
        states = [_canon_vectors(braid_apply_word(std, random_word(
            rng, seed.mu, rng.randint(0, 12))).vectors) for _ in range(40)]
        oracle, table = RootTable(form), RootTable(form)
        x = interned(oracle, states)
        assert np.array_equal(interned(table, states), x)
        fills, fill = [], table.fill
        table.fill = lambda a, b: fills.append(len(a)) or fill(a, b)
        for step in ("cold", "warm", "moved"):
            want = scatter_moves(x, oracle)
            del fills[:]
            got = _expand_roots(x, table)
            assert bool(fills) == (step != "warm")
            assert got.dtype == table.dtype == \
                (np.uint16 if label == "A23" else np.uint8)
            assert np.array_equal(got, want)
            assert np.array_equal(table.V, oracle.V)
            if step == "warm":
                x = got

    @pytest.mark.parametrize("label", [f"A{n}" for n in range(1, 9)] +
                             [f"D{n}" for n in range(4, 9)] + ["E6"] +
                             ELLIPTIC)
    def test_moves_match_vector_engine(self, label):
        # chunk by chunk along the index engine's own search, the vectors
        # of the index candidates are the scalar oracle's moves of the same
        # states, in the same order, from the class seed and a moved seed
        # (a moved seed only for the elliptic classes, whose orbits are
        # infinite)
        rng = random.Random(label)
        seeds = [moved_seed(label, rng)]
        if label not in ELLIPTIC:
            seeds.insert(0, seed_stokes(label).stokes)
        for seed in seeds:
            form = symmetrized_form(seed).rows
            engine = _engine(seed, "bases")
            table = engine.table
            assert engine.start.dtype == table.dtype
            level, seen, checked = engine.start, set(row_keys(engine.start)), 0
            while len(level) and checked < 3000:
                for lo in range(0, len(level), 97):
                    x = level[lo:lo + 97]
                    got = _expand_roots(x, table)
                    v = table.V
                    assert tuples(v[got]) == scalar_moves(v[x].tolist(), form)
                    checked += len(got)
                cands = _expand_roots(level, table)
                new = [j for j, k in enumerate(row_keys(cands))
                       if not (k in seen or seen.add(k))]
                level = cands[new]

    @pytest.mark.parametrize("label", ["A5", "D5", "E6"] + ELLIPTIC)
    def test_root_moves_undone_by_inverse(self, label):
        # the class graph is undirected on root indices: for every class
        # of the A5, D5 and E6 orbits and of the first 3000 tE6-tE8
        # classes, the inverse generator of each move returns its parent
        seed = seed_stokes(label).stokes
        engine = _engine(seed, "bases")
        gens = _generators(seed.mu)
        inverse = [gens.index(-g) for g in gens]
        limit = 3000 if label in ELLIPTIC else math.inf
        level, seen, states = engine.start, set(row_keys(engine.start)), []
        while len(level) and len(seen) < limit:
            states.append(level)
            cands = engine.expand(level)
            new = [j for j, k in enumerate(row_keys(cands))
                   if not (k in seen or seen.add(k))]
            level = cands[new]
        states = np.concatenate(states)
        if label not in ELLIPTIC:
            assert len(states) == orbit_enumerate(seed, "bases").class_count
        for lo in range(0, len(states), 512):
            x = states[lo:lo + 512]
            back = engine.expand(engine.expand(x)).reshape(
                len(x), len(gens), len(gens), seed.mu)
            back = back[:, np.arange(len(gens)), inverse]
            assert (back == x[:, None]).all()

    @pytest.mark.parametrize("label, budget", [("E6", 500), ("D6", 500),
                                               ("A5", 97), ("A23", 2000)])
    def test_budget_keeps_vector_engine_classes(self, label, budget,
                                                tmp_path, monkeypatch):
        # the classes of a budgeted run, read from the windows of its saves
        # as vector tuples, are those of a FIFO search on vector tuples by
        # the scalar oracle, in order; A23 has rank 23, so uint16 indices
        # and keys of 2 mu bytes
        seed = moved_seed(label, random.Random(budget))
        saves = saved_windows(monkeypatch)
        rep = orbit_enumerate(seed, "bases", max_states=budget,
                              checkpoint=str(tmp_path / "orbit.ck"))
        assert rep.truncated and rep.class_count == budget
        assert _engine(seed, "bases").start.dtype == \
            (np.uint16 if label == "A23" else np.uint8)
        levels, expanded, classes = scalar_prefix(seed, budget)
        assert (list(rep.levels), rep.states_visited) == (levels, expanded)
        assert fifo_classes(saves, budget, lambda window, v: tuples(
            v[window])) == classes and len(classes) == budget

    def test_threads_share_one_root_table(self):
        # more threads than cores fill cold root tables at once, switching
        # every microsecond: each run counts as it does alone, each form
        # has one table, and every filled entry of it is the reflection of
        # its pair, recomputed on vectors
        rng = random.Random(34)
        seeds = [moved_seed(label, rng) for label in ("A5", "D5", "E6")]
        seeds = seeds * 2 + [seed_stokes("tE6").stokes] * 2
        budget = [None] * 6 + [3000] * 2
        want = [orbit_enumerate(s, "bases", max_states=b).levels
                for s, b in zip(seeds, budget)]
        roots.cache_clear()
        got, interval = [None] * len(seeds), sys.getswitchinterval()

        def run(k):
            got[k] = orbit_enumerate(seeds[k], "bases",
                                     max_states=budget[k]).levels

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,))
                       for k in range(len(seeds))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        for seed in seeds[:3] + seeds[-1:]:
            form = symmetrized_form(seed).rows
            table = _engine(seed, "bases").table
            assert table is roots(form)
            v, refl = table.V, table.refl[:table.size, :table.size]
            a, b = np.nonzero(refl != table.sentinel)
            assert len(a) and len(set(map(tuple, v.tolist()))) == len(v)
            moved = [_canon_vectors([_apply_gen(
                (tuple(v[x]), tuple(v[y])), form, -1)[0]])[0]
                for x, y in zip(a.tolist(), b.tolist())]
            assert tuples(v[refl[a, b]][:, None]) == [(m,) for m in moved]

    @pytest.mark.parametrize("label", ["A100", "D100"])
    def test_large_seed_budget_stays_small(self, label):
        # A100 and D100 have 5050 and 9900 roots up to sign and rank 100,
        # so uint16 indices; a budgeted run fills only the few roots and
        # reflections it reaches, and a table of rank above 16 runs no
        # definiteness test, so the run allocates no more than a few MB
        seed = seed_stokes(label).stokes
        roots.cache_clear()
        tracemalloc.start()
        try:
            rep = orbit_enumerate(seed, "bases", max_states=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.truncated and rep.class_count == 100
        table = roots(symmetrized_form(seed).rows)
        assert table.dtype == np.uint16 and table.size < 512
        assert _engine(seed, "bases").start.shape == (1, seed.mu)
        assert peak < 4 * 2 ** 20


def code_rows(m):
    """The filled codes of the m-entry move table and their rows."""
    table = _code_table(m)
    codes = np.flatnonzero(table.slot).astype(np.uint16)
    return codes, table.rows[table.slot[codes]]


def packed_rows(window, roots):
    """The packed Stokes states of a window, as tuples of ints; a code
    window (m = 10) is decoded first."""
    if window.ndim == 1:
        window = _decode(window, 10).T
    return [tuple(map(int, u)) for u in window.tolist()]


def force_engine(patch, engine):
    """Run the Stokes runs that follow on the named engine: "packed" reads
    every form as indefinite, "roots" takes the positive definite seeds
    of m <= 10 packed entries too, and "codes" changes nothing."""
    if engine == "packed":
        patch.setattr(braid, "definiteness", lambda rows: "indefinite")
    elif engine == "roots":
        patch.setattr(braid, "_CODE_MAX_M", -1)


def stokes_rows(seed):
    """rows(window, roots) of fifo_classes for every Stokes engine: the
    packed sign normal forms of the window's classes, read from codes or
    packed states, or on root indices those of the Stokes matrices of the
    saved tuples over the seed."""
    def rows(window, saved):
        if saved is None:
            return packed_rows(window, saved)
        return [tuple(_pack(sign_canonical_stokes(stokes_of_tuple(
            VanishingTuple(tuples(saved[t][None])[0], seed))))[:, 0])
            for t in window]
    return rows


SMALL_CLASSES = ["A1", "A2", "A3", "A4", "A5", "D4", "D5"]


class TestCodeEngine:
    @pytest.fixture(scope="class", autouse=True)
    def filled(self):
        """Full Stokes orbits of every small class from moved seeds, so
        every row of their orbits is filled."""
        rng = random.Random(31)
        for label in SMALL_CLASSES:
            for seed in (seed_stokes(label).stokes, moved_seed(label, rng)):
                start = _engine(seed, "stokes")[0]
                assert start.dtype == np.uint16 and start.shape == (1,)
                rep = orbit_enumerate(seed, "stokes")
                assert rep.class_count == {"A1": 1, "A2": 1, "A3": 4,
                                           "A4": 25, "A5": 216, "D4": 9,
                                           "D5": 256}[label]

    @pytest.mark.parametrize("m", [0, 1, 3, 6, 10])
    def test_rows_are_the_moves(self, m):
        # each row, decoded, is the tree sign form of each move of its
        # state, recomputed one state and one move at a time in int64
        codes, rows = code_rows(m)
        assert len(codes) == _code_table(m).filled - 1
        assert len(codes) == {0: 1, 1: 1, 3: 4, 6: 34, 10: 472}[m]
        for c, row in zip(codes, rows):
            u = _decode(c[None], m).astype(np.int64)
            moves = _stokes_moves(u)
            for g, got in enumerate(row):
                want = _tree_sign_form(moves[:, g])
                assert _decode(got[None], m).tolist() == want.tolist()

    @pytest.mark.parametrize("m", [1, 3, 6, 10])
    def test_rows_undone_by_inverse(self, m):
        # T[T[c, +k], -k] = c on every filled row: the class graph is
        # undirected
        table = _code_table(m)
        codes, rows = code_rows(m)
        gens = _generators(_mu_of(m))
        inverse = [gens.index(-g) for g in gens]
        assert table.slot[rows].all()
        back = table.rows[table.slot[rows], inverse]
        assert (back == codes[:, None]).all()

    @pytest.mark.parametrize("label, budget", [("A5", 60), ("A5", 150),
                                               ("D5", 90), ("D5", 200)])
    def test_budget_keeps_packed_engine_classes(self, label, budget,
                                                tmp_path, monkeypatch):
        # the classes of a budgeted run, read from the windows of its
        # saves as packed sign normal forms, are the packed engine's, in
        # order, and so are those of a run forced onto root indices
        seed = moved_seed(label, random.Random(budget))
        got = {}
        for engine in ("codes", "roots", "packed"):
            with monkeypatch.context() as patch:
                force_engine(patch, engine)
                saves = saved_windows(patch)
                rep = orbit_enumerate(seed, "stokes", max_states=budget,
                                      checkpoint=str(tmp_path / engine))
            assert rep.truncated and rep.class_count == budget
            assert {(w.ndim, w.dtype.str) for _, w, _ in saves} == {
                "codes": {(1, "<u2")}, "roots": {(2, "|u1")},
                "packed": {(2, "|i1")}}[engine]
            got[engine] = rep.levels, rep.states_visited, fifo_classes(
                saves, budget, stokes_rows(seed))
        assert got["codes"] == got["roots"] == got["packed"]

    @pytest.mark.parametrize("label", ["A1", "A2"])
    def test_smallest_classes(self, label, tmp_path):
        # m = 0 and m = 1: a table without generators, and one with a
        # single state and its two moves
        seed = seed_stokes(label).stokes
        ck = str(tmp_path / "orbit.ck")
        rep = orbit_enumerate(seed, "stokes", max_states=1, checkpoint=ck)
        assert (rep.class_count, rep.truncated, rep.levels) == (1, False,
                                                                (1,))
        rep = orbit_enumerate(seed, "stokes", checkpoint=ck)
        assert (rep.class_count, rep.truncated, rep.levels) == (1, False,
                                                                (1,))
        m = seed.mu * (seed.mu - 1) // 2
        assert _code_table(m).rows.shape[1] == 2 * (seed.mu - 1)

    def test_indefinite_seed_runs_packed(self):
        # every entry -1 at mu = 5: I = 3 - J has the eigenvalue -2, the
        # entries leave {-1, 0, 1}, and the run holds packed states
        seed = StokesMatrix(tuple(tuple(1 if i == j else -1 if j > i else 0
                                        for j in range(5))
                                  for i in range(5)))
        start = _engine(seed, "stokes")[0]
        assert start.shape == (1, 10) and start.dtype == np.int8
        assert np.abs(_expand_stokes(start)).max() == 2
        rep = orbit_enumerate(seed, "stokes", max_states=300)
        assert rep.truncated and rep.class_count == 300
        # the affine A2 seed is semidefinite, and runs packed too
        affine = StokesMatrix(((1, -1, -1), (0, 1, -1), (0, 0, 1)))
        assert _engine(affine, "stokes")[0].shape == (1, 3)

    def test_fill_rejects_what_codes_cannot_hold(self):
        # a fresh table (the process's stays clean): the indefinite seed's
        # moves hold a 2, and the zero state's moves are disconnected
        start = _engine(StokesMatrix(tuple(
            tuple(1 if i == j else -1 if j > i else 0 for j in range(5))
            for i in range(5))), "stokes")[0]
        with pytest.raises(AssertionError, match="left {-1, 0, 1}"):
            braid._CodeTable(10).fill(_encode(start.T))
        with pytest.raises(AssertionError, match="disconnected"):
            braid._CodeTable(10).fill(_encode(np.zeros((10, 1), np.int8)))

    def test_threads_share_one_table(self):
        # more threads than cores fill one cold table at once, switching
        # every microsecond: each run counts its orbit, every code is
        # filled once (a lost or doubled fill would leave filled rows
        # without a slot), and the rows equal a single-threaded fill's
        rng = random.Random(33)
        seeds = [moved_seed(label, rng) for label in ("A5", "D5") * 3]
        want = [orbit_enumerate(s, "stokes").class_count for s in seeds]
        codes, rows = code_rows(10)
        _code_table.cache_clear()
        got, interval = [None] * len(seeds), sys.getswitchinterval()

        def run(k):
            got[k] = orbit_enumerate(seeds[k], "stokes").class_count

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,))
                       for k in range(len(seeds))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == want == [216, 256] * 3
        table = _code_table(10)
        assert np.count_nonzero(table.slot) == table.filled - 1 == len(codes)
        assert np.array_equal(table.rows[table.slot[codes]], rows)

    def test_cold_d5_run_stays_small(self):
        # a fresh table: the zeroed 3^10 slots (118 KB) and 257 rows of
        # 8 codes; the index caches are filled first, so only the run and
        # its table fill are traced
        seed = seed_stokes("D5").stokes
        _stokes_tables(5)
        _pow3(5)
        _code_table.cache_clear()
        tracemalloc.start()
        try:
            rep = orbit_enumerate(seed, "stokes")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.class_count == 256
        assert _code_table(10).filled == 257
        assert peak < 2 ** 19


STOKES_COUNTS = {"A6": 2401, "A7": 32768, "D6": 3125, "D7": 46656,
                 "E6": 3456}


class TestStokesOnRoots:
    @pytest.mark.parametrize("label", ["A6", "A7", "D6", "D7", "E6"])
    def test_matches_packed_engine(self, label, monkeypatch):
        # from the class seed and a moved seed, a run on root indices
        # counts the packed engine's classes, level by level, expanding as
        # many states
        rng = random.Random(label)
        for seed in (seed_stokes(label).stokes, moved_seed(label, rng)):
            engine = _engine(seed, "stokes")
            assert engine.start.shape == (1, seed.mu)
            assert engine.start.dtype == np.uint8
            assert engine.table is roots(symmetrized_form(seed).rows)
            rep = orbit_enumerate(seed, "stokes")
            with monkeypatch.context() as patch:
                force_engine(patch, "packed")
                assert _engine(seed, "stokes").table is None
                packed = orbit_enumerate(seed, "stokes")
            assert rep.class_count == STOKES_COUNTS[label]
            assert (rep.class_count, rep.levels, rep.states_visited) == \
                (packed.class_count, packed.levels, packed.states_visited)

    @pytest.mark.parametrize("label", ["A6", "D6", "E6"])
    @pytest.mark.parametrize("budget", [7, 100])
    def test_budget_keeps_packed_engine_classes(self, label, budget,
                                                tmp_path, monkeypatch):
        # the classes of a budgeted run, read from the windows of its
        # saves as sign-canonical Stokes matrices, are the packed engine's,
        # in order
        seed = moved_seed(label, random.Random(budget))
        got = {}
        for engine in ("roots", "packed"):
            with monkeypatch.context() as patch:
                force_engine(patch, engine)
                saves = saved_windows(patch)
                rep = orbit_enumerate(seed, "stokes", max_states=budget,
                                      checkpoint=str(tmp_path / engine))
            assert rep.truncated and rep.class_count == budget
            assert {w.dtype.str for _, w, _ in saves} == {
                "roots": {"|u1"}, "packed": {"|i1"}}[engine]
            got[engine] = rep.levels, rep.states_visited, fifo_classes(
                saves, budget, stokes_rows(seed))
        assert got["roots"] == got["packed"]

    @pytest.mark.parametrize("label", ["A6", "D6", "E6", "E7"])
    def test_keys_are_stokes_classes(self, label):
        # on pairs of moved tuples, keys are equal exactly when the
        # sign-canonical Stokes matrices are: pairs of two short walks,
        # and pairs of a walk and its image under a random element of G_Z
        # with random signs
        rng = random.Random(label)
        seed = seed_stokes(label).stokes
        engine = _engine(seed, "stokes")
        elements = gz(seed.rows).elements
        std = VanishingTuple.standard(seed)

        def key(vectors):
            index = engine.table.intern(np.array(_canon_vectors(vectors)))
            return row_keys(engine.canon(index[None]))[0]

        def stokes(vectors):
            return sign_canonical_stokes(stokes_of_tuple(VanishingTuple(
                vectors, seed)))

        equal = 0
        for _ in range(120):
            a = braid_apply_word(std, random_word(
                rng, seed.mu, rng.randint(0, 4))).vectors
            if rng.random() < 0.5:
                g = elements[rng.randrange(len(elements))]
                b = tuple(tuple(rng.choice((1, -1)) * g @ v) for v in a)
            else:
                b = braid_apply_word(std, random_word(
                    rng, seed.mu, rng.randint(0, 4))).vectors
            same = stokes(a) == stokes(b)
            assert (key(a) == key(b)) == same
            equal += same
        assert 40 < equal < 120

    def test_packed_kernels_unused(self, monkeypatch):
        # positive definite Stokes runs of m > 10 packed entries never
        # reach the packed move or sign kernels; an elliptic run does
        def refuse(*args):
            raise AssertionError("a packed kernel ran")

        rng = random.Random(35)
        with monkeypatch.context() as patch:
            patch.setattr(braid, "_expand_stokes", refuse)
            patch.setattr(braid, "_sign_rounds", refuse)
            for label, budget in (("A6", None), ("D6", None), ("E6", None),
                                  ("E7", 3000), ("D12", 500), ("A16", 300)):
                rep = orbit_enumerate(moved_seed(label, rng), "stokes",
                                      max_states=budget)
                assert rep.class_count == STOKES_COUNTS.get(label, budget)
            with pytest.raises(AssertionError, match="packed kernel"):
                orbit_enumerate(seed_stokes("tE6").stokes, "stokes",
                                max_states=100)

    def test_list_rows_seed(self):
        # a seed whose rows are lists, not tuples, runs on root indices
        # and counts, level by level, as the same seed with tuple rows
        rng = random.Random(51)
        for label in ("A6", "D6", "E6"):
            seed = moved_seed(label, rng)
            listed = StokesMatrix([list(row) for row in seed.rows])
            assert _engine(listed, "stokes").canon is not None
            want, got = (orbit_enumerate(s, "stokes") for s in (seed, listed))
            assert got.class_count == STOKES_COUNTS[label]
            assert (got.class_count, got.levels, got.states_visited) == \
                (want.class_count, want.levels, want.states_visited)

    def test_threads_share_one_group(self):
        # more threads than cores start Stokes runs on cold root tables at
        # once, switching every microsecond: each counts its orbit, and
        # each seed's table closes once and holds one G_Z
        rng = random.Random(36)
        seeds = [moved_seed(label, rng) for label in ("A6", "D6", "E6")] * 2
        roots.cache_clear()
        got, interval = [None] * len(seeds), sys.getswitchinterval()

        def run(k):
            got[k] = orbit_enumerate(seeds[k], "stokes").class_count

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,))
                       for k in range(len(seeds))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == [2401, 3125, 3456] * 2
        tables = [roots(symmetrized_form(seed).rows) for seed in seeds[:3]]
        assert [len(t.V) for t in tables] == [21, 30, 36]
        for seed, table in zip(seeds, tables):
            assert list(table.groups) == [seed.rows]
            assert gz(seed.rows) is table.groups[seed.rows]

    def test_checkpoint_layout_and_checks(self, tmp_path):
        # a run saves its index tuples and the table's roots; a saved
        # tuple that is no distinguished basis, or two tuples of one
        # Stokes class, are refused
        seed = seed_stokes("E6").stokes
        ck = tmp_path / "orbit.ck"
        orbit_enumerate(seed, "stokes", max_states=500, checkpoint=str(ck))
        names = [(a["name"], a["dtype"], a["shape"][1:])
                 for a in manifest(ck)["arrays"]]
        assert names == [("window", "|u1", [6]), ("roots", "<i8", [6])]
        table = roots(symmetrized_form(seed).rows)
        assert np.array_equal(saved_roots(ck), table.V)
        start = np.arange(6, dtype=np.uint8)[None]
        moved = next(p[start] for p in gz(seed.rows).perms
                     if (p[start] != start).any())
        for window, reason in (([[0, 1, 2, 3, 4, 4]],
                                "not sign-canonical distinguished bases"),
                               (moved, "classes repeat")):
            braid._save_checkpoint(str(ck), {
                "mode": "stokes", "seed": seed.rows,
                "window": np.vstack([start, window]).astype(np.uint8),
                "roots": table.V, "levels": [1, 1], "expanded": 1})
            with pytest.raises(ValueError, match="corrupt: saved .*" +
                               reason):
                orbit_enumerate(seed, "stokes", checkpoint=str(ck))


# A4 tuples that are no sign-canonical distinguished basis: a repeated root
# (root indices (0, 1, 2, 2), which a file once resumed to 81 classes), two
# swapped roots, e_0 + e_1 before e_1 (roots, but a Gram matrix with a
# nonzero upper entry), and -e_0, not sign canonical
NOT_BASES = {
    "repeated-root": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 0)),
    "swapped-roots": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    "upper-entry": ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    "negative-vector": ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                        (0, 0, 0, 1))}


class TestCheckpointFormat:
    @pytest.mark.parametrize("label, mode, table, budget", [
        ("A5", "stokes", None, 60), ("D5", "stokes", None, 90),
        ("E6", "stokes", "roots", 1000), ("E6", "stokes", "reordered", 1000),
        ("D6", "stokes", "roots", 1000), ("D6", "stokes", "reordered", 1000),
        ("A5", "bases", "roots", 400), ("D5", "bases", "roots", 2000),
        ("E6", "bases", "roots", 9000),
        ("A5", "bases", "reordered", 400), ("D5", "bases", "reordered", 2000),
        ("E6", "bases", "reordered", 9000),
        ("tE6", "stokes", None, 3000), ("tE6", "bases", "roots", 3000)])
    def test_resume_matches_uninterrupted(self, tmp_path, label, mode, table,
                                          budget):
        # a run on root indices (bases, and E6 and D6 Stokes) resumes in the
        # root table the run left, or in a table built afresh whose roots
        # past the basis were interned in reverse order, so that every
        # saved index is remapped and a Stokes run's tuples are canonical
        # anew.  tE6 runs Stokes on packed states, all 76545 classes, and
        # bases on uint16 root indices, whose orbit is infinite: the bases
        # run stops at 20000 classes
        seed = seed_stokes(label).stokes
        final = 20000 if (label, mode) == ("tE6", "bases") else None
        if label == "tE6":
            start = _engine(seed, mode).start
            assert start.dtype == np.uint16 if mode == "bases" else \
                start.shape == (1, 28)
        full = orbit_enumerate(seed, mode, max_states=final)
        ck = tmp_path / "orbit.ck"
        partial = orbit_enumerate(seed, mode, max_states=budget,
                                  checkpoint=str(ck))
        assert partial.truncated and partial.class_count == budget
        if table == "reordered":
            form = symmetrized_form(seed).rows
            filled = roots(form).V
            roots.cache_clear()
            roots(form).intern(filled[seed.mu:][::-1])
            assert not np.array_equal(roots(form).V, filled)
            assert np.array_equal(saved_roots(ck), filled)
        resumed = orbit_enumerate(seed, mode, max_states=final,
                                  checkpoint=str(ck))
        assert resumed.truncated == full.truncated == (final is not None)
        assert (resumed.class_count, resumed.levels,
                resumed.states_visited) == \
            (full.class_count, full.levels, full.states_visited)

    def test_window_holds_open_levels(self, tmp_path, monkeypatch):
        # every save of an E6 bases run holds exactly levels[-2] +
        # levels[-1] + len(next) classes: those of a plain FIFO search from
        # position sum(levels[:-2]) to the last class that the first
        # `expanded` states found
        seed = seed_stokes("E6").stokes
        engine = _engine(seed, "bases")
        g = len(_generators(seed.mu))
        level, seen = engine.start, set(row_keys(engine.start))
        order, parent, first = [level], [-1], 0
        while len(level):
            cands = engine.expand(level)
            new = [j for j, k in enumerate(row_keys(cands))
                   if not (k in seen or seen.add(k))]
            parent += [first + j // g for j in new]
            first += len(level)
            level = cands[new]
            order.append(level)
        fifo, parent, sizes = np.concatenate(order), np.array(parent), []

        def check(path, doc):
            levels, window = doc["levels"], doc["window"]
            found = int(np.searchsorted(parent, doc["expanded"]))
            assert len(window) == sum(levels[-2:]) + found - sum(levels)
            at = sum(levels[:-2])
            assert np.array_equal(window, fifo[at:at + len(window)])
            sizes.append(len(window))

        monkeypatch.setattr(braid, "CHECKPOINT_EVERY", 7)
        monkeypatch.setattr(braid, "_save_checkpoint", check)
        rep = orbit_enumerate(seed, "bases", checkpoint=str(tmp_path / "c"))
        assert rep.class_count == len(fifo) == 41472
        # a save after nearly every chunk of 182 states; the widest window
        # holds 45% of the orbit
        assert len(sizes) > 200
        assert max(sizes) < 0.46 * len(fifo)

    @pytest.mark.parametrize("label, mode, peak, count, resume_at", [
        ("E6", "bases", 18655, 41472, None),
        ("E6", "stokes", 2280, 3456, None),
        ("D5", "stokes", 165, 256, None),
        ("tE6", "stokes", 38266, 76545, None),
        ("tE6", "stokes", 38266, 76545, 3000)],
        ids=["E6-bases", "E6-stokes-roots", "D5-stokes-codes",
             "tE6-stokes", "tE6-stokes-resumed"])
    def test_visited_set_holds_open_levels(self, tmp_path, monkeypatch,
                                           label, mode, peak, count,
                                           resume_at):
        # every set the module builds records its largest size: the
        # visited set peaks at the widest three consecutive levels, never
        # at the orbit, in a fresh run and in one resumed mid-level
        seed = seed_stokes(label).stokes
        ck = str(tmp_path / "orbit.ck")
        if resume_at:
            orbit_enumerate(seed, mode, max_states=resume_at, checkpoint=ck)
        sizes = []

        class Recorded(set):
            def __init__(self, *args):
                super().__init__(*args)
                sizes.append(len(self))

            def add(self, key):
                super().add(key)
                sizes.append(len(self))

        monkeypatch.setattr(braid, "set", Recorded, raising=False)
        rep = orbit_enumerate(seed, mode, checkpoint=ck if resume_at else None)
        levels = rep.levels
        assert rep.class_count == count
        assert max(sizes) == peak == \
            max(sum(levels[d:d + 3]) for d in range(len(levels)))

    @staticmethod
    def written(tmp_path, budget):
        """A bases checkpoint of A4 stopped at budget classes."""
        ck = tmp_path / "orbit.ck"
        orbit_enumerate(chain(4), "bases", max_states=budget,
                        checkpoint=str(ck))
        return ck, ck.read_bytes()

    def test_every_damaged_byte_rejected(self, tmp_path):
        # each byte is the magic or under a SHA-256, so no single flipped
        # bit and no truncation goes unnoticed
        ck, data = self.written(tmp_path, 20)
        seed = chain(4)
        engine = _engine(seed, "bases")
        assert _load_checkpoint(str(ck), "bases", seed.rows, engine)
        for k in range(len(data)):
            for damaged in (data[:k],
                            data[:k] + bytes([data[k] ^ 1]) + data[k + 1:]):
                if not damaged:
                    continue          # an empty file starts afresh
                ck.write_bytes(damaged)
                with pytest.raises(ValueError, match="corrupt|format 9"):
                    _load_checkpoint(str(ck), "bases", seed.rows, engine)

    def test_layout(self, tmp_path):
        # a fresh root table, so the roots saved are those this run reached
        roots.cache_clear()
        ck, data = self.written(tmp_path, 30)
        doc = manifest(ck)
        magic, digest, rest = data.split(b"\n", 2)
        # the format is named by the magic line, and one SHA-256 covers
        # everything after the digest line
        assert magic == b"singlat checkpoint 9" and "format" not in doc
        assert hashlib.sha256(rest).hexdigest().encode() == digest
        assert doc["mode"] == "bases"
        # the seed's entries, row by row, in canonical hex
        assert doc["seed"] == "1,-1,0,0,0,1,-1,0,0,0,1,-1,0,0,0,1"
        names = [(a["name"], a["dtype"], a["shape"]) for a in doc["arrays"]]
        # the window holds the open levels: all 6 classes of level 1, all
        # 16 of level 2, in expansion, and the 7 found of level 3; then the
        # table's roots, all 10 of A4 up to sign, as int64 rows
        assert (doc["levels"], doc["expanded"]) == ([1, 6, 16], 10)
        assert names == [("window", "|u1", [29, 4]),
                         ("roots", "<i8", [10, 4])]
        table = roots(symmetrized_form(chain(4)).rows)
        assert np.array_equal(saved_roots(ck), table.V)
        # the body is the raw bytes the manifest describes, and no more
        assert [a["size"] for a in doc["arrays"]] == [116, 320]
        assert len(rest.split(b"\n", 1)[1]) == 436

    def test_code_run_layout(self, tmp_path):
        # a code run saves its window as uint16 codes, one array
        ck = tmp_path / "orbit.ck"
        seed = seed_stokes("D5").stokes
        orbit_enumerate(seed, "stokes", max_states=90, checkpoint=str(ck))
        doc = manifest(ck)
        names = [(a["name"], a["dtype"], a["shape"]) for a in doc["arrays"]]
        # the window runs from the first class of the level before the
        # one in expansion to the 90th class
        assert names == [("window", "<u2", [90 - sum(doc["levels"][:-2])])]
        assert len(doc["levels"]) > 2

    def test_states_checked_on_load(self, tmp_path):
        # a file whose hash matches but whose states no run can hold: a
        # Stokes state of a disconnected diagram, one not in sign normal
        # form, an int8 entry of -128 (a normal form off the spanning
        # tree, which a run holds in int64), a root index past the last
        # root; and on codes (A3 Stokes,
        # m = 3) those two states' codes 13 and 3, a code past 3^3, and
        # codes of another dtype or as packed int8 rows.  The affine A2
        # seed is semidefinite, so its Stokes run holds packed states.
        # Each bad class follows a good one: every saved class is checked
        a3 = chain(3)
        affine = StokesMatrix(((1, -1, -1), (0, 1, -1), (0, 0, 1)))
        ck = str(tmp_path / "orbit.ck")
        start = _engine(a3, "stokes")[0]
        assert start.dtype == np.uint16 and start.shape == (1,)
        affine_start = _engine(affine, "stokes")[0]
        assert affine_start.shape == (1, 3)
        a3_roots = roots(symmetrized_form(a3).rows)
        orbit_enumerate(a3, "bases")
        assert a3_roots.size == 6
        for seed, mode, first, window in (
                (affine, "stokes", affine_start,
                 np.array([[0, 0, 0]], np.int8)),
                (affine, "stokes", affine_start,
                 np.array([[-1, 0, -1]], np.int8)),
                (affine, "stokes", affine_start,
                 np.array([[1, 1, -128]], np.int8)),
                (a3, "bases", np.array([[0, 1, 2]], np.uint8),
                 np.array([[0, 1, 6]], np.uint8)),
                (a3, "stokes", start, np.array([13], np.uint16)),
                (a3, "stokes", start, np.array([3], np.uint16)),
                (a3, "stokes", start, np.array([27], np.uint16)),
                (a3, "stokes", None, start.astype(np.uint8)),
                (a3, "stokes", None, _decode(start, 3).T)):
            if first is not None:
                window = np.concatenate([first.astype(window.dtype), window])
            braid._save_checkpoint(ck, {
                "mode": mode, "seed": seed.rows, "window": window,
                "levels": [1], "expanded": 0,
                **({"roots": a3_roots.V} if mode == "bases" else {})})
            with pytest.raises(ValueError, match="corrupt: saved"):
                orbit_enumerate(seed, mode, checkpoint=ck)
        # the start code itself is a level the run can hold
        braid._save_checkpoint(ck, {
            "mode": "stokes", "seed": a3.rows, "window": start,
            "levels": [1], "expanded": 0})
        assert orbit_enumerate(a3, "stokes", checkpoint=ck).class_count == 4

    @pytest.mark.parametrize("dtype, shape", [
        ("|u1", [2 ** 45, 4]), ("|u1", [1, 4]), ("|u1", [3, 4]),
        ("<f8", [1, 1]), ("|V8", [1, 1]), ("|u1", [-2, -4])],
        ids=["2^45-rows", "too-few-rows", "too-many-rows", "f8", "V8",
             "negative-extent"])
    def test_manifest_checked_against_length(self, tmp_path, dtype, shape):
        # the hash matches, but the manifest claims a window of 2^45
        # classes, fewer or more than the 8 bytes that follow, a dtype
        # that is not an integer, or a negative extent (whose product is
        # 8): the claim is checked against the byte size before anything
        # is read
        seed = chain(4)
        rest = json.dumps({
            "mode": "bases", "levels": [1], "expanded": 0,
            "seed": braid._seed_hex(seed.rows),
            "arrays": [{"name": "window", "dtype": dtype, "shape": shape,
                        "size": 8}]}, sort_keys=True).encode() + \
            b"\n" + bytes(8)
        ck = tmp_path / "orbit.ck"
        ck.write_bytes(b"singlat checkpoint 9\n" +
                       hashlib.sha256(rest).hexdigest().encode() + b"\n" +
                       rest)
        with pytest.raises(ValueError, match="corrupt: bad .*shape|"
                           "corrupt: window does not have its recorded"):
            orbit_enumerate(seed, "bases", checkpoint=str(ck))

    @pytest.mark.parametrize("levels, expanded, window, reason", [
        # an empty window: nothing would be visited
        ([1], 0, [], "shorter than its open levels"),
        # no levels; a first level of two classes
        ([], 0, ["start"], "do not start"),
        ([2], 0, ["start"], "do not start"),
        # more expanded than the levels hold; fewer than the levels before
        # the last; a last level with more classes than the window
        ([1], 2, ["start"], "outside the last level"),
        ([1, 1], 0, ["start", "moved"], "outside the last level"),
        ([1, 6], 1, ["start"], "shorter than its open levels"),
        # a class too many: the start saved twice
        ([1], 0, ["start", "start"], "classes repeat")],
        ids=["nothing-visited", "no-levels", "first-level-of-2",
             "expanded-past-levels", "expanded-before-level",
             "level-past-pending", "class-too-many"])
    def test_inconsistent_state_rejected(self, tmp_path, levels, expanded,
                                         window, reason):
        # a hash-valid A4 bases file whose levels, expanded count and
        # window disagree, each of its classes a distinguished basis
        ck = str(tmp_path / "orbit.ck")
        seed = chain(4)
        engine = _engine(seed, "bases")
        start, table = engine.start, engine.table
        classes = {"start": start[0], "moved": _expand_roots(start, table)[0]}
        braid._save_checkpoint(ck, {
            "mode": "bases", "seed": seed.rows, "roots": table.V,
            "window": np.array([classes[c] for c in window],
                               np.uint8).reshape(-1, 4),
            "levels": levels, "expanded": expanded})
        with pytest.raises(ValueError, match="corrupt: .*" + reason):
            orbit_enumerate(seed, "bases", checkpoint=ck)
        # the consistent file resumes to the whole orbit
        braid._save_checkpoint(ck, {
            "mode": "bases", "seed": seed.rows, "window": start,
            "roots": table.V, "levels": [1], "expanded": 0})
        rep = orbit_enumerate(seed, "bases", checkpoint=ck)
        assert (rep.class_count, sum(rep.levels)) == (125, 125)

    @pytest.mark.parametrize("engine, vectors", [
        pytest.param(engine, vectors, id=f"{engine}-{name}")
        for name, vectors in NOT_BASES.items()
        for engine in ("roots", "vectors")
        if engine == "vectors" or name != "negative-vector"])
    def test_saved_bases_are_bases(self, tmp_path, engine, vectors):
        # a hash-valid, self-consistent A4 file whose window tuple is not
        # a sign-canonical distinguished basis (NOT_BASES): each is refused
        # when its saved roots are the table's, all roots, and when they
        # are the tuple's own vectors in order; -e_0 there is a saved root
        # that is not sign canonical
        seed = chain(4)
        table = roots(symmetrized_form(seed).rows)
        if engine == "vectors":
            saved = np.array(vectors, np.int64)
            window = np.arange(4, dtype=np.uint8)[None]
        else:
            orbit_enumerate(seed, "bases")
            saved = table.V
            window = np.array([[saved.tolist().index(list(v))
                                for v in vectors]], np.uint8)
        ck = str(tmp_path / "orbit.ck")
        braid._save_checkpoint(ck, {
            "mode": "bases", "seed": seed.rows, "window": window,
            "roots": saved, "levels": [1], "expanded": 0})
        with pytest.raises(ValueError, match="corrupt: saved states are "
                           "not sign-canonical distinguished bases|"
                           "corrupt: saved roots are not sign-canonical "
                           "roots"):
            orbit_enumerate(seed, "bases", checkpoint=ck)

    def test_wide_entries_saved_as_hex(self, tmp_path):
        # roots beyond int64 are an object array, saved as hex text and
        # read back as Python ints; the form is indefinite, so the indices
        # are uint16
        big = 2 ** 70
        seed = StokesMatrix(((1, big), (0, 1)))
        ck = tmp_path / "orbit.ck"
        rep = orbit_enumerate(seed, "bases", max_states=3,
                              checkpoint=str(ck))
        assert rep.truncated
        dtypes = {a["name"]: a["dtype"] for a in manifest(ck)["arrays"]}
        assert dtypes == {"roots": "|O", "window": "<u2"}
        engine = _engine(seed, "bases")
        window, window_keys, visited, levels, _ = _load_checkpoint(
            str(ck), "bases", seed.rows, engine)
        v = engine.table.V
        assert v.dtype == object and big in map(abs, v[window].flat)
        assert row_keys(window) == window_keys
        assert set(window_keys) == visited
        assert len(visited) == 3 - sum(levels[:-2])


    def test_entries_past_4300_digits(self, tmp_path):
        # a packed tE6-style window (28 entries a class) holding entries of
        # 5001 digits, which json.dumps refuses, round-trips
        big = 10 ** 5000
        window = np.array([[big] + [0] * 27, [1] * 27 + [-big]], dtype=object)
        ck = tmp_path / "orbit.ck"
        braid._save_checkpoint(str(ck), {
            "mode": "stokes", "seed": seed_stokes("tE6").stokes.rows,
            "window": window, "levels": [1, 1], "expanded": 1})
        head, body = ck.read_bytes().split(b"\n", 3)[2:]
        entries = json.loads(head)["arrays"]
        assert entries[0]["dtype"] == "|O"
        got = braid._checkpoint_arrays(entries, body)["window"]
        assert got.dtype == object and got.tolist() == window.tolist()
        # a truncated entry, a missing one, and entries that are not
        # integers in canonical hex are refused
        for blob in (b"1f,", b"1f", b"1f,zz", b"1f,1.5", b"1f, 2", b"1f,+2",
                     b"1f,02", b"1f,-0", b"1f,0x2", b"1f,2_0", b"1f,2,3"):
            entry = {"name": "window", "dtype": "|O", "shape": [2],
                     "size": len(blob)}
            with pytest.raises(ValueError, match="2 integers in hex"):
                braid._checkpoint_arrays([entry], blob)

    def test_huge_entries_resume(self, tmp_path, monkeypatch):
        # a packed run from a seed with an entry of 5001 digits, past the
        # 4300 that json.dumps writes, saves (the manifest holds the seed
        # in hex) and resumes
        seed = StokesMatrix(((1, 10 ** 5000, 0), (0, 1, -1), (0, 0, 1)))
        ck = str(tmp_path / "orbit.ck")
        full = orbit_enumerate(seed, "stokes", max_states=12)
        saves = saved_windows(monkeypatch)
        assert orbit_enumerate(seed, "stokes", max_states=10,
                               checkpoint=ck).truncated
        assert max(abs(x) for x in saves[-1][1].flat) > 10 ** 5000
        monkeypatch.undo()
        assert orbit_enumerate(seed, "stokes", max_states=10,
                               checkpoint=ck).truncated
        resumed = orbit_enumerate(seed, "stokes", max_states=12,
                                  checkpoint=ck)
        assert (resumed.class_count, resumed.levels,
                resumed.states_visited) == \
            (full.class_count, full.levels, full.states_visited)


class TestBraidProperties:
    @settings(max_examples=40, deadline=None)
    @given(walked_tuples(min_mu=3), st.data())
    def test_braid_relation(self, t, data):
        k = data.draw(st.integers(1, t.mu - 2))
        sign = data.draw(st.sampled_from((1, -1)))
        a, b = sign * k, sign * (k + 1)
        assert braid_apply_word(t, BraidWord((a, b, a))).vectors == \
            braid_apply_word(t, BraidWord((b, a, b))).vectors

    @settings(max_examples=40, deadline=None)
    @given(walked_tuples(min_mu=4), st.data())
    def test_far_generators_commute(self, t, data):
        j = data.draw(st.integers(1, t.mu - 3))
        k = data.draw(st.integers(j + 2, t.mu - 1))
        j *= data.draw(st.sampled_from((1, -1)))
        k *= data.draw(st.sampled_from((1, -1)))
        assert braid_apply_word(t, BraidWord((j, k))).vectors == \
            braid_apply_word(t, BraidWord((k, j))).vectors

    @settings(max_examples=40, deadline=None)
    @given(walked_tuples(), st.data())
    def test_generator_then_inverse_is_identity(self, t, data):
        g = data.draw(st.sampled_from(_generators(t.mu)))
        assert braid_apply_word(t, BraidWord((g, -g))).vectors == t.vectors

    @settings(max_examples=40, deadline=None)
    @given(walked_tuples(), st.data())
    def test_stokes_form_idempotent_and_sign_invariant(self, t, data):
        s = stokes_of_tuple(t)
        form = sign_canonical_stokes(s)
        assert sign_canonical_stokes(form) == form
        e = data.draw(st.lists(st.sampled_from((1, -1)), min_size=t.mu,
                               max_size=t.mu))
        assert sign_canonical_stokes(conjugate(s, e)) == form

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(ALL_LABELS), st.data())
    def test_stokes_form_complete(self, label, data):
        # two walks from one seed: same normal form exactly when the
        # brute-force lex-min forms agree, that is, the same sign class
        seed = VanishingTuple.standard(seed_stokes(label).stokes)
        words = st.lists(st.sampled_from(_generators(seed.mu)), max_size=6)
        a, b = (stokes_of_tuple(braid_apply_word(seed, BraidWord(
            data.draw(words)))) for _ in range(2))
        assert (sign_canonical_stokes(a) == sign_canonical_stokes(b)) == \
            (lex_min_form(a) == lex_min_form(b))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["A4", "A5", "D4", "D5"]), st.data())
    def test_code_table_follows_the_braid_action(self, label, data):
        # a word followed through the move table from the seed's code
        # lands on the public sign normal form of the word's Stokes matrix
        seed = seed_stokes(label).stokes
        gens = _generators(seed.mu)
        word = data.draw(st.lists(st.sampled_from(gens), max_size=14))
        m = seed.mu * (seed.mu - 1) // 2
        code = _engine(seed, "stokes")[0]
        for g in word:
            k = gens.index(g)
            code = _code_table(m).expand(code)[k:k + 1]
        want = sign_canonical_stokes(stokes_of_tuple(braid_apply_word(
            VanishingTuple.standard(seed), BraidWord(tuple(word)))))
        assert _unpack(_decode(code, m)[:, 0]) == want
