import functools
import itertools
import operator
import random
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singlat import lattice
from singlat.lattice import (MonodromyMatrix, StokesMatrix, char_poly,
                             coxeter_dynkin, definiteness, gz, is_connected,
                             is_quasiunipotent, mat_det, matrix_order,
                             monodromy_from_stokes, monodromy_product,
                             mat_mul, mat_neg, mat_transpose, pl_reflect,
                             process_cache, radical_rank, roots, RootTable,
                             row_keys, symmetrized_form, _sign_canonical,
                             _void)
from singlat.braid import (VanishingTuple, braid_apply_word, BraidWord,
                           _canon_vectors, _engine, _generators,
                           sign_canonical_stokes, stokes_of_tuple)
from singlat.degrees import gz_order
from singlat.polyalg import MultiPoly, _adjugate
from singlat.singdata import seed_stokes, ALL_LABELS


def chain(mu):
    return StokesMatrix.chain(mu)


class TestSymmetrizedForm:
    def test_a2(self):
        i = symmetrized_form(chain(2))
        assert i.rows == ((2, -1), (-1, 2))
        assert definiteness(i) == "positive-definite"

    def test_identity_seed(self):
        i = symmetrized_form(StokesMatrix.identity(5))
        assert i.rows == tuple(tuple(2 if a == b else 0 for b in range(5))
                               for a in range(5))

    def test_te6_seed_rank(self):
        i = symmetrized_form(seed_stokes("tE6").stokes)
        assert definiteness(i) == "positive-semidefinite"
        assert radical_rank(i) == 2


def triangular_inverse(s):
    """Exact integer inverse of a unit upper triangular integer matrix by
    back substitution, the oracle of polyalg._adjugate on Stokes
    matrices."""
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


class TestMonodromy:
    @pytest.mark.parametrize("label", [f"A{n}" for n in range(1, 9)] +
                             [f"D{n}" for n in range(4, 9)] +
                             ["E6", "E7", "E8", "tE6", "tE7", "tE8"])
    def test_adjugate_is_the_triangular_inverse(self, label):
        # on the class seed and three moved seeds (A1 has no moves): the
        # factor is 1, the inverse is back substitution's, and so M is
        # -S^(-1) S^t over that inverse
        count = 3 if label != "A1" else 0
        for seed in moved_seeds(label, count, random.Random(label)):
            inv = triangular_inverse(seed.rows)
            assert _adjugate(seed.rows) == (1, [list(r) for r in inv])
            assert monodromy_from_stokes(seed).rows == mat_neg(
                mat_mul(inv, mat_transpose(seed.rows)))

    def test_adjugate_of_wide_entries(self):
        # exact past int64: Python ints throughout
        seed = StokesMatrix(((1, 2 ** 70, -3, 5), (0, 1, -2 ** 64, 1),
                             (0, 0, 1, 2 ** 63 + 7), (0, 0, 0, 1)))
        inv = triangular_inverse(seed.rows)
        assert _adjugate(seed.rows) == (1, [list(r) for r in inv])
        assert mat_mul(inv, seed.rows) == tuple(
            tuple(int(i == j) for j in range(4)) for i in range(4))
        assert monodromy_from_stokes(seed).rows == mat_neg(
            mat_mul(inv, mat_transpose(seed.rows)))

    def test_mu_one(self):
        assert monodromy_from_stokes(StokesMatrix.identity(1)).rows == ((-1,),)

    def test_a2_order_three(self):
        m = monodromy_from_stokes(chain(2))
        assert m.rows == ((0, -1), (1, -1))

    def test_chain_coxeter_orders(self):
        for mu in range(1, 9):
            m = monodromy_from_stokes(chain(mu))
            assert matrix_order(m.rows) == mu + 1

    def test_product_equals_closed_form(self):
        for label in ("A2", "A4", "D4", "E6"):
            s = seed_stokes(label).stokes
            t = VanishingTuple.standard(s)
            assert monodromy_product(t).rows == monodromy_from_stokes(s).rows

    def test_product_rank_one(self):
        t = VanishingTuple.standard(StokesMatrix.identity(1))
        assert monodromy_product(t).rows == ((-1,),)

    def test_product_braid_invariant(self):
        rng = random.Random(9)
        s = seed_stokes("A4").stokes
        t = VanishingTuple.standard(s)
        m0 = monodromy_product(t).rows
        for _ in range(15):
            word = BraidWord(tuple(rng.choice([1, -1, 2, -2, 3, -3])
                                   for _ in range(rng.randint(1, 8))))
            assert monodromy_product(braid_apply_word(t, word)).rows == m0


class TestReflection:
    def setup_method(self):
        self.i = symmetrized_form(chain(2))

    def test_reflects_itself(self):
        assert pl_reflect(self.i, (1, 0), (1, 0)) == (-1, 0)

    def test_orthogonal_fixed(self):
        i = symmetrized_form(StokesMatrix.identity(2))
        assert pl_reflect(i, (1, 0), (0, 1)) == (0, 1)

    def test_a2_neighbor(self):
        assert pl_reflect(self.i, (1, 0), (0, 1)) == (1, 1)

    def test_involution_and_isometry(self):
        rng = random.Random(11)
        s = seed_stokes("D4").stokes
        i = symmetrized_form(s)
        for _ in range(40):
            b = tuple(rng.randint(-4, 4) for _ in range(4))
            c = tuple(rng.randint(-4, 4) for _ in range(4))
            d = (1, 0, 0, 0)
            assert pl_reflect(i, d, pl_reflect(i, d, b)) == b
            assert i.pair(pl_reflect(i, d, b), pl_reflect(i, d, c)) == i.pair(b, c)

    def test_non_root_rejected(self):
        i = symmetrized_form(StokesMatrix.identity(2))
        with pytest.raises(ValueError):
            pl_reflect(i, (1, 1), (0, 1))  # self-pairing 4


def root_count(label):
    """N, the number of roots up to sign: n(n+1)/2 for A_n, n(n-1) for
    D_n, and 36, 63, 120 for E6, E7, E8."""
    n = int(label[1:])
    return {"A": n * (n + 1) // 2, "D": n * (n - 1)}.get(
        label[0], {6: 36, 7: 63, 8: 120}.get(n))


ROOT_LABELS = [f"A{n}" for n in range(1, 9)] + \
    [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]


def moved_forms(label, count, rng):
    """The class seed's form and the forms of count seeds a random braid
    word away from it."""
    seed = seed_stokes(label).stokes
    forms = [symmetrized_form(seed).rows]
    gens = _generators(seed.mu)
    for _ in range(count if gens else 0):
        word = BraidWord(tuple(rng.choice(gens)
                               for _ in range(rng.randint(1, 12))))
        moved = stokes_of_tuple(braid_apply_word(
            VanishingTuple.standard(seed), word))
        forms.append(symmetrized_form(moved).rows)
    return forms


def closed(form, rounds=float("inf")):
    """A fresh RootTable of form, filled the eager way: every pair of its
    roots reflected, round after round, until a round finds no new root
    (the closure) or after rounds rounds."""
    t, done = RootTable(form), 0
    while done < rounds:
        n = t.size
        idx = np.arange(n, dtype=t.dtype)
        t.fill(np.repeat(idx, n), np.tile(idx, n))
        if t.size == n:
            break
        done += 1
    return t


def batched_closure(form):
    """A fresh RootTable of form closed with reflections of its own, the
    oracle of RootTable.close's root order: each batch of new roots r is
    reflected in every basis vector at once, as r - I(e_i, r) e_i in
    int64, r-major, and the moved roots not yet known are interned in that
    order."""
    t = RootTable(form)
    lo, eye = 0, np.eye(t.mu, dtype=np.int64)
    known = set(row_keys(t.V))
    while lo < t.size:
        r = t.V[lo:]
        lo = t.size
        moved = _sign_canonical((r[:, None] - (r @ t.form)[:, :, None] *
                                 eye).reshape(-1, t.mu))
        new = {k: j for j, k in enumerate(row_keys(moved)) if k not in known}
        known.update(new)
        t.intern(moved[list(new.values())])
    return t


def filled(t):
    """V and the filled square of the reflection table of t."""
    return t.V, t.refl[:t.size, :t.size]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int8, np.int64])
def test_row_keys_equal_exactly_when_rows_are(dtype):
    # rows of widths 0-17 over the dtype's extremes, 0 and 1, with repeats:
    # two keys are equal exactly when their rows are, also for the rows of
    # a column slice, and each byte width has one cached dtype
    rng = random.Random(str(np.dtype(dtype)))
    info = np.iinfo(dtype)
    values = [info.min, info.min + 1, 0, 1, info.max]
    for width in range(18):
        rows = [[rng.choice(values[:2 + width % 4]) for _ in range(width)]
                for _ in range(40)]
        rows += rows[::5]
        rows = np.array(rows, dtype).reshape(len(rows), width)
        keys = row_keys(rows)
        assert row_keys(np.hstack([rows, rows])[:, :width]) == keys
        for i, j in itertools.product(range(len(rows)), repeat=2):
            assert (keys[i] == keys[j]) == \
                (rows[i].tolist() == rows[j].tolist())
        assert len(set(keys)) == len(set(map(tuple, rows.tolist())))
        if width:
            size = width * rows.itemsize
            assert _void(size) is _void(size)
            assert _void(size).itemsize == size


def test_process_cache_builds_once():
    # threads that ask for one key at once share one value, built once
    calls = []

    @process_cache
    def slow(key):
        calls.append(key)
        time.sleep(0.01)
        return object()

    got = [None] * 8
    threads = [threading.Thread(target=lambda k=k: got.__setitem__(
        k, slow("key"))) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert calls == ["key"] and len({id(v) for v in got}) == 1
    slow.cache_clear()
    assert slow("key") is not got[0] and calls == ["key", "key"]


class TestRoots:
    @pytest.mark.parametrize("label", ROOT_LABELS)
    def test_tables(self, label):
        rng = random.Random(label)
        for form in moved_forms(label, 3, rng):
            v, r = filled(closed(form))
            n, size = len(form), root_count(label)
            assert v.shape == (size, n) and r.shape == (size, size)
            assert not v.flags.writeable
            assert r.dtype == np.uint8
            # the basis first, every vector sign canonical and a root
            assert v[:n].tolist() == np.eye(n, dtype=int).tolist()
            assert [tuple(x) for x in v.tolist()] == \
                list(_canon_vectors(tuple(x) for x in v.tolist()))
            f = np.array(form)
            assert (np.einsum("ai,ij,aj->a", v, f, v) == 2).all()
            assert len({tuple(x) for x in v.tolist()}) == size
            # R is the reflection table: an involution in b, fixing a
            idx = np.arange(size)
            assert (r[idx, idx] == idx).all()
            assert (r[idx[:, None], r] == idx[None, :]).all()
            for a, b in rng.choices(list(np.ndindex(size, size)), k=10):
                moved = pl_reflect(form, tuple(v[a].tolist()),
                                   tuple(v[b].tolist()))
                assert _canon_vectors([moved])[0] == \
                    tuple(v[r[a, b]].tolist())

    @pytest.mark.parametrize("label", ["tE6", "tE7", "tE8"])
    def test_elliptic_tables_grow_on_demand(self, label):
        # an elliptic form has infinitely many roots: every round of
        # reflections finds new ones, each a sign-canonical root, and the
        # indices are uint16
        for form in moved_forms(label, 2, random.Random(label)):
            t = RootTable(form)
            assert definiteness(form) != "positive-definite"
            assert t.dtype == np.uint16 and t.size == len(form)
            sizes = [closed(form, rounds).size for rounds in (1, 2, 3)]
            assert len(form) < sizes[0] < sizes[1] < sizes[2]
            v = closed(form, 3).V
            assert (np.einsum("ai,ij,aj->a", v, np.array(form), v) == 2).all()
            assert [tuple(x) for x in v.tolist()] == \
                list(_canon_vectors(tuple(x) for x in v.tolist()))

    def test_table_size_cap(self):
        # uint8 indices stop below the sentinel 255: a table that would
        # intern a 256th root raises instead of wrapping, and keeps every
        # index it gave out
        t = RootTable(symmetrized_form(chain(3)).rows)
        rows = np.array([(1, k, 0) for k in range(1, 253)], np.int64)
        assert t.intern(rows).tolist() == list(range(3, 255))
        assert t.size == 255 and t.sentinel == 255
        with pytest.raises(OverflowError, match="255 roots"):
            t.intern(np.array([(1, 253, 0)], np.int64))
        assert t.size == 255 and t.refl.shape == (255, 255)
        assert t.intern(rows[-1:]).tolist() == [254]

    def test_index_width(self):
        # uint8 for a positive definite form of rank <= 16, whose roots
        # fit (D16 has 240, the most at rank 16 with E8 + E8), and uint16
        # past rank 16 or for a form that is not positive definite
        for form, size, width in (
                (symmetrized_form(chain(16)).rows, 136, np.uint8),
                (symmetrized_form(seed_stokes("D16").stokes).rows, 240,
                 np.uint8),
                (symmetrized_form(chain(17)).rows, 153, np.uint16)):
            v, r = filled(closed(form))
            assert (len(v), r.dtype) == (size, width)
            assert int(r.max()) == size - 1
        assert roots(symmetrized_form(seed_stokes("tE6").stokes).rows) \
            .dtype == np.uint16

    def test_disconnected_form(self):
        # 2 Id: the roots are the basis alone, each its own reflection's
        # fixed point up to sign and orthogonal to the others
        v, r = filled(closed(symmetrized_form(StokesMatrix.identity(3)).rows))
        assert v.tolist() == np.eye(3, dtype=int).tolist()
        assert r.tolist() == [[0, 1, 2]] * 3

    @pytest.mark.parametrize("label", ROOT_LABELS)
    def test_close_holds_every_root(self, label):
        # the reflections of the basis alone reach every root: the same
        # set as the eager closure under every pair of roots
        for form in moved_forms(label, 2, random.Random(label)):
            t = RootTable(form)
            t.close()
            assert len(t.V) == root_count(label)
            assert set(tuples_of(t.V)) == set(tuples_of(closed(form).V))

    @pytest.mark.parametrize("label", [f"{f}{n}" for f in "ADE"
                                       for n in (6, 7, 8)])
    def test_close_keeps_the_batched_order(self, label):
        # close reflects through fill, and interns the roots in the order
        # of the batched closure: the same V, byte for byte
        for seed in moved_seeds(label, 3, random.Random(label)):
            form = symmetrized_form(seed).rows
            t = RootTable(form)
            t.close()
            want = batched_closure(form).V
            assert t.V.dtype == want.dtype
            assert t.V.tobytes() == want.tobytes()

    def test_one_table_per_form(self):
        # roots caches one table per form, its index width set by the
        # form's definiteness: uint8 for E7, positive definite of rank 7
        form = symmetrized_form(seed_stokes("E7").stokes).rows
        assert roots(form) is roots(tuple(map(tuple, form)))
        assert definiteness(form) == "positive-definite"
        assert roots(form).dtype == np.uint8


def moved_seeds(label, count, rng):
    """The class seed and count seeds a random braid word away from it."""
    seed = seed_stokes(label).stokes
    gens = _generators(seed.mu)
    return [seed] + [stokes_of_tuple(braid_apply_word(
        VanishingTuple.standard(seed), BraidWord(tuple(
            rng.choice(gens) for _ in range(rng.randint(1, 12))))))
        for _ in range(count)]


def backtracked_gz(label):
    """G_Z of the seed S by backtracking, the oracle of lattice.gz: the
    images r_0, r_1, ... of the basis, chosen one at a time among the
    signed roots, must pair under u^t S v as the basis vectors do, in both
    orders; the roots are every vector of I(v, v) = 2 with entries in
    [-2, 2], which holds all of them for the class seeds of A3-A5, D4, D5
    (the count is checked)."""
    s = np.array(seed_stokes(label).stokes.rows)
    n = len(s)
    box = np.array(np.meshgrid(*[range(-2, 3)] * n)).reshape(n, -1).T
    signed = box[np.einsum("ai,ij,aj->a", box, s + s.T, box) == 2]
    assert len(signed) == 2 * root_count(label)
    pair = signed @ s @ signed.T
    found = []

    def extend(chosen):
        k = len(chosen)
        if k == n:
            found.append(tuple(map(tuple, signed[chosen].T.tolist())))
            return
        for r in range(len(signed)):
            if pair[r, r] == 1 and all(
                    pair[c, r] == s[j, k] and pair[r, c] == s[k, j]
                    for j, c in enumerate(chosen)):
                extend(chosen + [r])
    extend([])
    return found


class TestGZ:
    @pytest.mark.parametrize("label", [f"A{n}" for n in range(3, 9)] +
                             [f"D{n}" for n in range(4, 9)] +
                             ["E6", "E7", "E8"])
    def test_group(self, label):
        # on the class seed and three moved seeds: the order is
        # degrees.gz_order, every element is integral and keeps S, the
        # elements are closed under products and hold +-M, and perms is
        # each element's action on the closed table's roots up to sign
        for seed in moved_seeds(label, 3, random.Random(label)):
            g = gz(seed.rows)
            s = np.array(seed.rows)
            els = g.elements
            assert els.dtype == np.int64 and not els.flags.writeable
            assert len(els) == gz_order(label)
            assert len(g.perms) == len(els) // 2
            for e in els.tolist():
                assert mat_mul_rows(transpose(e), mat_mul_rows(
                    seed.rows, e)) == [list(r) for r in seed.rows]
            keys = set(row_keys(els.reshape(len(els), -1)))
            assert len(keys) == len(els)
            products = np.einsum("aij,bjk->abik", els, els)
            assert set(row_keys(products.reshape(len(els) ** 2, -1))) == keys
            m = np.array(monodromy_from_stokes(seed).rows)
            assert {row_keys(x.reshape(1, -1))[0] for x in (m, -m)} <= keys
            table = roots(symmetrized_form(seed).rows)
            v = table.V
            assert len(v) == root_count(label)
            assert g.perms.dtype == np.uint8 and not g.perms.flags.writeable
            for e, p in zip(els, g.perms):
                assert tuples_of(v[p]) == _canon_vectors(
                    tuple(x) for x in (e @ v.T).T.tolist())

    @pytest.mark.parametrize("label", ["A3", "A4", "A5", "D4", "D5"])
    def test_matches_backtracking(self, label):
        seed = seed_stokes(label).stokes
        got = {tuple(map(tuple, e)) for e in gz(seed.rows).elements.tolist()}
        assert got == set(backtracked_gz(label))

    def test_cached_with_the_table(self):
        # one computation per seed and table; a fresh table recomputes
        seed = seed_stokes("E6").stokes
        form = symmetrized_form(seed).rows
        assert gz(seed.rows) is gz(tuple(map(tuple, seed.rows)))
        assert roots(form).groups[seed.rows] is gz(seed.rows)
        first = gz(seed.rows)
        roots.cache_clear()
        assert gz(seed.rows) is not first
        assert np.array_equal(gz(seed.rows).elements, first.elements)

    def test_definite_forms_only(self):
        # G_Z of an elliptic seed is infinite, and a form of rank above
        # 16 has uint16 indices
        for label in ("tE6", "A17"):
            with pytest.raises(ValueError, match="rank <= 16"):
                gz(seed_stokes(label).stokes.rows)

    @pytest.mark.parametrize("label", ["A4", "D4"])
    def test_orbits_are_stokes_classes(self, label):
        # the paper's fiber structure: G_Z/+-1 acts freely on the bases
        # classes, and each orbit is the set of bases classes with one
        # sign-canonical Stokes matrix, |G_Z|/2 classes each
        seed = seed_stokes(label).stokes
        engine = _engine(seed, "bases")
        level, seen = engine.start, {row_keys(engine.start)[0]: 0}
        classes = [engine.start[0]]
        while len(level):
            cands, new = engine.expand(level), []
            for j, k in enumerate(row_keys(cands)):
                if k not in seen:
                    seen[k] = len(seen)
                    new.append(j)
            level = cands[new]
            classes += list(level)
        perms, v = gz(seed.rows).perms, engine.table.V
        half = gz_order(label) // 2
        stokes = [sign_canonical_stokes(stokes_of_tuple(VanishingTuple(
            tuples_of(v[c]), seed))) for c in classes]
        assert len(classes) == len(seen) == {"A4": 125, "D4": 162}[label]
        for c, st in zip(classes, stokes):
            orbit = row_keys(perms[:, c])
            assert len(set(orbit)) == half
            members = {seen[k] for k in orbit}
            assert members == {j for j, t in enumerate(stokes) if t == st}


def mat_mul_rows(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def tuples_of(a):
    return tuple(map(tuple, a.tolist()))


class TestDiagram:
    def test_chain_is_path(self):
        g = coxeter_dynkin(chain(3))
        assert g.edges == ((0, 1, 1, "plain"), (1, 2, 1, "plain"))

    def test_dotted_edge(self):
        s = StokesMatrix(((1, 1), (0, 1)))
        g = coxeter_dynkin(s)
        assert g.edges == ((0, 1, 1, "dotted"),)

    def test_every_seed_connected(self):
        for label in ALL_LABELS:
            assert is_connected(seed_stokes(label).stokes), label

    def test_block_diagonal_disconnected(self):
        s = StokesMatrix(((1, -1, 0, 0), (0, 1, 0, 0),
                          (0, 0, 1, -1), (0, 0, 0, 1)))
        assert not is_connected(s)

    def test_dot_output(self):
        dot = coxeter_dynkin(seed_stokes("D4").stokes).to_dot()
        assert dot.startswith("graph diagram {")
        assert "style=dotted" in dot   # the tensor seed has one dotted edge
        assert dot.count("--") == 5


class TestQuasiunipotent:
    def test_unipotent(self):
        assert is_quasiunipotent(MonodromyMatrix(((1, 1), (0, 1))))

    def test_eigenvalue_two_rejected(self):
        assert not is_quasiunipotent(MonodromyMatrix(((2, 0), (0, 1))))

    def test_a2_charpoly(self):
        m = monodromy_from_stokes(chain(2))
        assert char_poly(m.rows) == (1, 1, 1)   # y^2 + y + 1
        assert is_quasiunipotent(m)

    def test_all_seed_monodromies(self):
        for label in ALL_LABELS + ("A6", "D6", "D7", "D8"):
            m = monodromy_from_stokes(seed_stokes(label).stokes)
            assert is_quasiunipotent(m), label
            assert sympy_quasiunipotent(m.rows), label

    def test_zero_eigenvalue_rejected(self):
        assert not is_quasiunipotent(((0, 1), (0, 0)))


# Lehmer's polynomial, of the smallest known Mahler measure above 1
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


def companion(p):
    """Integer companion matrix of the monic polynomial with ascending
    coefficients p, whose characteristic polynomial is p."""
    n = len(p) - 1
    return tuple(tuple(-p[i] if j == n - 1 else int(i == j + 1)
                       for j in range(n)) for i in range(n))


def sympy_quasiunipotent(rows):
    """The oracle: sympy factors the characteristic polynomial (char_poly,
    itself checked against sympy in TestIntegerKernels) and finds every
    irreducible factor cyclotomic."""
    sympy = pytest.importorskip("sympy")
    cp = sympy.Poly(char_poly(rows)[::-1], sympy.Symbol("y"))
    return all(f.is_cyclotomic for f, _ in cp.factor_list()[1])


@st.composite
def cyclotomic_products(draw):
    """Ascending coefficients of a product of cyclotomic polynomials
    Phi_d (d <= 30) of degree at most 12; about a third have one
    coefficient below the leading one moved by +-1."""
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    p = sympy.Poly(1, y)
    for d in draw(st.lists(st.integers(1, 30), min_size=1, max_size=4)):
        phi = sympy.Poly(sympy.cyclotomic_poly(d, y), y)
        if p.degree() + phi.degree() <= 12:
            p = p * phi
    cs = [int(c) for c in reversed(p.all_coeffs())]
    if len(cs) > 1 and draw(st.integers(0, 2)) == 0:
        cs[draw(st.integers(0, len(cs) - 2))] += draw(st.sampled_from((-1, 1)))
    return tuple(cs)


class TestQuasiunipotentOracle:
    """is_quasiunipotent against sympy's factorisation, a test-only
    oracle."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_integer_matrices(self, rows):
        rows = tuple(map(tuple, rows))
        assert is_quasiunipotent(rows) == sympy_quasiunipotent(rows)

    @settings(max_examples=30, deadline=None)
    @given(cyclotomic_products())
    def test_companions_of_cyclotomic_products(self, p):
        m = companion(p)
        assert char_poly(m) == p
        assert is_quasiunipotent(m) == sympy_quasiunipotent(m)

    def test_lehmer(self):
        m = companion(LEHMER)
        assert not sympy_quasiunipotent(m)
        assert not is_quasiunipotent(m)


class TestRadicalAndDefiniteness:
    def test_ade_definite_radical_zero(self):
        for label in ("A2", "A5", "D4", "D5", "E6", "E7", "E8"):
            i = symmetrized_form(seed_stokes(label).stokes)
            assert definiteness(i) == "positive-definite", label
            assert radical_rank(i) == 0, label

    def test_elliptic_radical_two(self):
        for label in ("tE6", "tE7", "tE8"):
            i = symmetrized_form(seed_stokes(label).stokes)
            assert definiteness(i) == "positive-semidefinite", label
            assert radical_rank(i) == 2, label

    def test_double_identity(self):
        i = symmetrized_form(StokesMatrix.identity(4))
        assert radical_rank(i) == 0

    @pytest.mark.parametrize("first", ["matrix", "rows"])
    def test_definiteness_once_per_form(self, monkeypatch, first):
        # an IntersectionMatrix and its rows share one cache entry, so a
        # form's characteristic polynomial is computed once, whichever of
        # the two comes first; on a fresh cache, which earlier calls of
        # the process-wide one do not reach
        i, calls = symmetrized_form(seed_stokes("E6").stokes), []

        def counted(rows):
            calls.append(rows)
            return char_poly(rows)

        monkeypatch.setattr(lattice, "char_poly", counted)
        monkeypatch.setattr(lattice, "definiteness", functools.lru_cache(
            maxsize=None)(definiteness.__wrapped__))
        forms = (i, i.rows) if first == "matrix" else (i.rows, i)
        assert [lattice.definiteness(f) for f in forms] == \
            ["positive-definite"] * 2
        assert calls == [i.rows]

    def test_matches_eigenvalues(self):
        # random forms with diagonal 2 and small entries, indefinite ones
        # of positive determinant among them, against the signs of their
        # float eigenvalues; an integer matrix this small has no nonzero
        # eigenvalue within 1e-6 of 0
        rng = random.Random(31)
        kinds = set()
        for _ in range(300):
            n = rng.randint(1, 6)
            upper = {(i, j): rng.choice((-2, -1, -1, 0, 0, 0, 1, 1))
                     for i in range(n) for j in range(i + 1, n)}
            form = tuple(tuple(2 if i == j else upper[min(i, j), max(i, j)]
                               for j in range(n)) for i in range(n))
            ev = np.linalg.eigvalsh(np.array(form, dtype=float))
            want = ("positive-definite" if ev.min() > 1e-6 else
                    "positive-semidefinite" if ev.min() > -1e-6 else
                    "indefinite")
            assert definiteness(form) == want, form
            kinds.add((want, mat_det(form) > 0))
        assert {("indefinite", True), ("positive-definite", True),
                ("positive-semidefinite", False)} <= kinds
        # semidefinite forms B B^t of rank at most r < n: the nullity read
        # off the characteristic polynomial, the index of its lowest
        # nonzero coefficient, is the radical rank of the elimination
        nullities = set()
        for _ in range(300):
            n = rng.randint(2, 7)
            r = rng.randint(1, n - 1)
            b = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
            form = tuple(tuple(sum(map(operator.mul, u, v)) for v in b)
                         for u in b)
            assert definiteness(form) == "positive-semidefinite", form
            nullity = next(k for k, c in enumerate(char_poly(form)) if c)
            assert nullity == radical_rank(form), form
            nullities.add((n, nullity))
        assert {(n, n - 1) for n in range(2, 8)} <= nullities


@st.composite
def small_int_matrices(draw):
    """Square integer matrices up to 12 x 12 with entries in [-5, 5]; about
    half are singular: some rows are zero, copies or negations of earlier
    rows, or the matrix is a product of n x r and r x n sign matrices of
    rank at most r < n."""
    n = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(("generic", "dependent-rows", "low-rank")))
    if kind == "low-rank" and n > 1:
        r = draw(st.integers(0, min(5, n - 1)))
        signs = st.lists(st.integers(-1, 1), min_size=r, max_size=r)
        a = draw(st.lists(signs, min_size=n, max_size=n))
        b = draw(st.lists(signs, min_size=n, max_size=n))
        return tuple(tuple(sum(x * y for x, y in zip(a[i], b[j]))
                           for j in range(n)) for i in range(n))
    entries = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=n, max_size=n))
    if kind == "dependent-rows" and n > 1:
        for i in draw(st.lists(st.integers(1, n - 1), max_size=3)):
            j = draw(st.integers(0, i - 1))
            c = draw(st.sampled_from((0, 1, -1)))
            rows[i] = [c * x for x in rows[j]]
    return tuple(tuple(row) for row in rows)


class TestIntegerKernels:
    """char_poly, mat_det and radical_rank against sympy, a test-only
    oracle, and against closed forms on large labels."""

    @settings(max_examples=150, deadline=None)
    @given(small_int_matrices())
    def test_match_sympy(self, rows):
        sympy = pytest.importorskip("sympy")
        m = sympy.Matrix(rows)
        cp = m.charpoly(sympy.Symbol("y")).all_coeffs()
        assert char_poly(rows) == tuple(int(c) for c in reversed(cp))
        det = mat_det(rows)
        assert type(det) is int and det == m.det()
        assert radical_rank(rows) == len(rows) - m.rank()

    @pytest.mark.parametrize("mu", [28, 40])
    def test_chain_monodromy_is_cyclotomic(self, mu):
        # the A_mu monodromy is a Coxeter element: (y^(mu+1) - 1)/(y - 1)
        m = monodromy_from_stokes(seed_stokes(f"A{mu}").stokes)
        assert char_poly(m.rows) == (1,) * (mu + 1)

    def test_d24_monodromy(self):
        # (y + 1)(y^23 + 1) = 1 + y + y^23 + y^24
        m = monodromy_from_stokes(seed_stokes("D24").stokes)
        assert char_poly(m.rows) == (1, 1) + (0,) * 21 + (1, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.lists(st.integers(-3, 3), max_size=3), min_size=n,
                 max_size=n), min_size=n, max_size=n)))
    def test_polynomial_entries_match_sympy(self, rows):
        # over Z[la]: entries are MultiPolys given by ascending coefficients
        sympy = pytest.importorskip("sympy")
        la, y = sympy.symbols("la y")
        m = [[MultiPoly(("la",), {(k,): Fraction(c) for k, c in enumerate(cs)})
              for cs in row] for row in rows]
        cp = char_poly(m)
        want = sympy.Matrix([[sum(c * la ** k for k, c in enumerate(cs))
                              for cs in row] for row in rows]).charpoly(y)
        for k, c in enumerate(cp):
            c = c if isinstance(c, MultiPoly) else \
                MultiPoly.const(("la",), c)
            got = sum((sympy.Rational(v.numerator, v.denominator) * la ** e
                       for (e,), v in c.with_vars(("la",)).terms.items()),
                      sympy.Integer(0))
            assert sympy.expand(got - want.coeff_monomial(y ** k)) == 0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_seeded_match_sympy(self, n):
        # odd and even n, since the power sums past ceil(n/2) come from
        # entrywise products: generic, nilpotent (L U L^-1, U strictly
        # upper, L unit lower triangular) and singular matrices, and
        # entries beyond int64
        sympy = pytest.importorskip("sympy")
        y = sympy.Symbol("y")
        rng = random.Random(97 + n)

        def rand(bound, band=-n):
            # random entries on and above the band-th diagonal, else 0
            return sympy.Matrix(n, n, lambda i, j: rng.randint(-bound, bound)
                                if j - i >= band else 0)

        low = sympy.eye(n) + rand(3, 1).T
        singular = rand(9)
        singular[n - 1, :] = sum((rng.randint(-2, 2) * singular[i, :]
                                  for i in range(n - 1)), sympy.zeros(1, n))
        for m in (rand(9), rand(2 ** 70), low * rand(5, 1) * low.inv(),
                  singular):
            rows = [[int(x) for x in m.row(i)] for i in range(n)]
            cp = char_poly(rows)
            assert all(type(c) is int for c in cp)
            assert cp == tuple(int(c) for c in
                               reversed(m.charpoly(y).all_coeffs()))
        assert cp[0] == 0
        assert char_poly(rows[:0]) == (1,)

    @pytest.mark.parametrize("n", [5, 6])
    def test_seeded_polynomial_entries_match_sympy(self, n):
        # over Z[a, b], past the one matrix product of n <= 4
        sympy = pytest.importorskip("sympy")
        a, b, y = sympy.symbols("a b y")
        rng = random.Random(101 + n)
        terms = [[{(rng.randint(0, 2), rng.randint(0, 1)):
                   Fraction(rng.randint(-3, 3))
                   for _ in range(rng.randint(0, 2))}
                  for _ in range(n)] for _ in range(n)]
        m = [[MultiPoly(("a", "b"), t) for t in row] for row in terms]
        want = sympy.Matrix([[sum((int(c) * a ** i * b ** j
                                   for (i, j), c in t.items()),
                                  sympy.Integer(0)) for t in row]
                             for row in terms]).charpoly(y)
        for k, c in enumerate(char_poly(m)):
            c = c if isinstance(c, MultiPoly) else \
                MultiPoly.const(("a", "b"), c)
            got = sum((sympy.Rational(v.numerator, v.denominator)
                       * a ** i * b ** j
                       for (i, j), v in c.with_vars(("a", "b")).terms.items()),
                      sympy.Integer(0))
            assert sympy.expand(got - want.coeff_monomial(y ** k)) == 0

    def test_non_integer_entry_rejected(self):
        with pytest.raises(TypeError):
            char_poly([[Fraction(1, 2)]])


def test_elliptic_monodromy_orders():
    # finite orders forced by the weight systems: 3, 4, 6
    for label, order in (("tE6", 3), ("tE7", 4), ("tE8", 6)):
        m = monodromy_from_stokes(seed_stokes(label).stokes)
        assert matrix_order(m.rows) == order, label
