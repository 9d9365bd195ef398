"""The standing-gate runner, tools/gates.py, on the gate ops of seed 1:
every op passes, and each broken result or op count is reported."""

import dataclasses
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from singlat.braid import BraidWord

_SPEC = importlib.util.spec_from_file_location(
    "gates", Path(__file__).resolve().parents[1] / "tools" / "gates.py")
gates = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gates)


@pytest.fixture(scope="module")
def seed1():
    """gate -> [(op, result)] of seed 1."""
    out, ops = {}, gates.gate_ops(seeds=[1])
    ctx = gates.context(ops)
    for gate, _, op in ops:
        out.setdefault(gate, []).append((op, gates.run(ctx, op)))
    return out


def test_every_gate_op_passes(seed1):
    assert list(seed1) == list(gates.GATES)
    for results in seed1.values():
        for op, r in results:
            assert gates.check(op, r), op.kind
            assert gates.render(1, op, r).startswith(f"1 {op.kind} ")


def test_flipped_membership_fails(seed1):
    kinds = {op.kind for op, _ in seed1["ll"]}
    assert {"ll:A2:t2=0", "ll:A4"} <= kinds
    for op, (p, member) in seed1["ll"]:
        assert not gates.check(op, (p, not member)), op.kind


@pytest.mark.parametrize("change", [{"count": 2}, {"saturated": False}])
def test_broken_fiber_fails(seed1, change):
    for op, fc in seed1["fiber"]:
        assert not gates.check(op, dataclasses.replace(fc, **change)), op.kind


def test_dropped_walk_letter_fails(seed1):
    walks = [(op, (word, stats)) for op, (word, stats) in seed1["walk"]
             if word.letters]
    assert walks
    for op, (word, stats) in walks:
        for k in range(len(word.letters)):
            short = BraidWord(word.letters[:k] + word.letters[k + 1:])
            assert not gates.check(op, (short, stats)), (op.kind, k)


def test_wrong_jacobi_dimension_fails(seed1):
    for op, dim in seed1["jac-at"]:
        assert not gates.check(op, dim - 1), op.kind


def test_wrong_orbit_count_fails(seed1):
    # a full orbit must count its classes, untruncated; a budgeted one
    # must stop within one expansion of its budget
    for gate in ("stokes", "bases"):
        for op, rep in seed1[gate]:
            fields = gates.render(1, op, rep).split(" ")
            assert fields[2:5] == [str(rep.class_count), str(rep.truncated),
                                   str(rep.states_visited)]
            assert fields[5] == f"({','.join(map(str, rep.levels))})"
            off = rep.class_count + (-1 if rep.truncated else 1)
            assert not gates.check(op, dataclasses.replace(
                rep, class_count=off, truncated=not rep.truncated)), op.kind


def test_op_counts():
    counts = Counter({g: n for g, (_, n) in gates.GATES.items()})
    assert gates.miscounted(counts) == []
    for gate in gates.GATES:
        for step in (1, -1):
            off = counts.copy()
            off[gate] += step
            assert gates.miscounted(off) == [
                f"{gate}: {off[gate]} ops, not {counts[gate]}"]
    assert gates.miscounted(Counter()) != []
