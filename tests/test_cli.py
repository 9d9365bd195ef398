import json
import math
import os
import pickle
import warnings

import numpy as np
import pytest

from singlat import verify
from singlat.cli import main
from singlat.singdata import seed_stokes, sing_class


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def write_seed(seed_dir, label, rows):
    mu = len(rows)
    doc = {"class": label, "mu": mu, "source": "test",
           "upper": [list(rows[i][i + 1:]) for i in range(mu - 1)]}
    (seed_dir / f"{label.lower()}.json").write_text(json.dumps(doc))


class TestDegreeCommand:
    def test_e6(self, capsys):
        code, doc = run(capsys, "degree", "E6")
        assert code == 0
        assert doc["deg_ll"] == 41472
        assert doc["factorization"] == {"2": 9, "3": 4}

    def test_te6_includes_segre(self, capsys):
        code, doc = run(capsys, "degree", "tE6")
        assert code == 0
        assert doc["deg_ll"] == 24800580
        assert doc["deg_ll_segre"] == 24800580

    def test_unknown_class_is_usage_error(self, capsys):
        code = main(["degree", "Q9"])
        assert code == 2


class TestOrbitCommand:
    def test_a3_stokes(self, capsys):
        code, doc = run(capsys, "orbit", "A3", "--mode", "stokes")
        assert code == 0
        assert doc["count"] == 4 and doc["truncated"] is False

    def test_budget_truncation_exit_code(self, capsys):
        code, doc = run(capsys, "orbit", "A5", "--budget-states", "100")
        assert code == 3
        assert doc["truncated"] is True

    def test_elliptic_bases_defaults_to_budget(self, capsys):
        code, doc = run(capsys, "orbit", "tE6", "--mode", "bases",
                        "--budget-states", "2000")
        assert code == 3 and doc["truncated"] is True

    def test_budget_is_exact(self, capsys):
        code, doc = run(capsys, "orbit", "D12", "--mode", "stokes",
                        "--budget-states", "500")
        assert code == 3 and doc["truncated"] is True
        assert doc["count"] == 500 == sum(doc["levels"])

    @pytest.mark.parametrize("flag", ["--budget-states"])
    @pytest.mark.parametrize("value", ["0", "-5", "x"])
    def test_bad_budget_is_usage_error(self, capsys, flag, value):
        assert main(["orbit", "A3", flag, value]) == 2
        assert capsys.readouterr().out == ""

    def test_levels_in_output(self, capsys):
        code, doc = run(capsys, "orbit", "A4", "--mode", "stokes")
        assert code == 0 and doc["levels"] == [1, 6, 13, 5]

    @pytest.mark.parametrize("content", [b"garbage", b"\x80\x04\x95junk"])
    def test_corrupt_checkpoint_fails(self, capsys, tmp_path, content):
        ck = tmp_path / "orbit.ck"
        ck.write_bytes(content)
        code = main(["orbit", "A3", "--checkpoint", str(ck)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:")

    def test_format_2_checkpoint_fails(self, capsys, tmp_path):
        # a checkpoint of the full-matrix Stokes engine, keyed by mu^2 bytes
        seed = seed_stokes("A3").stokes
        ck = tmp_path / "orbit.ck"
        ck.write_bytes(pickle.dumps({
            "format": 2, "mode": "stokes", "seed": seed.rows,
            "visited": {bytes(9)}, "frontier": np.eye(3, dtype=np.int8)[None],
            "next": [], "levels": [1], "expanded": 0}))
        code = main(["orbit", "A3", "--mode", "stokes", "--checkpoint",
                     str(ck)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "not in checkpoint format 3" in captured.err

    def test_resume_over_budget_exits_truncated(self, capsys, tmp_path):
        ck = str(tmp_path / "orbit.ck")
        code, doc = run(capsys, "orbit", "D5", "--checkpoint", ck,
                        "--budget-states", "30")
        assert code == 3 and doc["count"] == 30
        code, doc = run(capsys, "orbit", "D5", "--checkpoint", ck,
                        "--budget-states", "10")
        assert code == 3 and doc["truncated"] is True
        assert doc["count"] == 30

    def test_unwritable_checkpoint_fails(self, capsys, tmp_path):
        ck = tmp_path / "missing" / "orbit.ck"
        code = main(["orbit", "A5", "--checkpoint", str(ck),
                     "--budget-states", "10"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:")

    def test_d9_is_seeded(self, capsys):
        code, doc = run(capsys, "orbit", "D9", "--mode", "stokes",
                        "--budget-states", "1000")
        assert code == 3 and doc["truncated"] is True

    def test_seed_file_matches_builtin(self, capsys, tmp_path):
        write_seed(tmp_path, "D5", seed_stokes("D5").stokes.rows)
        env = dict(os.environ)
        code, doc = run(capsys, "orbit", "D5", "--mode", "stokes",
                        "--seed-file", str(tmp_path))
        _, builtin = run(capsys, "orbit", "D5", "--mode", "stokes")
        assert code == 0 and doc["count"] == builtin["count"] == 256
        # the directory applies to that call only
        assert dict(os.environ) == env
        assert seed_stokes("E7").provenance == "builtin"

    @pytest.mark.parametrize("label", ["A3", "E7"])
    @pytest.mark.parametrize("content", [None, "{not json", "untyped",
                                         "disconnected", "non-integer"])
    def test_bad_seed_file_fails(self, capsys, tmp_path, label, content):
        mu = sing_class(label).mu
        path = tmp_path / f"{label.lower()}.json"
        if content == "disconnected":
            write_seed(tmp_path, label, [[int(i == j) for j in range(mu)]
                                         for i in range(mu)])
        elif content == "non-integer":
            # int() would truncate this to the chain: 3.6 -> 3, -1.7 -> -1
            upper = [[-1.7 if j == i + 1 else 0.4 for j in range(i + 1, mu)]
                     for i in range(mu - 1)]
            path.write_text(json.dumps({"class": label, "mu": mu + 0.6,
                                        "upper": upper, "source": "test"}))
        elif content == "untyped":
            path.write_text(json.dumps({"class": label, "mu": mu,
                                        "upper": None, "source": "test"}))
        elif content is not None:
            path.write_text(content)
        code = main(["orbit", label, "--mode", "stokes",
                     "--seed-file", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:")


class TestCountsAndChecks:
    def test_counts_e7(self, capsys):
        code, doc = run(capsys, "counts", "E7")
        assert code == 0
        assert doc["stokes_classes"] == 118098

    def test_stokes_count(self, capsys):
        code, doc = run(capsys, "stokes-count", "tE8")
        assert code == 0 and doc["stokes_classes"] == 593744256

    def test_verify_symmetry_d4(self, capsys):
        code, doc = run(capsys, "verify-symmetry", "D4")
        assert code == 0 and doc["all_passed"]

    def test_verify_symmetry_builds_data_once(self, capsys, monkeypatch):
        # both identities of both symmetries from one symmetry_data(tE7)
        calls = []
        real = verify.symmetry_data
        monkeypatch.setattr(verify, "symmetry_data",
                            lambda cls: calls.append(cls) or real(cls))
        code, doc = run(capsys, "verify-symmetry", "tE7")
        assert code == 0 and doc["all_passed"] and len(calls) == 1
        assert [c["name"] for c in doc["checks"]] == [
            "tE7:psi2:la-projection", "tE7:psi2", "tE7:psi3:la-projection",
            "tE7:psi3"]

    def test_verify_kappa(self, capsys):
        code, doc = run(capsys, "verify-kappa", "tE7")
        assert code == 0 and doc["all_passed"]

    def test_verify_kappa_usage(self, capsys):
        assert main(["verify-kappa", "E6"]) == 2

    def test_jacobi_dim(self, capsys):
        code, doc = run(capsys, "jacobi-dim", "tE6", "--at", "2/5")
        assert code == 0 and doc["jacobi_dimension"] == 8


class TestLLCommands:
    def test_ll_eval(self, capsys):
        code, doc = run(capsys, "ll-eval", "A2", '["1/3", "7/5"]')
        assert code == 0
        assert doc["coeffs"] == ["1747/3375", "-2/3", "1"]
        assert doc["in_discriminant"] is False

    def test_ll_fiber_a2(self, capsys):
        # generic target from an exact evaluation: 3 preimages
        assert main(["ll-fiber", "A2", '[[0.518, 0.0], [-0.666, 0.0]]',
                     "--budget", "150"]) == 0
        out = capsys.readouterr().out
        # a numpy bool would print through str() as "True"
        assert '"saturated":true' in out
        doc = json.loads(out)
        assert doc["count"] == 3 and doc["saturated"] is True

    def test_wall_walk(self, capsys):
        path = json.dumps([[0.5, [-1.0, 0.0]]])
        code, doc = run(capsys, "wall-walk", "2", path, "--steps", "20")
        assert code == 0 and doc["word"] == []

    def test_wall_walk_reports_sampling(self, capsys):
        # one JSON line on stderr: the samples evaluated, the intervals
        # bisected and the smallest separation of critical values seen;
        # stdout holds the word alone
        angles = [k * math.pi / 4 for k in range(9)]
        loop = [[[0.3, 0], [math.cos(a), math.sin(a)]] for a in angles]
        assert main(["wall-walk", "2", json.dumps(loop)]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out) == {"mu": 2, "word": [1, 1, 1]}
        stats = json.loads(err)
        assert sorted(stats) == ["bisected", "min_separation", "samples"]
        assert stats["samples"] >= 8 * 64 + 1
        assert stats["samples"] == 8 * 64 + 1 + stats["bisected"]
        assert 0 < stats["min_separation"] < 1
        assert main(["wall-walk", "1", "[[0.5], [[0, 1]]]"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(err)["min_separation"] is None

    def test_diagram(self, capsys):
        code = main(["diagram", "A3"])
        out = capsys.readouterr().out
        assert code == 0 and out.startswith("graph diagram {")


@pytest.mark.parametrize("argv", [("degree", "E6", "--json"),
                                  ("orbit", "A3", "--json"),
                                  ("scorecard", "--quick"),
                                  ("orbit", "A3", "--budget-mem", "1000")])
def test_removed_flags_are_usage_errors(capsys, argv):
    assert main(list(argv)) == 2


@pytest.mark.parametrize("command,kept", [("wall-walk", "--steps"),
                                          ("ll-fiber", "--budget")])
def test_help_lists_no_tolerance(capsys, command, kept):
    # the walk's bands and the fiber's cluster radius are llmap constants
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert kept in out and "--tol" not in out


def test_output_is_byte_deterministic(capsys):
    main(["degree", "E8"])
    first = capsys.readouterr().out
    main(["degree", "E8"])
    second = capsys.readouterr().out
    assert first == second


# class -> (deg LL, Stokes classes), the paper's values written out here
# independently of the CLI's table
SCORECARD = {
    "A2": (3, 1), "A3": (16, 4), "A4": (125, 25), "A5": (1296, 216),
    "D4": (162, 9), "D5": (2048, 256), "E6": (41472, 3456),
    "E7": (1062882, 118098), "E8": (37968750, 2531250),
    "tE6": (24800580, 76545), "tE7": (688128000, 7168000),
    "tE8": (21374793216, 593744256),
}
ORBIT_RUN = {"E7": "extended", "E8": "extended", "tE6": "extended",
             "tE7": "extended", "tE8": None}


def test_scorecard_small(capsys, monkeypatch):
    # restrict the orbit section to A2 and A3 so the smoke test stays fast;
    # every degree and stokes-count entry still runs against the real
    # table.  The desk-scale orbit runs are the acceptance suite's job.
    import singlat.cli as cli
    monkeypatch.setattr(cli, "SCORECARD_TABLE", {
        label: (deg, stokes, "desk" if label in ("A2", "A3") else None)
        for label, (deg, stokes, _) in cli.SCORECARD_TABLE.items()})
    code, doc = run(capsys, "scorecard")
    assert code == 0 and doc["passed"]
    assert all(e["passed"] for e in doc["entries"])
    labels = list(SCORECARD)
    assert [e["name"] for e in doc["entries"]][:28] == (
        ["orbit:A2:bases", "orbit:A2:stokes", "orbit:A3:bases",
         "orbit:A3:stokes"]
        + [f"degree:{label}" for label in labels]
        + [f"stokes-count:{label}" for label in labels])
    got = {e["name"]: e.get("got") for e in doc["entries"]}
    for label, (deg, stokes) in SCORECARD.items():
        assert got[f"degree:{label}"] == deg
        assert got[f"stokes-count:{label}"] == stokes
    segre = {e["name"]: e.get("segre") for e in doc["entries"]}
    assert segre["degree:tE8"] == 21374793216 and segre["degree:A2"] is None


def test_scorecard_table_matches_literal():
    import singlat.cli as cli
    from singlat.singdata import ALL_LABELS
    assert tuple(cli.SCORECARD_TABLE) == ALL_LABELS
    assert cli.SCORECARD_TABLE == {
        label: (deg, stokes, ORBIT_RUN.get(label, "desk"))
        for label, (deg, stokes) in SCORECARD.items()}


def test_scorecard_extended_orbit_jobs(monkeypatch):
    # the extended run adds the extended classes' orbits, Stokes only for
    # an elliptic class, and never one marked out of reach
    import singlat.cli as cli
    monkeypatch.setattr(cli, "SCORECARD_TABLE", {
        "A2": (3, 1, "desk"), "A3": (16, 4, "extended"),
        "tE6": (24800580, 76545, "extended"),
        "tE8": (21374793216, 593744256, None)})
    assert cli._orbit_jobs(False) == [("A2", "bases", 3), ("A2", "stokes", 1)]
    assert cli._orbit_jobs(True) == [
        ("A2", "bases", 3), ("A2", "stokes", 1), ("A3", "bases", 16),
        ("A3", "stokes", 4), ("tE6", "stokes", 76545)]


WALK = json.dumps([[0.5, [-1.0, 0.0]], [-0.5, [1.0, 0.1]]])
FIBER = json.dumps([[0.518, 0.0], [-0.666, 0.0]])


@pytest.mark.parametrize("argv", [
    ("jacobi-dim", "tE6", "--at", "1/0"),
    ("jacobi-dim", "tE6", "--at", "abc"),
    ("ll-eval", "A3", '["1/3", "7/5"]'),
    ("ll-eval", "A2", "not json"),
    ("wall-walk", "2", '[[0.5, [-1.0, 0.0]], [0.5]]'),
    ("jacobi-dim", "tE6", "--at", "0"),
    ("jacobi-dim", "tE7", "--at", "1"),
    ("wall-walk", "2", WALK, "--steps", "0"),
    ("wall-walk", "2", WALK, "--steps", "-3"),
    ("wall-walk", "0", "[[], []]"),
    ("ll-fiber", "A2", FIBER, "--budget", "0"),
    # the bands and the cluster radius are llmap constants, not options
    ("wall-walk", "2", WALK, "--tol-wall", "0.3"),
    ("ll-fiber", "A2", FIBER, "--tol-cluster", "1e-6"),
    ("jacobi-dim", "A3", "--at", "0"),
    ("jacobi-dim", "E8", "--at", "2/5"),
    ("ll-eval", "A2", "[Infinity,1]"),
    ("ll-eval", "A2", "[NaN,1]"),
    ("ll-fiber", "A2", "[NaN,[1,0]]"),
    ("ll-fiber", "A2", "[[0.5,-Infinity],[1,0]]"),
    ("wall-walk", "2", "[[NaN,0],[1,1]]"),
    ("wall-walk", "2", "[[1e308,1],[-1e308,1]]", "--steps", "10"),
    ("wall-walk", "2", "[[0.5,1e308],[0.5,-1e308]]", "--steps", "10"),
    ("wall-walk", "2", "[[1" + "0" * 400 + ",1],[0,1]]"),
    ("ll-fiber", "A2", '["1e400",1]'),
    ("counts", "A1"),
    ("stokes-count", "A1"),
    ("ll-eval", "A2", "[true,1]"),
    ("ll-fiber", "A2", "[[0.5,0],false]"),
    ("wall-walk", "2", "[[0.5,[true,0]],[1,1]]"),
    ("ll-fiber", "A5", '[0.1,0.2,0.3,0.4,0.5]'),
    ("ll-fiber", "D4", '[0.1,0.2,0.3,0.4]'),
    ("ll-fiber", "A2", "[[],[1,0]]"),
    ("ll-fiber", "A2", "[[3],[1,0]]"),
    ("wall-walk", "2", '[[["1+2j"],1],[1,1]]'),
    ("verify-symmetry", "D4", "--which", "psi3"),
    ("verify-symmetry", "A3"),
    ("ll-eval", "A2", '"12"'),
    ("ll-eval", "A2", '{"1":0,"2":0}'),
    ("ll-fiber", "A2", '{"0.5":0,"1":0}'),
    ("wall-walk", "2", '[{"1":0,"2":0},[3,4]]'),
    ("counts", "E 6"),
    ("counts", "E06"),
    ("counts", ""),
    ("orbit", "E 6", "--mode", "stokes"),
    ("jacobi-dim", "E 7"),
    ("counts", "A+3"),
    ("counts", "D 4"),
    ("counts", "A٣"),
], ids=["at-zero-denominator", "at-not-rational", "ll-eval-length",
        "ll-eval-not-json", "wall-walk-waypoint-length", "at-zero",
        "at-one", "steps-zero", "steps-negative", "walk-mu-zero",
        "budget-zero", "tol-wall-not-an-option",
        "tol-cluster-not-an-option", "at-simple-class",
        "at-simple-class-nonzero", "ll-eval-infinity", "ll-eval-nan",
        "ll-fiber-nan", "ll-fiber-infinite-imaginary-part", "wall-walk-nan",
        "wall-walk-segment-overflow-t1", "wall-walk-segment-overflow-t2",
        "wall-walk-int-beyond-float", "ll-fiber-rational-beyond-float",
        "counts-below-table", "stokes-count-below-table", "ll-eval-boolean",
        "ll-fiber-boolean", "wall-walk-boolean-in-pair", "ll-fiber-A5",
        "ll-fiber-D4", "ll-fiber-empty-pair", "ll-fiber-one-number-pair",
        "wall-walk-one-string-pair", "which-on-D-class",
        "verify-symmetry-A3", "ll-eval-string", "ll-eval-object",
        "ll-fiber-object", "wall-walk-object-waypoint", "counts-inner-space",
        "counts-leading-zero", "counts-empty-label", "orbit-inner-space",
        "jacobi-dim-inner-space", "counts-sign", "counts-D-inner-space",
        "counts-non-ascii-digit"])
def test_bad_input_is_usage_error(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("path", [
    "[[0,0,1e308],[0,0,1e307]]",       # a derivative coefficient overflows
    "[[0.5,1e308],[0.5,1e307]]",       # the critical values overflow
], ids=["mu3-coefficient", "mu2-values"])
def test_walk_overflow_is_one_error_line(capsys, path):
    # finite waypoints with a finite difference, so not a usage error: the
    # walk fails (exit 1) with singlat's own message and no numpy warning
    mu = str(len(json.loads(path)[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["wall-walk", mu, path, "--steps", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "overflow" in lines[0] and "NaN" not in lines[0]


def test_fiber_overflow_is_one_warning_line(capsys):
    # a finite target whose Newton iterates overflow: every start is
    # dropped (exit 3, count 0) without a numpy warning on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ll-fiber", "A2", "[1e308, 1e308]"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["count"] == 0
    assert captured.err == "warning: count did not saturate; partial result\n"


@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_bad_jobs_rejected_at_parse(value):
    # parsing only: no scorecard and no worker process is started
    from singlat.cli import build_parser
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["scorecard", "--jobs", value])
    assert exc.value.code == 2
