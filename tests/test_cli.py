import hashlib
import json
import math
import os
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from singlat import braid, cli, lattice, llmap, verify
from singlat.cli import main
from singlat.lattice import roots, symmetrized_form
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


# A format-4 checkpoint as format 4 wrote it: the A2 bases run stopped at 1
# class.  A magic line without a format number, the SHA-256 of the
# manifest alone, the manifest with the format and a SHA-256 per array,
# then one .npy file per array (the frontier and visited2, both the start
# tuple (0, 1) of root indices).
FORMAT_4_NPY = (b"\x93NUMPY\x01\x00v\x00{'descr': '|u1', 'fortran_order': "
                b"False, 'shape': (1, 2), }" + b" " * 58 + b"\n\x00\x01")
FORMAT_4_NPY_SHA256 = ("c3abf0e293d30ffd3a6fbed42cf56d5e"
                       "d821fad57f6df732d7416b5aa9af1ec2")
FORMAT_4_MANIFEST = (
    b'{"arrays": [{"dtype": "|u1", "name": "frontier", "sha256": "%s", '
    b'"shape": [1, 2], "size": 130}, {"dtype": "|u1", "name": "visited2", '
    b'"sha256": "%s", "shape": [1, 2], "size": 130}], "expanded": 0, '
    b'"format": 4, "levels": [1], "mode": "bases", '
    b'"seed": [[1, -1], [0, 1]]}') % ((FORMAT_4_NPY_SHA256.encode(),) * 2)
FORMAT_4_FILE = (b"singlat checkpoint\n"
                 b"1b0eeb2192c860d18ab86adee5947ade"
                 b"3e72bb755a42a9a3b43d1745e2a0d1db\n" +
                 FORMAT_4_MANIFEST + b"\n" + FORMAT_4_NPY * 2)

# A format-8 checkpoint as format 8 wrote it: the A2 bases run stopped at 1
# class, its window (0, 1) and the table's 3 roots as int64 rows, under a
# manifest that holds the seed rows as JSON.
FORMAT_8_REST = (
    b'{"arrays": [{"dtype": "|u1", "name": "window", "shape": [1, 2], '
    b'"size": 2}, {"dtype": "<i8", "name": "roots", "shape": [3, 2], '
    b'"size": 48}], "expanded": 0, "levels": [1], "mode": "bases", '
    b'"seed": [[1, -1], [0, 1]]}\n\x00\x01' +
    np.array([[1, 0], [0, 1], [1, 1]], "<i8").tobytes())
FORMAT_8_DIGEST = (b"eab2962aaba14fc6432ac74b90b3ef68"
                   b"1a39a8af5dfd707e7f929c5f9364f2d0")


def error_lines(capsys, *argv):
    """The exit code and stderr lines of a run that prints nothing."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err.splitlines()


class TestOrbitCommand:
    def test_a3_stokes(self, capsys):
        code, doc = run(capsys, "orbit", "A3", "--mode", "stokes")
        assert code == 0
        assert doc["count"] == 4 and doc["truncated"] is False

    def test_summary_reports_peak_rss(self, capsys):
        # stdout is the JSON report alone; the stderr summary line ends
        # with the process's peak RSS, and a truncated run says so after it
        assert main(["orbit", "A3", "--mode", "stokes"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["count"] == 4
        assert re.fullmatch(r"A3 stokes: 4 classes \(4 expanded, \d+\.\ds, "
                            r"peak RSS [1-9]\d* MB\)\n", captured.err)
        assert main(["orbit", "A5", "--budget-states", "100"]) == 3
        assert re.fullmatch(r"A5 bases: 100 classes \(32 expanded, \d+\.\ds, "
                            r"peak RSS [1-9]\d* MB, truncated\)\n",
                            capsys.readouterr().err)

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
        code, lines = error_lines(capsys, "orbit", "A3", "--mode", "stokes",
                                  "--checkpoint", str(ck))
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("error:")
        assert "not in checkpoint format 9" in lines[0]

    def test_packed_stokes_checkpoint_fails(self, capsys, tmp_path,
                                            monkeypatch):
        # a D5 Stokes file of the packed engine, as written before D5 ran
        # on codes: int8 (B, 10) packed states and 10-byte keys.  It does
        # not fit a code run, and is refused rather than resumed under
        # other keys.
        self.refused_as_packed(capsys, tmp_path, monkeypatch, "D5", 10)

    def test_packed_e6_stokes_checkpoint_fails(self, capsys, tmp_path,
                                               monkeypatch):
        # likewise an E6 Stokes file of the packed engine, as written
        # before E6 ran on root indices: the run refuses its window
        self.refused_as_packed(capsys, tmp_path, monkeypatch, "E6", 15)

    @staticmethod
    def refused_as_packed(capsys, tmp_path, monkeypatch, label, m):
        """A budgeted Stokes run of the packed engine, forced by reading
        every form as indefinite, writes a file of packed states that a
        run of the engine the class runs on refuses with one error:
        line."""
        ck = tmp_path / "orbit.ck"
        with monkeypatch.context() as patch:
            patch.setattr(braid, "definiteness", lambda rows: "indefinite")
            code, _ = run(capsys, "orbit", label, "--mode", "stokes",
                          "--checkpoint", str(ck), "--budget-states", "90")
        assert code == 3
        arrays = json.loads(ck.read_bytes().split(b"\n")[2])["arrays"]
        assert len(arrays) == 1 and arrays[0]["name"] == "window"
        assert arrays[0]["dtype"] == "|i1" and arrays[0]["shape"][1] == m
        code = main(["orbit", label, "--mode", "stokes", "--checkpoint",
                     str(ck)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "corrupt" in lines[0]

    def test_format_4_checkpoint_fails(self, capsys, tmp_path):
        # real format-4 bytes: each hash holds, so the file is refused by
        # its magic line as another format, not as a corrupt file
        digest = FORMAT_4_FILE.split(b"\n")[1].decode()
        assert hashlib.sha256(FORMAT_4_MANIFEST).hexdigest() == digest
        assert hashlib.sha256(FORMAT_4_NPY).hexdigest() == \
            FORMAT_4_NPY_SHA256
        assert len(FORMAT_4_NPY) == 130
        ck = tmp_path / "orbit.ck"
        ck.write_bytes(FORMAT_4_FILE)
        code, lines = error_lines(capsys, "orbit", "A2", "--mode", "bases",
                                  "--checkpoint", str(ck))
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("error:")
        assert "not in checkpoint format 9" in lines[0]
        assert "corrupt" not in lines[0]

    @pytest.mark.parametrize("crafted", ["levels", "basis", "repeat",
                                         "short", "expanded"])
    def test_inconsistent_checkpoint_fails(self, capsys, tmp_path, crafted):
        # hash-valid A4 bases files that no run writes: levels [2], not
        # starting at the seed's level of 1; the root-index tuple (0, 1, 2,
        # 2) (a format-6 file of it once resumed to 81 classes of the 125);
        # the start saved twice; levels [1, 2] whose window lacks a class;
        # and 2 states expanded of levels [1]
        seed = seed_stokes("A4").stokes
        start = np.arange(4, dtype=np.uint8)[None]
        window, levels, expanded = {
            "levels": (start, [2], 0),
            "basis": (np.array([[0, 1, 2, 2]], np.uint8), [1], 0),
            "repeat": (np.vstack([start, start]), [1], 0),
            "short": (np.vstack([start, start[:, ::-1]]), [1, 2], 1),
            "expanded": (start, [1], 2)}[crafted]
        ck = str(tmp_path / "orbit.ck")
        braid._save_checkpoint(ck, {
            "mode": "bases", "seed": seed.rows, "window": window,
            "roots": np.eye(4, dtype=np.int64), "levels": levels,
            "expanded": expanded})
        code, lines = error_lines(capsys, "orbit", "A4", "--mode", "bases",
                                  "--checkpoint", ck)
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("error:") and "corrupt" in lines[0]

    def test_format_5_checkpoint_fails(self, capsys, tmp_path):
        # a format-5 file as format 5 wrote it, the A2 bases run stopped at
        # 1 class: root indices without the roots they refer to.  Its hash
        # holds, so it is refused by its magic line, as another format
        rest = (b'{"arrays": [{"dtype": "|u1", "name": "pending", "shape": '
                b'[1, 2], "size": 2}, {"dtype": "|u1", "name": "visited2", '
                b'"shape": [1, 2], "size": 2}], "expanded": 0, "levels": '
                b'[1], "mode": "bases", "seed": [[1, -1], [0, 1]]}\n'
                b'\x00\x01\x00\x01')
        ck = tmp_path / "orbit.ck"
        ck.write_bytes(b"singlat checkpoint 5\n" +
                       hashlib.sha256(rest).hexdigest().encode() + b"\n" +
                       rest)
        code, lines = error_lines(capsys, "orbit", "A2", "--mode", "bases",
                                  "--checkpoint", str(ck))
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("error:")
        assert "not in checkpoint format 9" in lines[0]
        assert "corrupt" not in lines[0]

    def test_format_6_checkpoint_fails(self, capsys, tmp_path):
        # a format-6 file as format 6 wrote it, the A2 bases run stopped at
        # 1 class: pending classes, roots and every visited key.  Its hash
        # holds, so it is refused by its magic line, as another format
        rest = (b'{"arrays": [{"dtype": "|u1", "name": "pending", "shape": '
                b'[1, 2], "size": 2}, {"dtype": "<i8", "name": "roots", '
                b'"shape": [3, 2], "size": 48}, {"dtype": "|u1", "name": '
                b'"visited2", "shape": [1, 2], "size": 2}], "expanded": 0, '
                b'"levels": [1], "mode": "bases", "seed": [[1, -1], [0, 1]]}'
                b'\n\x00\x01' + np.array([[1, 0], [0, 1], [1, 1]],
                                          "<i8").tobytes() + b'\x00\x01')
        digest = b"904003c7e026b00662a2a1507bc26e67" \
                 b"6401fe4720e33153df20b17761f30bd7"
        assert hashlib.sha256(rest).hexdigest().encode() == digest
        ck = tmp_path / "orbit.ck"
        ck.write_bytes(b"singlat checkpoint 6\n" + digest + b"\n" + rest)
        code, lines = error_lines(capsys, "orbit", "A2", "--mode", "bases",
                                  "--checkpoint", str(ck))
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("error:")
        assert "not in checkpoint format 9" in lines[0]
        assert "corrupt" not in lines[0]

    def test_format_7_checkpoint_fails(self, capsys, tmp_path):
        # a format-7 file as format 7 wrote it, the A2 bases run stopped at
        # 1 class: the start's window and the basis roots, the same layout
        # as format 8 but for wide entries as JSON.  Its hash holds, so it
        # is refused by its magic line, as another format
        rest = (b'{"arrays": [{"dtype": "|u1", "name": "window", "shape": '
                b'[1, 2], "size": 2}, {"dtype": "<i8", "name": "roots", '
                b'"shape": [2, 2], "size": 32}], "expanded": 0, "levels": '
                b'[1], "mode": "bases", "seed": [[1, -1], [0, 1]]}\n'
                b'\x00\x01' + np.eye(2, dtype="<i8").tobytes())
        ck = tmp_path / "orbit.ck"
        ck.write_bytes(b"singlat checkpoint 7\n" +
                       hashlib.sha256(rest).hexdigest().encode() + b"\n" +
                       rest)
        code, lines = error_lines(capsys, "orbit", "A2", "--mode", "bases",
                                  "--checkpoint", str(ck))
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("error:")
        assert "not in checkpoint format 9" in lines[0]
        assert "corrupt" not in lines[0]
        # the same bytes with the seed in hex under the format-9 magic line
        # resume
        rest = rest.replace(b'[[1, -1], [0, 1]]', b'"1,-1,0,1"')
        ck.write_bytes(b"singlat checkpoint 9\n" +
                       hashlib.sha256(rest).hexdigest().encode() + b"\n" +
                       rest)
        code, doc = run(capsys, "orbit", "A2", "--mode", "bases",
                        "--checkpoint", str(ck))
        assert code == 0 and doc["count"] == 3

    def test_format_8_checkpoint_fails(self, capsys, tmp_path):
        # a format-8 file as format 8 wrote it, the A2 bases run stopped at
        # 1 class: the seed rows as JSON in the manifest, which json.dumps
        # refuses for an entry of 4300 digits.  Its hash holds, so it is
        # refused by its magic line, with one error line
        ck = tmp_path / "orbit.ck"
        ck.write_bytes(b"singlat checkpoint 8\n" + FORMAT_8_DIGEST + b"\n" +
                       FORMAT_8_REST)
        assert hashlib.sha256(FORMAT_8_REST).hexdigest().encode() == \
            FORMAT_8_DIGEST
        code, lines = error_lines(capsys, "orbit", "A2", "--mode", "bases",
                                  "--checkpoint", str(ck))
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("error:")
        assert "not in checkpoint format 9" in lines[0]
        assert "corrupt" not in lines[0]

    @pytest.mark.parametrize("crafted", ["norm", "sign", "index", "repeat",
                                         "many", "int64-min"])
    def test_crafted_roots_fail(self, capsys, tmp_path, crafted):
        # hash-valid A4 bases files holding the start (0, 1, 2, 3) whose
        # saved roots no run writes: e_0 + e_2 of I(v, v) = 4 in place of
        # e_3, -e_3 (not sign canonical), only three roots (so index 3 is
        # past them), the basis with e_0 once more, or the basis and e_0
        # 200000 times more, an 800 kB file that once asked for a
        # 200004^2 pairing matrix, or the basis and e_0 - 2^63 e_2, whose
        # pairings wrap to those of a root in int64 (np.abs(-2^63) is
        # negative, so a bound read from it chose int64 and let it in).
        # Each is refused in little memory, and before any saved root
        # enters the process's table
        seed = seed_stokes("A4").stokes
        saved = np.eye(4, dtype=np.int8)
        if crafted == "int64-min":
            saved = np.vstack([saved.astype(np.int64), [[1, 0, -2**63, 0]]])
        elif crafted == "norm":
            saved[3] = (1, 0, 1, 0)
        elif crafted == "sign":
            saved[3] = (0, 0, 0, -1)
        elif crafted == "index":
            saved = saved[:3]
        else:
            saved = np.vstack([saved] + [saved[:1]] *
                              (200000 if crafted == "many" else 1))
        ck = str(tmp_path / "orbit.ck")
        braid._save_checkpoint(ck, {
            "mode": "bases", "seed": seed.rows, "roots": saved,
            "window": np.arange(4, dtype=np.uint8)[None], "levels": [1],
            "expanded": 0})
        table = roots(symmetrized_form(seed).rows)
        size = table.size
        tracemalloc.start()
        try:
            code, lines = error_lines(capsys, "orbit", "A4", "--mode",
                                      "bases", "--checkpoint", ck)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("error:") and "corrupt" in lines[0]
        assert {"repeat": "repeat", "index": "past",
                "many": "more than 255 saved roots"}.get(
                    crafted, "not sign-canonical roots") in lines[0]
        assert peak < 16 * 2 ** 20 and table.size == size

    def test_root_overflow_fails(self, capsys, monkeypatch):
        # a run that would intern more roots than its table holds ends
        # with one error: line, not a traceback: tE6 at 5000 classes needs
        # 60 roots, here past a limit of 40 in a table made afresh
        monkeypatch.setattr(lattice, "_MAX_ROOTS", 40)
        lattice.roots.cache_clear()
        try:
            code, lines = error_lines(capsys, "orbit", "tE6", "--mode",
                                      "bases", "--budget-states", "5000")
        finally:
            lattice.roots.cache_clear()
        assert code == 1 and len(lines) == 1
        assert lines[0] == ("error: more than 40 roots do not fit this "
                            "form's root table")

    def test_crafted_pickle_is_never_loaded(self, capsys, tmp_path):
        # a format-3-style pickle whose __reduce__ would create a marker
        # file: it is refused by its leading bytes, so nothing runs
        marker = tmp_path / "marker"

        class Crafted:
            def __reduce__(self):
                return open, (str(marker), "w")

        ck = tmp_path / "evil.ckpt"
        ck.write_bytes(pickle.dumps(Crafted(), protocol=4))
        code, lines = error_lines(capsys, "orbit", "A3", "--mode", "bases",
                                  "--checkpoint", str(ck))
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("error:")
        assert "not in checkpoint format 9" in lines[0]
        assert not marker.exists()

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_checkpoint_fails(self, capsys, tmp_path, damage):
        ck = tmp_path / "orbit.ck"
        code, _ = run(capsys, "orbit", "D5", "--checkpoint", str(ck),
                      "--budget-states", "300")
        assert code == 3
        data = ck.read_bytes()
        k = len(data) // 2
        ck.write_bytes(data[:k] if damage == "truncate" else
                       data[:k] + bytes([data[k] ^ 0x10]) + data[k + 1:])
        code = main(["orbit", "D5", "--checkpoint", str(ck)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "corrupt" in lines[0]

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

    def test_failed_check_report(self, capsys, monkeypatch):
        # the bytes of a failed check: its witness and detail on stdout,
        # one FAIL line on stderr, exit 1
        monkeypatch.setattr(verify, "check_kappa_extension", lambda cls:
                            verify.CheckOutcome("tE6:kappa-extension", False,
                                                "ka - 1", "disagrees"))
        assert main(["verify-kappa", "tE6"]) == 1
        assert capsys.readouterr() == (
            '{"all_passed":false,"checks":[{"detail":"disagrees",'
            '"name":"tE6:kappa-extension","passed":false,'
            '"witness":"\'ka - 1\'"}]}\n', "FAIL tE6:kappa-extension\n")

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
        # a path of one waypoint: its start is the one sample
        path = json.dumps([[0.5, [-1.0, 0.0]]])
        assert main(["wall-walk", "2", path, "--steps", "20"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["word"] == []
        assert json.loads(err)["samples"] == 1

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


def small_scorecard(monkeypatch):
    """Restrict the orbit section to A2 and A3 so the smoke tests stay
    fast; every degree and stokes-count entry still runs against the real
    table.  The desk-scale orbit runs are the acceptance suite's job."""
    import singlat.cli as cli
    monkeypatch.setattr(cli, "SCORECARD_TABLE", {
        label: (deg, stokes, "desk" if label in ("A2", "A3") else None)
        for label, (deg, stokes, _) in cli.SCORECARD_TABLE.items()})


def test_scorecard_small(capsys, monkeypatch):
    small_scorecard(monkeypatch)
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


def test_scorecard_full(capsys):
    # the real table end to end: every desk orbit run (the bases and the
    # Stokes orbit of each ADE class up to E6), degree, Stokes count,
    # stored identity and Jacobi dimension
    code, doc = run(capsys, "scorecard")
    assert code == 0 and doc["passed"]
    entries = doc["entries"]
    assert len(entries) == 72 and all(e["passed"] for e in entries)
    desk = ("A2", "A3", "A4", "A5", "D4", "D5", "E6")
    assert [(e["name"], e["got"]) for e in entries[:14]] == [
        (f"orbit:{label}:{mode}", SCORECARD[label][k])
        for label in desk for k, mode in enumerate(("bases", "stokes"))]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scorecard_stdout_is_deterministic(capsys, monkeypatch, jobs):
    # two runs print the same stdout bytes, with no time in them; each
    # orbit entry's time is on its stderr line, written when the entry
    # completes, so before the symbolic checks start, and the run's on the
    # summary
    small_scorecard(monkeypatch)
    outs = []
    for _ in range(2):
        assert main(["scorecard", "--jobs", jobs]) == 0
        captured = capsys.readouterr()
        outs.append(captured.out)
        err = captured.err.splitlines()
        orbit_lines = [line for line in err if line.startswith("PASS orbit:")]
        assert len(orbit_lines) == 4
        assert all(line.endswith("s)") for line in orbit_lines)
        assert err[:4] == orbit_lines
        assert err[4] == "symbolic identities ..."
        assert err[-1].startswith("scorecard: all green (") and \
            err[-1].endswith("s)")
    assert outs[0] == outs[1]
    assert "seconds" not in outs[0]
    assert all("seconds" not in e for e in json.loads(outs[0])["entries"])


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


# The llmap reader of each vector verb, on its class or mu argument and the
# decoded JSON value, as the CLI calls it.
READERS = {
    "ll-eval": lambda cls, raw: llmap.ll_exact_A(sing_class(cls).mu,
                                                 cli._vector(raw)),
    "ll-fiber": lambda cls, raw: llmap._fiber_target(cls, cli._vector(raw)),
    "wall-walk": lambda mu, raw: llmap._waypoints(
        int(mu), cli._vector(raw, cli._vector)),
}

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
    ("ll-eval", "A2", "[null,1]"),
    ("ll-eval", "A2", "[[1,2,3],1]"),
    ("ll-eval", "A2", '[[0.5,"1"],1]'),
    ("ll-eval", "A2", "[1e400,1]"),
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
        "counts-non-ascii-digit", "ll-eval-null", "ll-eval-triple",
        "ll-eval-string-in-pair", "ll-eval-bare-1e400"])
def test_bad_input_is_usage_error(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err
    if argv[0] not in READERS or captured.err.startswith("usage:"):
        return   # not a vector verb, or an option argparse refuses
    try:
        raw = json.loads(argv[2])
    except ValueError:   # JSON syntax is the CLI's own to refuse
        assert captured.err.startswith("error: not JSON: ")
        return
    # one rule, one message: the CLI decodes the vector, and the llmap
    # reader that judges it writes the whole error line
    with pytest.raises(ValueError) as exc:
        READERS[argv[0]](argv[1], raw)
    assert captured.err == f"error: {exc.value}\n"


def test_string_entry_is_rational_syntax(capsys):
    # a string entry is read as a Fraction, so one that is not a rational
    # is the CLI's own usage error, named with the string
    for text, verb in (('["1/0",1]', "ll-eval"), ('[[1,"x"],[0,1]]',
                                                  "wall-walk")):
        argv = [verb, "A2" if verb == "ll-eval" else "2", text]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not a rational number: ")
        assert err.count("\n") == 1


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


@pytest.mark.parametrize("point", ["[[0,0],[0,0]]", "[[1e200,0],[1,0]]"],
                         ids=["discriminant", "unresolved"])
def test_one_waypoint_walk_checks_its_start(capsys, point):
    # a path of one waypoint fails (exit 1) with the one error line of the
    # same point given twice
    errors = []
    for path in (f"[{point}]", f"[{point},{point}]"):
        assert main(["wall-walk", "2", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1] and errors[0].startswith("error: ")
    assert errors[0].count("\n") == 1


@pytest.mark.parametrize("t1", ["1e50", "1e200"])
def test_unresolvable_walk_is_one_error_line(t1, capped_python):
    # critical values 1e50 -+ 0.385i, whose separation floats do not
    # resolve: one error line (exit 1) at once, run under a memory cap, as
    # the walk once bisected until memory ran out
    run = capped_python("-m", "singlat.cli", "wall-walk", "2",
                        f"[[{t1},1],[-{t1},1]]")
    assert run.returncode == 1 and run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert lines[0].endswith("rescale the path")


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
