"""Command-line front end.

JSON results go to stdout, human-readable progress to stderr.  Exit codes:
0 success, 1 check failure, 2 usage error, 3 budget truncation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import braid, degrees, lattice, llmap, singdata, verify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3


def _emit(doc):
    print(json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str))


def _info(msg):
    print(msg, file=sys.stderr)


class _Usage(Exception):
    pass


def _usage(fn, *args):
    """fn(*args), with a ValueError turned into a usage error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise _Usage(str(exc))


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def cmd_orbit(args):
    cls = _usage(singdata.sing_class, args.cls)
    rec = singdata.seed_stokes(cls, seed_dir=args.seed_file)
    budget_states = args.budget_states
    if cls.is_elliptic and args.mode == "bases" and budget_states is None:
        budget_states = 200_000  # the orbit is infinite; refuse to run open-ended
        _info(f"note: bases orbit of {cls.label} is infinite; "
              f"applying a default budget of {budget_states} states")
    report = braid.orbit_enumerate(
        rec.stokes, args.mode, max_states=budget_states,
        checkpoint=args.checkpoint)
    print(report.to_json(label=cls.label))
    _info(f"{cls.label} {args.mode}: {report.class_count} classes "
          f"({report.states_visited} expanded, {report.wall_clock:.1f}s, "
          f"peak RSS {_peak_rss_mb():.0f} MB"
          f"{', truncated' if report.truncated else ''})")
    return EXIT_TRUNCATED if report.truncated else EXIT_OK


def _peak_rss_mb():
    """The process's peak resident set size in MB, from getrusage, whose
    ru_maxrss is in KiB on Linux and in bytes on macOS."""
    import resource
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def cmd_stokes_count(args):
    cls = _usage(singdata.sing_class, args.cls)
    _emit({"class": cls.label,
           "stokes_classes": _usage(degrees.stokes_class_count, cls)})
    return EXIT_OK


def cmd_degree(args):
    cls = _usage(singdata.sing_class, args.cls)
    doc = degrees.deg_ll(cls).as_doc()
    if cls.is_elliptic:
        doc["deg_ll_segre"] = degrees.deg_ll_via_segre(cls)
        doc["degC_over_degp"] = {str(k): str(v) for k, v in
                                 degrees.degC_from_lambda_orders(cls).items()}
    _emit(doc)
    return EXIT_OK


def cmd_counts(args):
    cls = _usage(singdata.sing_class, args.cls)
    _emit(_usage(degrees.counts_row, cls))
    return EXIT_OK


def cmd_verify_symmetry(args):
    cls = _usage(singdata.sing_class, args.cls)
    return _report_outcomes(_usage(verify.symmetry_checks, cls, args.which))


def cmd_verify_kappa(args):
    cls = _usage(singdata.sing_class, args.cls)
    return _report_outcomes([_usage(verify.check_kappa_extension, cls)])


def cmd_jacobi_dim(args):
    cls = _usage(singdata.sing_class, args.cls)
    lam = args.at
    try:
        dim = _usage(verify.jacobi_dimension, cls, lam)
    except verify.JacobiRankError as exc:
        _emit({"class": cls.label, "error": str(exc)})
        return EXIT_FAIL
    _emit({"class": cls.label, "jacobi_dimension": dim,
           "lambda": str(lam) if lam is not None else "symbolic"})
    return EXIT_OK if dim == cls.mu else EXIT_FAIL


def _report_outcomes(outcomes):
    docs = []
    ok = True
    for o in outcomes:
        doc = {"name": o.name, "passed": o.passed}
        if o.detail:
            doc["detail"] = o.detail
        if o.witness is not None:
            doc["witness"] = repr(o.witness)
        docs.append(doc)
        ok = ok and o.passed
        _info(("PASS " if o.passed else "FAIL ") + o.name)
    _emit({"checks": docs, "all_passed": ok})
    return EXIT_OK if ok else EXIT_FAIL


def _json(text):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise _Usage(f"not JSON: {text!r} ({exc})")


def _entry(v):
    """A vector entry: a string as a Fraction, an [re, im] pair of real
    numbers as a complex number (unless an int in it is beyond the float
    range), and every other entry unchanged, for the library to judge."""
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise _Usage(f"not a rational number: {v!r} ({exc})")
    if isinstance(v, list) and len(v) == 2 and \
            all(type(x) in (int, float) for x in v):
        with contextlib.suppress(OverflowError):
            return complex(*v)
    return v


def _vector(raw, read=_entry):
    """raw, a decoded JSON value, with each entry of a list read by read.
    A value that is not a list is passed on unchanged: the library judges
    it."""
    if not isinstance(raw, list):
        return raw
    return [read(v) for v in raw]


def cmd_ll_eval(args):
    cls = _usage(singdata.sing_class, args.cls)
    if cls.family != "A":
        raise _Usage("exact evaluation covers the A family")
    p = _usage(llmap.ll_exact_A, cls.mu, _vector(_json(args.t)))
    _emit({"class": cls.label, "coeffs": [str(c) for c in p.coeffs],
           "in_discriminant": llmap.discriminant_member(p)})
    return EXIT_OK


def cmd_ll_fiber(args):
    cls, target = _usage(llmap._fiber_target, args.cls,
                         _vector(_json(args.p)))
    fc = llmap.ll_fiber_count(cls, target, budget=args.budget)
    _emit({"class": cls.label, "count": fc.count, "saturated": fc.saturated,
           "starts": fc.starts})
    if not fc.saturated:
        _info("warning: count did not saturate; partial result")
        return EXIT_TRUNCATED
    return EXIT_OK


def cmd_wall_walk(args):
    path = _vector(_json(args.path), _vector)   # a vector of vectors
    _usage(llmap._waypoints, args.mu, path)
    word, stats = llmap._walk(args.mu, path, args.steps)
    _emit({"mu": args.mu, "word": list(word.letters)})
    sep = stats.min_separation
    _info(json.dumps({"samples": stats.samples, "bisected": stats.bisected,
                      "min_separation": sep if math.isfinite(sep) else None},
                     sort_keys=True, separators=(",", ":")))
    return EXIT_OK


def cmd_diagram(args):
    cls = _usage(singdata.sing_class, args.cls)
    rec = singdata.seed_stokes(cls)
    print(lattice.coxeter_dynkin(rec.stokes).to_dot())
    return EXIT_OK


# ---------------------------------------------------------------------------
# scorecard
# ---------------------------------------------------------------------------

SCORECARD_TABLE = {
    # class -> (deg LL, Stokes classes, orbit run).  An ADE class has deg LL
    # classes of bases; an elliptic one infinitely many, so only its Stokes
    # orbit runs.  "desk" orbits run on every scorecard, "extended" ones
    # under --extended, and None marks an orbit out of reach (tE8).
    "A2": (3, 1, "desk"),
    "A3": (16, 4, "desk"),
    "A4": (125, 25, "desk"),
    "A5": (1296, 216, "desk"),
    "D4": (162, 9, "desk"),
    "D5": (2048, 256, "desk"),
    "E6": (41472, 3456, "desk"),
    "E7": (1062882, 118098, "extended"),
    "E8": (37968750, 2531250, "extended"),
    "tE6": (24800580, 76545, "extended"),
    "tE7": (688128000, 7168000, "extended"),
    "tE8": (21374793216, 593744256, None),
}


def _orbit_entry(label, mode, expect):
    """The scorecard entry of one orbit run, and the run's seconds, which
    go to its stderr line: stdout stays byte-deterministic."""
    rec = singdata.seed_stokes(label)
    rep = braid.orbit_enumerate(rec.stokes, mode)
    return {"name": f"orbit:{label}:{mode}", "passed":
            (not rep.truncated) and rep.class_count == expect,
            "got": rep.class_count, "expect": expect}, rep.wall_clock


def _orbit_jobs(extended):
    runs = ("desk", "extended") if extended else ("desk",)
    jobs = []
    for label, (deg, stokes, run) in SCORECARD_TABLE.items():
        if run in runs:
            if not singdata.sing_class(label).is_elliptic:
                jobs.append((label, "bases", deg))
            jobs.append((label, "stokes", stokes))
    return jobs


def _degree_entries():
    out = []
    for label, (expect, _, _) in SCORECARD_TABLE.items():
        d = degrees.deg_ll(label).deg_ll
        entry = {"name": f"degree:{label}", "got": d, "expect": expect}
        if singdata.sing_class(label).is_elliptic:
            entry["segre"] = degrees.deg_ll_via_segre(label)
        entry["passed"] = d == expect == entry.get("segre", d)
        out.append(entry)
    for label, (_, expect, _) in SCORECARD_TABLE.items():
        c = degrees.stokes_class_count(label)
        out.append({"name": f"stokes-count:{label}", "passed": c == expect,
                    "got": c, "expect": expect})
    return out


def _check_entry(outcome):
    return {"name": outcome.name, "passed": outcome.passed,
            **({"detail": outcome.detail} if outcome.detail else {})}


def _status(entry, took=None):
    """Write the stderr line of a scorecard entry, with its seconds if
    given."""
    line = ("PASS " if entry["passed"] else "FAIL ") + entry["name"]
    _info(line if took is None else f"{line} ({took:.2f}s)")


def cmd_scorecard(args):
    t0 = time.monotonic()
    orbit_jobs = _orbit_jobs(args.extended)
    entries = [None] * len(orbit_jobs)

    def finish(k, run):
        # an orbit entry's line goes out when its run ends; stdout keeps
        # the entries in job order
        entries[k], took = run
        _status(entries[k], took)

    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed
        workers = min(args.jobs, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_orbit_entry, *job): k
                       for k, job in enumerate(orbit_jobs)}
            for f in as_completed(futures):
                finish(futures[f], f.result())
    else:
        for k, job in enumerate(orbit_jobs):
            finish(k, _orbit_entry(*job))
    entries.extend(_degree_entries())
    _info("symbolic identities ...")
    for o in verify.identity_suite():
        entries.append(_check_entry(o))
    _info("jacobi dimensions ...")
    for o in verify.jacobi_suite():
        entries.append(_check_entry(o))
    ok = all(e["passed"] for e in entries)
    _emit({"passed": ok, "entries": entries})
    for e in entries[len(orbit_jobs):]:
        _status(e)
    _info(f"scorecard: {'all green' if ok else 'FAILURES'} "
          f"({len(entries)} entries, {time.monotonic() - t0:.1f}s)")
    return EXIT_OK if ok else EXIT_FAIL


def build_parser():
    ap = argparse.ArgumentParser(
        prog="singlat",
        description="Exact distinguished-basis combinatorics, braid orbits, "
                    "covering degrees and identity checks for the simple and "
                    "simple elliptic singularity families.")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("orbit", cmd_orbit, help="braid-orbit enumeration from a seed")
    p.add_argument("cls")
    p.add_argument("--mode", choices=("bases", "stokes"), default="bases")
    p.add_argument("--budget-states", type=_positive_int, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--seed-file", default=None,
                   help="directory of <label>.json seed files, read "
                        "instead of the built-in seed")

    p = add("stokes-count", cmd_stokes_count,
            help="closed-form count of Stokes classes")
    p.add_argument("cls")

    p = add("degree", cmd_degree, help="covering degree with factorization")
    p.add_argument("cls")

    p = add("counts", cmd_counts, help="full count-table row")
    p.add_argument("cls")

    p = add("verify-symmetry", cmd_verify_symmetry,
            help="exact unfolding-symmetry identities")
    p.add_argument("cls")
    p.add_argument("--which", choices=("psi2", "psi3"), default=None)

    p = add("verify-kappa", cmd_verify_kappa,
            help="extension of the rescaled family to kappa = 0")
    p.add_argument("cls")

    p = add("jacobi-dim", cmd_jacobi_dim, help="Jacobi algebra dimension")
    p.add_argument("cls")
    p.add_argument("--at", type=_fraction, default=None, metavar="P/Q",
                   help="rational family parameter (default: symbolic)")

    p = add("ll-eval", cmd_ll_eval,
            help="exact critical-value configuration polynomial")
    p.add_argument("cls")
    p.add_argument("t", help='JSON list of rationals, e.g. \'["1/3", "2"]\'')

    p = add("ll-fiber", cmd_ll_fiber, help="numeric fiber count over a target")
    p.add_argument("cls")
    p.add_argument("p", help="JSON list of the mu non-leading coefficients")
    p.add_argument("--budget", type=_positive_int, default=600)

    p = add("wall-walk", cmd_wall_walk,
            help="braid word emitted along a parameter path")
    p.add_argument("mu", type=_positive_int)
    p.add_argument("path", help="JSON list of waypoints (lists of [re, im])")
    p.add_argument("--steps", type=_positive_int, default=64,
                   help="uniform samples each segment starts from; the "
                        "walk bisects wherever a critical value strays from "
                        "its predicted motion or a pair of values turns too "
                        "far between samples (default: %(default)s)")

    p = add("diagram", cmd_diagram, help="seed diagram in DOT format")
    p.add_argument("cls")

    p = add("scorecard", cmd_scorecard,
            help="run the verification scorecard")
    p.add_argument("--extended", action="store_true",
                   help="include the long-running orbit certifications")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="orbit worker processes (at most the CPU count)")

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except _Usage as exc:
        _info(f"error: {exc}")
        return EXIT_USAGE
    except (ValueError, OverflowError, singdata.SeedError) as exc:
        _info(f"error: {exc}")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
