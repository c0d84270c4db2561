"""Batch command-line front end.

Every subcommand prints a single JSON object (with a ``"schema"`` version
field: 2 for ``homology``, 1 for the rest) on standard output and exits 0.
Domain errors produce a structured JSON error object (schema 1) on
standard error and exit code 1; argument errors exit 2.  A failing
``sweep`` item's error also carries its seed, its index and its origami
as .ori text.  Identical invocations (including seeds) produce
byte-identical output.

A process loads only what its command runs.  At module level this file
imports argparse, json and the `origami` and `freegroup` modules, which
every origami command needs; each ``cmd_*`` function imports its engine
(`hss`, `homology`, `subgroup`, `moebius`) as a module and calls it
through the module attribute, so that a replaced attribute is seen.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import sys
from typing import Optional

from .freegroup import is_conjugate_horizontal
from .origami import (
    Origami,
    BadFormat,
    BadParameters,
    cylinders,
    format_origami,
    genus,
    is_closed,
    l_origami,
    o14,
    parse_origami,
    random_origami,
    shear,
    vertex_orbits,
    wollmilchsau,
    x_origami,
)

SCHEMA = 1
# homology's intersection_matrix is written in the tree-cotree basis of
# `homology.h1_model`; schema 1 wrote it in the basis of a diagonalised
# boundary map
HOMOLOGY_SCHEMA = 2


class VerificationFailed(ValueError):
    pass


# ---------------------------------------------------------------------------
# fixture registry
# ---------------------------------------------------------------------------

FIXTURES = {
    "wollmilchsau": wollmilchsau,
    "o14": o14,
    "l22": lambda: l_origami(2, 2),
    "l23": lambda: l_origami(2, 3),
    "l32": lambda: l_origami(3, 2),
    "x3": lambda: x_origami(3),
    "x4": lambda: x_origami(4),
}

WORD_FIXTURES = ("l22.words", "flat64.words")


def fixture_dir() -> str:
    """Directory holding the .ori / .words data files; overridable via
    the ORIGAMI_FORGE_FIXTURES environment variable."""
    override = os.environ.get("ORIGAMI_FORGE_FIXTURES")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "fixtures")


def load_origami(ref: str) -> Origami:
    """Resolve an origami argument: a file path, else a registry name,
    read from <name>.ori in the fixture directory if that file exists and
    built by its registry constructor if not.  Each file is opened without
    a prior existence check; only a missing file (or a path through a
    non-directory) moves on to the next choice."""
    paths = [ref]
    if ref in FIXTURES:
        paths.append(os.path.join(fixture_dir(), ref + ".ori"))
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return parse_origami(fh.read())
        except (FileNotFoundError, NotADirectoryError):
            pass
    if ref in FIXTURES:
        return FIXTURES[ref]()
    raise BadFormat(f"no such origami file or fixture: {ref!r}")


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------


def emit(obj: dict, stream=None) -> None:
    """One JSON line.  json.dumps encodes in C, where json.dump streams
    through the pure-Python encoder; the text is the same."""
    stream = stream or sys.stdout
    stream.write(json.dumps(obj, sort_keys=True, separators=(", ", ": "))
                 + "\n")


def curve_json(c) -> dict:
    return {"start": c.start, "word": str(c.word)}


def dump_trace(result, stream) -> None:
    """The MergeHistory rounds of an `hss.HssResult` as JSON lines, one
    event per line."""
    for rnd, history in enumerate(result.histories):
        emit({"round": rnd, "event": "start", "lists": list(history.initial)},
             stream)
        for ev in history.events:
            if ev[0] == "merge":
                _, rid, lid, mid, ga, gb = ev
                emit({"round": rnd, "event": "merge", "result": rid,
                      "left": lid, "right": mid, "glue": [ga, gb]}, stream)
            else:
                _, rid, pid, s1, s2 = ev
                emit({"round": rnd, "event": "cancel", "result": rid,
                      "parent": pid, "removed": [s1, s2]}, stream)
        emit({"round": rnd, "event": "final", "list": history.final}, stream)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> dict:
    o = load_origami(args.origami)
    return {
        "schema": SCHEMA,
        "d": o.d,
        "cylinders": sorted(sorted(z.squares) for z in cylinders(o)),
        "vertex_orbits": sorted(sorted(v) for v in vertex_orbits(o)),
        "genus": genus(o),
    }


def cmd_hss(args) -> dict:
    from . import hss

    o = load_origami(args.origami)
    result = hss.find_hss_detailed(o)
    if args.trace:
        dump_trace(result, sys.stderr)
    curves = [curve_json(c) for c in result.curves]
    return {
        "schema": SCHEMA,
        "curves": curves,
        "step1_cuts": curves[:len(result.cut_cylinders)],
    }


def hss_report(o: Origami, curves: list) -> dict:
    return {
        "genus": genus(o),
        "curve_count": len(curves),
        "curves": [curve_json(c) for c in curves],
        "closed": all(is_closed(o, c) for c in curves),
        "conjugate_horizontal": all(
            is_conjugate_horizontal(c.word) for c in curves
        ),
    }


def cmd_verify_hss(args) -> dict:
    from . import homology, hss

    o = load_origami(args.origami)
    curves = hss.find_hss(o)
    model = homology.h1_model(o)
    report = hss_report(o, curves)
    report["independent"] = homology.f2_independent([
        model.coords(homology.edge_cycle(o, c.start, c.word)) for c in curves
    ])
    ok = (
        report["curve_count"] == report["genus"]
        and report["closed"]
        and report["conjugate_horizontal"]
        and report["independent"]
    )
    if not ok:
        raise VerificationFailed(json.dumps(report, sort_keys=True))
    return {"schema": SCHEMA, "ok": True, **report}


def parse_matrix(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise BadFormat("--matrix expects four comma-separated integers")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        if limit and any(len(d) > limit and d.isdecimal()
                         for d in map(_digits, parts)):
            raise BadFormat(
                f"--matrix entries may have at most {limit} digits") from exc
        raise BadFormat("--matrix entries must be integers") from exc


def _digits(entry: str) -> str:
    """An integer literal without its whitespace, sign and underscores,
    which is what Python's digit limit counts."""
    entry = entry.strip()
    if entry[:1] in ("+", "-"):
        entry = entry[1:]
    return entry.replace("_", "")


def cmd_veech_check(args) -> dict:
    from . import subgroup

    o = load_origami(args.origami)
    A = parse_matrix(args.matrix)
    witness = subgroup.veech_witness(subgroup.CosetAction(o), A)
    return {
        "schema": SCHEMA,
        "matrix": list(A),
        "member": witness is not None,
        "witness_square": witness,
    }


def cmd_shear(args) -> dict:
    o = load_origami(args.origami)
    sheared, change = shear(o, args.p, args.q)
    return {
        "schema": SCHEMA,
        "d": sheared.d,
        "origami": format_origami(sheared),
        "genus": genus(sheared),
        "change": [[str(change.a), str(change.b)],
                   [str(change.c), str(change.d)]],
    }


def cmd_homology(args) -> dict:
    from . import homology

    o = load_origami(args.origami)
    model = homology.h1_model(o)
    out = {
        "schema": HOMOLOGY_SCHEMA,
        "rank": model.rank,
        "intersection_matrix": model.gram,
    }
    if args.twist:
        out["certificate"] = homology.twist_membership_certificate(o, model)
    return out


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise BadFormat(f"expected 're,im', got {text!r}")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise BadFormat(f"non-numeric complex entry {text!r}") from exc
    if not cmath.isfinite(z):
        raise BadFormat(f"non-finite complex entry {text!r}")
    return z


def _cplx(z: complex) -> Optional[list]:
    """[re, im], or None for the point at infinity."""
    if not cmath.isfinite(z):
        return None
    return [z.real, z.imag]


def cmd_moebius(args) -> dict:
    from . import moebius

    entries = [parse_complex(t) for t in args.entries]
    m = moebius.MoebiusMap.from_entries(*entries)
    kind = moebius.classify(m)
    out = {
        "schema": SCHEMA,
        "classification": kind,
        "trace": _cplx(m.trace()),
        "matrix": [_cplx(m.a), _cplx(m.b), _cplx(m.c), _cplx(m.d)],
    }
    if kind == "loxodromic":
        fd = moebius.fixed_data(m)
        out["fixed_point_z"] = _cplx(fd.z)
        out["fixed_point_w"] = _cplx(fd.w)
        out["multiplier"] = _cplx(fd.multiplier)
        # the fixed points are read off the map itself; the key stays,
        # always false, so that the output keeps schema 1
        out["conjugated"] = False
        out["roundtrip"] = moebius.from_fixed_data(fd).approx_eq(m)
    return out


def cmd_fixtures(args) -> dict:
    base = fixture_dir()

    def entry(name: str, fname: str) -> dict:
        path = os.path.join(base, fname)
        return {"name": name, "path": path, "present": os.path.exists(path)}

    return {
        "schema": SCHEMA,
        "directory": base,
        "origamis": [entry(name, name + ".ori") for name in sorted(FIXTURES)],
        "word_fixtures": [entry(fname, fname) for fname in WORD_FIXTURES],
    }


# ---------------------------------------------------------------------------
# randomized sweep
# ---------------------------------------------------------------------------


# The largest --max-d of `sweep`: each item draws an origami of up to
# that many squares.
MAX_SWEEP_SQUARES = 1024
# The largest --count of `sweep`, the number of items it runs.
MAX_SWEEP_COUNT = 10_000


def sweep_one(seed: int, max_d: int, index: int) -> dict:
    """All randomized property suites on one seed-derived origami.  An
    exception leaves with a `reproduce` dict: the seed, the index and the
    origami as .ori text, which `run` adds to the error report."""
    import random

    rng = random.Random(f"{seed}:{index}")
    d = rng.randint(2, max_d)
    o = random_origami(rng, d)
    try:
        return _sweep_checks(o, rng, index)
    except Exception as exc:
        exc.reproduce = {"seed": seed, "index": index,
                         "origami": format_origami(o)}
        raise


def _sweep_checks(o: Origami, rng, index: int) -> dict:
    """The suites of `sweep_one`; rng, a `random.Random`, has drawn the
    origami and draws the bridging orders."""
    from . import homology, hss

    result = hss.find_hss_detailed(o)
    curves = result.curves
    model = homology.h1_model(o)
    report = hss_report(o, curves)
    # the classes are independent mod 2: the certificate below raises
    # NotPrimitive unless they span a direct summand
    hss_ok = (
        report["curve_count"] == report["genus"]
        and report["closed"]
        and report["conjugate_horizontal"]
    )

    # step-1 cut count is independent of the bridging order: the bridging
    # pass reruns on the cut system's own half-cylinder graph
    base_cuts = len(result.cut_cylinders)
    orders_ok = True
    for _ in range(10):
        order = list(range(len(result.graph.cyls)))
        rng.shuffle(order)
        if len(hss.step1_cuts(result.graph, order)) != base_cuts:
            orders_ok = False
            break

    cert = homology.twist_membership_certificate(
        o, model, curves, hss.dual_curves(result))
    return {
        "index": index,
        "d": o.d,
        "genus": report["genus"],
        "curves": [c["word"] for c in report["curves"]],
        "hss_ok": hss_ok,
        "cut_count_invariant": orders_ok,
        "multiplier": cert["multiplier"],
        # the certificate raises CertificateError unless the multitwist lift
        # stabilizes H
        "veech_member": True,
        # h1_model raises unless the form has rank 2g, is skew and unimodular
        "homology_ok": True,
        # the certificate raises CertificateError unless the twist is in
        # block form
        "block_form": True,
        "charpoly_divides": cert["charpoly_divides"],
        "ok": all((hss_ok, orders_ok, cert["charpoly_divides"])),
    }


def cmd_sweep(args) -> dict:
    if not 2 <= args.max_d <= MAX_SWEEP_SQUARES:
        raise BadParameters(f"--max-d must lie in 2..{MAX_SWEEP_SQUARES}, "
                            f"not {args.max_d}")
    if not 0 <= args.count <= MAX_SWEEP_COUNT:
        raise BadParameters(f"--count must lie in 0..{MAX_SWEEP_COUNT}, "
                            f"not {args.count}")
    results = [sweep_one(args.seed, args.max_d, i) for i in range(args.count)]
    return {
        "schema": SCHEMA,
        "seed": args.seed,
        "max_d": args.max_d,
        "count": args.count,
        "ok": all(r["ok"] for r in results),
        "results": results,
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each subcommand is
    stored by name; `run` looks up its `cmd_*` function when it is called."""
    parser = argparse.ArgumentParser(
        prog="origami-forge",
        description="Exact invariants of square-tiled surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="cylinders, singularities, genus")
    p.add_argument("origami", help=".ori file or fixture name")

    p = sub.add_parser("hss", help="horizontal Schottky cut system")
    p.add_argument("origami")
    p.add_argument("--trace", action="store_true",
                   help="dump merge history as JSON lines on stderr")

    p = sub.add_parser("verify-hss", help="check the cut system invariants")
    p.add_argument("origami")

    p = sub.add_parser("veech-check", help="Veech group membership")
    p.add_argument("origami")
    p.add_argument("--matrix", required=True, metavar="a,b,c,d",
                   help="integer matrix entries, row-major; write "
                   "--matrix=a,b,c,d when a is negative")

    p = sub.add_parser("shear", help="re-square along a rational direction")
    p.add_argument("origami")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("homology", help="H_1 rank and intersection form")
    p.add_argument("origami")
    p.add_argument("--twist", action="store_true",
                   help="include the multitwist certificate")

    p = sub.add_parser("moebius", help="classify a Moebius transformation")
    p.add_argument("entries", nargs=4, metavar="re,im",
                   help="matrix entries a b c d as re,im pairs")

    sub.add_parser("fixtures", help="list the fixture registry")

    p = sub.add_parser("sweep", help="randomized property suites")
    p.add_argument("--max-d", type=int, default=12, dest="max_d",
                   help="most squares per origami, 2 to "
                   f"{MAX_SWEEP_SQUARES}")
    p.add_argument("--count", type=int, default=200,
                   help=f"items to run, 0 to {MAX_SWEEP_COUNT}")
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        emit(command(args))
        return 0
    except (ValueError, ArithmeticError, AssertionError, OSError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        error.update(getattr(exc, "reproduce", {}))
        emit({"schema": SCHEMA, "error": error}, sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
