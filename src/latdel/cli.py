"""Command-line interface.

Subcommands: del, catalog, sample, fuse, gen, tables, faces, verify.  Output is
canonical JSON, so identical invocations produce identical bytes.  The exit codes
are one table, in `run`: 0 success; 1 verification failure, a failed check or any
`CertificationError` or `FusionError`; 2 usage or input error, any other
`ValueError`, as every refusal in the package is one.  Other exceptions are bugs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import formats
from .catalog import catalog, catalog_names, sample_interior
from .delaunay import CertificationError, certify_cell, delaunay_star, make_cell
from .exact import parse_rational, shift_points
from .generation import is_simplicially_generating, is_totally_generating
from .verify import _ALIASES, SUITES, FusionError, fusion_check, reproduce_table, run_suites


def _emit(obj):
    sys.stdout.write(formats.dumps(obj))


def _fail_usage(message: str) -> int:
    print("error: %s" % message, file=sys.stderr)
    return 2


def _cmd_del(args) -> int:
    form = formats.load_form(args.form)
    star = delaunay_star(form)
    if args.mod_translation:
        _emit([formats.encode_cell(c) for c in star.orbit_reps])
    else:
        _emit(formats.encode_star(star))
    return 0


def _cmd_catalog(args) -> int:
    entries = formats.encode_catalog()
    if args.action == "list":
        _emit([e["name"] for e in entries])
        return 0
    matches = [e for e in entries if e["name"] == args.name]
    if not matches:
        return _fail_usage("unknown catalog cone %r" % args.name)
    _emit(matches[0])
    return 0


def _cmd_sample(args) -> int:
    try:
        cone = catalog(args.cone)
    except KeyError:
        return _fail_usage("unknown catalog cone %r" % args.cone)
    weights = None
    if args.weights is not None:
        try:
            weights = [parse_rational(w) for w in args.weights.split(",")]
        except ValueError as exc:
            return _fail_usage("bad --weights: %s" % exc)
    _emit(formats.encode_form(sample_interior(cone, weights)))
    return 0


def _cmd_fuse(args) -> int:
    unknown = [name for name in (args.coarse, args.fine) if name not in catalog_names()]
    if unknown:
        return _fail_usage("unknown catalog cone %r" % unknown[0])
    report = fusion_check(args.coarse, args.fine)
    _emit(
        {
            "coarse": report.coarse_cone,
            "fine": report.fine_cone,
            "fusions": [
                {
                    "cell": formats.encode_cell(cell),
                    "pieces": [formats.encode_cell(p) for p in pieces],
                }
                for cell, pieces in report.fusions
            ],
            "unchanged": [formats.encode_cell(c) for c in report.unchanged],
        }
    )
    return 0


def _cmd_gen(args) -> int:
    cell = formats.load_cell(args.cell)
    form = formats.load_form(args.form)
    # the pieces' sphere data is never checked, so it is not echoed back
    given = [] if args.pieces is None else formats.load_cells(args.pieces)
    pieces = [make_cell(p.vertices) for p in given]
    for path, c in [(args.cell, cell)] + [(args.pieces, p) for p in pieces]:
        if len(c.vertices[0]) != form.rank:
            return _fail_usage("%s: vertex length is not the form's rank %d" % (path, form.rank))
    cert = certify_cell(form, cell)
    if not cert.ok:
        print(
            "error: the cell is not a Delaunay cell of the form: %r"
            % (cert.violations,),
            file=sys.stderr,
        )
        return 1
    # generation is decided at 0: a cell without 0 is decided at its
    # smallest vertex, on its canonical orbit representative
    zero = tuple(0 for _ in cell.vertices[0])
    shift = zero if zero in cell.vertices else min(cell.vertices)
    back = tuple(-c for c in shift)
    if args.pieces is not None:
        pieces = [p.translate(back) for p in pieces]
        report = is_simplicially_generating(cell.translate(back), pieces)
        report = replace(
            report,
            pieces=tuple(p.translate(shift) for p in report.pieces),
            overlap=tuple(shift_points(p, shift) for p in report.overlap),
            unpaired=tuple(shift_points(f, shift) for f in report.unpaired),
        )
    else:
        report = is_totally_generating(cell.translate(back))
    _emit(formats.encode_generation_report(report))
    if report.totally_generating:
        return 0
    why = "the piece cones at 0 overlap or leave a gap"
    if report.witness is not None:
        why = "%r of the cone at 0 is no sum of lattice points" % (report.witness,)
    elif report.overlap:
        why = "the pieces %r and %r overlap" % report.overlap
    elif report.unpaired:
        why = "no second piece meets the facets %r from the other side" % (report.unpaired,)
    print("error: not generating: " + why, file=sys.stderr)
    return 1


def _cmd_tables(args) -> int:
    diff = reproduce_table(args.which)
    _emit(
        {
            "which": diff.which,
            "pass": diff.ok,
            "expected": list(diff.expected),
            "computed": list(diff.computed),
            "mismatches": list(diff.mismatches),
        }
    )
    return 0 if diff.ok else 1


def _cmd_faces(args) -> int:
    from . import faces as face_mod

    rows = [
        {
            "dropped": [[p, q, "+" if s > 0 else "-"] for p, q, s in f.dropped],
            "shape": f.graph.shape,
            "orbit": face_mod.classify_face(f.dropped),
            "type": face_mod.classify_type(f.dropped),
        }
        for f in face_mod.enumerate_faces()
    ]
    orbits = [row["orbit"] for row in rows]
    counts = {"total": len(rows), "BF": orbits.count("BF"), "RT": orbits.count("RT")}
    _emit({"faces": rows, "counts": counts})
    return 0


def _cmd_verify(args) -> int:
    reports = run_suites([args.suite])
    _emit(reports)
    return 0 if all(r["pass"] for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latdel",
        description="Exact lattice Delaunay decompositions of quadratic forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("del", help="Delaunay star of 0 for a form")
    p.add_argument("--form", required=True, metavar="F.json")
    p.add_argument("--mod-translation", action="store_true")
    p.set_defaults(func=_cmd_del)

    p = sub.add_parser("catalog", help="list or show the named cones")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("sample", help="interior form of a catalog cone")
    p.add_argument("--cone", required=True)
    p.add_argument("--weights", metavar="w1,w2,...")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fuse", help="match a fine star into a coarse star")
    p.add_argument("--coarse", required=True)
    p.add_argument("--fine", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("gen", help="totally/simplicially generating decision")
    p.add_argument("--cell", required=True, metavar="C.json")
    p.add_argument("--form", required=True, metavar="F.json")
    p.add_argument("--pieces", metavar="P.json")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("tables", help="recompute a fusion/division table")
    p.add_argument("--which", type=int, choices=[1, 2], required=True)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("faces", help="the 64 faces of K with orbits and types")
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=[*_ALIASES, *SUITES])
    p.set_defaults(func=_cmd_verify)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.name:
        parser.error("catalog show requires a cone name")
    if args.command == "catalog" and args.action == "list" and args.name is not None:
        parser.error("catalog list takes no cone name")
    try:
        return args.func(args)
    except (CertificationError, FusionError) as exc:  # FusionError is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        return _fail_usage(str(exc))


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
