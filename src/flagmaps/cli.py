"""Command-line interface.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterator, TextIO

from .census import analyze, stability_census, write_census
from .core import HYPERMAP, MAP, FlagSystem, Genus, export_diagram
from .covers import deck, orientable_double_cover, quotient_by
from .errors import FlagmapsError
from .families import (
    glide_automorphism,
    hosohedron,
    icosahedron,
    k6_projective,
    nn2_map,
    reflection_automorphism,
    semi_star,
    symmetric_map,
    torus_44,
)
from .grouplevel import family_report
from .mapjson import MapFormatError, parse, serialize
from .operations import dual, medial, petrie
from .perms import format_cycles, parse_cycles
from .verify import run_all


def _read_system(path: str) -> FlagSystem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MapFormatError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from exc
    return parse(text)


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The ``--out`` file, opened for writing, or stdout without it."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_output(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


# ``flagmaps build`` family name -> builder of its system from the options;
# the keys are also the argument's choices.
_FAMILIES = {
    "hosohedron": lambda args: hosohedron(args.n),
    "semistar": lambda args: semi_star(args.n),
    "torus44": lambda args: torus_44(args.lattice, args.m),
    "nn2": lambda args: nn2_map(args.m).fs,
    "icosahedron": lambda args: icosahedron(),
    "k6p2": lambda args: k6_projective(),
    "symmap": lambda args: symmetric_map(args.n, hypermap=args.hypermap).fs,
}


def _build(args: argparse.Namespace) -> int:
    _write_output(serialize(_FAMILIES[args.family](args)), args.out)
    return 0


def analysis_summary(fs: FlagSystem) -> dict:
    """Invariants, symmetry class, and the stability report when defined."""
    rec = analyze(fs)
    inv, sym, rep = rec.invariants, rec.symmetry, rec.stability
    return {
        "kind": fs.kind,
        "flags": fs.flags,
        "vertices": inv.vertices,
        "edges": inv.edges,
        "faces": inv.faces,
        "chi": inv.chi,
        "orientable": inv.orientable,
        "boundaryComponents": inv.boundary_components,
        "genus": str(inv.genus),
        "type": list(inv.type_signature),
        "faceSizes": list(inv.face_sizes),
        "vertexDegrees": list(inv.vertex_degrees),
        "baseAut": rec.aut.order,
        "regular": sym.regular,
        "edgeTransitive": sym.edge_transitive,
        "edgeRegular": sym.edge_regular,
        "coverAut": None if rep is None else rep.cover_aut_order,
        "index": None if rep is None else str(rep.instability_index),
        "stable": None if rep is None else rep.stable,
    }


def _analyze(args: argparse.Namespace) -> int:
    fs = _read_system(args.file)
    summary = analysis_summary(fs)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"kind: {summary['kind']}   flags: {summary['flags']}")
    print(
        f"cells: V={summary['vertices']} E={summary['edges']} "
        f"F={summary['faces']}   chi={summary['chi']}"
    )
    boundary = summary["boundaryComponents"]
    print(
        f"surface: {summary['genus']}, "
        + ("orientable" if summary["orientable"] else "non-orientable")
        + (f", {boundary} boundary component(s)" if boundary else ", closed")
    )
    print(f"type: {{{summary['type'][0]},{summary['type'][1]}}}")
    flagsline = [
        name
        for name, on in (
            ("regular", summary["regular"]),
            ("edge-transitive", summary["edgeTransitive"]),
            ("edge-regular", summary["edgeRegular"]),
        )
        if on
    ]
    print(f"aut order: {summary['baseAut']}"
          + (f"   ({', '.join(flagsline)})" if flagsline else ""))
    if summary["stable"] is None:
        print("stability: undefined (orientable with empty boundary)")
    else:
        verdict = "stable" if summary["stable"] else "unstable"
        print(
            f"stability: {verdict}; cover aut {summary['coverAut']}, "
            f"index {summary['index']}"
        )
    return 0


def _cover(args: argparse.Namespace) -> int:
    fs = _read_system(args.file)
    cover = orientable_double_cover(fs)
    _write_output(serialize(cover), args.out)
    print(f"deck: {format_cycles(deck(cover))}", file=sys.stderr if not args.out else sys.stdout)
    return 0


def _quotient(args: argparse.Namespace) -> int:
    fs = _read_system(args.file)
    if args.auto:
        aut = parse_cycles(args.auto, degree=fs.flags)
    elif args.reflection:
        aut = reflection_automorphism(fs)
    elif args.glide:
        aut = glide_automorphism(fs)
    else:
        raise FlagmapsError("supply --auto CYCLES, --reflection or --glide")
    _write_output(serialize(quotient_by(fs, [aut])), args.out)
    return 0


def _op(args: argparse.Namespace) -> int:
    fs = _read_system(args.file)
    result = {"dual": dual, "petrie": petrie, "medial": medial}[args.operation](fs)
    _write_output(serialize(result), args.out)
    return 0


def _census(args: argparse.Namespace) -> int:
    records = stability_census(args.max_flags, args.kind)
    with _output(args.out) as fh:
        summary = write_census(records, fh)
    for flags, row in sorted(summary.items()):
        print(
            f"flags={flags}: {row['classes']} classes, "
            f"{row['stable']} stable, {row['unstable']} unstable, "
            f"{row['undefined']} undefined",
            file=sys.stderr if not args.out else sys.stdout,
        )
    return 0


def _sym(args: argparse.Namespace) -> int:
    reports = family_report(args.n, hypermap=args.hypermap)
    rows = []
    for r in reports:
        cover = r.cover
        quotient_chi = cover.chi // 2
        rows.append({
            "a": format_cycles(r.a),
            "m": sum(x != i for i, x in enumerate(r.a)),  # the points a moves
            "autOrder": r.aut_order,
            "boundary": r.boundary,
            "stable": r.stable,
            "coverCells": [cover.vertices, cover.edges, cover.faces],
            "coverChi": cover.chi,
            "quotientChi": quotient_chi,
            "type": list(cover.type_signature),
            "genusNote": f"cover genus {Genus.of(cover.chi, 0, True).value}; " + (
                "quotient has boundary" if r.boundary else
                "quotient is closed non-orientable, "
                f"crosscap {Genus.of(quotient_chi, 0, False).value}"
            ),
        })
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        header = list(rows[0].keys())
        print(",".join(header))
        for row in rows:
            print(",".join(json.dumps(row[k]) if isinstance(row[k], list)
                           else str(row[k]) for k in header))
    return 0


def _export_dot(args: argparse.Namespace) -> int:
    fs = _read_system(args.file)
    _write_output(export_diagram(fs), args.out)
    return 0


def _verify(args: argparse.Namespace) -> int:
    results = run_all(quick=args.quick)
    for res in results:
        print(res.line())
    return 0 if all(r.ok for r in results) else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagmaps",
        description="Maps and hypermaps as flag involution systems: "
        "covers, quotients, symmetry, stability, census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a named family, emit map JSON")
    p.add_argument("family", choices=list(_FAMILIES))
    p.add_argument("-n", type=int, default=5, help="size parameter (default 5)")
    p.add_argument("-m", type=int, default=1, help="lattice/group parameter (default 1)")
    p.add_argument("--lattice", choices=["diag", "rect"], default="diag")
    p.add_argument("--hypermap", action="store_true")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_build)

    p = sub.add_parser("analyze", help="surface invariants, symmetry, stability")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_analyze)

    p = sub.add_parser("cover", help="canonical orientable double cover")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cover)

    p = sub.add_parser("quotient", help="quotient by an automorphism")
    p.add_argument("file")
    p.add_argument("--auto", help="automorphism in 1-based flag cycles, e.g. '(1,2)(3,4)'")
    p.add_argument("--reflection", action="store_true",
                   help="edge reflection of a hosohedron/semi-star file")
    p.add_argument("--glide", action="store_true",
                   help="glide reflection of a torus44 file")
    p.add_argument("--out")
    p.set_defaults(func=_quotient)

    p = sub.add_parser("op", help="apply a map operation")
    p.add_argument("operation", choices=["dual", "petrie", "medial"])
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_op)

    p = sub.add_parser("census", help="enumerate classes with stability")
    p.add_argument("--max-flags", type=_positive_int, required=True)
    p.add_argument("--kind", choices=[MAP, HYPERMAP], default=MAP)
    p.add_argument("--out")
    p.set_defaults(func=_census)

    p = sub.add_parser("sym", help="symmetric-group family quotient table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--hypermap", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_sym)

    p = sub.add_parser("export-dot", help="edge-labelled flag diagram (DOT)")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_export_dot)

    p = sub.add_parser("verify-paper",
                       help="run the built-in verification suite")
    p.add_argument("--quick", action="store_true",
                   help="smaller census bounds for a fast smoke run")
    p.set_defaults(func=_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FlagmapsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
