"""Command-line front end.

Exit codes: 0 success, 2 parse error (also an input that is both a file
and a construction label), 3 validation error, 4 internal assertion
failure (a cross-checked identity broke).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import constructions, formats
from .enumeration import enumerate_stg, has_no_odd_closed_walks, is_fully_transitive
from .flag_graph import FlagGraph, InternalCheckError, component, validate
from .oriented import (aut_plus, black_orbit_count, classify_oriented,
                       is_chiral_a_la_conway, orientation, oriented_stg)
from .stg import classify, quotient, transitivity_profile
from .symmetry import aut_group
from .walkgen import realize_generators, reduce_generators

EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_input(label: str) -> tuple[str, FlagGraph]:
    path = Path(label)
    if path.exists():
        try:
            constructions.parse_label(label)
        except ValueError:
            pass  # not a label, so the file is meant
        else:
            raise CliError(f"{label!r} is both a file and a construction label; "
                           f"./{label} selects the file", EXIT_PARSE)
        text = path.read_text()
        head = text.lstrip().split(None, 1)[0] if text.strip() else ""
        try:
            if head == "map":
                return (path.stem, constructions.map_from_faces(formats.parse_map_text(text)))
            return (path.stem, formats.parse_maniplex_text(text))
        except (formats.ParseError, constructions.MapError) as exc:
            raise CliError(f"cannot parse {label}: {exc}", EXIT_PARSE) from exc
    try:
        return (label, constructions.construction(label))
    except ValueError as exc:
        raise CliError(f"cannot interpret input {label!r}: {exc}", EXIT_PARSE) from exc


def cmd_analyze(args) -> int:
    name, g = _load_input(args.input)
    problems = validate(g)
    if problems:
        for violation in problems:
            print(f"invalid: {violation}", file=sys.stderr)
        return EXIT_VALIDATE

    aut = aut_group(g)
    t = quotient(g, aut)
    cls = classify(t)
    profile = sorted(transitivity_profile(t))
    payload: dict = {
        "input": name,
        "rank": g.rank,
        "flags": g.flag_count,
        "aut_order": aut.order,
        "orbit_count": aut.orbit_count,
        "class": cls.label(),
        "non_transitive": profile,
        "stg": {"vertices": t.vertex_count, "slots": [list(row) for row in t.slots]},
    }
    text_lines = [
        f"input: {name}",
        f"rank: {g.rank}",
        f"flags: {g.flag_count}",
        f"aut order: {aut.order}",
        f"flag orbits: {aut.orbit_count}",
        f"class: {cls.label()}",
        "non-transitive ranks: {" + ",".join(map(str, profile)) + "}",
        "symmetry type graph:",
    ] + ["  " + row for row in formats.stg_table(t)]

    if args.generators:
        gens = reduce_generators(realize_generators(g, aut, t))
        # Aut acts freely, so the generated subgroup is as large as the
        # orbit of flag 0 under the generators
        closure_order = len(component([a.tolist() for a in gens.automorphisms], 0,
                                      g.flag_count))
        cycles = [formats.cycle_string(a) for a in gens.automorphisms]
        payload["generators"] = {
            "words": [",".join(map(str, w)) for w in gens.words],
            "permutations": cycles,
            "closure_order": closure_order,
            "matches_aut": closure_order == aut.order,
        }
        text_lines.append("generators:")
        for word, cycle in zip(gens.words, cycles):
            text_lines.append(f"  {','.join(map(str, word))}  {cycle}")
        text_lines.append(
            f"  closure order {closure_order} "
            f"({'matches' if closure_order == aut.order else 'MISMATCH with'} aut order)")
        if closure_order != aut.order:
            raise CliError("generator closure does not match the automorphism group",
                           EXIT_INTERNAL)

    oriented_dot = None
    if args.oriented:
        o = orientation(g)
        if o is None:
            payload["oriented"] = {"orientable": False}
            text_lines.append("orientable: no")
        else:
            ap = aut_plus(g, o, aut=aut)
            chiral = is_chiral_a_la_conway(g, o, aut=aut, a_plus=ap, stg=t)
            block: dict = {
                "orientable": True,
                "aut_plus_order": ap.order,
                "index": aut.order // ap.order,
                "chiral_a_la_conway": chiral,
                "black_orbit_count": black_orbit_count(ap, o),
            }
            text_lines.append("orientable: yes")
            text_lines.append(f"aut+ order: {ap.order} (index {aut.order // ap.order})")
            text_lines.append(f"chiral-a-la-Conway: {'yes' if chiral else 'no'}")
            if g.rank >= 2:
                ot = oriented_stg(g, o, a_plus=ap)
                ocls = classify_oriented(ot)
                block["class"] = ocls.label()
                block["stg"] = {
                    "vertices": ot.vertex_count,
                    "undirected": [list(row) for row in ot.undirected],
                    "dart": list(ot.dart),
                }
                text_lines.append(f"oriented class: {ocls.label()}")
                text_lines.append("oriented symmetry type di-graph:")
                text_lines += ["  " + row for row in formats.oriented_stg_table(ot)]
                oriented_dot = ot
            payload["oriented"] = block

    if args.dot:
        out = Path(args.dot)
        out.write_text(formats.stg_to_dot(t, name="stg"))
        if oriented_dot is not None:
            extra = out.with_name(out.stem + ".oriented" + (out.suffix or ".dot"))
            extra.write_text(formats.oriented_stg_to_dot(oriented_dot))

    if args.json:
        print(formats.json_report(payload))
    else:
        print("\n".join(text_lines))
    return 0


def cmd_enumerate(args) -> int:
    filters = []
    if args.fully_transitive:
        filters.append(is_fully_transitive)
    if args.bipartite:
        filters.append(has_no_odd_closed_walks)
    try:
        graphs = enumerate_stg(args.colors, args.vertices, filters=tuple(filters))
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    print(len(graphs))
    rows = []
    for idx, t in enumerate(graphs):
        rows.append({
            "index": idx,
            "vertices": t.vertex_count,
            "colours": t.rank,
            "class": classify(t).label(),
            "slots": ";".join(" ".join(str(s) for s in row) for row in t.slots),
        })
    if not args.count_only:
        for idx, t in enumerate(graphs):
            print(f"-- {idx}: {classify(t).label()}")
            for line in formats.stg_table(t):
                print("   " + line)
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=["index", "vertices", "colours", "class", "slots"])
            writer.writeheader()
            writer.writerows(rows)
    return 0


def cmd_construct(args) -> int:
    try:
        g = constructions.construction(args.name)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    text = formats.write_maniplex_text(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maniplex",
        description="Analyze flag graphs, enumerate symmetry type graphs, build examples.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="report symmetry data for one input")
    analyze.add_argument("input", help="file path or construction label (e.g. prism:3)")
    analyze.add_argument("--json", action="store_true", help="machine-readable output")
    analyze.add_argument("--dot", metavar="PATH", help="write the quotient in DOT format")
    analyze.add_argument("--generators", action="store_true",
                         help="derive generators from a spanning tree of the quotient")
    analyze.add_argument("--oriented", action="store_true",
                         help="add orientability and oriented quotient data")
    analyze.set_defaults(func=cmd_analyze)

    enum = sub.add_parser("enumerate", help="list admissible symmetry type graphs")
    enum.add_argument("--colors", type=int, required=True)
    enum.add_argument("--vertices", type=int, required=True)
    enum.add_argument("--fully-transitive", action="store_true")
    enum.add_argument("--bipartite", action="store_true",
                      help="keep only types without odd closed walks")
    enum.add_argument("--count-only", action="store_true")
    enum.add_argument("--csv", metavar="PATH")
    enum.set_defaults(func=cmd_enumerate)

    construct = sub.add_parser("construct", help="write a construction as a flag graph file")
    construct.add_argument("name", help="e.g. hypercube:3, torus44:1,2, cube")
    construct.add_argument("--out", metavar="PATH")
    construct.set_defaults(func=cmd_construct)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
