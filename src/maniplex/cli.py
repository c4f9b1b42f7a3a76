"""Command-line front end.  ``enumerate --csv`` writes its rows from the
census's one array: labels once per shared facts tuple, slots in one pass.

Exit codes: 0 success, 2 parse error (also an input that is both a file
and a construction label, an output file or stdout that cannot be written, over
2,147,483,647 flags, the int32 limit, and ``enumerate`` over 10 vertices,
beyond the search's int16 rows), 3 validation error, 4 internal assertion
failure (a cross-checked identity broke), 5 not enough memory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from pathlib import Path

from . import constructions, formats
from .enumeration import census, is_fully_transitive
from .flag_graph import FlagGraph, InternalCheckError, validate
from .oriented import (aut_plus, classify_oriented, is_chiral_a_la_conway, orientation,
                       oriented_stg, stg_has_odd_closed_walk)
from .stg import class_labels, classify, quotient, transitivity_profile
from .symmetry import aut_group
from .walkgen import generates_full_group, realize_generators, reduce_generators

EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_INTERNAL = 4
EXIT_MEMORY = 5


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_input(label: str) -> tuple[str, FlagGraph]:
    path = Path(label)
    if os.path.exists(label):  # unlike Path.exists, False on a name too long to look up
        try:
            constructions.parse_label(label)
        except ValueError:
            pass  # not a label, so the file is meant
        else:
            raise CliError(f"{label!r} is both a file and a construction label; "
                           f"./{label} selects the file", EXIT_PARSE)
        try:
            text = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read {label}: {exc}", EXIT_PARSE) from exc
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


def _write(path, text: str) -> None:
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_PARSE) from exc


def _emit(text: str) -> None:
    """Write to stdout; a failure (a pipe closed early, a full device) points
    descriptor 1 at devnull for good, to quiet the flush of the exit it precedes."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(fd := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        os.close(fd)
        raise CliError(f"cannot write stdout: {exc}", EXIT_PARSE) from exc


def cmd_analyze(args) -> int:
    name, g = _load_input(args.input)
    problems = validate(g)
    if problems:
        for violation in problems:
            print(f"invalid: {violation}", file=sys.stderr)
        return EXIT_VALIDATE

    aut = aut_group(g)
    t = quotient(aut)
    payload: dict = {
        "input": name,
        "rank": g.rank,
        "flags": g.flag_count,
        "aut_order": aut.order,
        "orbit_count": aut.orbit_count,
        "class": classify(t).label(),
        "non_transitive": sorted(transitivity_profile(t)),
        "stg": {"vertices": t.vertex_count, "slots": t.slots},
    }

    if args.generators:
        gens = reduce_generators(realize_generators(aut, t))
        if not generates_full_group(gens, aut):
            raise InternalCheckError("generator closure does not match the automorphism group")
        payload["generators"] = {
            "words": [",".join(map(str, w)) for w in gens.words],
            "permutations": [formats.cycle_string(a) for a in gens.automorphisms],
            "closure_order": aut.order,
            "matches_aut": True,
        }

    ot = None
    if args.oriented:
        parity = orientation(g)
        if parity is None:
            payload["oriented"] = {"orientable": False}
        else:
            ap = aut_plus(aut, parity)
            if ap.orbit_count % 2:  # each colour pairs the black Aut+ orbits with the white
                raise InternalCheckError(f"Aut+ has an odd number of orbits, {ap.orbit_count}")
            block: dict = {
                "orientable": True,
                "aut_plus_order": ap.order,
                "index": aut.order // ap.order,
                "chiral_a_la_conway": is_chiral_a_la_conway(aut, ap, t),
                "black_orbit_count": ap.orbit_count // 2,
            }
            if g.rank >= 2:
                ot = oriented_stg(ap, parity)
                block["class"] = classify_oriented(ot).label()
                block["stg"] = {"vertices": ot.vertex_count, "undirected": ot.undirected,
                                "dart": ot.dart.tolist()}
            payload["oriented"] = block

    if args.dot:
        out = Path(args.dot)
        _write(out, formats.stg_to_dot(t))
        if ot is not None:
            extra = out.with_name(out.stem + ".oriented" + (out.suffix or ".dot"))
            _write(extra, formats.oriented_stg_to_dot(ot))

    _emit((formats.json_report(payload) if args.json else formats.text_report(payload)) + "\n")
    return 0


def cmd_enumerate(args) -> int:
    filters = []
    if args.fully_transitive:
        filters.append(is_fully_transitive)
    if args.bipartite:
        filters.append(lambda t: not stg_has_odd_closed_walk(t))
    try:
        graphs, stack = census(args.colors, args.vertices, filters=tuple(filters))
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    labels = class_labels(graphs) if args.csv or not args.count_only else []
    if args.csv:  # first, so that a failed write prints nothing
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["index", "vertices", "colours", "class", "slots"])
        writer.writerows((idx, args.vertices, args.colors, label, text)
                         for idx, (label, text) in enumerate(zip(labels, formats.slot_text(stack))))
        _write(args.csv, buffer.getvalue())
    lines = [str(len(graphs))]
    if not args.count_only:
        for idx, (t, label) in enumerate(zip(graphs, labels)):
            lines += [f"-- {idx}: {label}"] + ["   " + line for line in formats.stg_table(t.slots)]
    _emit("\n".join(lines) + "\n")
    return 0


def cmd_construct(args) -> int:
    try:
        g = constructions.construction(args.name)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    text = formats.write_maniplex_text(g)
    if args.out:
        _write(args.out, text)
    else:
        _emit(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It holds no command functions:
    ``main`` looks each up by name on every call, so a rebound one counts."""
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

    enum = sub.add_parser("enumerate", help="list admissible symmetry type graphs")
    enum.add_argument("--colors", type=int, required=True)
    enum.add_argument("--vertices", type=int, required=True)
    enum.add_argument("--fully-transitive", action="store_true")
    enum.add_argument("--bipartite", action="store_true",
                      help="keep only types without odd closed walks")
    enum.add_argument("--count-only", action="store_true")
    enum.add_argument("--csv", metavar="PATH")

    construct = sub.add_parser("construct", help="write a construction as a flag graph file")
    construct.add_argument("name", help="e.g. hypercube:3, torus44:1,2, cube")
    construct.add_argument("--out", metavar="PATH")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"analyze": cmd_analyze, "enumerate": cmd_enumerate, "construct": cmd_construct}
    try:
        return command[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError as exc:
        print(f"error: not enough memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
