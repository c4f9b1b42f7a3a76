"""Text formats, the analysis report, and its renderers.

Flag graph files: a header ``maniplex rank=<n> flags=<F>`` followed by
one line per colour, ``r<i>: <F images>``.  Map files, read into a
``MapSpec``: a header ``map vertices=<V>`` followed by one face cycle per
line.  ``#`` starts a comment; blank lines are ignored.  All indices are
0-based.  A colour line of ASCII digits and blanks is read by one numpy parse.

``report`` runs the analysis and builds its one payload, the only code
that writes the schema; ``text_report``, ``json_report`` (the bytes of
``json.dumps(indent=2)``) and the two DOT writers read it, and no
renderer takes a graph object.  Cycle notation is one byte array of
cells, digits from one table.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .flag_graph import FlagGraph, InternalCheckError, Record
from .oriented import (aut_plus, classify_oriented, is_chiral_a_la_conway, orientation,
                       oriented_stg)
from .stg import SEMI, classify, quotient, transitivity_profile
from .symmetry import aut_group, invert
from .walkgen import generates_full_group, realize_generators, reduce_generators

JSON_SCHEMA_VERSION = 1

PALETTE = ("#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02", "#a6761d")


class ParseError(ValueError):
    pass


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _header_fields(line: str, kind: str, keys: tuple[str, ...]) -> list[int]:
    parts = line.split()
    if not parts or parts[0] != kind or len(parts) != 1 + len(keys):
        raise ParseError(f"expected header '{kind} " + " ".join(f"{k}=<int>" for k in keys) + "'")
    values = []
    for key, part in zip(keys, parts[1:]):
        name, _, val = part.partition("=")
        if name != key or not val:
            raise ParseError(f"bad header field {part!r}, expected {key}=<int>")
        try:
            values.append(int(val))
        except ValueError as exc:
            raise ParseError(f"bad integer in header: {val!r}") from exc
        if values[-1] < 1:
            raise ParseError(f"header field {part!r} is below 1")
    return values


def _colour_row(rest: str):
    """A colour line's flag indices, after its tag: where it holds only
    ASCII digits and blanks, one numpy parse (saturating beyond int64,
    still out of range) if that read one number per digit run; else
    ``int`` per token."""
    b = np.frombuffer(rest.encode("ascii", "replace"), dtype=np.uint8)
    digit = b - 48 < 10  # uint8 arithmetic wraps, so only b"0".."9"
    if (digit | (b == 32)).all():
        row = np.fromstring(rest, dtype=np.int64, sep=" ")
        if row.size == np.count_nonzero(digit[1:] > digit[:-1]) + digit[:1].sum():
            return row
    return [int(tok) for tok in rest.split()]


def parse_maniplex_text(text: str) -> FlagGraph:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty maniplex file")
    rank, flags = _header_fields(lines[0], "maniplex", ("rank", "flags"))
    if len(lines) != 1 + rank:
        raise ParseError(f"expected {rank} colour lines, found {len(lines) - 1}")
    adj = []
    for i, line in enumerate(lines[1:]):
        tag, _, rest = line.partition(":")
        if tag.strip() != f"r{i}":
            raise ParseError(f"expected line 'r{i}: ...', found {tag!r}")
        try:
            row = _colour_row(rest)
        except ValueError as exc:
            raise ParseError(f"bad flag index on line r{i}") from exc
        if len(row) != flags:
            raise ParseError(f"line r{i} lists {len(row)} flags, expected {flags}")
        adj.append(row)
    try:
        return FlagGraph(adj)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_maniplex_text(g: FlagGraph) -> str:
    lines = [f"maniplex rank={g.rank} flags={g.flag_count}"]
    for i in range(g.rank):
        lines.append(f"r{i}: " + " ".join(str(int(x)) for x in g.adj[i]))
    return "\n".join(lines) + "\n"


class MapSpec(Record):
    """A rank-3 map given by its face cycles.

    Each face is a cyclic sequence of vertex indices; every edge (an
    unordered vertex pair read off consecutive cycle entries) must occur
    in exactly two face slots, possibly both in the same face.
    """

    __slots__ = ("vertex_count", "faces")


def parse_map_text(text: str) -> MapSpec:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty map file")
    (vertices,) = _header_fields(lines[0], "map", ("vertices",))
    faces = []
    for line in lines[1:]:
        try:
            faces.append(tuple(int(tok) for tok in line.split()))
        except ValueError as exc:
            raise ParseError(f"bad vertex index in face line {line!r}") from exc
    if not faces:
        raise ParseError("map file lists no faces")
    return MapSpec(vertex_count=vertices, faces=tuple(faces))


# ---------------------------------------------------------------------------
# DOT


def stg_to_dot(slots) -> str:
    """The payload's ``slots`` as a DOT graph: the edges to a later vertex,
    then the semi-edges, each by vertex and then colour."""
    hue = [PALETTE[c % len(PALETTE)] for c in range(len(slots[0]))]
    lines = ["graph stg {", "  node [shape=circle];"]
    lines += [f'  v{u} [label="{u}"];' for u in range(len(slots))]
    lines += [f'  v{u} -- v{v} [label="{c}", color="{hue[c]}"];'
              for u, row in enumerate(slots) for c, v in enumerate(row) if v > u]
    lines += [f'  v{u} -- v{u} [label="{c} semi", color="{hue[c]}", style=dashed];'
              for u, row in enumerate(slots) for c, v in enumerate(row) if v == SEMI]
    return "\n".join(lines + ["}"]) + "\n"


def oriented_stg_to_dot(undirected, dart) -> str:
    """The payload's oriented ``undirected`` rows and ``dart`` as a DOT di-graph."""
    rank = len(undirected[0]) + 2
    hue = [PALETTE[c % len(PALETTE)] for c in range(rank - 1)]
    lines = ["digraph oriented_stg {", "  node [shape=circle];"]
    lines += [f'  v{u} [label="{u}"];' for u in range(len(dart))]
    for u, row in enumerate(undirected):
        lines += [f'  v{u} -> v{u} [label="t{c} semi", color="{hue[c]}", style=dashed, dir=none];'
                  if s == SEMI else f'  v{u} -> v{s} [label="t{c}", color="{hue[c]}", dir=none];'
                  for c, s in enumerate(row) if s == SEMI or s > u]
    lines += [f'  v{u} -> v{d} [label="t{rank - 2}", color="{hue[-1]}"];'
              for u, d in enumerate(dart)]
    return "\n".join(lines + ["}"]) + "\n"


# ---------------------------------------------------------------------------
# The report and its renderers


def report(name: str, g: FlagGraph, generators: bool = False, oriented: bool = False) -> dict:
    """The ``analyze`` payload of ``g``, which ``validate`` must accept (``aut_group``
    requires it).  InternalCheckError where a cross-check breaks: a generator
    closure short of Aut, or an odd number of Aut+ orbits."""
    aut = aut_group(g)
    t = quotient(aut)
    payload: dict = {"input": name, "rank": g.rank, "flags": g.flag_count,
                     "aut_order": aut.order, "orbit_count": aut.orbit_count,
                     "class": classify(t).label(),
                     "non_transitive": sorted(transitivity_profile(t)),
                     "stg": {"vertices": t.vertex_count, "slots": t.slots}}
    if generators:
        gens = reduce_generators(realize_generators(aut, t))
        if not generates_full_group(gens, aut):
            raise InternalCheckError("generator closure does not match the automorphism group")
        payload["generators"] = {"words": [",".join(map(str, w)) for w in gens.words],
                                 "permutations": [cycle_string(a) for a in gens.automorphisms],
                                 "closure_order": aut.order, "matches_aut": True}
    if oriented:
        parity = orientation(g)
        if parity is None:
            payload["oriented"] = {"orientable": False}
            return payload
        ap = aut_plus(aut, parity)
        if ap.orbit_count % 2:  # each colour pairs the black Aut+ orbits with the white
            raise InternalCheckError(f"Aut+ has an odd number of orbits, {ap.orbit_count}")
        block = payload["oriented"] = {
            "orientable": True, "aut_plus_order": ap.order, "index": aut.order // ap.order,
            "chiral_a_la_conway": is_chiral_a_la_conway(aut, ap, t),
            "black_orbit_count": ap.orbit_count // 2}
        if g.rank >= 2:
            ot = oriented_stg(ap, parity)
            block["class"] = classify_oriented(ot).label()
            block["stg"] = {"vertices": ot.vertex_count, "undirected": ot.undirected,
                            "dart": ot.dart.tolist()}
    return payload


def _digits(count: int) -> np.ndarray:
    """The digits of 0..count-1 as right-aligned uint8 rows: column j
    cycles through each digit 10^(width-1-j) times, leading zeros 0 bytes."""
    width = len(str(count - 1))
    table = np.empty((count, width), np.uint8)
    for j in range(width):
        run = 10 ** (width - 1 - j)
        table[:, j] = np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8), run),
                              -(-count // (10 * run)))[:count]
        table[:run * (j < width - 1), j] = 0  # the numbers below run; 0 keeps its one digit
    return table


def cycle_string(perm: np.ndarray) -> str:
    """Permutation in cycle notation, fixed points omitted ('()' if identity).

    Cycles start at their least points, in order of least point.  Pointer
    doubling along the inverse: after k rounds ``least[f]`` is the least
    of the 2^k points up to f in its cycle and ``back[f]`` the steps from
    it to f; once no minimum changes, each window covers its cycle.  A
    moved point's row, at the sizes of the earlier cycles plus its ``back``,
    holds "(" or " ", its digits, then ")" or 0 bytes, which are dropped.
    """
    perm = np.asarray(perm)
    least = np.arange(perm.size, dtype=perm.dtype)
    step, back, span = invert(perm), np.zeros_like(least), 1
    while (better := (ahead := least.take(step)) < least).any():
        least, back = np.where(better, ahead, least), np.where(better, back.take(step) + span, back)
        step, span = step.take(step), 2 * span
    moved = np.flatnonzero(perm != np.arange(perm.size))
    sizes = np.bincount(first := least.take(moved), minlength=perm.size)
    order = np.empty_like(moved)
    order[(np.cumsum(sizes) - sizes).take(first) + back.take(moved)] = moved
    # a cycle opens at its least point and closes where perm returns to it
    cells = np.zeros((moved.size, len(str(perm.size - 1)) + 2), np.uint8)
    cells[:, 0] = np.where(back.take(order) == 0, ord("("), ord(" "))
    cells[:, 1:-1] = _digits(perm.size).take(order, axis=0)
    cells[:, -1] = np.where(perm.take(order) == least.take(order), ord(")"), 0)
    return cells.tobytes().replace(b"\0", b"").decode() or "()"


def _vertex_names(count: int) -> list[str]:
    """Cell text by slot value: ``v<u>`` at index u, and "semi" at
    index -1, which is SEMI."""
    return [f"v{u}" for u in range(count)] + ["semi"]


def _table(cells: list[str], columns, count: int) -> list[str]:
    """``count`` lines ``v<u>  <cell>  <cell> ...``, entry u of each column
    in its cell's ``%s``; one format string writes them all."""
    line = "  ".join(["v%d"] + cells)
    rows = zip(range(count), *columns)
    return ("\n".join([line] * count) % tuple(chain.from_iterable(rows))).split("\n")


def stg_table(slots) -> list[str]:
    names = _vertex_names(len(slots))
    columns = [map(names.__getitem__, col) for col in zip(*slots)]
    return _table([f"{i}:%s" for i in range(len(columns))], columns, len(slots))


def slot_text(stack: np.ndarray) -> list[str]:
    """The CSV text of the slots of each tuple of a stack (tuples,
    colours, k): a vertex's partners, SEMI at a fixed point, joined by
    " ", the vertices by ";".  Each entry is its separator and number,
    zero-padded in one byte buffer; dropping the zeros leaves the text."""
    k = stack.shape[2]
    names = np.array([f" {v}" for v in [*range(k), SEMI]], "S")
    slots = np.where(stack == np.arange(k), k, stack).transpose(0, 2, 1).copy()
    cells = names[slots].view(np.uint8).reshape(*slots.shape, names.itemsize)
    cells[:, :, 0, 0], cells[:, 0, 0, 0] = ord(";"), ord("\n")
    return cells.tobytes().replace(b"\0", b"").decode().split("\n")[1:]


def oriented_stg_table(undirected, dart) -> list[str]:
    """The directed class t_{n-2} is numbered after the n-2 undirected ones."""
    names = _vertex_names(len(dart))
    columns = [map(names.__getitem__, col) for col in zip(*undirected)]
    columns.append(["loop" if d == u else "->" + names[d] for u, d in enumerate(dart)])
    return _table([f"t{i}:%s" for i in range(len(columns))], columns, len(dart))


def text_report(p: dict) -> str:
    """The text form of an ``analyze`` payload."""
    lines = [f"{label}: {p[key]}" for label, key in (
        ("input", "input"), ("rank", "rank"), ("flags", "flags"), ("aut order", "aut_order"),
        ("flag orbits", "orbit_count"), ("class", "class"))]
    lines.append("non-transitive ranks: {" + ",".join(map(str, p["non_transitive"])) + "}")
    lines += ["symmetry type graph:"] + ["  " + row for row in stg_table(p["stg"]["slots"])]
    gens = p.get("generators")
    if gens is not None:
        lines.append("generators:")
        lines += [f"  {w}  {c}" for w, c in zip(gens["words"], gens["permutations"])]
        lines.append(f"  closure order {gens['closure_order']} (matches aut order)")
    o = p.get("oriented")
    if o is not None and not o["orientable"]:
        lines.append("orientable: no")
    elif o is not None:
        lines += ["orientable: yes",
                  f"aut+ order: {o['aut_plus_order']} (index {o['index']})",
                  f"chiral-a-la-Conway: {'yes' if o['chiral_a_la_conway'] else 'no'}"]
        if "stg" in o:
            lines += [f"oriented class: {o['class']}", "oriented symmetry type di-graph:"]
            lines += ["  " + row for row in oriented_stg_table(o["stg"]["undirected"],
                                                               o["stg"]["dart"])]
    return "\n".join(lines)


def _json(obj, indent: str) -> str:
    """``json.dumps(obj, indent=2)`` at ``indent``; int lists and int matrices by one format."""
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = indent + "  "
    if isinstance(obj, dict):
        items = ",\n".join(f"{inner}{json.dumps(k)}: {_json(v, inner)}" for k, v in obj.items())
        return f"{{\n{items}\n{indent}}}"
    cell, values = "%d", obj
    if set(map(type, obj)) <= {list, tuple} and len(set(map(len, obj))) == 1 and obj[0]:
        cell = "[\n" + ",\n".join([inner + "  %d"] * len(obj[0])) + f"\n{inner}]"
        values = tuple(chain.from_iterable(obj))
    if set(map(type, values)) == {int}:
        return "[\n" + ",\n".join([inner + cell] * len(obj)) % tuple(values) + f"\n{indent}]"
    items = ",\n".join(inner + _json(v, inner) for v in obj)
    return f"[\n{items}\n{indent}]"


def json_report(payload: dict) -> str:
    """The bytes of ``json.dumps({"schema": 1, **payload}, indent=2)``."""
    return _json({"schema": JSON_SCHEMA_VERSION, **payload}, "")
