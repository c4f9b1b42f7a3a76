"""Text formats, DOT export, and the JSON report schema.

Flag graph files: a header ``maniplex rank=<n> flags=<F>`` followed by
one line per colour, ``r<i>: <F images>``.  Map files: a header
``map vertices=<V>`` followed by one face cycle per line.  ``#`` starts
a comment; blank lines are ignored.  All indices are 0-based.
"""

from __future__ import annotations

import json

import numpy as np

from .constructions import MapSpec
from .flag_graph import FlagGraph
from .oriented import OrientedFlagDigraph, OrientedSTG
from .stg import SEMI, SymmetryTypeGraph

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
    return values


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
            row = [int(tok) for tok in rest.split()]
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


def write_map_text(spec: MapSpec) -> str:
    lines = [f"map vertices={spec.vertex_count}"]
    for cycle in spec.faces:
        lines.append(" ".join(str(v) for v in cycle))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT


def stg_to_dot(t: SymmetryTypeGraph, name: str = "stg") -> str:
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for u in range(t.vertex_count):
        lines.append(f'  v{u} [label="{u}"];')
    for u, v, colour in t.edges():
        hue = PALETTE[colour % len(PALETTE)]
        lines.append(f'  v{u} -- v{v} [label="{colour}", color="{hue}"];')
    for u in range(t.vertex_count):
        for colour in sorted(t.semi_colours(u)):
            hue = PALETTE[colour % len(PALETTE)]
            lines.append(
                f'  v{u} -- v{u} [label="{colour} semi", color="{hue}", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def oriented_stg_to_dot(ot: OrientedSTG, name: str = "oriented_stg") -> str:
    lines = [f"digraph {name} {{", "  node [shape=circle];"]
    for u in range(ot.vertex_count):
        lines.append(f'  v{u} [label="{u}"];')
    for u in range(ot.vertex_count):
        for colour, s in enumerate(ot.undirected[u]):
            hue = PALETTE[colour % len(PALETTE)]
            if s == SEMI:
                lines.append(
                    f'  v{u} -> v{u} [label="t{colour} semi", color="{hue}", '
                    'style=dashed, dir=none];')
            elif s > u:
                lines.append(
                    f'  v{u} -> v{s} [label="t{colour}", color="{hue}", dir=none];')
    hue = PALETTE[(ot.rank - 2) % len(PALETTE)]
    for u in range(ot.vertex_count):
        lines.append(f'  v{u} -> v{ot.dart[u]} [label="t{ot.rank - 2}", color="{hue}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def digraph_to_dot(d: OrientedFlagDigraph, name: str = "oriented_flags") -> str:
    lines = [f"digraph {name} {{", "  node [shape=point];"]
    for i in range(d.rank - 2):
        hue = PALETTE[i % len(PALETTE)]
        for f in range(d.black_count):
            g = int(d.t_adj[i, f])
            if f < g:
                lines.append(f'  b{f} -> b{g} [label="t{i}", color="{hue}", dir=none];')
    hue = PALETTE[(d.rank - 2) % len(PALETTE)]
    for f in range(d.black_count):
        lines.append(f'  b{f} -> b{int(d.rot[f])} [label="t{d.rank - 2}", color="{hue}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON / text report helpers


def cycle_string(perm: np.ndarray) -> str:
    """Permutation in cycle notation, fixed points omitted ('()' if identity)."""
    perm = perm.tolist()
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            seen[nxt] = True
            cycle.append(nxt)
            nxt = perm[nxt]
        if len(cycle) > 1:
            parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"


def stg_table(t: SymmetryTypeGraph) -> list[str]:
    out = []
    for u in range(t.vertex_count):
        cells = []
        for i, s in enumerate(t.slots[u]):
            cells.append(f"{i}:semi" if s == SEMI else f"{i}:v{s}")
        out.append(f"v{u}  " + "  ".join(cells))
    return out


def oriented_stg_table(ot: OrientedSTG) -> list[str]:
    out = []
    for u in range(ot.vertex_count):
        cells = []
        for i, s in enumerate(ot.undirected[u]):
            cells.append(f"t{i}:semi" if s == SEMI else f"t{i}:v{s}")
        d = ot.dart[u]
        cells.append(f"t{ot.rank - 2}:loop" if d == u else f"t{ot.rank - 2}:->v{d}")
        out.append(f"v{u}  " + "  ".join(cells))
    return out


def json_report(payload: dict) -> str:
    return json.dumps({"schema": JSON_SCHEMA_VERSION, **payload}, indent=2, sort_keys=False)
