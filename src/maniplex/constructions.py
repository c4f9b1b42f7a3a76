"""Builders for the worked example corpus.

Polygons, simplices, hypercubes, prisms, pyramids, the {4,4} torus
quadrangulations, and rank-3 maps ingested from face lists.  Every
builder returns a :class:`FlagGraph` that passes ``validate``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .flag_graph import FlagGraph


class MapError(ValueError):
    """Raised for face lists that do not describe a closed surface map."""


@dataclass(frozen=True)
class MapSpec:
    """A rank-3 map given by its face cycles.

    Each face is a cyclic sequence of vertex indices; every edge (an
    unordered vertex pair read off consecutive cycle entries) must occur
    in exactly two face slots, possibly both in the same face.
    """

    vertex_count: int
    faces: tuple[tuple[int, ...], ...]


def _face_slots(spec: MapSpec):
    """All (face, position) slots keyed by their unordered edge."""
    slots: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for fi, cycle in enumerate(spec.faces):
        if len(cycle) < 3:
            raise MapError(f"face {fi} has fewer than 3 vertices")
        for p, u in enumerate(cycle):
            v = cycle[(p + 1) % len(cycle)]
            if u == v:
                raise MapError(f"face {fi} repeats vertex {u} consecutively")
            if not (0 <= u < spec.vertex_count and 0 <= v < spec.vertex_count):
                raise MapError(f"face {fi} uses a vertex outside 0..{spec.vertex_count - 1}")
            slots.setdefault((min(u, v), max(u, v)), []).append((fi, p))
    return slots


def map_from_faces(spec: MapSpec) -> FlagGraph:
    """Flag graph of a map: 4 flags per edge, colours (vertex, edge, face).

    Flags are indexed lexicographically by (face index, position in
    cycle, side): side 0 sits at the tail of the directed edge read from
    the cycle, side 1 at its head.
    """
    slots = _face_slots(spec)
    seen_vertices = {u for cycle in spec.faces for u in cycle}
    if seen_vertices != set(range(spec.vertex_count)):
        raise MapError("some vertices appear in no face")
    for edge, where in slots.items():
        if len(where) != 2:
            raise MapError(f"edge {edge} lies in {len(where)} face slots, expected 2")

    base = []
    total = 0
    for cycle in spec.faces:
        base.append(total)
        total += 2 * len(cycle)

    def fid(fi: int, p: int, side: int) -> int:
        return base[fi] + 2 * p + side

    r0 = np.empty(total, dtype=np.int32)
    r1 = np.empty(total, dtype=np.int32)
    r2 = np.empty(total, dtype=np.int32)
    for fi, cycle in enumerate(spec.faces):
        m = len(cycle)
        for p in range(m):
            r0[fid(fi, p, 0)] = fid(fi, p, 1)
            r0[fid(fi, p, 1)] = fid(fi, p, 0)
            r1[fid(fi, p, 1)] = fid(fi, (p + 1) % m, 0)
            r1[fid(fi, (p + 1) % m, 0)] = fid(fi, p, 1)
    for (u, v), ((fa, pa), (fb, pb)) in slots.items():
        tail_a = spec.faces[fa][pa]
        tail_b = spec.faces[fb][pb]
        if tail_a == tail_b:
            r2[fid(fa, pa, 0)] = fid(fb, pb, 0)
            r2[fid(fb, pb, 0)] = fid(fa, pa, 0)
            r2[fid(fa, pa, 1)] = fid(fb, pb, 1)
            r2[fid(fb, pb, 1)] = fid(fa, pa, 1)
        else:
            r2[fid(fa, pa, 0)] = fid(fb, pb, 1)
            r2[fid(fb, pb, 1)] = fid(fa, pa, 0)
            r2[fid(fa, pa, 1)] = fid(fb, pb, 0)
            r2[fid(fb, pb, 0)] = fid(fa, pa, 1)

    g = FlagGraph([r0, r1, r2])
    if not g.is_connected():
        raise MapError("map is disconnected")
    return g


def polygon(l: int) -> FlagGraph:
    """The l-gon as a rank-2 flag graph on 2l flags."""
    if l < 2:
        raise ValueError("polygon needs l >= 2")
    r0 = np.empty(2 * l, dtype=np.int32)
    r1 = np.empty(2 * l, dtype=np.int32)
    for k in range(l):
        r0[2 * k] = 2 * k + 1
        r0[2 * k + 1] = 2 * k
        r1[2 * k + 1] = (2 * k + 2) % (2 * l)
        r1[(2 * k + 2) % (2 * l)] = 2 * k + 1
    return FlagGraph([r0, r1])


def simplex(d: int) -> FlagGraph:
    """Flag graph of the d-simplex: (d+1)! flags, colour i swaps chain steps.

    A flag is an ordering of the d+1 vertices (the chain adds one vertex
    per rank); colour i exchanges the entries in positions i and i+1.
    Orderings are indexed lexicographically.
    """
    if d < 1:
        raise ValueError("simplex needs d >= 1")
    perms = list(itertools.permutations(range(d + 1)))
    index = {p: t for t, p in enumerate(perms)}
    adj = np.empty((d, len(perms)), dtype=np.int32)
    for t, p in enumerate(perms):
        for i in range(d):
            q = list(p)
            q[i], q[i + 1] = q[i + 1], q[i]
            adj[i, t] = index[tuple(q)]
    return FlagGraph(adj)


def hypercube(d: int) -> FlagGraph:
    """Flag graph of the d-cube: 2^d * d! flags.

    A flag is (corner, direction order): the chain grows the subcube at
    the corner one coordinate direction at a time.  Colour 0 flips the
    corner along the first direction; colour i >= 1 swaps directions at
    positions i-1 and i.  Flags are indexed lexicographically by
    (corner bits, direction order).
    """
    if d < 1:
        raise ValueError("hypercube needs d >= 1")
    perms = list(itertools.permutations(range(d)))
    pindex = {p: t for t, p in enumerate(perms)}
    nperm = len(perms)
    total = (1 << d) * nperm
    adj = np.empty((d, total), dtype=np.int32)
    for v in range(1 << d):
        for t, p in enumerate(perms):
            f = v * nperm + t
            adj[0, f] = (v ^ (1 << p[0])) * nperm + t
            for i in range(1, d):
                q = list(p)
                q[i - 1], q[i] = q[i], q[i - 1]
                adj[i, f] = v * nperm + pindex[tuple(q)]
    return FlagGraph(adj)


def prism(l: int) -> FlagGraph:
    """Map of the l-gonal prism (12l flags)."""
    if l < 3:
        raise ValueError("prism needs l >= 3")
    bottom = tuple(range(l))
    top = tuple(range(l, 2 * l))
    squares = tuple((k, (k + 1) % l, l + (k + 1) % l, l + k) for k in range(l))
    return map_from_faces(MapSpec(2 * l, (bottom, top) + squares))


def pyramid(l: int) -> FlagGraph:
    """Map of the l-gonal pyramid (8l flags)."""
    if l < 3:
        raise ValueError("pyramid needs l >= 3")
    base = tuple(range(l))
    triangles = tuple((k, (k + 1) % l, l) for k in range(l))
    return map_from_faces(MapSpec(l + 1, (base,) + triangles))


def torus44(b: int, c: int) -> FlagGraph:
    """The torus quadrangulation {4,4}_(b,c) on 8(b^2+c^2) flags.

    Quotient of the unit square grid by the lattice spanned by (b, c)
    and (-c, b).  Flags are indexed lexicographically by (cell x, cell y,
    corner, triangle half); corner k of the cell at (x, y) is the k-th
    point of ((x,y), (x+1,y), (x+1,y+1), (x,y+1)), half 0 leans on the
    edge towards corner k+1 and half 1 on the edge towards corner k-1.
    """
    if (b, c) == (0, 0):
        raise ValueError("(b, c) must not be (0, 0)")
    n = b * b + c * c

    def canon(x: int, y: int) -> tuple[int, int]:
        # nearest-lattice-point reduction; the tie rule is translation
        # invariant, so equivalent points share one representative
        u = x * b + y * c
        v = y * b - x * c
        s = (2 * u + n) // (2 * n)
        t = (2 * v + n) // (2 * n)
        return (x - s * b + t * c, y - s * c - t * b)

    cells = set()
    frontier = [canon(0, 0)]
    cells.add(frontier[0])
    while frontier:
        x, y = frontier.pop()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            p = canon(x + dx, y + dy)
            if p not in cells:
                cells.add(p)
                frontier.append(p)
    order = sorted(cells)
    cell_index = {p: t for t, p in enumerate(order)}
    assert len(order) == n

    def fid(cell: tuple[int, int], k: int, h: int) -> int:
        return cell_index[canon(*cell)] * 8 + 2 * k + h

    # r2 crosses the cell edge holding each (corner, half) triangle:
    # (corner, half) -> (cell offset, corner', half')
    across = {
        (0, 0): ((0, -1), 3, 1),
        (1, 1): ((0, -1), 2, 0),
        (3, 1): ((0, 1), 0, 0),
        (2, 0): ((0, 1), 1, 1),
        (1, 0): ((1, 0), 0, 1),
        (2, 1): ((1, 0), 3, 0),
        (0, 1): ((-1, 0), 1, 0),
        (3, 0): ((-1, 0), 2, 1),
    }

    total = 8 * n
    r0 = np.empty(total, dtype=np.int32)
    r1 = np.empty(total, dtype=np.int32)
    r2 = np.empty(total, dtype=np.int32)
    for cell in order:
        for k in range(4):
            a = fid(cell, k, 0)
            bflag = fid(cell, (k + 1) % 4, 1)
            r0[a] = bflag
            r0[bflag] = a
            r1[fid(cell, k, 0)] = fid(cell, k, 1)
            r1[fid(cell, k, 1)] = fid(cell, k, 0)
            for h in (0, 1):
                (dx, dy), k2, h2 = across[(k, h)]
                r2[fid(cell, k, h)] = fid((cell[0] + dx, cell[1] + dy), k2, h2)
    return FlagGraph([r0, r1, r2])


def _load_map_spec(name: str) -> MapSpec:
    from .formats import parse_map_text

    text = resources.files("maniplex").joinpath(f"data/{name}.map").read_text()
    return parse_map_text(text)


def cube() -> FlagGraph:
    return map_from_faces(_load_map_spec("cube"))


def tetrahedron() -> FlagGraph:
    return map_from_faces(_load_map_spec("tetrahedron"))


def octahedron() -> FlagGraph:
    return map_from_faces(_load_map_spec("octahedron"))


def cuboctahedron() -> FlagGraph:
    return map_from_faces(_load_map_spec("cuboctahedron"))


def hemicube() -> FlagGraph:
    return map_from_faces(_load_map_spec("hemicube"))


_PARAMETRIC = {
    "polygon": (polygon, 1),
    "simplex": (simplex, 1),
    "hypercube": (hypercube, 1),
    "prism": (prism, 1),
    "pyramid": (pyramid, 1),
    "torus44": (torus44, 2),
}

_NAMED = {
    "cube": cube,
    "tetrahedron": tetrahedron,
    "octahedron": octahedron,
    "cuboctahedron": cuboctahedron,
    "hemicube": hemicube,
}


# The worked example corpus: every label here builds and validates.
CORPUS = tuple(
    [f"polygon:{l}" for l in range(3, 13)]
    + [f"simplex:{d}" for d in range(1, 6)]
    + [f"hypercube:{d}" for d in range(1, 6)]
    + [f"prism:{l}" for l in range(3, 9)]
    + [f"pyramid:{l}" for l in range(3, 9)]
    + ["cube", "tetrahedron", "octahedron", "cuboctahedron", "hemicube"]
    + [f"torus44:{b},{c}" for b in range(6) for c in range(6)
       if (b, c) != (0, 0) and b * b + c * c <= 25]
)


def parse_label(label: str):
    """The builder a label like ``prism:3`` or ``cube`` names, and its
    integer parameters; ValueError when it names none."""
    name, _, args = label.partition(":")
    if name in _NAMED:
        if args:
            raise ValueError(f"{name} takes no parameters")
        return _NAMED[name], ()
    if name in _PARAMETRIC:
        builder, arity = _PARAMETRIC[name]
        parts = [p for p in args.split(",") if p] if args else []
        if len(parts) != arity:
            raise ValueError(f"{name} takes {arity} parameter(s), e.g. {name}:" + ",".join("1" * arity))
        return builder, tuple(int(p) for p in parts)
    raise ValueError(f"unknown construction {name!r}")


def construction(label: str) -> FlagGraph:
    """Build a corpus item from a label like ``prism:3`` or ``cube``."""
    builder, params = parse_label(label)
    return builder(*params)
