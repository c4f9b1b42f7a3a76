"""Builders for the worked example corpus.

Polygons, simplices, hypercubes, prisms, pyramids, the {4,4} torus
quadrangulations, and rank-3 maps ingested from face lists.  Every
builder returns a :class:`FlagGraph` that passes ``validate``.
"""

from __future__ import annotations

import math
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
    f = np.arange(2 * l, dtype=np.int32)
    # r0 joins flags 2k and 2k+1, r1 joins 2k+1 and 2k+2 (mod 2l)
    return FlagGraph([f ^ 1, (f - 1 + 2 * (f & 1)) % (2 * l)])


def _adjacent_swaps(n: int) -> np.ndarray:
    """Row i: the lexicographic index of each permutation of n points,
    indexed lexicographically, with its entries i and i+1 exchanged.

    A permutation's index is its Lehmer code, digit j (the number of
    later entries smaller than entry j) of weight (n-1-j)!.  The swap
    changes digits i and i+1 only: at an ascent, which is exactly where
    digit i <= digit i+1, (a, b) becomes (b+1, a); at a descent,
    (b, a-1).
    """
    t = np.arange(math.factorial(n), dtype=np.int32)
    out = np.empty((n - 1, t.size), dtype=np.int32)
    for i in range(n - 1):
        w0, w1 = math.factorial(n - 1 - i), math.factorial(n - 2 - i)
        a, b = t // w0 % (n - i), t // w1 % (n - 1 - i)
        up = (a <= b).astype(np.int32)
        out[i] = t + (b - a + up) * w0 + (a - b - 1 + up) * w1
    return out


def simplex(d: int) -> FlagGraph:
    """Flag graph of the d-simplex: (d+1)! flags, colour i swaps chain steps.

    A flag is an ordering of the d+1 vertices (the chain adds one vertex
    per rank); colour i exchanges the entries in positions i and i+1.
    Orderings are indexed lexicographically.
    """
    if d < 1:
        raise ValueError("simplex needs d >= 1")
    return FlagGraph(_adjacent_swaps(d + 1))


def hypercube(d: int) -> FlagGraph:
    """Flag graph of the d-cube: 2^d * d! flags.

    A flag is (corner, direction order): the chain grows the subcube at
    the corner one coordinate direction at a time.  Colour 0 flips the
    corner along the first direction, which is the first Lehmer digit of
    the order; colour i >= 1 swaps directions at positions i-1 and i.
    Flags are indexed lexicographically by (corner bits, direction order).
    """
    if d < 1:
        raise ValueError("hypercube needs d >= 1")
    nperm = math.factorial(d)
    corner, t = np.divmod(np.arange(nperm << d, dtype=np.int32), nperm)
    flip = (corner ^ (1 << (t // (nperm // d)))) * nperm + t
    return FlagGraph(np.vstack([flip, corner * nperm + _adjacent_swaps(d)[:, t]]))


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

    def canon(x, y):
        # nearest-lattice-point reduction; the tie rule is translation
        # invariant, so equivalent points share one representative
        (s, t), _ = np.divmod([2 * (x * b + y * c) + n, 2 * (y * b - x * c) + n], 2 * n)
        return x - s * b + t * c, y - s * c - t * b

    # a box of side |b| + |c| holds a point of every lattice class, and
    # representatives lie within reach of the origin
    reach = abs(b) + abs(c)

    def code(x, y):
        # increasing in (x, y) lexicographically
        return (x + reach) * (2 * reach + 1) + y + reach

    box = np.divmod(np.arange(reach * reach), reach)
    occupied = np.bincount(code(*canon(*box))) > 0
    cells = np.flatnonzero(occupied)
    assert cells.size == n
    x, y = np.divmod(cells[:, None], 2 * reach + 1)

    # per (corner, half) slot 2k+h: r0 pairs the two halves leaning on the
    # edge from corner k to k+1, r1 swaps halves, and r2 crosses the cell
    # edge of each slot to (cell offset, slot') of the neighbour
    r0 = np.array([3, 6, 5, 0, 7, 2, 1, 4], dtype=np.int32)
    r1 = np.array([1, 0, 3, 2, 5, 4, 7, 6], dtype=np.int32)
    dx = np.array([0, -1, 1, 0, 0, 1, -1, 0], dtype=np.int32)
    dy = np.array([-1, 0, 0, -1, 1, 0, 0, 1], dtype=np.int32)
    r2 = np.array([7, 2, 1, 4, 3, 6, 5, 0], dtype=np.int32)
    base = 8 * np.arange(n, dtype=np.int32)[:, None]
    across = 8 * (np.cumsum(occupied) - 1)[code(*canon(x - reach + dx, y - reach + dy))]
    return FlagGraph([(base + r0).ravel(), (base + r1).ravel(), (across + r2).ravel()])


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
