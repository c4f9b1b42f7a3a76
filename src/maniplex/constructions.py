"""Builders for the worked example corpus: polygons, simplices,
hypercubes, prisms, pyramids, the {4,4} torus quadrangulations, and
rank-3 maps read from face lists in array passes.  Every builder
returns a :class:`FlagGraph` that passes ``validate``, with no tree:
its first user (``validate``, ``aut_group``) builds it.
"""

from __future__ import annotations

import math
from importlib import resources
from itertools import chain

import numpy as np

from .flag_graph import FlagGraph, Record, check_flag_count, component_labels


class MapError(ValueError):
    """Raised for face lists that do not describe a closed surface map."""


class MapSpec(Record):
    """A rank-3 map given by its face cycles.

    Each face is a cyclic sequence of vertex indices; every edge (an
    unordered vertex pair read off consecutive cycle entries) must occur
    in exactly two face slots, possibly both in the same face.
    """

    __slots__ = ("vertex_count", "faces")


def map_from_faces(spec: MapSpec) -> FlagGraph:
    """Flag graph of a map: 4 flags per edge, colours (vertex, edge, face).

    Flags are indexed lexicographically by (face index, position in
    cycle, side): side 0 sits at the tail of the directed edge read from
    the cycle, side 1 at its head.  Array passes raise the first fault:
    by face and position (a face's length before its slots), then a
    vertex in no face, then, by first slot, an edge not in two slots
    (a stable sort of edge keys pairs the slots), then disconnection.
    """
    count, sizes = spec.vertex_count, np.fromiter(map(len, spec.faces), np.intp, len(spec.faces))
    try:
        tail = np.fromiter(chain.from_iterable(spec.faces), np.int64, int(sizes.sum()))
    except OverflowError:  # a vertex beyond int64 is compared as a Python int
        tail = np.array(list(chain.from_iterable(spec.faces)), object)
    # slot s, the s-th (face, position) read face by face, holds flags 2s and
    # 2s + 1; faults are read in the slots before the first face of < 3 vertices
    short = np.flatnonzero(sizes < 3)
    sizes = sizes[:short[0]] if short.size else sizes
    start = np.cumsum(sizes) - sizes
    following = np.arange(1, sizes.sum() + 1)
    following[start + sizes - 1] = start
    tail, head = tail[:following.size], tail[following]
    if (bad := np.flatnonzero((tail == head) | (tail < 0) | (tail >= count)
                              | (head < 0) | (head >= count))).size:
        s, face = bad[0], np.searchsorted(start, bad[0], "right") - 1
        if tail[s] == head[s]:
            raise MapError(f"face {face} repeats vertex {tail[s]} consecutively")
        raise MapError(f"face {face} uses a vertex outside 0..{count - 1}")
    if short.size:
        raise MapError(f"face {short[0]} has fewer than 3 vertices")
    ordered = np.sort(tail)  # every vertex lies in 0..count - 1
    if np.count_nonzero(ordered[1:] != ordered[:-1]) + (tail.size > 0) != count:
        raise MapError("some vertices appear in no face")
    # vertices lie below count <= the slot count, far below 2^31
    key = np.minimum(tail, head) << 32 | np.maximum(tail, head)
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))  # where each edge starts in order
    slots = np.diff(first, append=tail.size)
    if (wrong := np.flatnonzero(slots != 2)).size:
        at = wrong[np.argmin(order[first[wrong]])]
        s = order[first[at]]
        edge = (int(min(tail[s], head[s])), int(max(tail[s], head[s])))
        raise MapError(f"edge {edge} lies in {slots[at]} face slots, expected 2")
    # each edge's two slots a < b; the sides cross where their tails differ
    a, b = order[0::2], order[1::2]
    flip = (tail[a] != tail[b]).astype(np.int32)
    f = np.arange(2 * tail.size, dtype=np.int32)
    adj = np.empty((3, f.size), np.int32)
    adj[0] = f ^ 1
    adj[1, 1::2] = 2 * following
    adj[1, 2 * following] = f[1::2]
    for side in (0, 1):
        adj[2, 2 * a + side] = 2 * b + (side ^ flip)
        adj[2, 2 * b + (side ^ flip)] = 2 * a + side
    if component_labels(adj, f.size).any():
        raise MapError("map is disconnected")
    return FlagGraph(adj)


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


def _factorial_flags(m: int, doublings: int = 0) -> int:
    """m! * 2**doublings flags; from 10^30 on, ``check_flag_count``'s refusal
    by the decimal exponent (lgamma), as an exact factorial may take seconds."""
    exponent = int((math.lgamma(m + 1) + doublings * math.log(2)) / math.log(10))
    if exponent >= 30:
        check_flag_count(None, exponent)
    return math.factorial(m) << doublings


# each builder, its parameter count and its flag count, checked before it builds
_PARAMETRIC = {
    "polygon": (polygon, 1, lambda l: 2 * l),
    "simplex": (simplex, 1, lambda d: _factorial_flags(max(d, 0) + 1)),
    "hypercube": (hypercube, 1, lambda d: _factorial_flags(max(d, 0), max(d, 0))),
    "prism": (prism, 1, lambda l: 12 * l),
    "pyramid": (pyramid, 1, lambda l: 8 * l),
    "torus44": (torus44, 2, lambda b, c: 8 * (b * b + c * c)),
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
        builder, arity, _ = _PARAMETRIC[name]
        parts = [p for p in args.split(",") if p] if args else []
        if len(parts) != arity:
            example = next(c for c in CORPUS if c.partition(":")[0] == name)
            raise ValueError(f"{name} takes {arity} parameter(s), e.g. {example}")
        return builder, tuple(int(p) for p in parts)
    raise ValueError(f"unknown construction {name!r}")


def construction(label: str) -> FlagGraph:
    """Build a corpus item from a label like ``prism:3`` or ``cube``;
    ValueError, before anything is built, when int32 tables cannot index
    its flags."""
    builder, params = parse_label(label)
    if (name := label.partition(":")[0]) in _PARAMETRIC:
        check_flag_count(_PARAMETRIC[name][2](*params))
    return builder(*params)
