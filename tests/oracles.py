"""Slow reference computations and random inputs for the tests.

The oracles materialise whole groups or search exponentially many
states, so they are for small inputs only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

import numpy as np

from maniplex import symmetry
from maniplex.constructions import MapError, MapSpec
from maniplex.enumeration import (_bitmasks, _commuting_tuples, _connected, _images, _least_codes,
                                  _oriented_census, _oriented_codes, _relabellings, involutions)
from maniplex.flag_graph import FlagGraph, InternalCheckError, component_labels, validate
from maniplex.formats import PALETTE, ParseError, _content_lines, _header_fields
from maniplex.oriented import OrientedSTG, oriented_digraph, orientation
from maniplex.stg import (SEMI, SymmetryTypeGraph, ThreeOrbitJ, ThreeOrbitJJ1, _without,
                          bipartition, quotient, stg_violations)
from maniplex.symmetry import (_GOLDEN, AutGroup, _both_ways, _cycle_lengths, _extend, _group, _mix,
                               aut_group, invariant_colours, invert)
from maniplex.walkgen import GeneratorSet, _crossings


# Routines that no command, script or census check calls, kept as the
# tests' reference forms: the trial extension and the isomorphism test
# of two graphs from any root, the i-faces and their sub-structures, the
# face projection check, the one-graph codes and questions, the oriented
# census per colour count and the generator words as one list.  The
# colours go through the ``symmetry`` module and the two-graph
# extension through this one, where the tests patch them.


def bfs_levels_from(g: FlagGraph, source: int):
    """``FlagGraph.bfs_levels`` from any ``source``, not cached."""
    depth = np.full(g.flag_count, -1, dtype=np.int32)
    depth[source] = 0
    slot = np.empty(g.flag_count, dtype=np.intp)
    frontier = np.array([source], dtype=np.int32)
    levels = []
    while frontier.size:
        cand = g.adj.take(frontier, axis=1).ravel()
        pos = np.flatnonzero(depth.take(cand) < 0)
        cand = cand.take(pos)
        slot.put(cand, pos)
        kept = slot.take(cand) == pos
        colours, at = np.divmod(pos[kept], frontier.size)
        levels.append((cand[kept], frontier.take(at), colours))
        frontier = levels[-1][0]
        depth.put(frontier, len(levels))
    levels.pop()
    return levels


def extend_map(g1: FlagGraph, g2: FlagGraph, source: int, target: int):
    """The unique colour-preserving map g1 -> g2 sending source to target,
    or None when no such bijection exists: ``symmetry._extend`` for two
    graphs and any root, with the shape guard, the reach check and the
    injectivity pass that one graph rooted at flag 0 makes redundant."""
    if g1.rank != g2.rank or g1.flag_count != g2.flag_count:
        return None
    img = np.full(g1.flag_count, -1, dtype=np.int32)
    img[source] = target
    levels = g1.bfs_levels() if source == 0 else bfs_levels_from(g1, source)
    for flags, parents, colours in levels:
        img.put(flags, g2.adj[colours, img.take(parents)])
    if img.min() < 0:
        return None
    for i in range(g1.rank):
        if not np.array_equal(img.take(g1.adj[i]), g2.adj[i].take(img)):
            return None
    if np.bincount(img, minlength=g1.flag_count).max() > 1:
        return None
    img.setflags(write=False)
    return img


def extend_automorphism(g: FlagGraph, source: int, target: int):
    """Automorphism of ``g`` with source -> target, or None."""
    return extend_map(g, g, source, target)


def are_isomorphic(g1: FlagGraph, g2: FlagGraph):
    """A colour-preserving bijection g1 -> g2, or None.

    Flag 0 of g1 is tried only against the flags of g2 with its invariant
    colour, computed once on the disjoint union of the two graphs.
    """
    if g1.rank != g2.rank or g1.flag_count != g2.flag_count:
        return None
    count = g1.flag_count
    colour = symmetry.invariant_colours(np.concatenate([g1.adj, g2.adj + count], axis=1))
    for target in np.flatnonzero(colour[count:] == colour[0]).tolist():
        m = extend_map(g1, g2, 0, target)
        if m is not None:
            return m
    return None


@dataclass(frozen=True)
class FacePartition:
    """Partition of flags into i-faces (components avoiding one colour)."""

    colour_removed: int
    face_of: np.ndarray
    face_count: int

    def flags_of(self, face: int) -> np.ndarray:
        return np.nonzero(self.face_of == face)[0].astype(np.int32)


def i_faces(g: FlagGraph, i: int) -> FacePartition:
    """Faces of rank ``i``: connected components after deleting colour i.

    Face ids run 0..face_count-1 in order of least flag index.
    """
    if not 0 <= i < g.rank:
        raise ValueError(f"colour {i} out of range for rank {g.rank}")
    label = component_labels(np.delete(g.adj, i, axis=0), g.flag_count)
    least = label == np.arange(g.flag_count)
    face_of = (np.cumsum(least) - 1).astype(np.int32)[label]
    face_of.setflags(write=False)
    return FacePartition(colour_removed=i, face_of=face_of,
                         face_count=int(np.count_nonzero(least)))


def face_component(g: FlagGraph, i: int, face: int) -> np.ndarray:
    """Flags of one component of the given i-face under colours < i.

    The component containing the least flag of the face is returned, as a
    sorted array of flag ids of ``g``.
    """
    if i < 1:
        raise ValueError("faces of rank 0 have no sub-structure")
    part = i_faces(g, i)
    if not 0 <= face < part.face_count:
        raise ValueError(f"face id {face} out of range")
    label = component_labels(g.adj[:i], g.flag_count)
    return np.flatnonzero(label == part.flags_of(face)[0]).astype(np.int32)


def face_maniplex(g: FlagGraph, i: int, face: int) -> FlagGraph:
    """The rank-i flag graph sitting inside an i-face.

    Keeps colours 0..i-1 on one component of the face, re-indexing flags
    densely in increasing order of their original ids.
    """
    comp = face_component(g, i, face)
    return FlagGraph(np.searchsorted(comp, g.adj[:i, comp]))


def recolour_dual(g: FlagGraph) -> FlagGraph:
    """Reverse the colour order (i -> rank-1-i)."""
    return FlagGraph(g.adj[::-1])


def verify_face_projection(aut: AutGroup, stg: SymmetryTypeGraph, i: int, face: int) -> bool:
    """Check the face-quotient projection property for one i-face of ``aut.graph``.

    The orbits meeting the face form one component C of the colour-i
    deleted quotient.  Mapping each such orbit to the orbit of its
    induced flag in the face's rank-i structure must be well defined,
    surjective, carry j-edges (j < i) to the j-action downstairs, and
    collapse j-edges with j > i.  A face flag's induced flags are the
    flags of the structure (``face_maniplex``) that words in the colours
    above i reach from it.  Those words commute with the colours below
    i, so these flags lie in one orbit of the structure's group and any
    one will do: one labelling by the colours above i finds them, and
    the face's flags are those whose label a flag of the structure has.
    ValueError when ``stg`` and ``aut`` differ in orbit count.
    """
    if stg.vertex_count != aut.orbit_count:
        raise ValueError(f"the symmetry type graph's vertex count {stg.vertex_count} "
                         f"is not the group's orbit count {aut.orbit_count}")
    g = aut.graph
    comp = face_component(g, i, face)
    sub = FlagGraph(np.searchsorted(comp, g.adj[:i, comp]))
    sub_aut = aut_group(sub)
    upper = component_labels(g.adj[i + 1:], g.flag_count)
    local = np.full(g.flag_count, -1)
    local[upper[comp]] = np.arange(comp.size)
    induced = local[upper]
    flags = np.flatnonzero(induced >= 0)
    # the (Aut orbit, face orbit) pair of each face flag, and pi its map
    u, image = aut.orbit_of[flags], sub_aut.orbit_of[induced[flags]]
    pi = np.full(aut.orbit_count, -1)
    pi[u] = image
    if not np.array_equal(pi[u], image):
        return False
    labels = np.array(_without(stg, i))
    if not np.array_equal(labels == labels[u.min()], pi >= 0):  # C, all of it
        return False
    if np.count_nonzero(np.bincount(image)) != sub_aut.orbit_count:
        return False
    down, tables = np.array(quotient(sub_aut).tables), np.array(stg.tables)
    vertices = np.flatnonzero(pi >= 0)
    return (np.array_equal(down[:, pi[vertices]], pi[tables[:i, vertices]])
            and bool((pi[tables[i + 1:, vertices]] == pi[vertices]).all()))


def is_admissible(t: SymmetryTypeGraph) -> bool:
    return not stg_violations(t)


def is_i_face_transitive(t: SymmetryTypeGraph, i: int) -> bool:
    """True when deleting colour-i edges leaves the pregraph connected."""
    return not any(_without(t, i))


def canonical_code(t: SymmetryTypeGraph) -> bytes:
    """Least serialization over all vertex relabellings.

    Vertices are permuted, colours are not; 255 marks a semi-edge.
    Raises ValueError when ``t`` is disconnected or has over 255 vertices.
    """
    return _least_codes(np.array([[t.tables]]), t.rank)[0].tobytes()


def oriented_canonical_code(ot: OrientedSTG) -> bytes:
    """Least serialization over relabellings and dart reversal, the dart
    one more table after the undirected classes."""
    return _oriented_codes([ot])[0].tobytes()


def enumerate_oriented_stg3(n_colours: int) -> list[OrientedSTG]:
    """All three-vertex oriented quotient di-graphs with n_colours colours,
    sorted by oriented canonical code."""
    if n_colours < 4:
        raise ValueError("three-vertex oriented quotients need n_colours >= 4")
    return _oriented_census((n_colours,), 3)[n_colours]


def oriented_stg3_families(n_colours: int) -> dict[str, list[OrientedSTG]]:
    """The census grouped by directed-class shape: three, one or no loops."""
    groups = {name: [] for name in ("three_loops", "two_cycle_loop", "three_cycle")}
    shape = dict(zip((3, 1, 0), groups.values()))
    for ot in enumerate_oriented_stg3(n_colours):
        shape[sum(v == u for u, v in enumerate(ot.dart))].append(ot)
    return groups


def generating_walks(t: SymmetryTypeGraph) -> list[tuple[int, ...]]:
    """Colour words of closed walks at vertex 0, one per (semi-)edge
    missing from the spanning tree, in ``walkgen._crossings``' order.

    For an edge of colour c between u and v, u reached first: out along
    the tree to u, across, back along the tree from v.  For a semi-edge
    of colour c at u: out to u, trace it, back the same way.
    """
    paths, crossings = _crossings(t)
    return [paths[u] + (c,) + paths[v][::-1] for u, c, v in crossings]


def write_map_text(spec: MapSpec) -> str:
    lines = [f"map vertices={spec.vertex_count}"]
    for cycle in spec.faces:
        lines.append(" ".join(str(v) for v in cycle))
    return "\n".join(lines) + "\n"


# The depth-first walk that the STG check's single component_labels pass
# replaced for the per-graph questions: connectivity, the colour-deleted
# components and the bipartition.


def _tree(tables, start: int, seen: list[bool]):
    """Depth-first spanning tree of the component of ``start``.

    Yields ``(parent, child)`` for every vertex first reached, marking it
    in ``seen``; ``start`` is marked but not yielded.
    """
    seen[start] = True
    stack = [start]
    while stack:
        u = stack.pop()
        for m in tables:
            v = m[u]
            if not seen[v]:
                seen[v] = True
                stack.append(v)
                yield u, v


def component(tables, start: int, count: int | None = None) -> list[int]:
    """Sorted vertices reachable from ``start`` along partner tables;
    ``count`` (the vertex count) is needed only when ``tables`` is empty."""
    seen = [False] * (len(tables[0]) if count is None else count)
    return sorted([start] + [v for _, v in _tree(tables, start, seen)])


def components(tables, count: int | None = None) -> list[list[int]]:
    """All components as sorted vertex lists, in order of least vertex."""
    seen = [False] * (len(tables[0]) if count is None else count)
    return [sorted([start] + [v for _, v in _tree(tables, start, seen)])
            for start in range(len(seen)) if not seen[start]]


def hook_and_jump_labels(tables, count: int) -> np.ndarray:
    """``component_labels`` by the rounds it replaced: each round hooks
    the larger root of each edge joining two roots to the smaller one
    (any one of them, where several compete), then jumps pointers until
    every point points at a root."""
    label = np.arange(count)
    while True:
        root = label.copy()
        for m in tables:
            across = label[m]
            joins = across != label
            across, near = across[joins], label[joins]
            root[np.maximum(across, near)] = np.minimum(across, near)
        while not np.array_equal(nxt := root[root], root):
            root = nxt
        if np.array_equal(root, label):
            return label.astype(np.int32)
        label = root


def two_colouring(tables) -> list[int] | None:
    """Sides 0/1 with every component's least vertex on side 0, or None
    when some edge (a semi-edge included) joins two vertices of one side."""
    side = [0] * len(tables[0])
    seen = [False] * len(side)
    for start in range(len(side)):
        if not seen[start]:
            for u, v in _tree(tables, start, seen):
                side[v] = 1 - side[u]
    if any(side[m[u]] == side[u] for m in tables for u in range(len(side))):
        return None
    return side


def walk_facts(t: SymmetryTypeGraph):
    """What the STG check keeps on a well-formed graph, by the walk: per
    colour i the least vertex of each vertex's component without colour
    i, and the sides of ``two_colouring`` (None when there are none)."""
    without, tables = [], t.tables.tolist()
    for i in range(t.rank):
        label = [0] * t.vertex_count
        for comp in components(tables[:i] + tables[i + 1:], t.vertex_count):
            for u in comp:
                label[u] = comp[0]
        without.append(tuple(label))
    side = two_colouring(tables)
    return tuple(without), None if side is None else tuple(side)


def tables_from_slots(slots, rank: int) -> tuple[tuple[int, ...], ...]:
    """Partner tables of vertex-major rows of vertex-or-SEMI cells."""
    return tuple(tuple(u if row[i] == SEMI else row[i] for u, row in enumerate(slots))
                 for i in range(rank))


def stg_from_slots(slots) -> SymmetryTypeGraph:
    """The symmetry type graph with these rows as its ``slots``."""
    return SymmetryTypeGraph(tables_from_slots(slots, len(slots[0])))


# The tuple rows and the black-orbit count that the array expression of
# stg.slot_rows and Aut+'s halved orbit count in the report replaced.


def slot_rows(tables, count: int) -> tuple[tuple[int, ...], ...]:
    """Vertex-major rows of partner tables on ``count`` points: row u
    holds u's partner per colour, SEMI for a fixed point."""
    columns = [[SEMI if v == u else v for u, v in enumerate(m)] for m in tables]
    return tuple(zip(*columns)) if columns else ((),) * count


def black_orbit_count(a_plus: AutGroup, parity: np.ndarray) -> int:
    """Number of orientation-preserving orbits made of black flags."""
    return int(np.count_nonzero(parity[a_plus.reps] == 0))


# The sorted quotient, which reading each orbit at its least flag
# (AutGroup.reps) replaced in stg.quotient, oriented.oriented_stg,
# black_orbit_count (above) and the cover route of
# enumeration.oriented_stg_via_quotient, and the per-orbit loops that
# the sorted quotient had replaced in stg.quotient and oriented_stg.


def quotient_tables(tables, part_of) -> tuple[tuple[int, ...], ...]:
    """Partner tables on the parts of a partition that every table maps
    part to part: one part per distinct value of ``part_of``, in
    increasing order of value.

    Each table is read at each part's least point, so ``out[i][p]`` is
    the part that table i sends part p into; a point sent into its own
    part becomes a fixed point, a semi-edge.
    """
    _, first, part = np.unique(part_of, return_index=True, return_inverse=True)
    return tuple(map(tuple, part[np.asarray(tables)[:, first]].tolist()))


def orbit_loop_quotient(g: FlagGraph, a: AutGroup) -> SymmetryTypeGraph:
    """One row per orbit, read at the orbit's least flag."""
    reps = [-1] * a.orbit_count
    for f in range(a.orbit_of.size - 1, -1, -1):
        reps[a.orbit_of[f]] = f
    rows = []
    for u, rep in enumerate(reps):
        row = []
        for i in range(g.rank):
            o = int(a.orbit_of[g.adj[i, rep]])
            row.append(SEMI if o == u else o)
        rows.append(tuple(row))
    return stg_from_slots(rows)


def orbit_loop_oriented_stg(g: FlagGraph, parity, a_plus: AutGroup) -> OrientedSTG:
    """One row and dart per Aut+ orbit of black flags, read at the
    orbit's first black flag."""
    d = oriented_digraph(g, parity)
    black = np.flatnonzero(parity == 0)
    orbit_ids = sorted({int(a_plus.orbit_of[f]) for f in black})
    renumber = {o_id: t for t, o_id in enumerate(orbit_ids)}
    reps = {}
    for t_black, f in enumerate(black):
        u = renumber[int(a_plus.orbit_of[f])]
        reps.setdefault(u, t_black)
    rows = []
    darts = []
    for u in range(len(orbit_ids)):
        rep = reps[u]
        row = []
        for i in range(d.rank - 2):
            v = renumber[int(a_plus.orbit_of[black[d.adj[i, rep]]])]
            row.append(SEMI if v == u else v)
        rows.append(tuple(row))
        darts.append(renumber[int(a_plus.orbit_of[black[d.adj[d.rank - 2, rep]]])])
    return OrientedSTG(tables=tables_from_slots(rows, d.rank - 2), dart=tuple(darts))


# The routes that reading Aut+ and the oriented STG off Aut replaced:
# Aut+ generated by Schreier products and labelled over every flag, and
# the oriented STG quotiented off the move graph on all black flags.


def schreier_aut_plus(aut: AutGroup, parity) -> AutGroup:
    """Orientation-preserving subgroup Aut+ of ``aut``, with its own orbit partition.

    An automorphism keeps the parts when it keeps flag 0's part, so Aut+
    is Aut or of index 2, generated by Schreier's lemma with the
    transversal {1, s}, s Aut's first part-swapping generator: p and
    s p s^-1 for each keeping p, p s^-1 and s p for each swapping p
    (Seress, Permutation Group Algorithms, 2003).  The action is free,
    so flag 0's image names each product: the identity (p s^-1 at p = s)
    and repeats are left out.  2 |Aut+| = |Aut| is checked."""
    swaps = [parity[p[0]] != parity[0] for p in aut.generators]
    if not any(swaps):
        return aut
    s = aut.generators[swaps.index(True)]
    s_inv = invert(s)
    generators = list({int(q[0]): q for p, swap in zip(aut.generators, swaps)
                       for q in ((p[s_inv], s[p]) if swap else (p, s[p[s_inv]])) if q[0]}.values())
    label = component_labels(_both_ways(generators), aut.graph.flag_count)
    plus = _group(aut.graph, generators, label)
    if 2 * plus.order != aut.order:
        raise InternalCheckError(f"|Aut+| = {plus.order} is not half of |Aut| = {aut.order}")
    return plus


def digraph_oriented_stg(a_plus: AutGroup, parity) -> OrientedSTG:
    """Quotient the oriented di-graph's t_0..t_{n-3} and rot by the Aut+
    orbits of black flags, numbered in order of orbit id."""
    d = oriented_digraph(a_plus.graph, parity)
    *tables, dart = quotient_tables(d.adj[:-1], a_plus.orbit_of[parity == 0])
    return OrientedSTG(tables=tuple(tables), dart=dart)


# Test-only views of the oriented flag di-graph, a FlagGraph whose
# colours are t_0..t_{n-3}, rot and rot^-1 (oriented.oriented_digraph).


def enantiomorph(d: FlagGraph) -> FlagGraph:
    """Mirror image: reverse the directed class, that is, swap the last
    two colours."""
    n = d.rank
    return FlagGraph(d.adj[[*range(n - 2), n - 1, n - 2]])


def digraph_to_dot(d: FlagGraph, name: str = "oriented_flags") -> str:
    """DOT of the di-graph: the classes t_i undirected, rot as arcs."""
    n = d.rank
    lines = [f"digraph {name} {{", "  node [shape=point];"]
    for i in range(n - 2):
        hue = PALETTE[i % len(PALETTE)]
        for f in range(d.flag_count):
            g = int(d.adj[i, f])
            if f < g:
                lines.append(f'  b{f} -> b{g} [label="t{i}", color="{hue}", dir=none];')
    hue = PALETTE[(n - 2) % len(PALETTE)]
    for f in range(d.flag_count):
        lines.append(f'  b{f} -> b{int(d.adj[n - 2, f])} [label="t{n - 2}", color="{hue}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def facets(d: FlagGraph, black_flags) -> list[frozenset[int]]:
    """Facet partition of the black flags, read off the di-graph alone.

    Two black flags share a facet exactly when joined by a path whose
    directed-class darts alternate against-then-with the arrows (the
    moves t_a^{-1} t_b), which is how paths avoiding two same-direction
    darts in a row reduce.  Returned as frozensets of the flag ids in
    ``black_flags``, sorted by least member.
    """
    n = d.rank
    inverse_moves = list(d.adj[:n - 2]) + [d.adj[n - 1]]
    forward_moves = list(d.adj[:n - 1])
    # each composed move is a permutation, so following it forwards
    # reaches the same classes as joining both ways
    moves = [fwd[back].tolist() for a, back in enumerate(inverse_moves)
             for b, fwd in enumerate(forward_moves) if a != b]
    return sorted((frozenset(int(black_flags[f]) for f in comp)
                   for comp in components(moves, d.flag_count)), key=min)


def check_facets_against_faces(g: FlagGraph, parity) -> bool:
    """Cross-check di-graph facets with the top-rank face partition."""
    from_digraph = set(facets(oriented_digraph(g, parity), np.flatnonzero(parity == 0)))
    part = i_faces(g, g.rank - 1)
    black = set(np.flatnonzero(parity == 0).tolist())
    from_faces = set()
    for face in range(part.face_count):
        members = frozenset(int(f) for f in part.flags_of(face) if int(f) in black)
        from_faces.add(members)
    return from_digraph == from_faces


def has_semi_edges(t: SymmetryTypeGraph) -> bool:
    return any(m[u] == u for m in t.tables for u in range(len(m)))


def identity(flag_count: int) -> np.ndarray:
    return np.arange(flag_count, dtype=np.int32)


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a . b)(f) = a[b[f]]: apply b first, then a."""
    return a[b]


def trial_extension_elements(g: FlagGraph) -> list[np.ndarray]:
    """Every automorphism, by trial extension of flag 0 to every flag."""
    out = []
    for target in range(g.flag_count):
        el = extend_automorphism(g, 0, target)
        if el is not None:
            out.append(el)
    return out


def orbit_partition(elements: list[np.ndarray]) -> np.ndarray:
    """Orbit ids numbered in order of least flag: the elementwise minimum
    over the images of a flag is the least flag of its orbit."""
    least = elements[0].copy()
    for el in elements[1:]:
        np.minimum(least, el, out=least)
    return np.unique(least, return_inverse=True)[1].reshape(-1)


def closure(generators, flag_count: int) -> list[np.ndarray]:
    """Subgroup generated by the given image tables (breadth-first products)."""
    ident = identity(flag_count)
    seen = {ident.tobytes(): ident}
    frontier = [ident]
    gens = [np.asarray(p, dtype=np.int32) for p in generators]
    while frontier:
        nxt = []
        for el in frontier:
            for p in gens:
                prod = el[p]
                key = prod.tobytes()
                if key not in seen:
                    seen[key] = prod
                    nxt.append(prod)
        frontier = nxt
    return list(seen.values())


def random_map(rng: random.Random, base_edges: int, sheets: int, orientable: bool) -> FlagGraph:
    """A random rank-3 map with a free Z_sheets symmetry.

    Flag (c, j, a, b) = c * 4 * base_edges + 4 * j + 2 * a + b sits on
    sheet c, edge j, end a, side b; r0 flips a and r2 flips b.  r1 pairs
    flags of different edges at random (black with white, by the parity
    of a + b, when ``orientable``) and lifts each pair across the sheets
    with a random sheet shift, so shifting sheets is an automorphism.
    """
    base = 4 * base_edges
    sheet, beta = np.divmod(np.arange(base * sheets), base)
    r0 = sheet * base + (beta ^ 2)
    r2 = sheet * base + (beta ^ 1)
    while True:
        if orientable:
            black = [f for f in range(base) if (f ^ (f >> 1)) & 1 == 0]
            white = [f for f in range(base) if (f ^ (f >> 1)) & 1 == 1]
            rng.shuffle(white)
            pairs = list(zip(black, white))
        else:
            order = list(range(base))
            rng.shuffle(order)
            pairs = list(zip(order[::2], order[1::2]))
        r1 = np.empty(base * sheets, dtype=np.int64)
        for p, q in pairs:
            shift = rng.randrange(sheets)
            for c in range(sheets):
                d = (c + shift) % sheets
                r1[c * base + p] = d * base + q
                r1[d * base + q] = c * base + p
        g = FlagGraph([r0, r1, r2])
        if not validate(g) and (orientation(g) is not None) == orientable:
            return g


def relabel(g: FlagGraph, rng: random.Random) -> FlagGraph:
    """The same flag graph under a random renumbering of its flags."""
    perm = np.array(rng.sample(range(g.flag_count), g.flag_count))
    adj = np.empty_like(g.adj)
    adj[:, perm] = perm[g.adj]
    return FlagGraph(adj)


# The generator words that generating_walks replaced: a shortest
# walk from vertex 0 through every vertex of the quotient (least colour
# word among the shortest), with one closed detour per (semi-)edge it
# does not use.  The detours raise ValueError where the walk turns back.


def spanning_walk_words(t: SymmetryTypeGraph) -> list[tuple[int, ...]]:
    return [w.word for w in detour_walks(t, min_spanning_walk(t))]


@dataclass(frozen=True)
class Walk:
    """Steps are (colour, vertex reached); a semi-edge step stays put."""

    start: int
    steps: tuple[tuple[int, int], ...]

    @property
    def end(self) -> int:
        return self.steps[-1][1] if self.steps else self.start

    @property
    def word(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.steps)

    def vertices(self) -> tuple[int, ...]:
        out = [self.start]
        for _, v in self.steps:
            out.append(v)
        return tuple(out)

    def is_closed(self) -> bool:
        return self.end == self.start


def check_walk(t: SymmetryTypeGraph, walk: Walk) -> None:
    """Raise unless every step follows a slot and no (semi-)edge repeats."""
    here = walk.start
    prev = None
    for colour, to in walk.steps:
        if t.tables[colour][here] != to:
            raise ValueError(f"step ({colour}, {to}) from {here} does not follow a slot")
        edge = (min(here, to), max(here, to), colour)
        if edge == prev:
            raise ValueError(f"walk retraces edge {edge}")
        prev = edge
        here = to


def min_spanning_walk(t: SymmetryTypeGraph) -> Walk:
    """Shortest walk from vertex 0 visiting every vertex.

    Breadth-first over (vertex, visited-set) states; length ties break to
    the lexicographically smallest colour sequence.
    """
    full = frozenset(range(t.vertex_count))
    start_state = (0, frozenset([0]))
    best: dict[tuple[int, frozenset], tuple[int, ...]] = {start_state: ()}
    frontier = [start_state]
    while True:
        if not frontier:
            raise ValueError("pregraph is not connected")
        done = [(word, state) for state, word in best.items() if state[1] == full and state in frontier]
        if done:
            word = min(w for w, _ in done)
            return walk_from_word(t, 0, word)
        nxt: dict[tuple[int, frozenset], tuple[int, ...]] = {}
        for state in sorted(frontier, key=best.__getitem__):
            u, visited = state
            word = best[state]
            for colour in range(t.rank):
                v = t.tables[colour][u]
                if v == u:
                    continue
                new_state = (v, visited | {v})
                new_word = word + (colour,)
                if new_state in best:
                    continue
                if new_state not in nxt or new_word < nxt[new_state]:
                    nxt[new_state] = new_word
        best.update(nxt)
        frontier = list(nxt)


def walk_from_word(t: SymmetryTypeGraph, start: int, word) -> Walk:
    steps = []
    here = start
    for colour in word:
        here = t.tables[colour][here]
        steps.append((colour, here))
    return Walk(start=start, steps=tuple(steps))


def detour_walks(t: SymmetryTypeGraph, c: Walk) -> list[Walk]:
    """One closed detour walk per (semi-)edge missing from the walk ``c``.

    For an unused edge between walk positions i < j: out along c to
    position i, across, back along c from position j.  For a semi-edge at
    position i: out, trace it, back the same way.  Edge detours come
    first, each group ordered by (i, j, colour).
    """
    verts = c.vertices()
    if set(verts) != set(range(t.vertex_count)):
        raise ValueError("walk does not span the pregraph")
    pos = {}
    for idx, u in enumerate(verts):
        pos.setdefault(u, idx)
    used = set()
    here = c.start
    for colour, to in c.steps:
        used.add((min(here, to), max(here, to), colour))
        here = to

    def prefix(upto: int) -> tuple[tuple[int, int], ...]:
        return c.steps[:upto]

    def back(upto: int) -> tuple[tuple[int, int], ...]:
        out = []
        vseq = verts[: upto + 1]
        for idx in range(upto, 0, -1):
            colour = c.steps[idx - 1][0]
            out.append((colour, vseq[idx - 1]))
        return tuple(out)

    edge_detours = []
    for u, v, colour in t.edges():
        if (u, v, colour) in used:
            continue
        i, j = sorted((pos[u], pos[v]))
        edge_detours.append((i, j, colour))
    edge_detours.sort()

    walks = []
    for i, j, colour in edge_detours:
        mid = ((colour, verts[j]),)
        walks.append(Walk(start=c.start, steps=prefix(i) + mid + back(j)))
    semi_detours = []
    for u in range(t.vertex_count):
        for colour in sorted(t.semi_colours(u)):
            semi_detours.append((pos[u], colour))
    semi_detours.sort()
    for i, colour in semi_detours:
        mid = ((colour, verts[i]),)
        walks.append(Walk(start=c.start, steps=prefix(i) + mid + back(i)))
    for w in walks:
        check_walk(t, w)
    return walks



# The canonical forms and the oriented census that enumeration's rooted
# code and orderly oriented search replaced.


def min_code(rows) -> bytes:
    """Minimum serialization of rows of vertex-or-SEMI cells over all
    vertex relabellings; 255 marks a semi-edge."""
    best = None
    for perm in permutations(range(len(rows))):
        row_bytes = bytearray()
        for new_u in range(len(rows)):
            for s in rows[perm.index(new_u)]:
                row_bytes.append(255 if s == SEMI else perm[s])
        code = bytes(row_bytes)
        if best is None or code < best:
            best = code
    return best


def oriented_min_code(ot: OrientedSTG) -> bytes:
    """``min_code`` of the rows with the dart appended, over both dart
    directions."""
    reversed_dart = [0] * ot.vertex_count
    for u, v in enumerate(ot.dart):
        reversed_dart[v] = u
    return min(min_code([[*row, v] for row, v in zip(ot.undirected, dart)])
               for dart in (ot.dart, reversed_dart))


DART_SHAPES = {
    "three_loops": [(0, 1, 2)],
    "two_cycle_loop": [(1, 0, 2), (2, 1, 0), (0, 2, 1)],
    "three_cycle": [(1, 2, 0), (2, 0, 1)],
}


def hand_oriented_stg3(n_colours: int) -> list[OrientedSTG]:
    """Three-vertex oriented quotients from hand-derived structural facts.

    The facts hold for quotients of six-vertex semi-edge-free types:

    * the directed class forms a 3-cycle, a 2-cycle plus a loop, or
      three loops;
    * every undirected class is one inter-vertex edge plus one semi-edge,
      or three semi-edges;
    * two edges sharing exactly one vertex carry colours differing by 1
      (two at distance >= 2 would force a forbidden 6-cycle upstairs);
    * with a dart 2-cycle and a loop, a class of colour <= n-4 is either
      all semi-edges or parallel to the dart 2-cycle (anything touching
      the loop vertex forces a forbidden 6-cycle against the directed
      class);
    * with a dart 3-cycle, a class of colour <= n-4 cannot be all
      semi-edges (that copies the top matching, recreating the directed
      6-cycle at distance >= 2).

    Deduplicated up to vertex relabelling, sorted by ``oriented_min_code``.
    """
    n = n_colours
    pairs = [(0, 1), (0, 2), (1, 2)]
    # an undirected class: None for three semi-edges, else the edge pair
    class_options: list[tuple[int, int] | None] = [None] + pairs

    found: dict[bytes, OrientedSTG] = {}
    for shape, darts in DART_SHAPES.items():
        for dart in darts:
            dart_pair = None
            if shape == "two_cycle_loop":
                swapped = [u for u in range(3) if dart[u] != u]
                dart_pair = (min(swapped), max(swapped))

            def place(colour: int, chosen: list) -> None:
                if colour == n - 2:
                    emit(chosen)
                    return
                for opt in class_options:
                    if opt is not None and shape == "two_cycle_loop" and colour <= n - 4:
                        if opt != dart_pair:
                            continue
                    if opt is None and shape == "three_cycle" and colour <= n - 4:
                        continue
                    ok = True
                    for prev_colour, prev in enumerate(chosen):
                        if prev is None or opt is None:
                            continue
                        shared = len(set(prev) & set(opt))
                        if shared == 1 and abs(prev_colour - colour) >= 2:
                            ok = False
                            break
                    if ok:
                        chosen.append(opt)
                        place(colour + 1, chosen)
                        chosen.pop()

            def emit(chosen: list) -> None:
                tables = []
                for p in chosen:
                    m = [0, 1, 2]
                    if p is not None:
                        m[p[0]], m[p[1]] = p[1], p[0]
                    tables.append(tuple(m))
                if len(component([dart] + tables, 0)) != 3:
                    return
                ot = OrientedSTG(tables=tuple(tables), dart=dart)
                found.setdefault(oriented_min_code(ot), ot)

            place(0, [])
    return [found[code] for code in sorted(found)]


def fixed_point_free_levels(k: int, colours: int) -> list[np.ndarray]:
    """The search ``enumeration.oriented_stg_via_quotient`` runs, on k
    points: the orderly search over the involutions without fixed
    points, each level's connected rows as a stack of tables."""
    tables = np.array(involutions(k), np.uint8)
    tables = tables[(tables != np.arange(k)).all(axis=1)]
    return [tables[_connected(tables, rows)]
            for rows in _commuting_tuples(tables, colours, _relabellings(k))]


def hand_quotient_route(n_colours: int) -> list[OrientedSTG]:
    """``enumeration.oriented_stg_via_quotient`` with the dart read by a
    hand formula on the six-point covers instead of from the oriented
    di-graph.  The covers are its search's, and those with a bipartition
    are read.  Each is quotiented by its top-colour pairs; the classes
    t_i, i <= n-3, commute with the top colour, so both points of a pair
    reach the same pair.  The dart of a pair is read from its point on
    vertex 0's side of the bipartition: r_{n-2} after r_{n-1} there,
    which is r_{n-2} at the other point.  The first cover of each
    oriented code is kept, in order of code."""
    n, points = n_colours, 6
    found: dict[bytes, OrientedSTG] = {}
    for t in map(SymmetryTypeGraph, fixed_point_free_levels(points, n)[-1]):
        if (sides := bipartition(t)) is None:
            continue
        m, black = t.tables, sides == 0
        rot = np.where(black, m[n - 2][m[n - 1]], m[n - 2])
        *tables, dart = quotient_tables(np.vstack([m[:n - 2], rot]),
                                        np.minimum(np.arange(points), m[n - 1]))
        ot = OrientedSTG(tables=tuple(tables), dart=dart)
        found.setdefault(_oriented_codes([ot])[0].tobytes(), ot)
    return [found[code] for code in sorted(found)]


# The double cover that the oriented census searched before it ran on the
# k points: a quotient's class t lifts to _lift(t, t), its dart rot to
# _lift(rot, rot^-1), and the top colour to _lift(identity, identity).


def _lift(black, white) -> tuple[int, ...]:
    """Table on 2k points sending black u (point u) to white ``black[u]``
    (point black[u] + k), and white v back to black ``white[v]``."""
    return tuple(v + len(black) for v in black) + tuple(white)


# The recursion that enumeration.involutions' filter over the permutations
# replaced: it fixes the least free point, then pairs it with each larger
# free point in turn, so it too lists the involutions in lexicographic order.


def recursive_involutions(k: int) -> list[tuple[int, ...]]:
    """All involutions on 0..k-1, one recursion step per point placed."""
    out: list[tuple[int, ...]] = []

    def grow(assigned: dict[int, int]) -> None:
        free = [v for v in range(k) if v not in assigned]
        if not free:
            out.append(tuple(assigned[v] for v in range(k)))
            return
        v = free[0]
        assigned[v] = v
        grow(assigned)
        del assigned[v]
        for w in free[1:]:
            assigned[v] = w
            assigned[w] = v
            grow(assigned)
            del assigned[v]
            del assigned[w]

    grow({})
    return out


# The recursive orderly search that the level-at-a-time one replaced: one
# Python generator frame per node, the orderly test made at every node.


def recursive_commuting_tuples(tables, lists, relabellings):
    """The tuples of one table per colour, drawn from that colour's list
    of indices into ``tables``, in which colours at distance >= 2
    commute: one per orbit of the group ``relabellings``, the one whose
    positions in the lists are lexicographically least among its images,
    in lexicographic order of the lists, colour 0 most significant.

    At colour i the chosen table must be least among its images under
    the relabellings fixing colours 0..i-1, which then narrow to those
    fixing it too; a prefix that fails has no extension that passes."""
    if not tables:
        return
    commutes = [sum(1 << b for b, mb in enumerate(tables) if commute_defect(ma, mb) is None)
                for ma in tables]
    # one bitmask over the relabellings per table: those fixing it, and
    # per colour those moving it earlier in that colour's list
    images = _images(tables, relabellings)
    fixes = _bitmasks(images == np.arange(len(tables))[:, None])
    earlier = []
    for lst in lists:
        position = np.full(len(tables), len(tables))
        position[lst] = np.arange(len(lst))
        earlier.append(_bitmasks(position[images] < position[:, None]))
    chosen: list[int] = []

    def grow(allowed: int, stabiliser: int):
        # allowed: the tables commuting with every chosen colour but the last;
        # stabiliser: the relabellings fixing every chosen table
        c = len(chosen)
        if c == len(lists):
            yield tuple(chosen)
            return
        after = allowed & commutes[chosen[-1]] if chosen else allowed
        for a in lists[c]:
            if allowed >> a & 1 and not stabiliser & earlier[c][a]:
                chosen.append(a)
                yield from grow(after, stabiliser & fixes[a])
                chosen.pop()

    yield from grow((1 << len(tables)) - 1, (1 << len(relabellings)) - 1)


# The exhaustive search that the orderly one replaced: every labelled
# tuple is generated, and the first one met of each canonical code kept.


def exhaustive_commuting_tuples(candidates):
    """Every tuple of one table per colour, drawn from that colour's list
    in ``candidates``, in which colours at distance >= 2 commute, in
    lexicographic order of the lists, colour 0 most significant."""
    tables = list(dict.fromkeys(m for cands in candidates for m in cands))
    commutes = [sum(1 << b for b, mb in enumerate(tables) if commute_defect(ma, mb) is None)
                for ma in tables]
    index = {m: a for a, m in enumerate(tables)}
    lists = [[index[m] for m in cands] for cands in candidates]
    chosen: list[int] = []

    def grow(allowed: int):
        # allowed: the tables commuting with every chosen colour but the last
        if len(chosen) == len(lists):
            yield tuple(tables[a] for a in chosen)
            return
        after = allowed & commutes[chosen[-1]] if chosen else allowed
        for a in lists[len(chosen)]:
            if allowed >> a & 1:
                chosen.append(a)
                yield from grow(after)
                chosen.pop()

    yield from grow((1 << len(tables)) - 1)


def exhaustive_stg(n_colours: int, k: int,
                   fixed_point_free: bool = False) -> list[SymmetryTypeGraph]:
    """``enumerate_stg`` without filters, by the exhaustive search."""
    choices = involutions(k)
    if fixed_point_free:
        choices = [m for m in choices if all(m[v] != v for v in range(k))]
    found: dict[bytes, SymmetryTypeGraph] = {}
    for ms in exhaustive_commuting_tuples([choices] * n_colours):
        if len(component(ms, 0)) == k:
            found.setdefault(loop_least_code(ms, n_colours), SymmetryTypeGraph(ms))
    return [found[code] for code in sorted(found)]


# The per-class codes and the per-graph check that enumeration._least_codes
# and stg._check replaced.


def loop_rooted_code(tables, root: int, semi: int) -> bytes:
    """Serialization of partner tables with ``root`` labelled 0.

    Vertices are read in label order and, at each, the tables in colour
    order; a vertex met for the first time takes the next free label.
    In the first ``semi`` tables a fixed point is a semi-edge, written
    255; in the others it is written as the vertex's label.
    """
    columns = [(m, c < semi) for c, m in enumerate(tables)]
    label = {root: 0}
    order = [root]
    code = bytearray()
    for u in order:
        for m, marks_semi in columns:
            v = m[u]
            if v == u and marks_semi:
                code.append(255)
                continue
            if v not in label:
                label[v] = len(order)
                order.append(v)
            code.append(label[v])
    if len(order) != len(tables[0]):
        raise ValueError("a canonical code needs a connected input")
    return bytes(code)


def loop_least_code(tables, semi: int) -> bytes:
    """The least rooted code over all roots."""
    return min(loop_rooted_code(tables, root, semi) for root in range(len(tables[0])))


def loop_violations(t: SymmetryTypeGraph) -> list[str]:
    """``stg_violations`` by a loop over vertices and colours."""
    k = t.vertex_count
    out = []
    for u in range(k):
        for i, m in enumerate(t.tables):
            v = m[u]
            if not 0 <= v < k:
                out.append(f"slot ({u}, {i}) out of range")
            elif m[v] != u:
                out.append(f"asymmetric edge ({u}, {v}) colour {i}")
    if out:
        return out
    if len(component(t.tables, 0)) != k:
        out.append("disconnected")
    out += [f"bad ({i},{j}) 2-factor at vertex {u}" for i, j, u in pair_non_commuting(t.tables)]
    return out


# The per-flag loops that the index arithmetic of constructions, the
# pointer-doubled formats.cycle_string and the component labels of
# symmetry.aut_group replaced.


def loop_polygon(l: int) -> FlagGraph:
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


def loop_simplex(d: int) -> FlagGraph:
    """Flag graph of the d-simplex: (d+1)! flags, colour i swaps chain steps.

    A flag is an ordering of the d+1 vertices (the chain adds one vertex
    per rank); colour i exchanges the entries in positions i and i+1.
    Orderings are indexed lexicographically.
    """
    if d < 1:
        raise ValueError("simplex needs d >= 1")
    perms = list(permutations(range(d + 1)))
    index = {p: t for t, p in enumerate(perms)}
    adj = np.empty((d, len(perms)), dtype=np.int32)
    for t, p in enumerate(perms):
        for i in range(d):
            q = list(p)
            q[i], q[i + 1] = q[i + 1], q[i]
            adj[i, t] = index[tuple(q)]
    return FlagGraph(adj)


def loop_hypercube(d: int) -> FlagGraph:
    """Flag graph of the d-cube: 2^d * d! flags.

    A flag is (corner, direction order): the chain grows the subcube at
    the corner one coordinate direction at a time.  Colour 0 flips the
    corner along the first direction; colour i >= 1 swaps directions at
    positions i-1 and i.  Flags are indexed lexicographically by
    (corner bits, direction order).
    """
    if d < 1:
        raise ValueError("hypercube needs d >= 1")
    perms = list(permutations(range(d)))
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


def loop_torus44(b: int, c: int) -> FlagGraph:
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


def loop_cycle_string(perm: np.ndarray) -> str:
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


def tree_search_group(g: FlagGraph, candidates) -> AutGroup:
    """The group of the automorphisms of ``g`` sending flag 0 into
    ``candidates``, an array of flags; they must form a group.

    Flag 0 is trial-extended only to candidates outside the orbit of flag
    0 grown so far, and outside the orbit, under the subgroup found so
    far, of each failed target (no automorphism reaches those either).
    Each success at least doubles the subgroup, so there are at most
    log2(F) generators.  F = |G| * orbit_count holds because the action
    is free; it is checked.
    """
    generators: list[np.ndarray] = []
    tables: list[list[int]] = []
    orbit = [0]
    skip = np.zeros(g.flag_count, dtype=bool)
    skip[0] = True
    for target in candidates.tolist():
        if skip[target]:
            continue
        img = _extend(g, target)
        if img is None:
            skip[component(tables, target, g.flag_count)] = True
            continue
        generators.append(img)
        tables.append(img.tolist())
        orbit = component(tables, 0)
        skip[orbit] = True
    targets = np.array(orbit, dtype=np.int32)
    orbits = components(tables, g.flag_count)
    if g.flag_count != targets.size * len(orbits):
        raise InternalCheckError(
            f"{g.flag_count} flags != group order {targets.size} x {len(orbits)} orbits")
    orbit_of = np.empty(g.flag_count, dtype=np.int32)
    for idx, flags in enumerate(orbits):
        orbit_of[flags] = idx
    reps = np.array([flags[0] for flags in orbits], dtype=np.int32)
    for arr in (targets, orbit_of, reps):
        arr.setflags(write=False)
    return AutGroup(graph=g, generators=generators, targets=targets, orbit_of=orbit_of, reps=reps)


# The per-pair commutation test that flag_graph.non_commuting replaced.


def commute_defect(mi, mj) -> int | None:
    """Least vertex u with ``mi[mj[u]] != mj[mi[u]]``, or None when the two
    tables commute."""
    mi, mj = np.asarray(mi), np.asarray(mj)
    bad = np.flatnonzero(mi[mj] != mj[mi])
    return int(bad[0]) if bad.size else None


def pair_non_commuting(tables) -> list[tuple[int, int, int]]:
    """``(i, j, u)`` for each colour pair i + 2 <= j whose tables do not
    commute, u the least vertex where they fail to."""
    return [(i, j, u) for i in range(len(tables)) for j in range(i + 2, len(tables))
            if (u := commute_defect(tables[i], tables[j])) is not None]


# The rank-based colour refinement that the hashed rows of
# symmetry.invariant_colours replaced.


def rank_invariant_colours(tables) -> np.ndarray:
    """Cycle lengths of each table and each product of two, refined on
    the tables until the class count stops growing; a colour is the rank
    of a point's row among the distinct rows."""
    tables = np.asarray(tables)
    rank = len(tables)
    columns = [_cycle_lengths(tables[i] if i == j else tables[i][tables[j]])
               for i in range(rank) for j in range(i, rank)]
    colour, count = _classes(columns)
    while True:
        nxt, nxt_count = _classes([colour] + [colour[m] for m in tables])
        if nxt_count == count:
            return colour
        colour, count = nxt, nxt_count


def _classes(columns) -> tuple[np.ndarray, int]:
    """Rank of each point's row of (non-negative) column values among the
    distinct rows, in lexicographic order, and the number of distinct rows."""
    rank = np.zeros(len(columns[0]), dtype=np.int64)
    for col in columns:
        col = np.asarray(col, dtype=np.int64)
        _, rank = np.unique(rank * (int(col.max()) + 1) + col, return_inverse=True)
    return rank, int(rank.max()) + 1


# The per-slot loops that the array passes of constructions.map_from_faces
# replaced.


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


def loop_map_from_faces(spec: MapSpec) -> FlagGraph:
    """Flag graph of a map: 4 flags per edge, colours (vertex, edge, face).

    Flags are indexed lexicographically by (face index, position in
    cycle, side): side 0 sits at the tail of the directed edge read from
    the cycle, side 1 at its head.
    """
    slots = _face_slots(spec)  # every vertex lies in 0..vertex_count - 1
    if len({u for cycle in spec.faces for u in cycle}) != spec.vertex_count:
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


# The routes that the per-flag depth array and the upper-colour labels
# replaced: oriented.orientation's level-by-level replay of the tree,
# verify_face_projection's depth-first search for each face flag's
# induced flag, and walkgen.reduce_generators' whole-table keys.


def level_orientation(g: FlagGraph):
    """The 2-colouring with flag 0 black (0), one tree level at a time,
    or None when not bipartite."""
    colour = np.full(g.flag_count, -1, dtype=np.int8)
    colour[0] = 0
    for flags, parents, _ in g.bfs_levels():
        colour[flags] = 1 - colour[parents]
    for i in range(g.rank):
        if np.any(colour[g.adj[i]] == colour):
            return None
    colour.setflags(write=False)
    return colour


def walk_face_projection(g: FlagGraph, i: int, face: int, aut: AutGroup | None = None,
                         stg: SymmetryTypeGraph | None = None) -> bool:
    """The face-quotient projection property for one i-face, with a
    search over the colours above i from each face flag to the face's
    rank-i component, and the orbit map as a dict."""
    aut = aut_group(g) if aut is None else aut
    stg = quotient(aut) if stg is None else stg
    face_flags = i_faces(g, i).flags_of(face)
    comp = face_component(g, i, face)
    local = {int(f): t for t, f in enumerate(comp)}
    sub = face_maniplex(g, i, face)
    sub_aut = aut_group(sub)
    high = list(range(i + 1, g.rank))

    def induced(flag: int) -> int:
        seen = {flag}
        queue = [flag]
        while queue:
            f = queue.pop()
            if f in local:
                return local[f]
            for c in high:
                nxt = int(g.adj[c, f])
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        raise AssertionError("face component unreachable through high colours")

    pi: dict[int, int] = {}
    for f in face_flags:
        u = int(aut.orbit_of[f])
        image = int(sub_aut.orbit_of[induced(int(f))])
        if pi.setdefault(u, image) != image:
            return False
    component_vertices = set(pi)
    labels = _without(stg, i)
    root = labels[min(component_vertices)]
    if {u for u, label in enumerate(labels) if label == root} != component_vertices:
        return False
    if set(pi.values()) != set(range(sub_aut.orbit_count)):
        return False
    sub_stg = quotient(sub_aut)
    for u in component_vertices:
        for j in range(g.rank):
            if j == i:
                continue
            v = stg.tables[j][u]
            if j < i:
                if sub_stg.tables[j][pi[u]] != pi[v]:
                    return False
            elif pi[v] != pi[u]:
                return False
    return True


def bytes_reduce_generators(s: GeneratorSet) -> GeneratorSet:
    """Drop identity and duplicate automorphisms, keeping first
    occurrences, keyed by the bytes of each whole image table."""
    ident = identity(s.automorphisms[0].size).tobytes() if s.automorphisms else b""
    seen = set()
    keep = []
    for idx, auto in enumerate(s.automorphisms):
        key = auto.tobytes()
        if key == ident or key in seen:
            continue
        seen.add(key)
        keep.append(idx)
    return GeneratorSet(words=[s.words[i] for i in keep],
                        automorphisms=[s.automorphisms[i] for i in keep])


# The routes that the digit-run parse of formats.parse_maniplex_text, the
# scatter-and-read-back levels of FlagGraph.bfs_levels, the adjacent
# products of symmetry.invariant_colours and the incremental orbit labels
# of symmetry.aut_group replaced.


def token_parse_maniplex_text(text: str) -> FlagGraph:
    """A flag graph file read token by token with ``int``, the colour
    lines as lists of lists."""
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


def sorted_bfs_levels(g: FlagGraph, source: int = 0):
    """The breadth-first levels from ``source``, each level's flags
    sorted by ``np.unique`` with the parent and colour of each flag's
    first candidate; and each flag's depth, -1 off the tree."""
    depth = np.full(g.flag_count, -1, dtype=np.int32)
    depth[source] = 0
    frontier = np.array([source], dtype=np.int32)
    all_colours = np.arange(g.rank, dtype=np.int32)
    levels = []
    while frontier.size:
        cand_f = g.adj[:, frontier].reshape(-1)
        cand_p = np.tile(frontier, g.rank)
        cand_c = np.repeat(all_colours, frontier.size)
        fresh = depth[cand_f] < 0
        cand_f, cand_p, cand_c = cand_f[fresh], cand_p[fresh], cand_c[fresh]
        if cand_f.size == 0:
            break
        uniq, first = np.unique(cand_f, return_index=True)
        levels.append((uniq, cand_p[first], cand_c[first]))
        depth[uniq] = len(levels)
        frontier = uniq
    return levels, depth


def all_products_invariant_colours(tables) -> np.ndarray:
    """``symmetry.invariant_colours`` with the cycle lengths of every
    table and of every product of two in the starting rows."""
    tables = np.asarray(tables)
    rank = len(tables)
    weights = _mix(np.arange(1, (rank + 1) * (rank + 2) // 2 + 1, dtype=np.int64) * _GOLDEN)
    h = np.zeros(tables.shape[1], dtype=np.int64)
    for w, (i, j) in zip(weights[rank + 1:], combinations_with_replacement(range(rank), 2)):
        h += _cycle_lengths(tables[i] if i == j else tables[i][tables[j]]) * w
    classes = 0
    while True:
        colour = _mix(h)
        ordered = np.sort(colour)
        grown = int(np.count_nonzero(ordered[1:] != ordered[:-1])) + 1
        if grown == classes:
            return colour
        classes = grown
        h = colour * weights[0] + weights[1:rank + 1] @ colour[tables]


def matmul_invariant_colours(tables) -> np.ndarray:
    """``symmetry.invariant_colours`` with each refinement row summed in
    one product of the weights and a (rank, F) array of the neighbours'
    colours, as it was before the sum went a column at a time."""
    tables = np.asarray(tables)
    rank = len(tables)
    weights = _mix(np.arange(1, 2 * rank + 1, dtype=np.int64) * _GOLDEN)
    h = np.zeros(tables.shape[1], dtype=np.int64)
    for i, w in enumerate(weights[rank + 1:]):
        h += _cycle_lengths(tables[i].take(tables[i + 1])) * w
    classes = 0
    while True:
        colour = _mix(h)
        ordered = np.sort(colour)
        grown = int(np.count_nonzero(ordered[1:] != ordered[:-1])) + 1
        if grown == classes:
            return colour
        classes = grown
        h = colour * weights[0] + weights[1:rank + 1] @ colour.take(tables)


def trial_order(g: FlagGraph) -> np.ndarray:
    """The flags ``symmetry.aut_group`` tries flag 0 against, in order:
    flag 0's neighbours of its invariant colour, in colour order, then
    every flag of that colour in index order (repeats included)."""
    colour = invariant_colours(g.adj)
    near = [int(f) for f in g.adj[:, 0] if colour[f] == colour[0]]
    return np.array(near + np.flatnonzero(colour == colour[0]).tolist())


def relabel_aut_group(g: FlagGraph) -> AutGroup:
    """``symmetry.aut_group`` with the orbit labels recomputed from all
    the generators found so far after each success."""
    candidates = trial_order(g)
    generators: list[np.ndarray] = []
    label = component_labels(generators, g.flag_count)
    skip = label == 0
    while (candidates := candidates[~skip[candidates]]).size:
        target = int(candidates[0])
        img = _extend(g, target)
        if img is None:
            skip |= label == label[target]
            continue
        generators.append(img)
        label = component_labels(generators, g.flag_count)
        skip |= label == 0
    return _group(g, generators, label)


# The edge-pattern match that named the three-vertex types before
# classify read them off the face-transitivity profile.


def edge_pattern_three_orbit(t: SymmetryTypeGraph) -> ThreeOrbitJ | ThreeOrbitJJ1 | None:
    """The three-orbit type of an admissible three-vertex graph from its
    edges: a j-edge meeting a (j+1)-edge is 3^{j,j+1}; a j-edge meeting a
    parallel pair of (j-1)- and (j+1)-edges is 3^{j}; None otherwise."""
    edges = t.edges()
    if len(edges) == 2:
        (u1, v1, c1), (u2, v2, c2) = edges
        shared = {u1, v1} & {u2, v2}
        if len(shared) == 1 and abs(c1 - c2) == 1:
            return ThreeOrbitJJ1(min(c1, c2))
    elif len(edges) == 3:
        pairs: dict[tuple[int, int], list[int]] = {}
        for u, v, c in edges:
            pairs.setdefault((u, v), []).append(c)
        by_size = sorted(pairs.items(), key=lambda kv: len(kv[1]))
        if len(by_size) == 2 and len(by_size[0][1]) == 1 and len(by_size[1][1]) == 2:
            (single_pair, (j,)), (double_pair, doubles) = by_size
            if sorted(doubles) == [j - 1, j + 1] and len(set(single_pair) & set(double_pair)) == 1:
                return ThreeOrbitJ(j)
    return None


# The per-integer format of formats.cycle_string and the per-word walk of
# walkgen.realize_generators that the digit table and the tree lift
# replaced.


def format_cycle_string(perm: np.ndarray) -> str:
    """``formats.cycle_string`` with the moved points sorted by (least,
    back) and written by one ``%`` format string, a cell per point."""
    perm = np.asarray(perm)
    least = np.arange(perm.size, dtype=perm.dtype)
    step, back, span = invert(perm), np.zeros_like(least), 1
    while (better := least[step] < least).any():
        least, back = (np.where(better, least[step], least),
                       np.where(better, back[step] + span, back))
        step, span = step[step], 2 * span
    moved = np.flatnonzero(perm != np.arange(perm.size))
    moved = moved[np.lexsort((back[moved], least[moved]))]
    # a cycle opens at its least point and closes where perm returns to it
    kind = (moved == least[moved]) + 2 * (perm[moved] == least[moved])
    cells = map((" %d", "(%d", " %d)").__getitem__, kind.tolist())
    return "".join(cells) % tuple(moved.tolist()) or "()"


def walk_realize_generators(g: FlagGraph, a: AutGroup, t: SymmetryTypeGraph) -> GeneratorSet:
    """``walkgen.realize_generators`` by following each word on the
    quotient and on the flag tables (as Python lists) together, extending
    every distinct end flag once."""
    if a.orbit_of[0] != 0:
        raise InternalCheckError("orbit ids must start at the base flag")
    words = generating_walks(t)
    adj = g.adj.tolist()
    by_target: dict[int, np.ndarray] = {}
    autos = []
    for word in words:
        end = target = 0
        for colour in word:
            end = t.tables[colour][end]
            target = adj[colour][target]
        if end != 0:
            raise InternalCheckError(f"generating walk is not closed: {word}")
        if target not in by_target:
            if a.orbit_of[target] != a.orbit_of[0]:
                raise InternalCheckError("closed walk left the base orbit")
            by_target[target] = extend_automorphism(g, 0, target)
            if by_target[target] is None:
                raise InternalCheckError("no automorphism realizes a closed walk word")
        autos.append(by_target[target])
    return GeneratorSet(words=words, automorphisms=autos)
