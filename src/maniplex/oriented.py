"""Orientations, oriented flag di-graphs, and their quotients.

A flag graph is orientable when bipartite; fixing the two parts as black
and white, the black flags carry the structure of the even walks: the
compositions t_i = r_{n-1} r_i are involutions for i <= n-3 (undirected
classes) while t_{n-2} is a genuine permutation (the directed class).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flag_graph import FlagGraph, InternalCheckError, i_faces, two_colouring
from .stg import SEMI, SymmetryTypeGraph, partner_tables
from .symmetry import AutGroup, are_isomorphic, aut_group, invert, search_group


@dataclass(frozen=True)
class Orientation:
    """Black/white 2-colouring of the flags; flag 0 is black (0)."""

    colour_of: np.ndarray

    def is_black(self, flag: int) -> bool:
        return self.colour_of[flag] == 0

    @property
    def black_flags(self) -> np.ndarray:
        return np.nonzero(self.colour_of == 0)[0].astype(np.int32)


def orientation(g: FlagGraph):
    """The 2-colouring with flag 0 black, or None when not bipartite."""
    colour = np.full(g.flag_count, -1, dtype=np.int8)
    colour[0] = 0
    for flags, parents, _ in g.bfs_levels(0):
        colour[flags] = 1 - colour[parents]
    for i in range(g.rank):
        if np.any(colour[g.adj[i]] == colour):
            return None
    colour.setflags(write=False)
    return Orientation(colour_of=colour)


@dataclass(frozen=True)
class OrientedFlagDigraph:
    """Black flags with n-2 undirected classes and one directed class.

    ``t_adj[i]`` realizes r_{n-1} r_i for i <= n-3 (fixed-point-free
    involutions); ``rot`` realizes r_{n-1} r_{n-2}.  Tables are indexed
    by black-flag position; ``black_flags`` maps back to the original
    flag ids.
    """

    rank: int
    black_flags: np.ndarray
    t_adj: np.ndarray
    rot: np.ndarray

    @property
    def black_count(self) -> int:
        return self.black_flags.size

    @property
    def rot_inv(self) -> np.ndarray:
        return invert(self.rot)


def oriented_digraph(g: FlagGraph, o: Orientation) -> OrientedFlagDigraph:
    """Build the black-flag di-graph (rank >= 2)."""
    if g.rank < 2:
        raise ValueError("the directed class needs rank >= 2")
    black = o.black_flags
    pos = np.full(g.flag_count, -1, dtype=np.int32)
    pos[black] = np.arange(black.size, dtype=np.int32)
    n = g.rank
    t_adj = np.empty((n - 2, black.size), dtype=np.int32)
    for i in range(n - 2):
        t_adj[i] = pos[g.adj[i][g.adj[n - 1][black]]]
    rot = pos[g.adj[n - 2][g.adj[n - 1][black]]]
    t_adj.setflags(write=False)
    rot.setflags(write=False)
    return OrientedFlagDigraph(rank=n, black_flags=black, t_adj=t_adj, rot=rot)


def aut_plus(g: FlagGraph, o: Orientation, aut: AutGroup | None = None) -> AutGroup:
    """Orientation-preserving subgroup, with its own orbit partition.

    An automorphism preserves the parts as soon as it preserves the part
    of flag 0, so the candidates are the targets of Aut in flag 0's part,
    all of which extend.
    """
    full = aut_group(g) if aut is None else aut
    return search_group(g, full.targets[o.colour_of[full.targets] == o.colour_of[0]])


def black_orbit_count(a_plus: AutGroup, o: Orientation) -> int:
    """Number of orientation-preserving orbits made of black flags."""
    return len({int(a_plus.orbit_of[f]) for f in o.black_flags})


def stg_has_odd_closed_walk(t: SymmetryTypeGraph) -> bool:
    """Semi-edges count as odd closed walks; otherwise test bipartiteness.

    A semi-edge joins two flags of opposite parts inside one orbit, which
    forces a part-swapping automorphism, so it behaves as an odd cycle.
    """
    return two_colouring(partner_tables(t)) is None


def is_chiral_a_la_conway(g: FlagGraph, o: Orientation, aut: AutGroup | None = None,
                          a_plus: AutGroup | None = None,
                          stg: SymmetryTypeGraph | None = None) -> bool:
    """True when every automorphism preserves the parts.

    Computed group-theoretically (Aut+ = Aut) and cross-checked against
    the quotient-graph test (no odd closed walks); a mismatch raises
    InternalCheckError.
    """
    from .stg import quotient

    if aut is None:
        aut = aut_group(g)
    if a_plus is None:
        a_plus = aut_plus(g, o, aut=aut)
    if stg is None:
        stg = quotient(g, aut)
    group_test = a_plus.order == aut.order
    graph_test = not stg_has_odd_closed_walk(stg)
    if group_test != graph_test:
        raise InternalCheckError(
            f"chirality tests disagree: group={group_test}, graph={graph_test}")
    return group_test


@dataclass(frozen=True)
class OrientedSTG:
    """Quotient of the black-flag di-graph by orientation-preserving orbits.

    ``undirected[u][i]`` is a vertex or SEMI for the classes t_0..t_{n-3};
    ``dart[u]`` is the target of the out-dart of the directed class (a
    self-target is a loop; mutually inverse darts between two vertices
    stay distinct).
    """

    rank: int
    vertex_count: int
    undirected: tuple[tuple[int, ...], ...]
    dart: tuple[int, ...]

    def semi_or_loop_colours(self, u: int) -> frozenset[int]:
        out = {i for i, s in enumerate(self.undirected[u]) if s == SEMI}
        if self.dart[u] == u:
            out.add(self.rank - 2)
        return frozenset(out)


def oriented_stg(g: FlagGraph, o: Orientation, a_plus: AutGroup | None = None) -> OrientedSTG:
    """Quotient the oriented di-graph by the Aut+ orbits of black flags."""
    d = oriented_digraph(g, o)
    if a_plus is None:
        a_plus = aut_plus(g, o)
    orbit_ids = sorted({int(a_plus.orbit_of[f]) for f in d.black_flags})
    renumber = {o_id: t for t, o_id in enumerate(orbit_ids)}
    reps = {}
    for t_black, f in enumerate(d.black_flags):
        u = renumber[int(a_plus.orbit_of[f])]
        reps.setdefault(u, t_black)
    rows = []
    darts = []
    for u in range(len(orbit_ids)):
        rep = reps[u]
        row = []
        for i in range(d.rank - 2):
            v = renumber[int(a_plus.orbit_of[d.black_flags[d.t_adj[i, rep]]])]
            row.append(SEMI if v == u else v)
        rows.append(tuple(row))
        darts.append(renumber[int(a_plus.orbit_of[d.black_flags[d.rot[rep]]])])
    return OrientedSTG(rank=d.rank, vertex_count=len(orbit_ids),
                       undirected=tuple(rows), dart=tuple(darts))


@dataclass(frozen=True)
class Rotary:
    def label(self) -> str:
        return "rotary"


@dataclass(frozen=True)
class TwoOrbitOriented:
    semi_colours: frozenset[int]

    def label(self) -> str:
        if not self.semi_colours:
            return "2⁺_∅"
        return "2⁺_{" + ",".join(str(c) for c in sorted(self.semi_colours)) + "}"


@dataclass(frozen=True)
class OtherOriented:
    vertex_count: int

    def label(self) -> str:
        return f"{self.vertex_count}-orbit⁺"


OrientedClass = Rotary | TwoOrbitOriented | OtherOriented


def classify_oriented(ot: OrientedSTG) -> OrientedClass:
    """Rotary for one vertex; two-vertex types by semi/loop colour set."""
    if ot.vertex_count == 1:
        return Rotary()
    if ot.vertex_count == 2:
        return TwoOrbitOriented(ot.semi_or_loop_colours(0))
    return OtherOriented(ot.vertex_count)


def enantiomorph(d: OrientedFlagDigraph) -> OrientedFlagDigraph:
    """Mirror image: reverse the directed class, keep the rest."""
    return OrientedFlagDigraph(rank=d.rank, black_flags=d.black_flags,
                               t_adj=d.t_adj, rot=d.rot_inv)


def _move_graph(d: OrientedFlagDigraph) -> FlagGraph:
    """The di-graph's moves t_0..t_{n-3}, rot and rot^-1 as the colours of a
    FlagGraph, so the trial extension of flag graphs applies unchanged."""
    return FlagGraph(list(d.t_adj) + [d.rot, d.rot_inv])


def oriented_are_isomorphic(d1: OrientedFlagDigraph, d2: OrientedFlagDigraph):
    """Class- and direction-preserving bijection of black flags, or None."""
    return are_isomorphic(_move_graph(d1), _move_graph(d2))


def facets(d: OrientedFlagDigraph) -> list[frozenset[int]]:
    """Facet partition of the black flags, read off the di-graph alone.

    Two black flags share a facet exactly when joined by a path whose
    directed-class darts alternate against-then-with the arrows (the
    moves t_a^{-1} t_b), which is how paths avoiding two same-direction
    darts in a row reduce.  Returned as frozensets of original flag ids,
    sorted by least member.
    """
    count = d.black_count
    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    inverse_moves = [d.t_adj[i] for i in range(d.rank - 2)] + [d.rot_inv]
    forward_moves = [d.t_adj[i] for i in range(d.rank - 2)] + [np.asarray(d.rot)]
    for a, back in enumerate(inverse_moves):
        for b, fwd in enumerate(forward_moves):
            if a == b:
                continue
            for f in range(count):
                union(f, int(fwd[back[f]]))
    groups: dict[int, set[int]] = {}
    for f in range(count):
        groups.setdefault(find(f), set()).add(int(d.black_flags[f]))
    return sorted((frozenset(s) for s in groups.values()), key=min)


def check_facets_against_faces(g: FlagGraph, o: Orientation) -> bool:
    """Cross-check di-graph facets with the top-rank face partition."""
    d = oriented_digraph(g, o)
    from_digraph = set(facets(d))
    part = i_faces(g, g.rank - 1)
    black = set(int(f) for f in o.black_flags)
    from_faces = set()
    for face in range(part.face_count):
        members = frozenset(int(f) for f in part.flags_of(face) if int(f) in black)
        from_faces.add(members)
    return from_digraph == from_faces
