"""Orientations, the oriented flag di-graph, and its quotients.

A flag graph is orientable when bipartite; fixing the two parts as black
and white, the black flags carry the structure of the even walks: the
compositions t_i = r_{n-1} r_i are involutions for i <= n-3 (undirected
classes) while rot = r_{n-1} r_{n-2} is a genuine permutation (the
directed class).  The oriented flag di-graph is a ``FlagGraph`` on the
black flags whose colours are these moves, t_0..t_{n-3}, then rot, then
rot^-1, so the trial extension and the isomorphism test of flag graphs
apply to it unchanged.  Its quotient by the orientation-preserving
orbits is found the same way as the symmetry type graph: a partner
table per undirected class, where a fixed point is a semi-edge, plus
the dart permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flag_graph import FlagGraph, InternalCheckError, quotient_tables
from .stg import SymmetryTypeGraph, bipartition, quotient, slot_rows
from .symmetry import AutGroup, aut_group, invert, search_group


@dataclass(frozen=True)
class Orientation:
    """Black/white 2-colouring of the flags; flag 0 is black (0)."""

    colour_of: np.ndarray

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


def oriented_digraph(g: FlagGraph, o: Orientation) -> FlagGraph:
    """The oriented flag di-graph (rank >= 2), on the black flags in
    ``o.black_flags`` order: colour i <= n-3 is t_i, colour n-2 is rot
    and colour n-1 is rot^-1."""
    if g.rank < 2:
        raise ValueError("the directed class needs rank >= 2")
    black = o.black_flags
    pos = np.full(g.flag_count, -1, dtype=np.int32)
    pos[black] = np.arange(black.size, dtype=np.int32)
    moves = pos[g.adj[:-1, g.adj[-1, black]]]
    return FlagGraph(np.vstack([moves, invert(moves[-1])]))


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
    return int(np.count_nonzero(np.bincount(a_plus.orbit_of[o.black_flags])))


def stg_has_odd_closed_walk(t: SymmetryTypeGraph) -> bool:
    """Semi-edges count as odd closed walks; otherwise test bipartiteness.

    A semi-edge joins two flags of opposite parts inside one orbit, which
    forces a part-swapping automorphism, so it behaves as an odd cycle.
    """
    return bipartition(t) is None


def is_chiral_a_la_conway(g: FlagGraph, o: Orientation, aut: AutGroup | None = None,
                          a_plus: AutGroup | None = None,
                          stg: SymmetryTypeGraph | None = None) -> bool:
    """True when every automorphism preserves the parts.

    Computed group-theoretically (Aut+ = Aut) and cross-checked against
    the quotient-graph test (no odd closed walks); a mismatch raises
    InternalCheckError.
    """
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

    ``tables[i]`` is the partner table of the class t_i, i <= n-3 (a
    fixed point is a semi-edge); ``dart[u]`` is the target of the out-dart
    of the directed class (a self-target is a loop; mutually inverse
    darts between two vertices stay distinct).
    """

    tables: tuple[tuple[int, ...], ...]
    dart: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.tables) + 2

    @property
    def vertex_count(self) -> int:
        return len(self.dart)

    @property
    def undirected(self) -> tuple[tuple[int, ...], ...]:
        """The report's form: ``undirected[u][i]`` is a vertex or SEMI."""
        return slot_rows(self.tables, self.vertex_count)

    def semi_or_loop_colours(self, u: int) -> frozenset[int]:
        out = {i for i, m in enumerate(self.tables) if m[u] == u}
        if self.dart[u] == u:
            out.add(self.rank - 2)
        return frozenset(out)


def oriented_stg(g: FlagGraph, o: Orientation, a_plus: AutGroup | None = None) -> OrientedSTG:
    """Quotient the oriented di-graph's t_0..t_{n-3} and rot by the Aut+
    orbits of black flags, numbered in order of orbit id."""
    d = oriented_digraph(g, o)
    if a_plus is None:
        a_plus = aut_plus(g, o)
    *tables, dart = quotient_tables(d.adj[:-1], a_plus.orbit_of[o.black_flags])
    return OrientedSTG(tables=tuple(tables), dart=dart)


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
