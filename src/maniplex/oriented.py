"""Orientations, the oriented flag di-graph, and its quotients.

A flag graph is orientable when bipartite, its parts then the flags of
even and of odd depth in the breadth-first tree from flag 0.  Fixing
them as black and white, the black flags carry the structure of the even
walks: the compositions t_i = r_{n-1} r_i are involutions for i <= n-3
(undirected classes) while rot = r_{n-1} r_{n-2} is a genuine
permutation (the directed class).  The oriented flag di-graph is a
``FlagGraph`` on the black flags whose colours are these moves,
t_0..t_{n-3}, then rot, then rot^-1, so flag-graph routines apply to
it unchanged.  The orientation-preserving group Aut+ is read off Aut
and the parts, and its quotient off the moves at one black flag per
orbit: a partner table per undirected class, where a fixed point is a
semi-edge, plus the dart permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flag_graph import FlagGraph, InternalCheckError
from .stg import SymmetryTypeGraph, bipartition, slot_rows
from .symmetry import AutGroup, _group, invert


@dataclass(frozen=True)
class Orientation:
    """Black/white 2-colouring of the flags; flag 0 is black (0)."""

    colour_of: np.ndarray

    @property
    def black_flags(self) -> np.ndarray:
        return np.nonzero(self.colour_of == 0)[0].astype(np.int32)


def orientation(g: FlagGraph):
    """The 2-colouring with flag 0 black, or None when not bipartite:
    each flag's colour is the parity of its depth from flag 0, so only
    the edges off the tree can join one colour (a flag off it is white)."""
    colour = (g.depths() & 1).astype(np.int8)
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


def aut_plus(aut: AutGroup, o: Orientation) -> AutGroup:
    """Orientation-preserving subgroup Aut+ of ``aut``, with its own orbit partition.

    An automorphism keeps the parts when it keeps flag 0's part, so Aut+
    is Aut or of index 2, read off Aut: each generator is checked to keep
    or swap the parts at every flag, and then, the action being free, an
    Aut+ orbit is an Aut orbit's flags of one part.  Aut+ lists no
    generators."""
    colour = o.colour_of
    if all(colour[p[0]] == colour[0] for p in aut.generators):
        return aut
    for p in aut.generators:
        if not np.array_equal(colour[p], colour ^ colour[p[0]] ^ colour[0]):
            raise InternalCheckError(f"the automorphism sending flag 0 to {p[0]} "
                                     "neither keeps nor swaps the parts")
    key = 2 * aut.orbit_of + colour
    least = np.full(2 * aut.orbit_count, aut.graph.flag_count, dtype=np.int32)
    np.minimum.at(least, key, np.arange(aut.graph.flag_count, dtype=np.int32))
    return _group(aut.graph, [], least[key])


def black_orbit_count(a_plus: AutGroup, o: Orientation) -> int:
    """Number of orientation-preserving orbits made of black flags."""
    return int(np.count_nonzero(np.bincount(a_plus.orbit_of[o.black_flags])))


def stg_has_odd_closed_walk(t: SymmetryTypeGraph) -> bool:
    """Semi-edges count as odd closed walks; otherwise test bipartiteness.

    A semi-edge joins two flags of opposite parts inside one orbit, which
    forces a part-swapping automorphism, so it behaves as an odd cycle.
    """
    return bipartition(t) is None


def is_chiral_a_la_conway(aut: AutGroup, a_plus: AutGroup, stg: SymmetryTypeGraph) -> bool:
    """True when every automorphism preserves the parts.

    Computed group-theoretically (Aut+ = Aut) and cross-checked against
    the quotient-graph test (no odd closed walks); a mismatch raises
    InternalCheckError.
    """
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


def oriented_stg(a_plus: AutGroup, o: Orientation) -> OrientedSTG:
    """Quotient the oriented di-graph's t_0..t_{n-3} and rot (rank >= 2)
    by the Aut+ orbits of black flags, numbered in order of orbit id: the
    moves are read at the least black flag of each orbit."""
    if a_plus.graph.rank < 2:
        raise ValueError("the directed class needs rank >= 2")
    adj, black, orbit_of = a_plus.graph.adj, o.black_flags, a_plus.orbit_of
    ids, first = np.unique(orbit_of[black], return_index=True)
    moves = adj[:-1, adj[-1, black[first]]]
    *tables, dart = np.searchsorted(ids, orbit_of[moves]).tolist()
    return OrientedSTG(tables=tuple(map(tuple, tables)), dart=tuple(dart))


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
