"""The orientation of a flag graph, its oriented flag di-graph, and quotients.

A flag graph is orientable when bipartite, its parts then the flags of
even and of odd depth in the breadth-first tree from flag 0, and the
orientation is each flag's depth parity: 0 on the black flags, flag 0's
part.  The black flags carry the structure of the even walks: the
compositions t_i = r_{n-1} r_i are involutions for i <= n-3
(undirected classes) while rot = r_{n-1} r_{n-2} is a genuine
permutation (the directed class).  The oriented flag di-graph is a
``FlagGraph`` on the black flags whose colours are these moves,
t_0..t_{n-3}, then rot, then rot^-1, so flag-graph routines apply to
it unchanged.  The orientation-preserving group Aut+ is read off Aut
and the parts.  An Aut+ orbit lies in one part, so the black orbits
are those whose least flag is black, and the quotient is read off the
moves at these flags: a partner table per undirected class, where a
fixed point is a semi-edge, plus the dart permutation, in int32 arrays.
"""

from __future__ import annotations

import numpy as np

from .flag_graph import FlagGraph, InternalCheckError, Record
from .stg import SymmetryTypeGraph, _int32, bipartition, slot_rows
from .symmetry import AutGroup, _group, invert


def orientation(g: FlagGraph):
    """The parity of each flag's depth from flag 0, read-only int8, 0 on
    black and 1 on white, or None when not bipartite: only the edges off
    the tree can join one part (a flag off it is white)."""
    parity = (g.depths() & 1).astype(np.int8)
    for i in range(g.rank):
        if np.any(parity[g.adj[i]] == parity):
            return None
    parity.setflags(write=False)
    return parity


def oriented_digraph(g: FlagGraph, parity: np.ndarray) -> FlagGraph:
    """The oriented flag di-graph (rank >= 2), on the black flags
    (``parity`` 0) in increasing order: colour i <= n-3 is t_i, colour
    n-2 is rot and colour n-1 is rot^-1."""
    if g.rank < 2:
        raise ValueError("the directed class needs rank >= 2")
    black = np.flatnonzero(parity == 0)
    pos = np.full(g.flag_count, -1, dtype=np.int32)
    pos[black] = np.arange(black.size, dtype=np.int32)
    moves = pos[g.adj[:-1, g.adj[-1, black]]]
    return FlagGraph(np.vstack([moves, invert(moves[-1])]))


def aut_plus(aut: AutGroup, parity: np.ndarray) -> AutGroup:
    """The orientation-preserving subgroup Aut+ of ``aut``, with its own orbits.

    An automorphism keeps the parts when it keeps flag 0's part, so Aut+
    is Aut or of index 2, read off Aut: each generator is checked to keep
    or swap the parts at every flag, and then, the action being free, an
    Aut+ orbit is an Aut orbit's flags of one part.  Aut+ lists no
    generators."""
    if all(parity[p[0]] == parity[0] for p in aut.generators):
        return aut
    for p in aut.generators:
        if not np.array_equal(parity[p], parity ^ parity[p[0]] ^ parity[0]):
            raise InternalCheckError(f"the automorphism sending flag 0 to {p[0]} "
                                     "neither keeps nor swaps the parts")
    key = 2 * aut.orbit_of + parity
    least = np.full(2 * aut.orbit_count, aut.graph.flag_count, dtype=np.int32)
    np.minimum.at(least, key, np.arange(aut.graph.flag_count, dtype=np.int32))
    return _group(aut.graph, [], least[key])


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


class OrientedSTG(Record):
    """Quotient of the black-flag di-graph by orientation-preserving orbits.

    ``tables[i]`` is the partner table of the class t_i, i <= n-3 (a
    fixed point is a semi-edge); ``dart[u]`` is the target of the out-dart
    of the directed class (a self-target is a loop; mutually inverse
    darts between two vertices stay distinct).  Both are read-only int32."""

    __slots__ = ("tables", "dart")

    def __init__(self, tables, dart) -> None:
        if not (dart := _int32(dart, 1)).size:
            raise ValueError(f"no vertex in an oriented quotient's dart of shape {dart.shape}")
        super().__init__(_int32(np.reshape(tables, (-1, dart.size)), 2), dart)

    @property
    def rank(self) -> int:
        return self.tables.shape[0] + 2

    @property
    def vertex_count(self) -> int:
        return self.dart.size

    @property
    def undirected(self) -> list[list[int]]:
        """The report's form: ``undirected[u][i]`` is a vertex or SEMI."""
        return slot_rows(self.tables)

    def semi_or_loop_colours(self, u: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(np.append(self.tables[:, u], self.dart[u]) == u).tolist())


def oriented_stg(a_plus: AutGroup, parity: np.ndarray) -> OrientedSTG:
    """Quotient the oriented di-graph's t_0..t_{n-3} and rot (rank >= 2)
    by the Aut+ orbits of black flags, numbered in order of orbit id: the
    moves are read at the least flags of the orbits that are black."""
    if a_plus.graph.rank < 2:
        raise ValueError("the directed class needs rank >= 2")
    adj, black = a_plus.graph.adj, parity[a_plus.reps] == 0
    moves = (np.cumsum(black) - 1)[a_plus.orbit_of[adj[:-1, adj[-1, a_plus.reps[black]]]]]
    return OrientedSTG(tables=moves[:-1], dart=moves[-1])


class Rotary(Record):
    def label(self) -> str:
        return "rotary"


class TwoOrbitOriented(Record):
    __slots__ = ("semi_colours",)

    def label(self) -> str:
        if not self.semi_colours:
            return "2⁺_∅"
        return "2⁺_{" + ",".join(str(c) for c in sorted(self.semi_colours)) + "}"


class OtherOriented(Record):
    __slots__ = ("vertex_count",)

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
