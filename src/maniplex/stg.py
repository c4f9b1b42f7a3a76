"""Symmetry type graphs: quotients of flag graphs by automorphism orbits.

Like a flag graph, a symmetry type graph is one partner table per
colour on its vertices, the flag orbits; a flag adjacency inside one
orbit becomes a fixed point of its colour's table, a semi-edge.  For
colours i, j with |i - j| >= 2 every component of the (i, j) 2-factor
must be one of the five quotients of an alternating 4-cycle, which
holds exactly when the tables of i and j commute.  A graph's tables are
checked once, by array comparisons over a stack of graphs of one shape:
``check_all`` checks a census list, ``stg_violations`` one graph, and
both keep on each graph what they found.  The vertex-major
``slots``, with SEMI for a semi-edge, are only the report's form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flag_graph import (CHUNK, FlagGraph, InternalCheckError, component, components,
                         connected, face_component, face_maniplex, i_faces,
                         non_commuting, quotient_tables)
from .symmetry import AutGroup, aut_group

SEMI = -1


def slot_rows(tables, count: int) -> tuple[tuple[int, ...], ...]:
    """Vertex-major rows of partner tables on ``count`` points: row u
    holds u's partner per colour, SEMI for a fixed point."""
    columns = [[SEMI if v == u else v for u, v in enumerate(m)] for m in tables]
    return tuple(zip(*columns)) if columns else ((),) * count


@dataclass(frozen=True)
class SymmetryTypeGraph:
    """Coloured pregraph: ``tables[i][u]`` is u's colour-i partner, and
    ``tables[i][u] == u`` a semi-edge at u."""

    tables: tuple[tuple[int, ...], ...]
    # what the first stg_violations call found, kept for the later ones
    _problems: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.tables)

    @property
    def vertex_count(self) -> int:
        return len(self.tables[0])

    @property
    def slots(self) -> tuple[tuple[int, ...], ...]:
        """The report's form: ``slots[u][i]`` is a vertex or SEMI."""
        return slot_rows(self.tables, self.vertex_count)

    def semi_colours(self, u: int) -> frozenset[int]:
        return frozenset(i for i, m in enumerate(self.tables) if m[u] == u)

    def edges(self) -> list[tuple[int, int, int]]:
        """Inter-vertex edges as (u, v, colour) with u < v."""
        return [(u, m[u], i) for u in range(self.vertex_count)
                for i, m in enumerate(self.tables) if u < m[u]]


def stg_violations(t: SymmetryTypeGraph) -> list[str]:
    """All structural defects: shape, symmetry, connectivity, 2-factors;
    found on the first call only, a new list on every call."""
    if t._problems is None:
        check_all([t])
    return list(t._problems)


def check_all(graphs) -> None:
    """``stg_violations`` of every graph not checked yet, all with tables
    of one shape, kept on each: one int64 array pass per CHUNK bytes."""
    todo = [t for t in graphs if t._problems is None]
    step = max(1, CHUNK // (8 * sum(map(len, todo[0].tables)))) if todo else 1
    for first in range(0, len(todo), step):
        part = todo[first:first + step]
        for t, problems in zip(part, _violations(part)):
            object.__setattr__(t, "_problems", tuple(problems))


def _violations(graphs) -> list[list[str]]:
    """Per graph, all with tables of one shape: slots out of range or
    asymmetric, by vertex and then colour; else disconnection and the
    colour pairs that do not commute."""
    shape = tuple(map(len, graphs[0].tables))
    k = shape[0]
    if (i := next((i for i, n in enumerate(shape) if n != k), None)) is not None:
        return [[f"colour {i} has {shape[i]} entries, expected {k}"]] * len(graphs)
    m = np.array([t.tables for t in graphs], dtype=np.int64)
    out: list[list[str]] = [[] for _ in graphs]
    inside = (m >= 0) & (m < k)
    safe = np.where(inside, m, 0)
    bad = ~inside | (np.take_along_axis(m, safe, 2) != np.arange(k))
    for g, u, i in zip(*(a.tolist() for a in np.nonzero(bad.transpose(0, 2, 1)))):
        out[g].append(f"asymmetric edge ({u}, {m[g, i, u]}) colour {i}" if inside[g, i, u]
                      else f"slot ({u}, {i}) out of range")
    good = np.flatnonzero(~bad.any(axis=(1, 2)))
    for g in good[~connected(m[good])]:
        out[g].append("disconnected")
    for g, i, j, u in non_commuting(m[good]):
        out[good[g]].append(f"bad ({i},{j}) 2-factor at vertex {u}")
    return out


def is_admissible(t: SymmetryTypeGraph) -> bool:
    return not stg_violations(t)


def quotient(g: FlagGraph, a: AutGroup) -> SymmetryTypeGraph:
    """Symmetry type graph: one vertex per flag orbit, numbered like the
    orbits; Aut commutes with every colour, so orbits map to orbits."""
    t = SymmetryTypeGraph(quotient_tables(g.adj, a.orbit_of))
    if problems := stg_violations(t):
        raise InternalCheckError(f"quotient broke pregraph invariants: {problems}")
    return t


def _without(tables, i: int):
    return tables[:i] + tables[i + 1:]


def _connected_without(tables, i: int) -> bool:
    """True when the tables of every colour but i connect all vertices."""
    k = len(tables[0])
    return len(component(_without(tables, i), 0, k)) == k


def is_i_face_transitive(t: SymmetryTypeGraph, i: int) -> bool:
    """True when deleting colour-i edges leaves the pregraph connected."""
    if not 0 <= i < t.rank:
        raise ValueError(f"colour {i} out of range for rank {t.rank}")
    return _connected_without(t.tables, i)


def transitivity_profile(t: SymmetryTypeGraph) -> frozenset[int]:
    """Colours i for which the structure is NOT i-face-transitive."""
    return frozenset(i for i in range(t.rank) if not _connected_without(t.tables, i))


def face_orbit_splits(t: SymmetryTypeGraph, i: int) -> tuple[int, ...]:
    """Sorted component sizes of the pregraph with colour i deleted."""
    comps = components(_without(t.tables, i), t.vertex_count)
    return tuple(sorted(len(comp) for comp in comps))


@dataclass(frozen=True)
class Regular:
    def label(self) -> str:
        return "regular"


@dataclass(frozen=True)
class TwoOrbit:
    semi_colours: frozenset[int]

    def label(self) -> str:
        if not self.semi_colours:
            return "2_∅"
        return "2_{" + ",".join(str(c) for c in sorted(self.semi_colours)) + "}"


@dataclass(frozen=True)
class ThreeOrbitJ:
    j: int

    def label(self) -> str:
        return f"3^{{{self.j}}}"


@dataclass(frozen=True)
class ThreeOrbitJJ1:
    j: int

    def label(self) -> str:
        return f"3^{{{self.j},{self.j + 1}}}"


@dataclass(frozen=True)
class FourOrbitFamily:
    """Four-vertex types, described by how each colour splits the graph.

    ``splits`` records, for every colour i in the non-transitivity
    profile, the component sizes after deleting colour i (one of (1,1,2),
    (1,3), (2,2)).  ``semi_colours`` lists colours owning a semi-edge
    somewhere.  Families are unnamed in the 2- and 3-orbit tradition, so
    this triple is the stable machine-readable label.
    """

    profile: frozenset[int]
    splits: tuple[tuple[int, tuple[int, ...]], ...]
    semi_colours: frozenset[int]

    def label(self) -> str:
        if not self.profile:
            return "4(fully-transitive)"
        parts = ", ".join(f"T^{i}={'+'.join(map(str, sizes))}" for i, sizes in self.splits)
        return f"4({parts})"


@dataclass(frozen=True)
class OtherClass:
    vertex_count: int

    def label(self) -> str:
        return f"{self.vertex_count}-orbit"


STGClass = Regular | TwoOrbit | ThreeOrbitJ | ThreeOrbitJJ1 | FourOrbitFamily | OtherClass


def classify(t: SymmetryTypeGraph) -> STGClass:
    """Name the type: by vertex count and edge pattern.

    Two-vertex types are determined by their semi-edge colour set; the
    three-vertex types by whether the middle vertex carries one or two
    edge colours; four-vertex types get the descriptive family record.
    """
    if problems := stg_violations(t):
        raise ValueError(f"not an admissible symmetry type graph: {problems}")
    k = t.vertex_count
    if k == 1:
        return Regular()
    if k == 2:
        return TwoOrbit(t.semi_colours(0))
    if k == 3:
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
        return OtherClass(3)
    if k == 4:
        profile = transitivity_profile(t)
        splits = tuple((i, face_orbit_splits(t, i)) for i in sorted(profile))
        semis = frozenset(i for i, m in enumerate(t.tables) if any(m[u] == u for u in range(k)))
        return FourOrbitFamily(profile=profile, splits=splits, semi_colours=semis)
    return OtherClass(k)


def verify_face_projection(g: FlagGraph, i: int, face: int, aut: AutGroup | None = None,
                           stg: SymmetryTypeGraph | None = None) -> bool:
    """Check the face-quotient projection property for one i-face.

    The orbits meeting the face form one component C of the colour-i
    deleted quotient.  Mapping each such orbit to the orbit of its
    induced flag in the face's rank-i structure must be well defined,
    surjective, carry j-edges (j < i) to the j-action downstairs, and
    collapse j-edges with j > i.
    """
    if aut is None:
        aut = aut_group(g)
    if stg is None:
        stg = quotient(g, aut)
    part = i_faces(g, i)
    face_flags = part.flags_of(face)
    comp = face_component(g, i, face)
    local = {int(f): t for t, f in enumerate(comp)}
    sub = face_maniplex(g, i, face)
    sub_aut = aut_group(sub)

    # induced flag: walk colours > i inside the face until hitting the
    # component used to build the sub-structure
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
    reached = component(_without(stg.tables, i), min(component_vertices),
                        stg.vertex_count)
    if set(reached) != component_vertices:
        return False
    if set(pi.values()) != set(range(sub_aut.orbit_count)):
        return False

    sub_stg = quotient(sub, sub_aut)
    for u in component_vertices:
        for j in range(g.rank):
            if j == i:
                continue
            v = stg.tables[j][u]
            if j < i:
                if sub_stg.tables[j][pi[u]] != pi[v]:
                    return False
            else:
                if pi[v] != pi[u]:
                    return False
    return True
