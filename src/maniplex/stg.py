"""Symmetry type graphs: quotients of flag graphs by automorphism orbits.

Like a flag graph, a symmetry type graph is one partner table per
colour on its vertices, the flag orbits; a flag adjacency inside one
orbit becomes a fixed point of its colour's table, a semi-edge.  For
colours i, j with |i - j| >= 2 every component of the (i, j) 2-factor
must be one of the five quotients of an alternating 4-cycle, which
holds exactly when the tables of i and j commute.  A graph's tables are
checked once, by array comparisons over a stack of graphs of one shape
(``check_all`` on a census list, ``stg_violations`` on one graph), in a
pass that also labels the components of each graph's copies with one
colour deleted and of its double cover.  What the pass finds is kept on
the graph, and connectivity, the face transitivities, the face-orbit
splits, the bipartition and, from three vertices on, the class names
are read off it.  The vertex-major ``slots``, with SEMI for a semi-edge,
are only the report's form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .flag_graph import CHUNK, InternalCheckError, non_commuting, stack_labels
from .symmetry import AutGroup

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
    # what the check found: (problems, labels without each colour, sides),
    # the last two None where the tables are not well formed
    _facts: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
    if t._facts is None:
        check_all([t])
    return list(t._facts[0])


def _well_formed(t: SymmetryTypeGraph) -> tuple:
    """The labels without each colour and the sides that the check found;
    ValueError when the tables are not well formed."""
    if (problems := stg_violations(t)) and t._facts[1] is None:
        raise ValueError(f"not a well-formed symmetry type graph: {problems}")
    return t._facts[1:]


def _without(t: SymmetryTypeGraph, i: int) -> tuple[int, ...]:
    """The least vertex of each vertex's component once colour i is deleted."""
    if not 0 <= i < t.rank:
        raise ValueError(f"colour {i} out of range for rank {t.rank}")
    return _well_formed(t)[0][i]


def bipartition(t: SymmetryTypeGraph) -> tuple[int, ...] | None:
    """Sides 0/1 with every component's least vertex on side 0, or None
    when some edge (a semi-edge included) joins two vertices of one side."""
    return _well_formed(t)[1]


def check_all(graphs, stack: np.ndarray | None = None) -> None:
    """Check every graph not checked yet, all with tables of one shape,
    and keep what was found on each, equal facts once: one pass per
    CHUNK bytes of int32 tables, of which a graph of rank r takes r + 2
    copies.  ``stack``, where the caller holds it, is the list's tables
    as one array (graphs, colours, k), read in place of the tuples."""
    todo, kept = [g for g, t in enumerate(graphs) if t._facts is None], {}
    tables = graphs[todo[0]].tables if todo else ()
    step = max(1, CHUNK // (4 * (len(tables) + 2) * max(1, sum(map(len, tables)))))
    for first in range(0, len(todo), step):
        part = todo[first:first + step]
        ts = [graphs[g] for g in part]
        for t, facts in zip(ts, _check(ts, kept, None if stack is None else stack[part])):
            object.__setattr__(t, "_facts", facts)


def _check(graphs, kept: dict, m: np.ndarray | None = None) -> list[tuple]:
    """The facts of each graph, all with tables of one shape.  Problems:
    slots out of range or asymmetric, by vertex and then colour; else
    disconnection and the colour pairs that do not commute.  Well-formed
    tables are labelled in one stack: per graph, a copy per colour with
    that colour's table the identity (a fixed point adds no edge), and
    the double cover, where u goes to m(u) + k and u + k to m(u).  The
    cover's component of 0 holds u or u + k for each u of 0's component,
    so the graph is connected where one of each pair is labelled 0, and
    bipartite where the two are labelled apart; side 1 is where u's
    label is the larger.  Admissible graphs with equal labels share one
    facts tuple, kept in ``kept`` under the bytes of the labels.  ``m``,
    where given, holds the tables as one array."""
    shape = tuple(map(len, graphs[0].tables))
    rank, k = len(shape), shape[0]
    if (i := next((i for i, n in enumerate(shape) if n != k), None)) is not None:
        return [((f"colour {i} has {shape[i]} entries, expected {k}",), None, None)] * len(graphs)
    m = np.array([t.tables for t in graphs], dtype=np.int64) if m is None else m
    out: list[list[str]] = [[] for _ in graphs]
    inside = (m >= 0) & (m < k)
    safe = np.where(inside, m, 0)
    bad = ~inside | (np.take_along_axis(m, safe, 2) != np.arange(k))
    for g, u, i in zip(*(a.tolist() for a in np.nonzero(bad.transpose(0, 2, 1)))):
        out[g].append(f"asymmetric edge ({u}, {m[g, i, u]}) colour {i}" if inside[g, i, u]
                      else f"slot ({u}, {i}) out of range")
    good = np.flatnonzero(~bad.any(axis=(1, 2)))
    # block b of a graph's (rank + 2) * k points sends its edges into block into[b]
    into = np.array([*range(rank), rank + 1, rank], np.int32) * k
    copies = m[good, :, None].astype(np.int32) + into[:, None]
    copies[:, range(rank), range(rank)] = np.arange(rank * k).reshape(rank, k)
    labels = stack_labels(copies.reshape(len(good), rank, (rank + 2) * k))
    low, high = labels[:, rank * k:-k] - rank * k, labels[:, -k:] - rank * k
    for g in good[np.minimum(low, high).any(axis=1)]:
        out[g].append("disconnected")
    for g, i, j, u in non_commuting(m[good]):
        out[good[g]].append(f"bad ({i},{j}) 2-factor at vertex {u}")
    sides = np.where((low != high).all(axis=1, keepdims=True), low > high, -1)
    rows = np.hstack([labels[:, :rank * k] - np.repeat(into[:rank], k), sides])
    facts: list[tuple | None] = [None] * len(graphs)
    for g, row in zip(good.tolist(), rows):
        if (shared := kept.get(key := row.tobytes())) is None:
            without = tuple(map(tuple, row[:-k].reshape(rank, k).tolist()))
            shared = kept[key] = ((), without, tuple(row[-k:].tolist()) if row[-1] >= 0 else None)
        facts[g] = (tuple(out[g]),) + shared[1:] if out[g] else shared
    return [f or (tuple(problems), None, None) for f, problems in zip(facts, out)]


def quotient(a: AutGroup) -> SymmetryTypeGraph:
    """Symmetry type graph: one vertex per flag orbit, numbered like the
    orbits and read at its least flag; Aut commutes with every colour."""
    t = SymmetryTypeGraph(tuple(map(tuple, a.orbit_of[a.graph.adj[:, a.reps]].tolist())))
    if problems := stg_violations(t):
        raise InternalCheckError(f"quotient broke pregraph invariants: {problems}")
    return t


def transitivity_profile(t: SymmetryTypeGraph) -> frozenset[int]:
    """Colours i for which the structure is NOT i-face-transitive."""
    return frozenset(i for i, labels in enumerate(_well_formed(t)[0]) if any(labels))


def face_orbit_splits(t: SymmetryTypeGraph, i: int) -> tuple[int, ...]:
    """Sorted component sizes of the pregraph with colour i deleted."""
    return tuple(sorted(Counter(_without(t, i)).values()))


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
    """Name the type: by vertex count and face transitivities.

    Two-vertex types are determined by their semi-edge colour set; a
    three-vertex type 3^{J} by the colours J at which it is not
    face-transitive, {j} or {j, j+1} (another J raises
    InternalCheckError); four-vertex types get the family record.
    """
    if problems := stg_violations(t):
        raise ValueError(f"not an admissible symmetry type graph: {problems}")
    k = t.vertex_count
    if k == 1:
        return Regular()
    if k == 2:
        return TwoOrbit(t.semi_colours(0))
    if k == 3:
        profile = sorted(transitivity_profile(t))
        if len(profile) == 1:
            return ThreeOrbitJ(profile[0])
        if len(profile) == 2 and profile[1] == profile[0] + 1:
            return ThreeOrbitJJ1(profile[0])
        raise InternalCheckError(f"three-vertex type {t.tables} has profile {profile}")
    if k == 4:
        profile = transitivity_profile(t)
        splits = tuple((i, face_orbit_splits(t, i)) for i in sorted(profile))
        semis = np.flatnonzero((np.array(t.tables) == np.arange(k)).any(axis=1)).tolist()
        return FourOrbitFamily(profile=profile, splits=splits, semi_colours=frozenset(semis))
    return OtherClass(k)


def class_labels(graphs) -> list[str]:
    """``classify(t).label()`` for each graph, all with tables of one
    shape; from three vertices on a label reads only the check's facts,
    so it is found once per facts tuple, which equal facts share."""
    check_all(graphs)
    found: dict = {}
    return [found.get(key := id(t._facts) if t.vertex_count >= 3 else t)
            or found.setdefault(key, classify(t).label()) for t in graphs]
