"""Symmetry type graphs: quotients of flag graphs by automorphism orbits.

Like a flag graph, a symmetry type graph is one partner table per
colour on its vertices, the flag orbits, in one read-only int32 array
(colours, k); a flag adjacency inside one orbit becomes a fixed point,
a semi-edge.  For colours i, j with |i - j| >= 2 every component of the
(i, j) 2-factor must be one of the five quotients of an alternating
4-cycle, which holds exactly when the tables of i and j commute.  A
graph's tables are checked once, by array comparisons over a stack of
graphs of one shape, in a pass that also labels the components of each
graph's copies with one colour deleted and of its double cover.  Its
label arrays are kept on the graph, and connectivity, the face
transitivities, the face-orbit splits, the bipartition and, from three
vertices on, the class names are read off them.  The vertex-major
``slots``, with SEMI for a semi-edge, are only the report's form.
"""

from __future__ import annotations

import numpy as np

from .flag_graph import CHUNK, InternalCheckError, Record, non_commuting, stack_labels
from .symmetry import AutGroup

SEMI = -1


def _int32(tables, ndim: int) -> np.ndarray:
    """``tables`` as a read-only C-order int32 array of ``ndim`` dimensions,
    itself (frozen) where it is one; ValueError where int32 changes an entry."""
    out = np.ascontiguousarray(tables, dtype=np.int32)
    if out.ndim != ndim or out is not tables and (out != tables).any():
        raise ValueError(f"expected a {ndim}-dimensional array of int32 integers")
    out.setflags(write=False)
    return out


def slot_rows(tables: np.ndarray) -> list[list[int]]:
    """Vertex-major rows of partner tables: u's partner per colour, SEMI at a fixed point."""
    return np.where(tables == np.arange(tables.shape[1]), SEMI, tables).T.tolist()


class SymmetryTypeGraph(Record):
    """Coloured pregraph: ``tables[i, u]`` is u's colour-i partner, and
    ``tables[i, u] == u`` a semi-edge at u; equal tables, equal graphs."""

    # _facts, what the check found: (problems, labels without each colour,
    # sides), the last two None where the tables are not well formed
    __slots__ = ("tables", "_facts")

    def __init__(self, tables) -> None:
        if 0 in (tables := _int32(tables, 2)).shape:
            raise ValueError(f"no colour or no vertex in tables of shape {tables.shape}")
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "_facts", None)

    @property
    def rank(self) -> int:
        return self.tables.shape[0]

    @property
    def vertex_count(self) -> int:
        return self.tables.shape[1]

    @property
    def slots(self) -> list[list[int]]:
        """The report's form: ``slots[u][i]`` is a vertex or SEMI."""
        return slot_rows(self.tables)

    def semi_colours(self, u: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.tables[:, u] == u).tolist())

    def edges(self) -> list[tuple[int, int, int]]:
        """Inter-vertex edges as (u, v, colour) with u < v, by u and then colour."""
        u, i = np.nonzero(self.tables.T > np.arange(self.vertex_count)[:, None])
        return list(zip(u.tolist(), self.tables[i, u].tolist(), i.tolist()))


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


def _without(t: SymmetryTypeGraph, i: int) -> np.ndarray:
    """The least vertex of each vertex's component once colour i is deleted."""
    if not 0 <= i < t.rank:
        raise ValueError(f"colour {i} out of range for rank {t.rank}")
    return _well_formed(t)[0][i]


def bipartition(t: SymmetryTypeGraph) -> np.ndarray | None:
    """Sides 0/1 with every component's least vertex on side 0, or None
    when some edge (a semi-edge included) joins two vertices of one side."""
    return _well_formed(t)[1]


def check_all(graphs, stack: np.ndarray | None = None) -> None:
    """Check every graph not checked yet, all with tables of one shape,
    and keep what was found on each, equal facts once: one pass per
    CHUNK bytes of int32 tables, of which a graph of rank r takes r + 2
    copies.  ``stack``, where the caller holds it, is the list's tables
    as one array (graphs, colours, k), read in place of a new stack."""
    todo, kept = [g for g, t in enumerate(graphs) if t._facts is None], {}
    rank, k = graphs[todo[0]].tables.shape if todo else (0, 0)
    step = max(1, CHUNK // (4 * (rank + 2) * max(1, rank * k)))
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
    facts tuple of read-only arrays, kept in ``kept`` under the bytes of
    the labels.  ``m``, where given, holds the tables as one array."""
    rank, k = graphs[0].tables.shape
    m = np.stack([t.tables for t in graphs]) if m is None else m
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
    copies = m[good, :, None] + into[:, None]
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
    rows.setflags(write=False)  # each kept facts tuple holds views of its pass's rows
    for g, row in zip(good.tolist(), rows):
        if (shared := kept.get(key := row.tobytes())) is None:
            shared = kept[key] = ((), row[:-k].reshape(rank, k), row[-k:] if row[-1] >= 0 else None)
        facts[g] = (tuple(out[g]),) + shared[1:] if out[g] else shared
    return [f or (tuple(problems), None, None) for f, problems in zip(facts, out)]


def quotient(a: AutGroup) -> SymmetryTypeGraph:
    """Symmetry type graph: one vertex per flag orbit, numbered like the
    orbits and read at its least flag; Aut commutes with every colour."""
    t = SymmetryTypeGraph(a.orbit_of[a.graph.adj[:, a.reps]])
    if problems := stg_violations(t):
        raise InternalCheckError(f"quotient broke pregraph invariants: {problems}")
    return t


def transitivity_profile(t: SymmetryTypeGraph) -> frozenset[int]:
    """Colours i for which the structure is NOT i-face-transitive."""
    return frozenset(np.flatnonzero(_well_formed(t)[0].any(axis=1)).tolist())


def face_orbit_splits(t: SymmetryTypeGraph, i: int) -> tuple[int, ...]:
    """Sorted component sizes of the pregraph with colour i deleted."""
    return tuple(sorted(filter(None, np.bincount(_without(t, i)).tolist())))


class Regular(Record):
    def label(self) -> str:
        return "regular"


class TwoOrbit(Record):
    __slots__ = ("semi_colours",)

    def label(self) -> str:
        if not self.semi_colours:
            return "2_∅"
        return "2_{" + ",".join(str(c) for c in sorted(self.semi_colours)) + "}"


class ThreeOrbitJ(Record):
    __slots__ = ("j",)

    def label(self) -> str:
        return f"3^{{{self.j}}}"


class ThreeOrbitJJ1(Record):
    __slots__ = ("j",)

    def label(self) -> str:
        return f"3^{{{self.j},{self.j + 1}}}"


class FourOrbitFamily(Record):
    """Four-vertex types, described by how each colour splits the graph.

    ``splits`` records, for every colour i in the non-transitivity
    profile, the component sizes after deleting colour i (one of (1,1,2),
    (1,3), (2,2)).  ``semi_colours`` lists colours owning a semi-edge
    somewhere.  Families are unnamed in the 2- and 3-orbit tradition, so
    this triple is the stable machine-readable label.
    """

    __slots__ = ("profile", "splits", "semi_colours")

    def label(self) -> str:
        if not self.profile:
            return "4(fully-transitive)"
        parts = ", ".join(f"T^{i}={'+'.join(map(str, sizes))}" for i, sizes in self.splits)
        return f"4({parts})"


class OtherClass(Record):
    __slots__ = ("vertex_count",)

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
        raise InternalCheckError(f"three-vertex type {t.tables.tolist()} has profile {profile}")
    if k == 4:
        profile = transitivity_profile(t)
        splits = tuple((i, face_orbit_splits(t, i)) for i in sorted(profile))
        semis = np.flatnonzero((t.tables == np.arange(k)).any(axis=1)).tolist()
        return FourOrbitFamily(profile=profile, splits=splits, semi_colours=frozenset(semis))
    return OtherClass(k)


def class_labels(graphs) -> list[str]:
    """``classify(t).label()`` for each graph, all with tables of one
    shape, found once per equal graph; from three vertices on a label reads
    only the check's facts, so once per facts tuple, which equal facts share."""
    check_all(graphs)
    found: dict = {}
    return [found.get(key := id(t._facts) if t.vertex_count >= 3 else t)
            or found.setdefault(key, classify(t).label()) for t in graphs]
