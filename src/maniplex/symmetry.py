"""Colour-preserving automorphisms of flag graphs.

Because the colour-preserving automorphism group acts freely on flags, an
automorphism is pinned down by the image of a single flag: propagate
``image(f^{r_i}) = image(f)^{r_i}`` along a breadth-first tree and check
the result.  A group is therefore stored as a few generating image tables
(int32 arrays) plus the orbit of flag 0, one target per element; any
element is recomputed from its target on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flag_graph import FlagGraph, InternalCheckError, component, components


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a . b)(f) = a[b[f]]: apply b first, then a."""
    return a[b]


def invert(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[a] = np.arange(a.size, dtype=a.dtype)
    return out


def identity(flag_count: int) -> np.ndarray:
    return np.arange(flag_count, dtype=np.int32)


def _extend(g1: FlagGraph, g2: FlagGraph, source: int, target: int):
    """The unique colour-preserving map g1 -> g2 sending source to target.

    Returns the image table, or None when no such bijection exists.
    """
    if g1.rank != g2.rank or g1.flag_count != g2.flag_count:
        return None
    count = g1.flag_count
    img = np.full(count, -1, dtype=np.int32)
    img[source] = target
    for flags, parents, colours in g1.bfs_levels(source):
        img[flags] = g2.adj[colours, img[parents]]
    if img.min() < 0:
        return None
    for i in range(g1.rank):
        if not np.array_equal(img[g1.adj[i]], g2.adj[i][img]):
            return None
    if np.bincount(img, minlength=count).max() > 1:
        return None
    img.setflags(write=False)
    return img


def extend_automorphism(g: FlagGraph, source: int, target: int):
    """Automorphism of ``g`` with source -> target, or None."""
    return _extend(g, g, source, target)


def _cycle_lengths(p: np.ndarray) -> np.ndarray:
    """Length of the cycle of the permutation ``p`` through each point.

    Pointer doubling: after k rounds ``least[f]`` is the least point among
    the 2^k first ones of f's cycle, and ``least`` stops changing exactly
    when every window covers its whole cycle.
    """
    least = np.arange(p.size)
    step = p
    while True:
        nxt = np.minimum(least, least[step])
        if np.array_equal(nxt, least):
            return np.bincount(least, minlength=p.size)[least]
        least, step = nxt, step[step]


def invariant_colours(tables) -> np.ndarray:
    """A colour per point that every colour-preserving isomorphism keeps.

    ``tables`` are permutations of the points.  The colours start from
    the cycle lengths of each table and of each product of two tables,
    then are refined on the tables (a point's colour together with its
    neighbours' colours) until the class count stops growing.  Colours are ranks of sorted rows, so the points of
    two graphs coloured in one call, on their disjoint union, get
    comparable colours.
    """
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


@dataclass
class AutGroup:
    """A group of colour-preserving automorphisms and its flag orbits.

    ``generators`` are image tables generating the group; ``targets`` is
    the sorted orbit of flag 0, which has one flag per element since the
    action is free; ``element(t)`` recomputes the element sending flag 0
    to ``t``.  Orbit ids are assigned 0..orbit_count-1 in order of least
    flag index.
    """

    graph: FlagGraph
    generators: list[np.ndarray]
    targets: np.ndarray
    orbit_of: np.ndarray
    orbit_count: int

    @property
    def order(self) -> int:
        return self.targets.size

    def element(self, target: int) -> np.ndarray:
        """The automorphism sending flag 0 to ``target``."""
        pos = np.searchsorted(self.targets, target)
        if pos == self.targets.size or self.targets[pos] != target:
            raise ValueError(f"flag {target} is not in the orbit of flag 0")
        return _extend(self.graph, self.graph, 0, int(target))

    def orbit_representatives(self) -> list[int]:
        reps = [-1] * self.orbit_count
        for f in range(self.orbit_of.size - 1, -1, -1):
            reps[self.orbit_of[f]] = f
        return reps


def search_group(g: FlagGraph, candidates) -> AutGroup:
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
        img = _extend(g, g, 0, target)
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
    for arr in (targets, orbit_of):
        arr.setflags(write=False)
    return AutGroup(graph=g, generators=generators, targets=targets,
                    orbit_of=orbit_of, orbit_count=len(orbits))


def aut_group(g: FlagGraph) -> AutGroup:
    """Compute Aut(g); the candidates are the flags coloured like flag 0."""
    colour = invariant_colours(g.adj)
    return search_group(g, np.flatnonzero(colour == colour[0]))


def are_isomorphic(g1: FlagGraph, g2: FlagGraph):
    """A colour-preserving bijection g1 -> g2, or None.

    Flag 0 of g1 is tried only against the flags of g2 with its invariant
    colour, computed once on the disjoint union of the two graphs.
    """
    if g1.rank != g2.rank or g1.flag_count != g2.flag_count:
        return None
    count = g1.flag_count
    colour = invariant_colours(np.concatenate([g1.adj, g2.adj + count], axis=1))
    for target in np.flatnonzero(colour[count:] == colour[0]).tolist():
        m = _extend(g1, g2, 0, target)
        if m is not None:
            return m
    return None
