"""Colour-preserving automorphisms of flag graphs.

Because the colour-preserving automorphism group acts freely on flags, an
automorphism is pinned down by the image of flag 0: propagate
``image(f^{r_i}) = image(f)^{r_i}`` along the tree from flag 0 and check
that each table commutes.  A group is stored as a few generating image
tables, the orbit of flag 0 (one target per element) and the least flag
of each orbit.  ``aut_group`` is the one group search: it tries flag 0
only against the flags of its colour under colour refinement from the
cycle lengths of the products r_i r_{i+1}, rows hashed to one int64
each, flag 0's own neighbours first, so that the generator report can
reuse its tables.
"""

from __future__ import annotations

import numpy as np

from .flag_graph import FlagGraph, InternalCheckError, Record, _hook


def invert(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[a] = np.arange(a.size, dtype=a.dtype)
    return out


def _both_ways(autos) -> list[np.ndarray]:
    """``autos`` and the inverse of each that is no involution (p[p[0]] != 0, Aut being free)."""
    return [q for p in autos for q in ((p,) if p[p[0]] == 0 else (p, invert(p)))]


def _extend(g: FlagGraph, target: int):
    """The automorphism of ``g`` sending flag 0 to ``target``, as an image
    table, or None.  The image is replayed along ``g.bfs_levels()``, and
    each table m must commute with it, which makes it a bijection: a flag
    f off the tree keeps -1, as does m[f], where m[img[f]] = m[-1] is a
    flag, so the check fails unless the tree reaches every flag; and the
    image, closed under each table, is a union of components: every flag.
    """
    img = np.full(g.flag_count, -1, dtype=np.int32)
    img[0] = target
    for flags, parents, colours in g.bfs_levels():
        img.put(flags, g.adj[colours, img.take(parents)])
    for table in g.adj:
        if not np.array_equal(img.take(table), table.take(img)):
            return None
    img.setflags(write=False)
    return img


def _cycle_lengths(p: np.ndarray) -> np.ndarray:
    """Length of the cycle of the permutation ``p`` through each point.

    Pointer doubling: after k rounds ``least[f]`` is the least point among
    the 2^k first ones of f's cycle, and ``least`` stops changing exactly
    when every window covers its whole cycle.  Unlike the doubling in
    ``formats.cycle_string`` it counts no steps, half the array work.
    """
    least = np.arange(p.size)
    step = p
    while True:
        nxt = np.minimum(least, least.take(step))
        if np.array_equal(nxt, least):
            return np.bincount(least, minlength=p.size).take(least)
        least, step = nxt, step.take(step)


# splitmix64's constants as int64, whose array arithmetic wraps
_GOLDEN, _M1, _M2 = -0x61C8864680B583EB, -0x40A7B892E31B1A47, -0x6B2FB644ECCEEE15


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser, a bijection of 64-bit words; the masks
    make the right shifts of int64 logical."""
    h = (h ^ ((h >> 30) & 0x3FFFFFFFF)) * _M1
    h = (h ^ ((h >> 27) & 0x1FFFFFFFFF)) * _M2
    return h ^ ((h >> 31) & 0x1FFFFFFFF)


def invariant_colours(tables) -> np.ndarray:
    """A colour per point that every colour-preserving isomorphism keeps:
    the cycle lengths through it of each product r_i r_{i+1} of adjacent
    ``tables`` (permutations), refined on the tables (McKay) until the
    class count stops growing.  On a maniplex, each table and each product
    at distance >= 2 is a fixed-point-free involution: its column would be
    constant.  Rows are hashed to one int64 as in Weisfeiler-Lehman
    hashing: weighted per column, summed a column at a time (no (rank, F)
    array) and mixed.  A collision only merges classes, adding candidates
    that fail to extend.  Two graphs coloured in one call, on their
    disjoint union, get comparable colours (the tests' ``are_isomorphic``)."""
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
        h = colour * weights[0]
        for w, table in zip(weights[1:rank + 1], tables):
            h += w * colour.take(table)


class AutGroup(Record):
    """A group of colour-preserving automorphisms and its flag orbits.

    ``generators`` are image tables generating the group (Aut+, read off
    Aut, lists none); ``targets`` is the sorted orbit of flag 0, which has
    one flag per element since the action is free; ``element(t)``
    recomputes the element sending flag 0 to ``t``.  ``reps[o]`` is the
    least flag of orbit o, orbit ids going by least flag, and the
    quotients are read at these flags.
    """

    __slots__ = ("graph", "generators", "targets", "orbit_of", "reps")

    @property
    def order(self) -> int:
        return self.targets.size

    @property
    def orbit_count(self) -> int:
        return self.reps.size

    def element(self, target: int) -> np.ndarray:
        """The automorphism sending flag 0 to ``target``."""
        pos = np.searchsorted(self.targets, target)
        if pos == self.targets.size or self.targets[pos] != target:
            raise ValueError(f"flag {target} is not in the orbit of flag 0")
        return _extend(self.graph, int(target))


def _group(g: FlagGraph, generators: list[np.ndarray], label: np.ndarray) -> AutGroup:
    """The group of ``generators``, ``label`` their components: flag 0's is
    the targets.  F = |G| * orbit_count (the action is free) is checked."""
    targets = np.flatnonzero(label == 0).astype(np.int32)
    least = label == np.arange(g.flag_count)
    reps = np.flatnonzero(least).astype(np.int32)
    if g.flag_count != targets.size * reps.size:
        raise InternalCheckError(
            f"{g.flag_count} flags != group order {targets.size} x {reps.size} orbits")
    orbit_of = (np.cumsum(least) - 1).astype(np.int32)[label]
    for arr in (targets, orbit_of, reps):
        arr.setflags(write=False)
    return AutGroup(graph=g, generators=generators, targets=targets, orbit_of=orbit_of, reps=reps)


def aut_group(g: FlagGraph) -> AutGroup:
    """Compute Aut(g) by trial extension of flag 0 to the flags coloured
    like it, its neighbours first (on a regular maniplex they give the
    rho_c) and then by index, skipping the orbit of flag 0 grown so far
    and the orbit, under the subgroup found so far, of each failed target.
    Each success at least doubles the subgroup, so there are at most
    log2(F) generators; the orbits are their components, the labels so
    far joined along each new generator."""
    colour = invariant_colours(g.adj)
    generators: list[np.ndarray] = []
    label = np.arange(g.flag_count)
    skip = (label == 0) | (colour != colour[0])
    candidates = np.concatenate([g.adj[:, 0], label])
    while (candidates := candidates[~skip[candidates]]).size:
        target = int(candidates[0])
        img = _extend(g, target)
        if img is None:
            skip |= label == label[target]
            continue
        generators.append(img)
        label = _hook(_both_ways([img]), label)
        skip |= label == 0
    return _group(g, generators, label)
