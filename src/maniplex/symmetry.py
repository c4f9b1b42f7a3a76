"""Colour-preserving automorphisms of flag graphs.

Because the colour-preserving automorphism group acts freely on flags, an
automorphism is pinned down by the image of a single flag: propagate
``image(f^{r_i}) = image(f)^{r_i}`` along a breadth-first tree and check
the result.  Automorphisms are stored as full image tables (int32
arrays); composition is a gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flag_graph import FlagGraph, InternalCheckError


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


@dataclass
class AutGroup:
    """All colour-preserving automorphisms plus the flag orbit partition.

    Orbit ids are assigned 0..orbit_count-1 in order of least flag index.
    """

    elements: list[np.ndarray]
    orbit_of: np.ndarray
    orbit_count: int

    @property
    def order(self) -> int:
        return len(self.elements)

    def orbit_representatives(self) -> list[int]:
        reps = [-1] * self.orbit_count
        for f in range(self.orbit_of.size - 1, -1, -1):
            reps[self.orbit_of[f]] = f
        return reps


def group_with_orbits(elements: list[np.ndarray]) -> AutGroup:
    """Wrap the image tables of a group acting freely on the flags.

    The elementwise minimum over the images of a flag is the least flag
    of its orbit, so numbering those minima in increasing order numbers
    the orbits in order of least flag.
    """
    least = elements[0].copy()
    for el in elements[1:]:
        np.minimum(least, el, out=least)
    firsts, orbit_of = np.unique(least, return_inverse=True)
    if least.size != len(elements) * firsts.size:
        raise InternalCheckError(
            f"{least.size} flags != group order {len(elements)} x {firsts.size} orbits")
    orbit_of = orbit_of.astype(np.int32)
    orbit_of.setflags(write=False)
    return AutGroup(elements=elements, orbit_of=orbit_of, orbit_count=firsts.size)


def aut_group(g: FlagGraph) -> AutGroup:
    """Compute Aut(g) by trial extension of flag 0 to every flag."""
    elements = []
    for target in range(g.flag_count):
        el = _extend(g, g, 0, target)
        if el is not None:
            elements.append(el)
    return group_with_orbits(elements)


def are_isomorphic(g1: FlagGraph, g2: FlagGraph):
    """A colour-preserving bijection g1 -> g2, or None."""
    if g1.rank != g2.rank or g1.flag_count != g2.flag_count:
        return None
    for target in range(g2.flag_count):
        m = _extend(g1, g2, 0, target)
        if m is not None:
            return m
    return None
