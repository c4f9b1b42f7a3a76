"""Automorphism generators from a spanning tree of the symmetry type graph.

A closed walk based at the vertex of the base flag's orbit spells a
colour word; applying the word to the base flag lands in the same orbit,
so each closed walk realizes an automorphism.  Given a spanning tree, the
closed walks through one edge left out of the tree, and those through
one semi-edge, generate the whole group.  The tree is the depth-first
tree from vertex 0 that tries colours in increasing order; the words
cost time linear in their total length, whatever the orbit count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flag_graph import FlagGraph, InternalCheckError, component_labels
from .stg import SymmetryTypeGraph
from .symmetry import AutGroup, extend_automorphism


def spanning_tree(t: SymmetryTypeGraph) -> dict[int, tuple[int, ...]]:
    """Colour word of the tree path from vertex 0 to each vertex.

    The tree is grown depth first from vertex 0, trying colours in
    increasing order and descending as soon as a new vertex is reached.
    The dict lists the vertices in the order the search reaches them.
    """
    paths = {0: ()}
    stack = [(0, 0)]
    while stack:
        u, colour = stack.pop()
        if colour < t.rank:
            stack.append((u, colour + 1))
            v = t.tables[colour][u]
            if v not in paths:
                paths[v] = paths[u] + (colour,)
                stack.append((v, 0))
    if len(paths) != t.vertex_count:
        raise ValueError("pregraph is not connected")
    return paths


def generating_walks(t: SymmetryTypeGraph) -> list[tuple[int, ...]]:
    """Colour words of closed walks at vertex 0, one per (semi-)edge
    missing from the spanning tree.

    For an edge of colour c between u and v, u reached first: out along
    the tree to u, across, back along the tree from v.  For a semi-edge
    of colour c at u: out to u, trace it, back the same way.  Edge walks
    come first, ordered by (order of u, order of v, c); semi-edge walks
    follow, ordered by (order of u, c).
    """
    paths = spanning_tree(t)
    verts = list(paths)
    pos = {v: i for i, v in enumerate(verts)}
    words = []
    edges = sorted((min(pos[u], pos[v]), max(pos[u], pos[v]), colour)
                   for u, v, colour in t.edges())
    for i, j, colour in edges:
        u, v = verts[i], verts[j]
        # v was reached after u, so the edge is in the tree exactly when
        # it is the last step of the tree path to v
        if paths[v][-1] != colour:
            words.append(paths[u] + (colour,) + paths[v][::-1])
    for u in verts:
        for colour in sorted(t.semi_colours(u)):
            words.append(paths[u] + (colour,) + paths[u][::-1])
    return words


@dataclass
class GeneratorSet:
    base_flag: int
    words: list[tuple[int, ...]]
    automorphisms: list[np.ndarray]


def realize_generators(g: FlagGraph, a: AutGroup, t: SymmetryTypeGraph) -> GeneratorSet:
    """Automorphisms realizing the closed walks from the base flag.

    The base flag is flag 0, whose orbit is vertex 0 of the quotient, so
    the spanning tree is already rooted correctly.  Words are followed
    once, on quotient and flags together; each target is extended once.
    """
    if a.orbit_of[0] != 0:
        raise InternalCheckError("orbit ids must start at the base flag")
    words = generating_walks(t)
    adj = g.adj.tolist()
    by_target: dict[int, np.ndarray] = {}
    autos = []
    for word in words:
        end = target = 0
        for colour in word:
            end = t.tables[colour][end]
            target = adj[colour][target]
        if end != 0:
            raise InternalCheckError(f"generating walk is not closed: {word}")
        if target not in by_target:
            if a.orbit_of[target] != a.orbit_of[0]:
                raise InternalCheckError("closed walk left the base orbit")
            by_target[target] = extend_automorphism(g, 0, target)
            if by_target[target] is None:
                raise InternalCheckError("no automorphism realizes a closed walk word")
        autos.append(by_target[target])
    return GeneratorSet(base_flag=0, words=words, automorphisms=autos)


def reduce_generators(s: GeneratorSet) -> GeneratorSet:
    """Drop identity and duplicate automorphisms, keeping first occurrences.

    Aut acts freely, so an automorphism is named by its image of flag 0,
    which is 0 for the identity alone."""
    first: dict[int, int] = {}
    for idx, auto in enumerate(s.automorphisms):
        if auto[0]:
            first.setdefault(int(auto[0]), idx)
    keep = list(first.values())
    return GeneratorSet(
        base_flag=s.base_flag,
        words=[s.words[i] for i in keep],
        automorphisms=[s.automorphisms[i] for i in keep],
    )


def generates_full_group(s: GeneratorSet, a: AutGroup) -> bool:
    """True when the orbit of flag 0 under the generators is ``a.targets``.

    The generators are automorphisms and Aut acts freely, so the subgroup
    they generate has as many elements as that orbit has flags; equal
    orbits therefore mean equal groups.
    """
    label = component_labels(s.automorphisms, a.orbit_of.size)
    return np.array_equal(np.flatnonzero(label == 0), a.targets)
