"""Automorphism generators from a spanning tree of the symmetry type graph.

A closed walk based at vertex 0, the orbit of flag 0, spells a colour
word; applying the word to flag 0 lands in the same orbit, so each
closed walk realizes an automorphism.  Given a spanning tree, the closed
walks through one edge left out of the tree, and those through one
semi-edge, generate the whole group.  The tree is the depth-first
tree from vertex 0 that tries colours in increasing order.  The words'
ends are read off one lift of the tree to the flags; the group search's
own generators realize the ends they reach, on one vertex the rho_c.
"""

from __future__ import annotations

import numpy as np

from .flag_graph import InternalCheckError, Record, component_labels
from .stg import SymmetryTypeGraph
from .symmetry import AutGroup, _both_ways


def spanning_tree(t: SymmetryTypeGraph) -> dict[int, tuple[int, ...]]:
    """Colour word of the tree path from vertex 0 to each vertex.

    The tree is grown depth first from vertex 0, trying colours in
    increasing order and descending as soon as a new vertex is reached.
    The dict lists the vertices in the order the search reaches them.
    """
    paths, tables = {0: ()}, t.tables.tolist()
    stack = [(0, 0)]
    while stack:
        u, colour = stack.pop()
        if colour < t.rank:
            stack.append((u, colour + 1))
            v = tables[colour][u]
            if v not in paths:
                paths[v] = paths[u] + (colour,)
                stack.append((v, 0))
    if len(paths) != t.vertex_count:
        raise ValueError("pregraph is not connected")
    return paths


def _crossings(t: SymmetryTypeGraph):
    """The tree paths, and (u, c, v) per (semi-)edge missing from the
    tree, colour c from u, reached first, to v: the edges ordered by
    (order of u, order of v, c), then the semi-edges by (order of u, c)."""
    paths = spanning_tree(t)
    verts = list(paths)
    pos = {v: i for i, v in enumerate(verts)}
    edges = sorted((min(pos[u], pos[v]), max(pos[u], pos[v]), colour)
                   for u, v, colour in t.edges())
    # v was reached after u, so the edge is in the tree exactly when it
    # is the last step of the tree path to v
    crossings = [(verts[i], colour, verts[j]) for i, j, colour in edges
                 if paths[verts[j]][-1] != colour]
    return paths, crossings + [(u, colour, u) for u in verts for colour in sorted(t.semi_colours(u))]


class GeneratorSet(Record):
    __slots__ = ("words", "automorphisms")


def realize_generators(a: AutGroup, t: SymmetryTypeGraph) -> GeneratorSet:
    """Automorphisms of ``a.graph`` realizing the closed walks from flag 0.

    Flag 0's orbit is vertex 0 of the quotient, so the spanning tree is
    already rooted correctly.  ``lift[v]`` is the flag that flag 0
    reaches along path(v) and ``back[x]``, x in orbit v, the one x
    reaches along path(v) reversed, by pointer doubling of the tree
    step; a walk through (u, c, v) ends at ``back[adj[c, lift[u]]]``.
    Each end that none of ``a``'s generators reaches is extended once.
    """
    if a.orbit_of[0] != 0:
        raise InternalCheckError("orbit ids must start at flag 0")
    g = a.graph
    paths, crossings = _crossings(t)
    lift, tree_colour = np.zeros(t.vertex_count, np.intp), np.zeros(t.vertex_count, np.intp)
    for v, path in paths.items():  # tree order: a vertex after its parent
        if path:
            tree_colour[v], lift[v] = path[-1], g.adj[path[-1], lift[t.tables[path[-1], v]]]
    if not np.array_equal(a.orbit_of.take(lift), np.arange(t.vertex_count)):
        raise InternalCheckError("a spanning tree step left its vertex's orbit")
    flags = np.arange(g.flag_count)
    back = np.where(a.orbit_of == 0, flags, g.adj[tree_colour.take(a.orbit_of), flags])
    for _ in range((t.vertex_count - 1).bit_length()):  # 2^rounds > the tree's depth
        back = back.take(back)
    starts, colours, stops = np.array(crossings, np.intp).reshape(-1, 3).T
    across = g.adj[colours, lift.take(starts)]
    ends = back.take(across)
    if a.orbit_of.take(ends).any() or not np.array_equal(a.orbit_of.take(across), stops):
        raise InternalCheckError("closed walk left the base orbit")
    by_target = {int(p[0]): p for p in a.generators}
    for target in set(ends.tolist()) - by_target.keys():
        by_target[target] = a.element(target)
        if by_target[target] is None:
            raise InternalCheckError("no automorphism realizes a closed walk word")
    autos = [by_target[target] for target in ends.tolist()]
    words = [paths[u] + (c,) + paths[v][::-1] for u, c, v in crossings]
    return GeneratorSet(words=words, automorphisms=autos)


def reduce_generators(s: GeneratorSet) -> GeneratorSet:
    """Drop identity and duplicate automorphisms, keeping first occurrences.

    Aut acts freely, so an automorphism is named by its image of flag 0,
    which is 0 for the identity alone."""
    first: dict[int, int] = {}
    for idx, auto in enumerate(s.automorphisms):
        if auto[0]:
            first.setdefault(int(auto[0]), idx)
    keep = list(first.values())
    return GeneratorSet(words=[s.words[i] for i in keep],
                        automorphisms=[s.automorphisms[i] for i in keep])


def generates_full_group(s: GeneratorSet, a: AutGroup) -> bool:
    """True when the orbit of flag 0 under the generators is ``a.targets``.

    The generators are automorphisms and Aut acts freely, so the subgroup
    they generate has as many elements as that orbit has flags; equal
    orbits therefore mean equal groups.
    """
    label = component_labels(_both_ways(s.automorphisms), a.orbit_of.size)
    return np.array_equal(np.flatnonzero(label == 0), a.targets)
