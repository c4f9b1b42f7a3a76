"""Automorphism generators from spanning walks of the symmetry type graph.

A closed walk based at the vertex of the base flag's orbit spells a
colour word; applying the word to the base flag lands in the same orbit,
so each closed walk realizes an automorphism.  A minimal walk through all
vertices, together with one detour per unused edge and per semi-edge,
generates the whole group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flag_graph import FlagGraph, InternalCheckError, component
from .stg import SEMI, SymmetryTypeGraph
from .symmetry import AutGroup, extend_automorphism, identity


@dataclass(frozen=True)
class Walk:
    """Steps are (colour, vertex reached); a semi-edge step stays put."""

    start: int
    steps: tuple[tuple[int, int], ...]

    @property
    def end(self) -> int:
        return self.steps[-1][1] if self.steps else self.start

    @property
    def word(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.steps)

    def vertices(self) -> tuple[int, ...]:
        out = [self.start]
        for _, v in self.steps:
            out.append(v)
        return tuple(out)

    def is_closed(self) -> bool:
        return self.end == self.start


def check_walk(t: SymmetryTypeGraph, walk: Walk) -> None:
    """Raise unless every step follows a slot and no (semi-)edge repeats."""
    here = walk.start
    prev = None
    for colour, to in walk.steps:
        if t.neighbour(here, colour) != to:
            raise ValueError(f"step ({colour}, {to}) from {here} does not follow a slot")
        edge = (min(here, to), max(here, to), colour)
        if edge == prev:
            raise ValueError(f"walk retraces edge {edge}")
        prev = edge
        here = to


def min_spanning_walk(t: SymmetryTypeGraph) -> Walk:
    """Shortest walk from vertex 0 visiting every vertex.

    Breadth-first over (vertex, visited-set) states; length ties break to
    the lexicographically smallest colour sequence.
    """
    full = frozenset(range(t.vertex_count))
    start_state = (0, frozenset([0]))
    best: dict[tuple[int, frozenset], tuple[int, ...]] = {start_state: ()}
    frontier = [start_state]
    while True:
        if not frontier:
            raise ValueError("pregraph is not connected")
        done = [(word, state) for state, word in best.items() if state[1] == full and state in frontier]
        if done:
            word = min(w for w, _ in done)
            return _walk_from_word(t, 0, word)
        nxt: dict[tuple[int, frozenset], tuple[int, ...]] = {}
        for state in sorted(frontier, key=best.__getitem__):
            u, visited = state
            word = best[state]
            for colour in range(t.rank):
                v = t.slots[u][colour]
                if v == SEMI:
                    continue
                new_state = (v, visited | {v})
                new_word = word + (colour,)
                if new_state in best:
                    continue
                if new_state not in nxt or new_word < nxt[new_state]:
                    nxt[new_state] = new_word
        best.update(nxt)
        frontier = list(nxt)


def _walk_from_word(t: SymmetryTypeGraph, start: int, word) -> Walk:
    steps = []
    here = start
    for colour in word:
        here = t.neighbour(here, colour)
        steps.append((colour, here))
    return Walk(start=start, steps=tuple(steps))


def generating_walks(t: SymmetryTypeGraph, c: Walk) -> list[Walk]:
    """One closed detour walk per (semi-)edge missing from the walk ``c``.

    For an unused edge between walk positions i < j: out along c to
    position i, across, back along c from position j.  For a semi-edge at
    position i: out, trace it, back the same way.  Edge detours come
    first, each group ordered by (i, j, colour).
    """
    verts = c.vertices()
    if set(verts) != set(range(t.vertex_count)):
        raise ValueError("walk does not span the pregraph")
    pos = {}
    for idx, u in enumerate(verts):
        pos.setdefault(u, idx)
    used = set()
    here = c.start
    for colour, to in c.steps:
        used.add((min(here, to), max(here, to), colour))
        here = to

    def prefix(upto: int) -> tuple[tuple[int, int], ...]:
        return c.steps[:upto]

    def back(upto: int) -> tuple[tuple[int, int], ...]:
        out = []
        vseq = verts[: upto + 1]
        for idx in range(upto, 0, -1):
            colour = c.steps[idx - 1][0]
            out.append((colour, vseq[idx - 1]))
        return tuple(out)

    edge_detours = []
    for u, v, colour in t.edges():
        if (u, v, colour) in used:
            continue
        i, j = sorted((pos[u], pos[v]))
        edge_detours.append((i, j, colour))
    edge_detours.sort()

    walks = []
    for i, j, colour in edge_detours:
        mid = ((colour, verts[j]),)
        walks.append(Walk(start=c.start, steps=prefix(i) + mid + back(j)))
    semi_detours = []
    for u in range(t.vertex_count):
        for colour in sorted(t.semi_colours(u)):
            semi_detours.append((pos[u], colour))
    semi_detours.sort()
    for i, colour in semi_detours:
        mid = ((colour, verts[i]),)
        walks.append(Walk(start=c.start, steps=prefix(i) + mid + back(i)))
    for w in walks:
        check_walk(t, w)
    return walks


@dataclass
class GeneratorSet:
    base_flag: int
    spanning_walk: Walk
    walks: list[Walk]
    words: list[tuple[int, ...]]
    automorphisms: list[np.ndarray]


def realize_generators(g: FlagGraph, a: AutGroup, t: SymmetryTypeGraph) -> GeneratorSet:
    """Automorphisms realizing the closed detour walks from the base flag.

    The base flag is flag 0, whose orbit is vertex 0 of the quotient, so
    the minimal spanning walk is already rooted correctly.
    """
    if a.orbit_of[0] != 0:
        raise InternalCheckError("orbit ids must start at the base flag")
    spanning = min_spanning_walk(t)
    walks = generating_walks(t, spanning)
    words = [w.word for w in walks]
    autos = []
    for walk, word in zip(walks, words):
        if not walk.is_closed():
            raise InternalCheckError(f"generating walk is not closed: {walk}")
        target = g.act(0, word)
        if a.orbit_of[target] != a.orbit_of[0]:
            raise InternalCheckError("closed walk left the base orbit")
        auto = extend_automorphism(g, 0, target)
        if auto is None:
            raise InternalCheckError("no automorphism realizes a closed walk word")
        autos.append(auto)
    return GeneratorSet(base_flag=0, spanning_walk=spanning, walks=walks,
                        words=words, automorphisms=autos)


def reduce_generators(s: GeneratorSet) -> GeneratorSet:
    """Drop identity and duplicate automorphisms, keeping first occurrences."""
    ident = identity(s.automorphisms[0].size).tobytes() if s.automorphisms else b""
    seen = set()
    keep = []
    for idx, auto in enumerate(s.automorphisms):
        key = auto.tobytes()
        if key == ident or key in seen:
            continue
        seen.add(key)
        keep.append(idx)
    return GeneratorSet(
        base_flag=s.base_flag,
        spanning_walk=s.spanning_walk,
        walks=[s.walks[i] for i in keep],
        words=[s.words[i] for i in keep],
        automorphisms=[s.automorphisms[i] for i in keep],
    )


def generates_full_group(s: GeneratorSet, a: AutGroup) -> bool:
    """True when the orbit of flag 0 under the generators is ``a.targets``.

    The generators are automorphisms and Aut acts freely, so the subgroup
    they generate has as many elements as that orbit has flags; equal
    orbits therefore mean equal groups.
    """
    tables = [p.tolist() for p in s.automorphisms]
    return component(tables, 0, a.orbit_of.size) == a.targets.tolist()
