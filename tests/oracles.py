"""Slow reference computations and random inputs for the tests.

The oracles materialise whole groups or search exponentially many
states, so they are for small inputs only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from maniplex.enumeration import canonical_code, involutions
from maniplex.flag_graph import FlagGraph, commute_defect, component, validate
from maniplex.oriented import OrientedSTG, Orientation, oriented_digraph, orientation
from maniplex.stg import SEMI, SymmetryTypeGraph
from maniplex.symmetry import AutGroup, extend_automorphism, identity


def tables_from_slots(slots, rank: int) -> tuple[tuple[int, ...], ...]:
    """Partner tables of vertex-major rows of vertex-or-SEMI cells."""
    return tuple(tuple(u if row[i] == SEMI else row[i] for u, row in enumerate(slots))
                 for i in range(rank))


def stg_from_slots(slots) -> SymmetryTypeGraph:
    """The symmetry type graph with these rows as its ``slots``."""
    return SymmetryTypeGraph(tables_from_slots(slots, len(slots[0])))


# The per-orbit loops that flag_graph.quotient_tables replaced in
# stg.quotient and oriented.oriented_stg.


def orbit_loop_quotient(g: FlagGraph, a: AutGroup) -> SymmetryTypeGraph:
    """One row per orbit, read at the orbit's least flag."""
    reps = [-1] * a.orbit_count
    for f in range(a.orbit_of.size - 1, -1, -1):
        reps[a.orbit_of[f]] = f
    rows = []
    for u, rep in enumerate(reps):
        row = []
        for i in range(g.rank):
            o = int(a.orbit_of[g.adj[i, rep]])
            row.append(SEMI if o == u else o)
        rows.append(tuple(row))
    return stg_from_slots(rows)


def orbit_loop_oriented_stg(g: FlagGraph, o: Orientation, a_plus: AutGroup) -> OrientedSTG:
    """One row and dart per Aut+ orbit of black flags, read at the
    orbit's first black flag."""
    d = oriented_digraph(g, o)
    orbit_ids = sorted({int(a_plus.orbit_of[f]) for f in d.black_flags})
    renumber = {o_id: t for t, o_id in enumerate(orbit_ids)}
    reps = {}
    for t_black, f in enumerate(d.black_flags):
        u = renumber[int(a_plus.orbit_of[f])]
        reps.setdefault(u, t_black)
    rows = []
    darts = []
    for u in range(len(orbit_ids)):
        rep = reps[u]
        row = []
        for i in range(d.rank - 2):
            v = renumber[int(a_plus.orbit_of[d.black_flags[d.t_adj[i, rep]]])]
            row.append(SEMI if v == u else v)
        rows.append(tuple(row))
        darts.append(renumber[int(a_plus.orbit_of[d.black_flags[d.rot[rep]]])])
    return OrientedSTG(tables=tables_from_slots(rows, d.rank - 2), dart=tuple(darts))


def trial_extension_elements(g: FlagGraph) -> list[np.ndarray]:
    """Every automorphism, by trial extension of flag 0 to every flag."""
    out = []
    for target in range(g.flag_count):
        el = extend_automorphism(g, 0, target)
        if el is not None:
            out.append(el)
    return out


def orbit_partition(elements: list[np.ndarray]) -> np.ndarray:
    """Orbit ids numbered in order of least flag: the elementwise minimum
    over the images of a flag is the least flag of its orbit."""
    least = elements[0].copy()
    for el in elements[1:]:
        np.minimum(least, el, out=least)
    return np.unique(least, return_inverse=True)[1].reshape(-1)


def closure(generators, flag_count: int) -> list[np.ndarray]:
    """Subgroup generated by the given image tables (breadth-first products)."""
    ident = identity(flag_count)
    seen = {ident.tobytes(): ident}
    frontier = [ident]
    gens = [np.asarray(p, dtype=np.int32) for p in generators]
    while frontier:
        nxt = []
        for el in frontier:
            for p in gens:
                prod = el[p]
                key = prod.tobytes()
                if key not in seen:
                    seen[key] = prod
                    nxt.append(prod)
        frontier = nxt
    return list(seen.values())


def random_map(rng: random.Random, base_edges: int, sheets: int, orientable: bool) -> FlagGraph:
    """A random rank-3 map with a free Z_sheets symmetry.

    Flag (c, j, a, b) = c * 4 * base_edges + 4 * j + 2 * a + b sits on
    sheet c, edge j, end a, side b; r0 flips a and r2 flips b.  r1 pairs
    flags of different edges at random (black with white, by the parity
    of a + b, when ``orientable``) and lifts each pair across the sheets
    with a random sheet shift, so shifting sheets is an automorphism.
    """
    base = 4 * base_edges
    sheet, beta = np.divmod(np.arange(base * sheets), base)
    r0 = sheet * base + (beta ^ 2)
    r2 = sheet * base + (beta ^ 1)
    while True:
        if orientable:
            black = [f for f in range(base) if (f ^ (f >> 1)) & 1 == 0]
            white = [f for f in range(base) if (f ^ (f >> 1)) & 1 == 1]
            rng.shuffle(white)
            pairs = list(zip(black, white))
        else:
            order = list(range(base))
            rng.shuffle(order)
            pairs = list(zip(order[::2], order[1::2]))
        r1 = np.empty(base * sheets, dtype=np.int64)
        for p, q in pairs:
            shift = rng.randrange(sheets)
            for c in range(sheets):
                d = (c + shift) % sheets
                r1[c * base + p] = d * base + q
                r1[d * base + q] = c * base + p
        g = FlagGraph([r0, r1, r2])
        if not validate(g) and (orientation(g) is not None) == orientable:
            return g


def relabel(g: FlagGraph, rng: random.Random) -> FlagGraph:
    """The same flag graph under a random renumbering of its flags."""
    perm = np.array(rng.sample(range(g.flag_count), g.flag_count))
    adj = np.empty_like(g.adj)
    adj[:, perm] = perm[g.adj]
    return FlagGraph(adj)


# The generator words that walkgen.generating_walks replaced: a shortest
# walk from vertex 0 through every vertex of the quotient (least colour
# word among the shortest), with one closed detour per (semi-)edge it
# does not use.  The detours raise ValueError where the walk turns back.


def spanning_walk_words(t: SymmetryTypeGraph) -> list[tuple[int, ...]]:
    return [w.word for w in detour_walks(t, min_spanning_walk(t))]


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
        if t.tables[colour][here] != to:
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
            return walk_from_word(t, 0, word)
        nxt: dict[tuple[int, frozenset], tuple[int, ...]] = {}
        for state in sorted(frontier, key=best.__getitem__):
            u, visited = state
            word = best[state]
            for colour in range(t.rank):
                v = t.tables[colour][u]
                if v == u:
                    continue
                new_state = (v, visited | {v})
                new_word = word + (colour,)
                if new_state in best:
                    continue
                if new_state not in nxt or new_word < nxt[new_state]:
                    nxt[new_state] = new_word
        best.update(nxt)
        frontier = list(nxt)


def walk_from_word(t: SymmetryTypeGraph, start: int, word) -> Walk:
    steps = []
    here = start
    for colour in word:
        here = t.tables[colour][here]
        steps.append((colour, here))
    return Walk(start=start, steps=tuple(steps))


def detour_walks(t: SymmetryTypeGraph, c: Walk) -> list[Walk]:
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



# The canonical forms and the oriented census that enumeration's rooted
# code and double-cover search replaced.


def min_code(rows) -> bytes:
    """Minimum serialization of rows of vertex-or-SEMI cells over all
    vertex relabellings; 255 marks a semi-edge."""
    best = None
    for perm in permutations(range(len(rows))):
        row_bytes = bytearray()
        for new_u in range(len(rows)):
            for s in rows[perm.index(new_u)]:
                row_bytes.append(255 if s == SEMI else perm[s])
        code = bytes(row_bytes)
        if best is None or code < best:
            best = code
    return best


def oriented_min_code(ot: OrientedSTG) -> bytes:
    """``min_code`` of the rows with the dart appended, over both dart
    directions."""
    reversed_dart = [0] * ot.vertex_count
    for u, v in enumerate(ot.dart):
        reversed_dart[v] = u
    return min(min_code([row + (v,) for row, v in zip(ot.undirected, dart)])
               for dart in (ot.dart, reversed_dart))


DART_SHAPES = {
    "three_loops": [(0, 1, 2)],
    "two_cycle_loop": [(1, 0, 2), (2, 1, 0), (0, 2, 1)],
    "three_cycle": [(1, 2, 0), (2, 0, 1)],
}


def hand_oriented_stg3(n_colours: int) -> list[OrientedSTG]:
    """Three-vertex oriented quotients from hand-derived structural facts.

    The facts hold for quotients of six-vertex semi-edge-free types:

    * the directed class forms a 3-cycle, a 2-cycle plus a loop, or
      three loops;
    * every undirected class is one inter-vertex edge plus one semi-edge,
      or three semi-edges;
    * two edges sharing exactly one vertex carry colours differing by 1
      (two at distance >= 2 would force a forbidden 6-cycle upstairs);
    * with a dart 2-cycle and a loop, a class of colour <= n-4 is either
      all semi-edges or parallel to the dart 2-cycle (anything touching
      the loop vertex forces a forbidden 6-cycle against the directed
      class);
    * with a dart 3-cycle, a class of colour <= n-4 cannot be all
      semi-edges (that copies the top matching, recreating the directed
      6-cycle at distance >= 2).

    Deduplicated up to vertex relabelling, sorted by ``oriented_min_code``.
    """
    n = n_colours
    pairs = [(0, 1), (0, 2), (1, 2)]
    # an undirected class: None for three semi-edges, else the edge pair
    class_options: list[tuple[int, int] | None] = [None] + pairs

    found: dict[bytes, OrientedSTG] = {}
    for shape, darts in DART_SHAPES.items():
        for dart in darts:
            dart_pair = None
            if shape == "two_cycle_loop":
                swapped = [u for u in range(3) if dart[u] != u]
                dart_pair = (min(swapped), max(swapped))

            def place(colour: int, chosen: list) -> None:
                if colour == n - 2:
                    emit(chosen)
                    return
                for opt in class_options:
                    if opt is not None and shape == "two_cycle_loop" and colour <= n - 4:
                        if opt != dart_pair:
                            continue
                    if opt is None and shape == "three_cycle" and colour <= n - 4:
                        continue
                    ok = True
                    for prev_colour, prev in enumerate(chosen):
                        if prev is None or opt is None:
                            continue
                        shared = len(set(prev) & set(opt))
                        if shared == 1 and abs(prev_colour - colour) >= 2:
                            ok = False
                            break
                    if ok:
                        chosen.append(opt)
                        place(colour + 1, chosen)
                        chosen.pop()

            def emit(chosen: list) -> None:
                tables = []
                for p in chosen:
                    m = [0, 1, 2]
                    if p is not None:
                        m[p[0]], m[p[1]] = p[1], p[0]
                    tables.append(tuple(m))
                if len(component([dart] + tables, 0)) != 3:
                    return
                ot = OrientedSTG(tables=tuple(tables), dart=dart)
                found.setdefault(oriented_min_code(ot), ot)

            place(0, [])
    return [found[code] for code in sorted(found)]


# The exhaustive search that the orderly one replaced: every labelled
# tuple is generated, and the first one met of each canonical code kept.


def exhaustive_commuting_tuples(candidates):
    """Every tuple of one table per colour, drawn from that colour's list
    in ``candidates``, in which colours at distance >= 2 commute, in
    lexicographic order of the lists, colour 0 most significant."""
    tables = list(dict.fromkeys(m for cands in candidates for m in cands))
    commutes = [sum(1 << b for b, mb in enumerate(tables) if commute_defect(ma, mb) is None)
                for ma in tables]
    index = {m: a for a, m in enumerate(tables)}
    lists = [[index[m] for m in cands] for cands in candidates]
    chosen: list[int] = []

    def grow(allowed: int):
        # allowed: the tables commuting with every chosen colour but the last
        if len(chosen) == len(lists):
            yield tuple(tables[a] for a in chosen)
            return
        after = allowed & commutes[chosen[-1]] if chosen else allowed
        for a in lists[len(chosen)]:
            if allowed >> a & 1:
                chosen.append(a)
                yield from grow(after)
                chosen.pop()

    yield from grow((1 << len(tables)) - 1)


def exhaustive_stg(n_colours: int, k: int,
                   fixed_point_free: bool = False) -> list[SymmetryTypeGraph]:
    """``enumerate_stg`` without filters, by the exhaustive search."""
    choices = involutions(k)
    if fixed_point_free:
        choices = [m for m in choices if all(m[v] != v for v in range(k))]
    found: dict[bytes, SymmetryTypeGraph] = {}
    for ms in exhaustive_commuting_tuples([choices] * n_colours):
        if len(component(ms, 0)) == k:
            t = SymmetryTypeGraph(ms)
            found.setdefault(canonical_code(t), t)
    return [found[code] for code in sorted(found)]
