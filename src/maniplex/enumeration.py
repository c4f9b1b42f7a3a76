"""Exhaustive generation of admissible symmetry type graphs.

Each colour contributes a matching-with-fixed-points on the k vertices
(fixed points are semi-edges).  Backtracking over colours prunes on the
five-quotient condition for colour pairs at distance >= 2; connected
results are deduplicated up to vertex relabelling (colours are never
permuted: the classes are colour-specific).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import permutations

from .flag_graph import component, five_quotient_bad, two_colouring
from .oriented import OrientedSTG
from .stg import (SEMI, SymmetryTypeGraph, is_i_face_transitive, partner_tables,
                  transitivity_profile)


def involutions(k: int) -> list[tuple[int, ...]]:
    """All involutions on 0..k-1 (partner table; fixed point = semi-edge)."""
    out: list[tuple[int, ...]] = []

    def grow(assigned: dict[int, int]) -> None:
        free = [v for v in range(k) if v not in assigned]
        if not free:
            out.append(tuple(assigned[v] for v in range(k)))
            return
        v = free[0]
        assigned[v] = v
        grow(assigned)
        del assigned[v]
        for w in free[1:]:
            assigned[v] = w
            assigned[w] = v
            grow(assigned)
            del assigned[v]
            del assigned[w]

    grow({})
    return out


def _to_stg(ms, k: int) -> SymmetryTypeGraph:
    slots = tuple(
        tuple(SEMI if m[u] == u else m[u] for m in ms) for u in range(k)
    )
    return SymmetryTypeGraph(rank=len(ms), vertex_count=k, slots=slots)


def _min_code(rows) -> bytes:
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


def canonical_code(t: SymmetryTypeGraph) -> bytes:
    """Minimum serialization over all vertex relabellings.

    Vertices are permuted, colours are not; 255 marks a semi-edge.
    """
    return _min_code(t.slots)


def enumerate_stg(n_colours: int, k: int, filters=(),
                  fixed_point_free: bool = False) -> list[SymmetryTypeGraph]:
    """All admissible connected coloured pregraphs on k vertices.

    One representative per canonical code, sorted by code; ``filters``
    are predicates applied after generation.  ``fixed_point_free``
    restricts the search to types without semi-edges.
    """
    if n_colours < 1 or k < 1:
        raise ValueError("need at least one colour and one vertex")
    if k > 5:
        warnings.warn(f"enumeration over {k} vertices may be slow", stacklevel=2)
    choices = involutions(k)
    if fixed_point_free:
        choices = [m for m in choices if all(m[v] != v for v in range(k))]
    found: dict[bytes, SymmetryTypeGraph] = {}
    stack_ms: list[tuple[int, ...]] = []

    def place(colour: int) -> None:
        if colour == n_colours:
            # pair pruning on involution tables leaves only connectivity
            if len(component(stack_ms, 0)) == k:
                t = _to_stg(stack_ms, k)
                found.setdefault(canonical_code(t), t)
            return
        for m in choices:
            if not any(any(five_quotient_bad(stack_ms[i], m)) for i in range(colour - 1)):
                stack_ms.append(m)
                place(colour + 1)
                stack_ms.pop()

    place(0)
    graphs = [found[code] for code in sorted(found)]
    for predicate in filters:
        graphs = [t for t in graphs if predicate(t)]
    return graphs


def is_fully_transitive(t: SymmetryTypeGraph) -> bool:
    return all(is_i_face_transitive(t, i) for i in range(t.rank))


def has_no_odd_closed_walks(t: SymmetryTypeGraph) -> bool:
    from .oriented import stg_has_odd_closed_walk

    return not stg_has_odd_closed_walk(t)


# ---------------------------------------------------------------------------
# three-vertex oriented quotients


def oriented_canonical_code(ot: OrientedSTG) -> bytes:
    """Minimum serialization over relabellings and dart reversal.

    Reversing every dart is the quotient of the opposite orientation
    choice of the same structure, so mirror pairs count once.
    """
    reversed_dart = [0] * ot.vertex_count
    for u, v in enumerate(ot.dart):
        reversed_dart[v] = u
    return min(_min_code([row + (v,) for row, v in zip(ot.undirected, dart)])
               for dart in (ot.dart, reversed_dart))


_DART_SHAPES = {
    "three_loops": [(0, 1, 2)],
    "two_cycle_loop": [(1, 0, 2), (2, 1, 0), (0, 2, 1)],
    "three_cycle": [(1, 2, 0), (2, 0, 1)],
}


def _dart_shape(dart: tuple[int, int, int]) -> str:
    loops = sum(1 for u in range(3) if dart[u] == u)
    if loops == 3:
        return "three_loops"
    if loops == 1:
        return "two_cycle_loop"
    return "three_cycle"


def enumerate_oriented_stg3(n_colours: int) -> list[OrientedSTG]:
    """All three-vertex oriented quotient di-graphs with n_colours colours.

    Encodes the structural facts that hold for quotients of six-vertex
    semi-edge-free types:

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

    Deduplicated up to vertex relabelling, sorted by canonical code.
    """
    if n_colours < 4:
        raise ValueError("three-vertex oriented quotients need n_colours >= 4")
    n = n_colours
    pairs = [(0, 1), (0, 2), (1, 2)]
    # an undirected class: None for three semi-edges, else the edge pair
    class_options: list[tuple[int, int] | None] = [None] + pairs

    found: dict[bytes, OrientedSTG] = {}
    for shape, darts in _DART_SHAPES.items():
        for dart in darts:
            dart_pair = None
            if shape == "two_cycle_loop":
                swapped = [u for u in range(3) if dart[u] != u]
                dart_pair = (min(swapped), max(swapped))

            def place(colour: int, chosen: list) -> None:
                if colour == n - 2:
                    _emit(chosen)
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

            def _emit(chosen: list) -> None:
                tables = []
                for p in chosen:
                    m = [0, 1, 2]
                    if p is not None:
                        m[p[0]], m[p[1]] = p[1], p[0]
                    tables.append(m)
                if len(component([dart] + tables, 0)) != 3:
                    return
                rows = tuple(tuple(SEMI if m[u] == u else m[u] for m in tables)
                             for u in range(3))
                ot = OrientedSTG(rank=n, vertex_count=3, undirected=rows, dart=dart)
                found.setdefault(oriented_canonical_code(ot), ot)

            place(0, [])
    return [found[code] for code in sorted(found)]


def oriented_stg3_families(n_colours: int) -> dict[str, list[OrientedSTG]]:
    """The census grouped by directed-class shape."""
    groups: dict[str, list[OrientedSTG]] = {
        "three_loops": [], "two_cycle_loop": [], "three_cycle": []}
    for ot in enumerate_oriented_stg3(n_colours):
        groups[_dart_shape(ot.dart)].append(ot)
    return groups


def oriented_stg3_via_quotient(n_colours: int) -> list[OrientedSTG]:
    """Cross-check route: quotient six-vertex semi-edge-free types.

    Enumerates admissible six-vertex types without semi-edges or odd
    cycles, quotients each by its top-colour matching, and deduplicates.
    Exponential in n_colours; intended for the smallest rank only.
    """
    n = n_colours
    found: dict[bytes, OrientedSTG] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # no odd closed walks rules out semi-edges from the start
        sixes = enumerate_stg(n, 6, filters=(has_no_odd_closed_walks,),
                              fixed_point_free=True)
    for t in sixes:
        top = [t.slots[u][n - 1] for u in range(6)]
        pairs = sorted({(min(u, top[u]), max(u, top[u])) for u in range(6)})
        pair_of = {}
        for idx, (u, v) in enumerate(pairs):
            pair_of[u] = idx
            pair_of[v] = idx
        # darts must be read off one part of the bipartition throughout
        side = two_colouring(partner_tables(t))
        rows = []
        darts = []
        ok = True
        for idx, (u, v) in enumerate(pairs):
            row = []
            for i in range(n - 2):
                w = pair_of[t.slots[u][i]]
                w2 = pair_of[t.slots[v][i]]
                if w != w2:
                    ok = False
                row.append(SEMI if w == idx else w)
            rows.append(tuple(row))
            rep = u if side[u] == side[pairs[0][0]] else v
            darts.append(pair_of[t.slots[t.slots[rep][n - 1]][n - 2]])
        if not ok:
            continue
        ot = OrientedSTG(rank=n, vertex_count=3,
                         undirected=tuple(rows), dart=tuple(darts))
        found.setdefault(oriented_canonical_code(ot), ot)
    return [found[code] for code in sorted(found)]


# ---------------------------------------------------------------------------
# golden-count report


@dataclass(frozen=True)
class CensusCheck:
    name: str
    expected: object
    actual: object

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def __str__(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: expected {self.expected}, got {self.actual}"


def verify_census() -> list[CensusCheck]:
    """Golden counts and structural facts, one check per line.

    The oriented three-vertex counts are usually quoted by rank; here a
    structure of rank r carries r + 1 colours, so the totals are 6, 9,
    10 at 4, 5, 6 colours and 2n-3 from 7 colours on.
    """
    checks: list[CensusCheck] = []
    for n in range(3, 7):
        checks.append(CensusCheck(f"k=1 types, {n} colours", 1, len(enumerate_stg(n, 1))))
    for n in (3, 4, 5):
        checks.append(CensusCheck(
            f"k=2 types, {n} colours", 2 ** n - 1, len(enumerate_stg(n, 2))))
    for n in range(3, 7):
        checks.append(CensusCheck(
            f"k=3 types, {n} colours", 2 * n - 3, len(enumerate_stg(n, 3))))
    checks.append(CensusCheck(
        "k=4 fully-transitive types, 4 colours", 20,
        len(enumerate_stg(4, 4, filters=(is_fully_transitive,)))))
    for n in range(3, 7):
        checks.append(CensusCheck(
            f"k=3 fully-transitive types, {n} colours", 0,
            len(enumerate_stg(n, 3, filters=(is_fully_transitive,)))))
    checks.append(CensusCheck(
        "k=5 fully-transitive types, 4 colours", 0,
        len(enumerate_stg(4, 5, filters=(is_fully_transitive,)))))

    four = enumerate_stg(4, 4)
    splits_ok = all(
        all(1 <= _component_count(t, i) <= 3 for i in range(t.rank)) for t in four)
    checks.append(CensusCheck("k=4: 1..3 components per deleted colour", True, splits_ok))
    profiles_ok = all(_profile_shape_ok(t) for t in four)
    checks.append(CensusCheck(
        "k=4: profile empty, one or two colours, or a consecutive triple",
        True, profiles_ok))

    expected_totals = {4: 6, 5: 9, 6: 10}
    for n in range(4, 11):
        expected = expected_totals.get(n, 2 * n - 3)
        checks.append(CensusCheck(
            f"oriented 3-vertex types, {n} colours", expected,
            len(enumerate_oriented_stg3(n))))
    for n in range(7, 11):
        groups = oriented_stg3_families(n)
        checks.append(CensusCheck(
            f"oriented 3-vertex, three loops, {n} colours", 2 * n - 7,
            len(groups["three_loops"])))
        checks.append(CensusCheck(
            f"oriented 3-vertex, single loop, {n} colours", 2,
            len(groups["two_cycle_loop"])))
    checks.append(CensusCheck(
        "oriented 3-vertex, 4 colours: direct route matches 6-vertex quotient route",
        [oriented_canonical_code(ot) for ot in enumerate_oriented_stg3(4)],
        [oriented_canonical_code(ot) for ot in oriented_stg3_via_quotient(4)]))
    return checks


def _component_count(t: SymmetryTypeGraph, i: int) -> int:
    from .stg import face_orbit_splits

    return len(face_orbit_splits(t, i))


def _profile_shape_ok(t: SymmetryTypeGraph) -> bool:
    profile = sorted(transitivity_profile(t))
    if len(profile) <= 2:
        return True
    return len(profile) == 3 and profile[2] - profile[0] == 2
