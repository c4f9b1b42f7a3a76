"""Exhaustive generation of admissible symmetry type graphs.

Each colour contributes an involution on the k vertices, a partner
table whose fixed points are semi-edges, and admissibility asks the
involutions of colours at distance >= 2 to commute; a tuple of such
tables is a ``SymmetryTypeGraph`` as it stands.  The search runs level
by level, each adding to every tuple a table from that colour's
candidates that commutes with every earlier colour but the previous
one.  It is orderly: it keeps a tuple only when it is lexicographically
least, by position in the candidate lists, among its vertex
relabellings, so each class is generated once, as the first labelled
tuple an exhaustive search would meet.  Neither rule looks ahead, so
level n is the census at n colours: one search per vertex count is read
at every colour count.  Connectivity, the rooted canonical codes that
sort the classes and the STG check take a level in array passes.
Vertices are relabelled, colours never are, so the classes are
colour-specific.  The three-vertex oriented census is the same search,
one per dart, on the six-point double covers of the oriented quotients,
darts and classes drawn from one ordering of the permutations.  Its
cross-check quotients the six-point types through their oriented
di-graphs, ``oriented_digraph``.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import compress, permutations

import numpy as np

from .flag_graph import CHUNK, FlagGraph, InternalCheckError, quotient_tables, stack_labels
from .oriented import Orientation, OrientedSTG, oriented_digraph, stg_has_odd_closed_walk
from .stg import (SymmetryTypeGraph, bipartition, check_all, face_orbit_splits, stg_violations,
                  transitivity_profile)


def involutions(k: int) -> list[tuple[int, ...]]:
    """All involutions on 0..k-1 in lexicographic order; a fixed point is a semi-edge."""
    return [p for p in permutations(range(k)) if all(p[v] == u for u, v in enumerate(p))]


def _least_codes(stack: np.ndarray, semi: int) -> np.ndarray:
    """The least rooted code of each entry of a stack (entries, variants,
    colours, k) of partner tables, over its roots and variants, as uint8
    rows of colours * k bytes; 255 marks a semi-edge of the first ``semi``
    colours, so k is at most 255.

    A rooted code labels its root 0, then reads the vertices in label
    order and, at each, the tables in colour order; a vertex met for the
    first time takes the next free label.  On a connected tuple the least
    code over the roots is the least over all k! relabellings: with the
    root fixed, wherever a new vertex is met the next free label is the
    only smallest byte.  Every (tuple, root) row is read at once, one cell
    per step, in passes of CHUNK code bytes; a disconnected tuple raises
    ValueError.
    """
    n, variants, colours, k = stack.shape
    if k > 255:
        raise ValueError(f"a canonical code labels at most 255 vertices, not {k}")
    tuples = stack.astype(np.uint8, copy=False).reshape(-1, colours, k)
    copies, width = variants * k, colours * k  # code rows per entry, bytes per code
    out = np.empty((n, width), np.uint8)
    step = max(1, CHUNK // (copies * width))  # entries per pass
    for first in range(0, n, step):
        part = tuples[first * variants:(first + step) * variants]
        rows = len(part) * k  # row t * k + r reads tuple t from root r
        tuple_of, at = np.repeat(np.arange(len(part)), k), np.arange(0, rows * k, k)
        label = np.full((rows, k), 255, np.uint8)  # 255: not met yet
        label.reshape(-1, k, k)[:, np.arange(k), np.arange(k)] = 0
        seen, count = label.reshape(-1), np.ones(rows, np.uint8)
        code = np.empty((rows, width), np.uint8)
        for p in range(k):
            if (count <= p).any():
                raise ValueError("a canonical code needs a connected input")
            u = (label == p).argmax(axis=1)
            partners = part[tuple_of, :, u]
            for c in range(colours):
                v, cell = partners[:, c], at + partners[:, c]
                seen[cell] = code[:, p * colours + c] = lab = np.minimum(seen[cell], count)
                count[lab == count] += 1
                if c < semi:
                    code[v == u, p * colours + c] = 255
        least = np.sort(code.view(f"V{width}").reshape(-1, copies), axis=1)[:, 0]
        out.view(f"V{width}")[first:first + step, 0] = least
    return out


def _relabellings(k: int) -> list[tuple[int, ...]]:
    """Every permutation of 0..k-1."""
    return list(permutations(range(k)))


def _images(tables, relabellings) -> np.ndarray:
    """``out[a, g]``: the index in ``tables`` of table a relabelled by g.

    Relabelling by p sends m to p m p^-1, which maps p(u) to p(m(u)).
    Every image must be one of ``tables``.
    """
    p = np.array(relabellings, dtype=np.intp)
    k = p.shape[1]
    t = np.array(tables, dtype=np.intp).reshape(-1, k)
    # a table as a base-k number, point u at digit u
    weights = k ** np.arange(k)
    codes = (t * weights).sum(axis=1)
    images = sum(p[:, t[:, u]].T * weights[p[:, u]] for u in range(k))
    order = np.argsort(codes)
    out = order[np.searchsorted(codes, images, sorter=order).clip(max=len(t) - 1)]
    if (codes[out] != images).any():
        raise ValueError("a relabelling maps a candidate outside the candidates")
    return out


def _commuting_tuples(tables: np.ndarray, lists, relabellings):
    """The orderly search, a level per colour: level d holds the tuples of
    a table per colour 0..d-1, from that colour's list of indices into
    ``tables``, whose colours at distance >= 2 commute, one per orbit of
    the group ``relabellings`` (which maps every list onto itself), as
    int16 rows in lexicographic order of the lists; and per row, as bool,
    the tables colour d may take, those commuting with colours 0..d-2.

    A tuple is kept when its positions in the lists are least among its
    images: at colour i the table is least among its images under the
    prefix's stabiliser, a bitmask over the relabellings interned as an
    id.  Neither test looks ahead, so level d is the search over d colours.
    Each (stabiliser, candidate) pair is tested once per level, and one
    np.nonzero, read row-major, extends a level."""
    commutes, images = _commutes(tables), _images(tables, relabellings)
    fixes = _bitmasks(images == np.arange(len(tables))[:, None])
    ids = {(1 << len(relabellings)) - 1: 0}  # stabiliser bitmask -> id
    rows, allowed = np.zeros((1, 0), np.int16), np.ones((1, len(tables)), bool)
    stab, moved_by_list = np.zeros(1, np.int32), {}
    for lst in map(list, lists):
        if tuple(lst) not in moved_by_list:  # callers repeat one list
            position = np.full(len(tables), len(tables))
            position[lst] = np.arange(len(lst))
            # per table a, the relabellings moving a earlier in the list
            moved_by_list[tuple(lst)] = _bitmasks(position[images] < position[:, None])
        moved = moved_by_list[tuple(lst)]
        masks, step = list(ids), np.full((len(ids), len(lst)), -1, np.int32)
        for s in np.flatnonzero(np.bincount(stab)).tolist():  # step[s, j]: the id after lst[j]
            m = masks[s]
            step[s] = [-1 if m & moved[a] else ids.setdefault(m & fixes[a], len(ids)) for a in lst]
        parent, j = np.nonzero(allowed[:, lst] & (step[stab] >= 0))
        after = allowed & commutes[rows[:, -1]] if rows.shape[1] else allowed
        stab, rows = step[stab[parent], j], np.column_stack((rows[parent], np.int16(lst)[j]))
        allowed = after[parent]
        yield rows, allowed


def _connected(tables: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows of indices into ``tables`` whose tables connect their
    points, labelled in passes whose union has CHUNK bytes."""
    step = max(1, CHUNK // (8 * rows.shape[1] * tables.shape[1]))
    parts = (rows[first:first + step] for first in range(0, len(rows), step))
    return np.concatenate([rows[:0]] + [part[~stack_labels(tables[part]).any(axis=1)]
                                        for part in parts])


def _code_order(codes: np.ndarray) -> list[int]:
    """Indices of the uint8 code rows in increasing order of code.  Each
    search yields one tuple per class, so two equal rows raise
    InternalCheckError."""
    first: dict[bytes, int] = {}
    for i, row in enumerate(codes):
        code = row.tobytes()
        if first.setdefault(code, i) != i:
            raise InternalCheckError(f"the census met class {code.hex()} twice")
    return [first[code] for code in sorted(first)]


def _commutes(tables: np.ndarray) -> np.ndarray:
    """``out[a, b]``: whether tables a and b commute, from one array of
    every product: ``ab[a, b]`` is a after b."""
    ab = tables[:, tables]
    return (ab == ab.transpose(1, 0, 2)).all(axis=2)


def _bitmasks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean array as an int, column j at bit j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def enumerate_stg(n_colours: int, k: int, filters=()) -> list[SymmetryTypeGraph]:
    """All admissible connected coloured pregraphs on k vertices.

    One representative per class, the first one an exhaustive search
    over ``involutions(k)`` meets, sorted by canonical code; ``filters``
    are predicates applied after the check, which raises
    InternalCheckError on an inadmissible class.
    """
    return census(n_colours, k, filters)[0]


def census(n_colours: int, k: int, filters=()) -> tuple[list[SymmetryTypeGraph], np.ndarray]:
    """``enumerate_stg``'s classes, and their tables as one uint8 stack
    (classes, colours, k), which the check and the CSV read."""
    if k > 5:
        warnings.warn(f"enumeration over {k} vertices may be slow", stacklevel=2)
    return _census((n_colours,), k, filters)[n_colours]


def _census(counts, k: int, filters=(), fixed_point_free: bool = False) -> dict:
    """``census`` at every colour count in ``counts``, each read off one
    level of a single search over max(counts) colours; ``fixed_point_free``
    restricts the search to types without semi-edges."""
    if min(counts) < 1 or k < 1:
        raise ValueError("need at least one colour and one vertex")
    choices = involutions(k)
    if fixed_point_free:
        choices = [m for m in choices if all(m[v] != v for v in range(k))]
    tables = np.array(choices, np.uint8).reshape(-1, k)
    levels = _commuting_tuples(tables, [range(len(choices))] * max(counts), _relabellings(k))
    # the search has ended, and freed its levels, before the classes are built
    found = {n: _connected(tables, rows) for n, (rows, _) in enumerate(levels, 1) if n in counts}
    for n, rows in found.items():
        stack = tables[rows]
        order = _code_order(_least_codes(stack[:, None], n))
        stack, columns = stack[order], rows[order].T.tolist()
        graphs = [SymmetryTypeGraph(ts)
                  for ts in zip(*(map(choices.__getitem__, column) for column in columns))]
        check_all(graphs, stack)
        if bad := next((t for t in graphs if stg_violations(t)), None):
            raise InternalCheckError(f"inadmissible class {bad.tables}: {stg_violations(bad)}")
        if filters:
            keep = [all(predicate(t) for predicate in filters) for t in graphs]
            graphs, stack = list(compress(graphs, keep)), stack[np.array(keep, bool)]
        found[n] = graphs, stack
    return found


def is_fully_transitive(t: SymmetryTypeGraph) -> bool:
    return not transitivity_profile(t)


# ---------------------------------------------------------------------------
# three-vertex oriented quotients

_K = 3  # vertices of the oriented quotients; their double covers have 2 * _K points


def _oriented_codes(ots) -> np.ndarray:
    """The least code of each of ``ots``, all with one colour count, over
    relabellings and dart reversal, as uint8 rows: one array pass over
    both dart directions.  Reversing every dart is the quotient of the
    opposite orientation choice of the same structure, so mirror pairs
    count once.  The dart is one more table after the undirected
    classes, a loop written as the vertex itself."""
    stack = [[ot.tables + (dart,) for dart in (ot.dart, np.argsort(ot.dart))] for ot in ots]
    return _least_codes(np.array(stack), len(ots[0].tables))


def _dart_order(p) -> tuple[int, list[list[int]]]:
    """A permutation's number of moved points, then its cycle notation,
    each cycle opened at its least point: the order of the darts."""
    cycles: list[list[int]] = []
    for u in range(len(p)):
        if p[u] != u and not any(u in cycle for cycle in cycles):
            cycles.append([u])
            while (v := p[cycles[-1][-1]]) != u:
                cycles[-1].append(v)
    return sum(map(len, cycles)), cycles


def _lift(black, white) -> tuple[int, ...]:
    """Table on 2k points sending black u (point u) to white ``black[u]``
    (point black[u] + k), and white v back to black ``white[v]``."""
    return tuple(v + len(black) for v in black) + tuple(white)


def _oriented_census(counts) -> dict[int, list[OrientedSTG]]:
    """All three-vertex oriented quotient di-graphs at each colour count
    in ``counts``, one class per orbit under vertex relabelling and dart
    reversal, sorted by oriented code.

    Each is read off its double cover, the 2k-point type (k = ``_K``) with
    black u at point u and white u at point u + k: colour i <= n-3 sends
    black u to white t_i(u) for the undirected class t_i, colour n-2
    sends black u to white rot(u) for the dart rot, and colour n-1 joins
    black u to white u.  The darts are the permutations of k points in
    ``_dart_order``, the classes the involutions among them; in this
    order the search keeps the representatives that the tests' hand
    derivation (``hand_oriented_stg3``) finds.  A rot that relabelling or
    dart reversal maps to an earlier dart is skipped; for each other rot
    the commuting-tuple search runs over these lifts, up to the
    relabellings and reversals that fix rot, and the connected results
    are kept.  Level d gives n = d + 2 where the dart commutes with
    classes 0..d-2; the top table commutes with every class, and the
    dart's stabiliser fixes both, so they pass the orderly test."""
    k = _K
    rots = sorted(permutations(range(k)), key=_dart_order)
    undirected = sorted(involutions(k), key=_dart_order)
    classes = [_lift(t, t) for t in undirected]
    top = _lift(range(k), range(k))
    # a relabelling p acts diagonally on black and white points; reversing
    # every dart swaps black u with white u
    diagonal = [p + tuple(v + k for v in p) for p in _relabellings(k)]
    group = diagonal + [d[k:] + d[:k] for d in diagonal]
    darts = [_lift(rot, np.argsort(rot).tolist()) for rot in rots]
    dart_images = _images(darts, group)
    found: dict[int, list[OrientedSTG]] = {n: [] for n in counts}
    for r, rot in enumerate(rots):
        if dart_images[r].min() < r:
            continue
        stabiliser = [group[g] for g in np.flatnonzero(dart_images[r] == r)]
        # the classes lead the distinct tables, so index p is class p
        tables = list(dict.fromkeys(classes + [darts[r], top]))
        tail = tables.index(darts[r]), tables.index(top)
        tables = np.array(tables, np.uint8)
        levels = _commuting_tuples(tables, [range(len(classes))] * (max(counts) - 2), stabiliser)
        for n, (rows, allowed) in enumerate(levels, 3):
            if n in counts:
                rows = np.column_stack((rows, np.full((len(rows), 2), tail, np.int16)))
                found[n] += [OrientedSTG(tables=tuple(undirected[p] for p in row[:-2]), dart=rot)
                             for row in _connected(tables, rows[allowed[:, tail[0]]]).tolist()]
    return {n: [ots[i] for i in _code_order(_oriented_codes(ots))] for n, ots in found.items()}


def oriented_stg3_via_quotient(n_colours: int) -> list[OrientedSTG]:
    """Cross-check route: quotient 2k-vertex semi-edge-free types, k = ``_K``.

    Enumerates admissible 2k-vertex types without semi-edges or odd
    cycles and reads each as a flag graph oriented by its census sides,
    vertex 0 black.  Its oriented di-graph, ``oriented_digraph``'s move
    graph, is quotiented by the top-colour pairs, each named by its
    least point, and the types are deduplicated, the first of each kept.
    Exponential in n_colours; a cross-check for small colour counts.
    """
    n = n_colours
    # no odd closed walks rules out semi-edges from the start
    covers, _ = _census((n,), 2 * _K, (lambda t: not stg_has_odd_closed_walk(t),), True)[n]
    found = []
    for t in covers:
        g, o = FlagGraph(t.tables), Orientation(np.array(bipartition(t), np.int8))
        black = o.black_flags
        *tables, dart = quotient_tables(oriented_digraph(g, o).adj[:-1],
                                        np.minimum(black, g.adj[-1, black]))
        found.append(OrientedSTG(tables=tuple(tables), dart=dart))
    first: dict[bytes, OrientedSTG] = {}
    for code, ot in zip(_oriented_codes(found), found):
        first.setdefault(code.tobytes(), ot)
    return [first[code] for code in sorted(first)]


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
    three, four = _census(range(3, 7), 3), enumerate_stg(4, 4)
    for k, found, expected in ((1, _census(range(3, 7), 1), lambda n: 1),
                               (2, _census(range(3, 6), 2), lambda n: 2 ** n - 1),
                               (3, three, lambda n: 2 * n - 3)):
        checks += [CensusCheck(f"k={k} types, {n} colours", expected(n), len(graphs))
                   for n, (graphs, _) in found.items()]
    checks.append(CensusCheck(
        "k=4 fully-transitive types, 4 colours", 20,
        sum(map(is_fully_transitive, four))))
    for n in range(3, 7):
        checks.append(CensusCheck(
            f"k=3 fully-transitive types, {n} colours", 0,
            sum(map(is_fully_transitive, three[n][0]))))
    checks.append(CensusCheck(
        "k=5 fully-transitive types, 4 colours", 0,
        len(enumerate_stg(4, 5, filters=(is_fully_transitive,)))))

    splits_ok = all(
        all(1 <= len(face_orbit_splits(t, i)) <= 3 for i in range(t.rank)) for t in four)
    checks.append(CensusCheck("k=4: 1..3 components per deleted colour", True, splits_ok))
    profiles_ok = all(_profile_shape_ok(t) for t in four)
    checks.append(CensusCheck(
        "k=4: profile empty, one or two colours, or a consecutive triple",
        True, profiles_ok))

    expected_totals = {4: 6, 5: 9, 6: 10}
    oriented = _oriented_census(range(4, 11))
    for n, census in oriented.items():
        expected = expected_totals.get(n, 2 * n - 3)
        checks.append(CensusCheck(
            f"oriented 3-vertex types, {n} colours", expected, len(census)))
    for n in range(7, 11):
        loops = Counter(sum(v == u for u, v in enumerate(ot.dart)) for ot in oriented[n])
        checks.append(CensusCheck(
            f"oriented 3-vertex, three loops, {n} colours", 2 * n - 7, loops[3]))
        checks.append(CensusCheck(
            f"oriented 3-vertex, single loop, {n} colours", 2, loops[1]))
    checks.append(CensusCheck(
        "oriented 3-vertex, 4 colours: direct route matches 6-vertex quotient route",
        [code.tobytes() for code in _oriented_codes(oriented[4])],
        [code.tobytes() for code in _oriented_codes(oriented_stg3_via_quotient(4))]))
    return checks


def _profile_shape_ok(t: SymmetryTypeGraph) -> bool:
    profile = sorted(transitivity_profile(t))
    if len(profile) <= 2:
        return True
    return len(profile) == 3 and profile[2] - profile[0] == 2
