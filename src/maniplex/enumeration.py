"""Exhaustive generation of admissible symmetry type graphs.

Each colour contributes an involution on the k vertices, a partner
table whose fixed points are semi-edges, and admissibility asks the
involutions of colours at distance >= 2 to commute; a row of such
tables is a ``SymmetryTypeGraph`` as it stands.  The search runs level
by level, each adding to every tuple a candidate table that commutes
with every earlier colour but the previous one.  It is orderly: it
keeps a tuple only when it is lexicographically least, by index in the
one candidate list, among its vertex relabellings, so each class is
generated once, as the first labelled tuple an exhaustive search would
meet.  Neither rule looks ahead, so level n is the census at n colours:
one search per vertex count is read at every colour count.
Connectivity, the rooted canonical codes that sort the classes and the
STG check take a level in array passes.  Vertices are relabelled,
colours never are, so the classes are colour-specific.  The oriented
census on k vertices is the same search on the k points, one per dart,
over the involutions, keeping the tuples whose classes invert the dart;
its cross-check reads the oriented di-graph of each bipartite 2k-point
type without semi-edges as a quotient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain, compress, permutations

import numpy as np

from .flag_graph import CHUNK, FlagGraph, InternalCheckError, non_commuting, stack_labels
from .oriented import OrientedSTG, orientation, oriented_digraph
from .stg import (SymmetryTypeGraph, check_all, face_orbit_splits, stg_violations,
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


def _commuting_tuples(tables: np.ndarray, colours: int, relabellings):
    """The orderly search, a level per colour up to ``colours``: level d
    holds the tuples of a table per colour 0..d-1 whose colours at
    distance >= 2 commute, one per orbit of the group ``relabellings``
    (which maps ``tables`` onto itself), as int16 rows of indices into
    ``tables`` in lexicographic order.

    A tuple is kept when its indices are least among its images: at
    colour i the table is least among its images under the prefix's
    stabiliser, a bitmask over the relabellings interned as an id.
    Neither test looks ahead, so level d is the search over d colours.
    Each (stabiliser, candidate) pair is tested once per level, and one
    np.nonzero over each row's allowed tables, those commuting with
    colours 0..d-2, read row-major, extends a level."""
    commutes, images = _commutes(tables), _images(tables, relabellings)
    index = np.arange(len(tables))[:, None]
    # per table a, the relabellings fixing a and those moving it earlier
    fixes, moved = _bitmasks(images == index), _bitmasks(images < index)
    ids = {(1 << len(relabellings)) - 1: 0}  # stabiliser bitmask -> id
    rows, allowed = np.zeros((1, 0), np.int16), np.ones((1, len(tables)), bool)
    stab = np.zeros(1, np.int32)
    for _ in range(colours):
        masks, step = list(ids), np.full((len(ids), len(tables)), -1, np.int32)
        for s in np.flatnonzero(np.bincount(stab)).tolist():  # step[s, a]: the id after table a
            m = masks[s]
            step[s] = [-1 if m & moved[a] else ids.setdefault(m & fixes[a], len(ids))
                       for a in range(len(tables))]
        parent, a = np.nonzero(allowed & (step[stab] >= 0))
        after = allowed & commutes[rows[:, -1]] if rows.shape[1] else allowed
        stab, rows = step[stab[parent], a], np.column_stack((rows[parent], a.astype(np.int16)))
        allowed = after[parent]
        yield rows


def _connected(tables: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows of indices into ``tables`` whose tables connect their
    points, labelled in passes whose union has CHUNK bytes."""
    step = max(1, CHUNK // (8 * rows.shape[1] * tables.shape[1]))
    parts = (rows[first:first + step] for first in range(0, len(rows), step))
    return np.concatenate([rows[:0]] + [part[~stack_labels(tables[part]).any(axis=1)]
                                        for part in parts])


def _code_order(codes: np.ndarray) -> list[int]:
    """Indices of the uint8 code rows in increasing order of code: one
    stable sort of the rows, each read as one byte string.  Each search
    yields one tuple per class, so two equal rows raise InternalCheckError."""
    keys = np.ascontiguousarray(codes).view(f"V{codes.shape[1]}").ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    if (twice := np.flatnonzero(ranked[1:] == ranked[:-1])).size:
        raise InternalCheckError(f"the census met class {ranked[twice[0]].tobytes().hex()} twice")
    return order.tolist()


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
    return _census((n_colours,), k, filters)[n_colours][0]


def census(n_colours: int, k: int, filters=()) -> tuple[list[SymmetryTypeGraph], np.ndarray]:
    """``enumerate_stg``'s classes, and their tables as one read-only
    int32 stack (classes, colours, k), which the check and the CSV read."""
    return _census((n_colours,), k, filters)[n_colours]


def _census(counts, k: int, filters=()) -> dict:
    """``census`` at every colour count in ``counts``, each read off one
    level of one search; the k > 5 warning names its caller's caller."""
    if min(counts) < 1 or k < 1:
        raise ValueError("need at least one colour and one vertex")
    size, smaller = 1, 1  # I(k) = I(k-1) + (k-1) I(k-2) involutions, from I(1) = I(0) = 1
    for j in range(2, k + 1):
        size, smaller = size + (j - 1) * smaller, size
    if size > np.iinfo(np.int16).max:  # the search's rows index the candidates in int16
        raise ValueError(f"{size:,} involutions on {k} vertices exceed the 32,767 candidate tables"
                         " that the search's int16 rows index")
    if k > 5:
        warnings.warn(f"enumeration over {k} vertices may be slow", stacklevel=3)
    tables = np.array(involutions(k), np.uint8).reshape(-1, k)
    levels = _commuting_tuples(tables, max(counts), _relabellings(k))
    # the search has ended, and freed its levels, before the classes are built
    found = {n: _connected(tables, rows) for n, rows in enumerate(levels, 1) if n in counts}
    for n, rows in found.items():
        stack = tables[rows]
        stack = stack[_code_order(_least_codes(stack[:, None], n))].astype(np.int32)
        stack.setflags(write=False)
        graphs = list(map(SymmetryTypeGraph, stack))
        check_all(graphs, stack)
        if bad := next((t for t in graphs if stg_violations(t)), None):
            raise InternalCheckError(
                f"inadmissible class {bad.tables.tolist()}: {stg_violations(bad)}")
        if filters:
            keep = [all(predicate(t) for predicate in filters) for t in graphs]
            graphs, stack = list(compress(graphs, keep)), stack[np.array(keep, bool)]
        found[n] = graphs, stack
    return found


def is_fully_transitive(t: SymmetryTypeGraph) -> bool:
    return not transitivity_profile(t)


# ---------------------------------------------------------------------------
# oriented quotients


def _oriented_codes(ots) -> np.ndarray:
    """The least code of each of ``ots``, all with one colour count, over
    relabellings and dart reversal, as uint8 rows: one array pass over
    both dart directions.  Reversing every dart is the quotient of the
    opposite orientation choice of the same structure, so mirror pairs
    count once.  The dart is one more table after the undirected
    classes, a loop written as the vertex itself; no row for no quotient."""
    if not ots:
        return np.empty((0, 0), np.uint8)
    ts, ds = np.stack([ot.tables for ot in ots]), np.stack([ot.dart for ot in ots])
    both = [np.concatenate([ts, d[:, None]], axis=1) for d in (ds, np.argsort(ds, axis=1))]
    return _least_codes(np.stack(both, axis=1), ts.shape[1])


def _oriented_census(counts, k: int) -> dict[int, list[OrientedSTG]]:
    """All k-vertex oriented quotient di-graphs at each colour count in
    ``counts``, one class per orbit under vertex relabelling and dart
    reversal, sorted by oriented code.

    A quotient on k points is its undirected classes t_0..t_{n-3},
    involutions, and its dart rot, a permutation; classes at distance
    >= 2 commute, and every class but the last inverts rot (t rot t =
    rot^-1).  A rot that relabelling or inversion maps to an earlier
    permutation is skipped; for each other rot the search runs over the
    involutions under the relabellings p with p rot p^-1 in {rot, rot^-1},
    and level d gives n = d + 2 from the rows that invert rot and, with
    rot, connect.  Level 0, the empty tuple, is rot alone at two colours."""
    rots, classes = _relabellings(k), involutions(k)
    inverse = [rots.index(tuple(np.argsort(rot).tolist())) for rot in rots]
    images = _images(rots, rots)
    found: dict[int, list[OrientedSTG]] = {n: [] for n in counts}
    for r, rot in enumerate(rots):
        if min(images[r].min(), images[inverse[r]].min()) < r:
            continue
        stabiliser = list(compress(rots, np.isin(images[r], (r, inverse[r]))))
        # t inverts rot exactly when t rot is an involution
        inverts = np.array([all(t[rot[t[rot[u]]]] == u for u in range(k)) for t in classes])
        tables = np.array(classes + [rot], np.int32)  # rot after the classes, for connectivity
        levels = _commuting_tuples(tables[:-1], max(counts) - 2, stabiliser)
        for n, rows in enumerate(chain([np.zeros((1, 0), np.int16)], levels), 2):
            if n in counts:
                rows = rows[inverts[rows[:, :-1]].all(axis=1)]
                rows = np.column_stack((rows, np.full(len(rows), len(classes), np.int16)))
                found[n] += [OrientedSTG(tables=ts, dart=rot)
                             for ts in tables[_connected(tables, rows)[:, :-1]]]
    return {n: [ots[i] for i in _code_order(_oriented_codes(ots))] for n, ots in found.items()}


def oriented_stg_via_quotient(n_colours: int, k: int) -> list[OrientedSTG]:
    """Cross-check route: the orderly search over the 2k-point types
    without semi-edges, each connected bipartite one read as a flag graph
    whose oriented di-graph, ``oriented_digraph``'s moves on the k black
    flags, is a quotient as it stands, classes then dart.  The first of
    each code is kept, in order of code.  Exponential in n_colours and k,
    so for small ones; k >= 2, since a di-graph on one flag is refused."""
    if k < 2:
        raise ValueError(f"the cross-check needs at least two vertices, not {k}")
    tables = np.array(involutions(2 * k), np.uint8)
    tables = tables[(tables != np.arange(2 * k)).all(axis=1)]
    *_, rows = _commuting_tuples(tables, n_colours, _relabellings(2 * k))
    covers = tables[_connected(tables, rows)].astype(np.int32)
    if bad := non_commuting(covers):  # (cover, i, j, vertex)
        raise InternalCheckError(f"a cover of the cross-check fails to commute: {bad[0]}")
    found = []
    for g in map(FlagGraph, covers):
        if (parity := orientation(g)) is not None:
            moves = oriented_digraph(g, parity).adj
            found.append(OrientedSTG(tables=moves[:-2], dart=moves[-2]))
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
    oriented = _oriented_census(range(4, 11), 3)
    for n, census in oriented.items():
        expected = expected_totals.get(n, 2 * n - 3)
        checks.append(CensusCheck(
            f"oriented 3-vertex types, {n} colours", expected, len(census)))
    for n in range(7, 11):
        loops = [np.count_nonzero(ot.dart == np.arange(ot.vertex_count)) for ot in oriented[n]]
        checks.append(CensusCheck(
            f"oriented 3-vertex, three loops, {n} colours", 2 * n - 7, loops.count(3)))
        checks.append(CensusCheck(
            f"oriented 3-vertex, single loop, {n} colours", 2, loops.count(1)))
    checks.append(CensusCheck(
        "oriented 3-vertex, 4 colours: direct route matches 6-vertex quotient route",
        [code.tobytes() for code in _oriented_codes(oriented[4])],
        [code.tobytes() for code in _oriented_codes(oriented_stg_via_quotient(4, 3))]))
    return checks


def _profile_shape_ok(t: SymmetryTypeGraph) -> bool:
    profile = sorted(transitivity_profile(t))
    if len(profile) <= 2:
        return True
    return len(profile) == 3 and profile[2] - profile[0] == 2
