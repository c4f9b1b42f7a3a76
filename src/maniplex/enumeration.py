"""Exhaustive generation of admissible symmetry type graphs.

Each colour contributes an involution on the k vertices, a partner
table whose fixed points are semi-edges, and admissibility asks the
involutions of colours at distance >= 2 to commute; a tuple of such
tables is a ``SymmetryTypeGraph`` as it stands.  One backtracking
search picks a table per colour from that colour's candidates, keeping
those that commute with every earlier colour but the previous one.
The search is orderly: it keeps a tuple only when it is
lexicographically least, by position in the candidate lists, among its
vertex relabellings, so each class is generated once, as the first
labelled tuple an exhaustive search would meet.  Connectivity, the
rooted canonical codes that sort the classes and the STG check are
computed once per search, each for all its tuples in one array pass.
Vertices are relabelled, colours never are, so the classes are
colour-specific.

The three-vertex oriented census is the same search on the six-point
double covers of the oriented quotients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import compress, islice, permutations

import numpy as np

from .flag_graph import CHUNK, InternalCheckError, quotient_tables, stack_labels
from .oriented import OrientedSTG, stg_has_odd_closed_walk
from .stg import (SymmetryTypeGraph, bipartition, check_all, face_orbit_splits, stg_violations,
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


def canonical_code(t: SymmetryTypeGraph) -> bytes:
    """Least serialization over all vertex relabellings.

    Vertices are permuted, colours are not; 255 marks a semi-edge.
    Raises ValueError when ``t`` is disconnected or has over 255 vertices.
    """
    return _least_codes(np.array([[t.tables]]), t.rank)[0].tobytes()


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


def _commuting_tuples(tables, lists, relabellings):
    """The tuples of one table per colour, drawn from that colour's list
    of indices into ``tables``, in which colours at distance >= 2
    commute: one per orbit of the group ``relabellings``, whose point
    permutations each map every list onto itself.

    A tuple is kept when its positions in the lists are lexicographically
    least among its images.  At colour i the chosen table must be least
    among its images under the relabellings fixing colours 0..i-1, which
    then narrow to those fixing it too; a prefix that fails has no
    extension that passes, so the whole subtree is skipped.  The tuple
    kept from each orbit is the one an exhaustive search in list order
    meets first.

    Each tuple comes as the indices of its tables, in lexicographic order
    of the lists, colour 0 most significant.
    """
    if not tables:
        return
    commutes = _commutation_masks(tables)
    # one bitmask over the relabellings per table: those fixing it, and
    # per colour those moving it earlier in that colour's list
    images = _images(tables, relabellings)
    fixes = _bitmasks(images == np.arange(len(tables))[:, None])
    earlier = []
    for lst in lists:
        position = np.full(len(tables), len(tables))
        position[lst] = np.arange(len(lst))
        earlier.append(_bitmasks(position[images] < position[:, None]))
    chosen: list[int] = []

    def grow(allowed: int, stabiliser: int):
        # allowed: the tables commuting with every chosen colour but the last;
        # stabiliser: the relabellings fixing every chosen table
        c = len(chosen)
        if c == len(lists):
            yield tuple(chosen)
            return
        after = allowed & commutes[chosen[-1]] if chosen else allowed
        for a in lists[c]:
            if allowed >> a & 1 and not stabiliser & earlier[c][a]:
                chosen.append(a)
                yield from grow(after, stabiliser & fixes[a])
                chosen.pop()

    yield from grow((1 << len(tables)) - 1, (1 << len(relabellings)) - 1)


def _connected_tuples(candidates, relabellings) -> tuple[np.ndarray, np.ndarray]:
    """The tuples of ``_commuting_tuples`` over the per-colour lists
    ``candidates`` that connect their points, as rows of indices into the
    candidates without repeats and as a uint8 stack (tuples, colours,
    points); the search is read in parts whose union has CHUNK bytes."""
    tables = list(dict.fromkeys(m for cands in candidates for m in cands))
    index = {m: a for a, m in enumerate(tables)}
    lists = [[index[m] for m in cands] for cands in candidates]
    search = _commuting_tuples(tables, lists, relabellings)
    k, width = len(relabellings[0]), len(lists)
    tables = np.array(tables, np.uint8).reshape(-1, k)
    rows = [np.zeros((0, width), np.int16)]
    while len(part := np.array(list(islice(search, max(1, CHUNK // (8 * width * k)))), np.int16)):
        rows.append(part[~stack_labels(tables[part]).any(axis=1)])  # the connected ones
    rows = np.concatenate(rows)
    return rows, tables[rows]


def _code_order(codes: np.ndarray, first_of_each: bool = False) -> list[int]:
    """Indices of the uint8 code rows in increasing order of code.  Each
    search yields one tuple per class, so two equal rows raise
    InternalCheckError, unless ``first_of_each`` asks to keep the first."""
    first: dict[bytes, int] = {}
    for i, row in enumerate(codes):
        code = row.tobytes()
        if first.setdefault(code, i) != i and not first_of_each:
            raise InternalCheckError(f"the census met class {code.hex()} twice")
    return [first[code] for code in sorted(first)]


def _commutation_masks(tables) -> list[int]:
    """Per table a, a bitmask with bit b set when tables a and b commute,
    from one array of every product: ``ab[a, b]`` is a after b."""
    t = np.array(tables, dtype=np.int8)
    ab = t[:, t]
    return _bitmasks((ab == ab.transpose(1, 0, 2)).all(axis=2))


def _bitmasks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean array as an int, column j at bit j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def enumerate_stg(n_colours: int, k: int, filters=(),
                  fixed_point_free: bool = False) -> list[SymmetryTypeGraph]:
    """All admissible connected coloured pregraphs on k vertices.

    One representative per class, the first one an exhaustive search
    over ``involutions(k)`` meets, sorted by canonical code; ``filters``
    are predicates applied after the check, which raises
    InternalCheckError on an inadmissible class.  ``fixed_point_free``
    restricts the search to types without semi-edges.
    """
    return census(n_colours, k, filters, fixed_point_free)[0]


def census(n_colours: int, k: int, filters=(),
           fixed_point_free: bool = False) -> tuple[list[SymmetryTypeGraph], np.ndarray]:
    """``enumerate_stg``'s classes, and their tables as one uint8 stack
    (classes, colours, k), which the check and the CSV read."""
    if n_colours < 1 or k < 1:
        raise ValueError("need at least one colour and one vertex")
    if k > 5:
        warnings.warn(f"enumeration over {k} vertices may be slow", stacklevel=2)
    choices = involutions(k)
    if fixed_point_free:
        choices = [m for m in choices if all(m[v] != v for v in range(k))]
    rows, stack = _connected_tuples([choices] * n_colours, _relabellings(k))
    order = _code_order(_least_codes(stack[:, None], n_colours))
    stack, columns = stack[order], rows[order].T.tolist()
    graphs = [SymmetryTypeGraph(tables)
              for tables in zip(*(map(choices.__getitem__, column) for column in columns))]
    check_all(graphs, stack)
    if bad := next((t for t in graphs if stg_violations(t)), None):
        raise InternalCheckError(f"inadmissible class {bad.tables}: {stg_violations(bad)}")
    if filters:
        keep = [all(predicate(t) for predicate in filters) for t in graphs]
        graphs, stack = list(compress(graphs, keep)), stack[np.array(keep, bool)]
    return graphs, stack


def is_fully_transitive(t: SymmetryTypeGraph) -> bool:
    return not transitivity_profile(t)


# ---------------------------------------------------------------------------
# three-vertex oriented quotients


def oriented_canonical_code(ot: OrientedSTG) -> bytes:
    """Least serialization over relabellings and dart reversal.

    Reversing every dart is the quotient of the opposite orientation
    choice of the same structure, so mirror pairs count once.  The dart
    is one more table after the undirected classes, a loop written as
    the vertex itself.
    """
    return _oriented_codes([ot])[0].tobytes()


def _oriented_codes(ots) -> np.ndarray:
    """``oriented_canonical_code`` of each of ``ots``, all with one colour
    count, as uint8 rows: one array pass over both dart directions."""
    stack = [[ot.tables + (dart,) for dart in (ot.dart, np.argsort(ot.dart))] for ot in ots]
    return _least_codes(np.array(stack), len(ots[0].tables))


def _dart_shape(dart: tuple[int, int, int]) -> str:
    loops = sum(1 for u in range(3) if dart[u] == u)
    if loops == 3:
        return "three_loops"
    if loops == 1:
        return "two_cycle_loop"
    return "three_cycle"


def _lift(black, white) -> tuple[int, ...]:
    """Six-point table sending black u (point u) to white ``black[u]``
    (point black[u] + 3), and white v back to black ``white[v]``."""
    return tuple(v + 3 for v in black) + tuple(white)


# The involutions of three points: the identity, then the transpositions
# (0 1), (0 2), (1 2).  Followed by the two 3-cycles they are the dart
# permutations.  In this order the search meets first the same
# representative of each class as the hand-derived search it replaced.
_INVOLUTIONS3 = ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1))
_DARTS3 = _INVOLUTIONS3 + ((1, 2, 0), (2, 0, 1))


def enumerate_oriented_stg3(n_colours: int) -> list[OrientedSTG]:
    """All three-vertex oriented quotient di-graphs with n_colours colours.

    Each is read off its double cover, the six-point type with black u
    at point u and white u at point u + 3: colour i <= n-3 sends black u
    to white t_i(u) for the undirected class t_i (an involution on three
    points), colour n-2 sends black u to white rot(u) for the dart
    permutation rot, and colour n-1 joins black u to white u.  A rot
    that relabelling or dart reversal maps to an earlier one in
    ``_DARTS3`` is skipped; for each other rot the commuting-tuple
    search runs over these lifts, up to the relabellings and reversals
    that fix rot, and the connected results are kept.

    One class per orbit under vertex relabelling and dart reversal,
    sorted by oriented canonical code.
    """
    if n_colours < 4:
        raise ValueError("three-vertex oriented quotients need n_colours >= 4")
    n = n_colours
    classes = [_lift(t, t) for t in _INVOLUTIONS3]
    top = _lift(range(3), range(3))
    # a relabelling p acts diagonally on black and white points; reversing
    # every dart swaps black u with white u
    diagonal = [p + tuple(v + 3 for v in p) for p in _relabellings(3)]
    group = diagonal + [d[3:] + d[:3] for d in diagonal]
    darts = [_lift(rot, np.argsort(rot).tolist()) for rot in _DARTS3]
    dart_images = _images(darts, group)
    found: list[OrientedSTG] = []
    for r, rot in enumerate(_DARTS3):
        if dart_images[r].min() < r:
            continue
        stabiliser = [group[g] for g in np.flatnonzero(dart_images[r] == r)]
        candidates = [classes] * (n - 2) + [[darts[r]], [top]]
        # the classes lead the distinct candidates, so index p is _INVOLUTIONS3[p]
        found += [OrientedSTG(tables=tuple(_INVOLUTIONS3[p] for p in row[:-2]), dart=rot)
                  for row in _connected_tuples(candidates, stabiliser)[0].tolist()]
    return [found[i] for i in _code_order(_oriented_codes(found))]


def _by_shape(census: list[OrientedSTG]) -> dict[str, list[OrientedSTG]]:
    groups: dict[str, list[OrientedSTG]] = {
        "three_loops": [], "two_cycle_loop": [], "three_cycle": []}
    for ot in census:
        groups[_dart_shape(ot.dart)].append(ot)
    return groups


def oriented_stg3_families(n_colours: int) -> dict[str, list[OrientedSTG]]:
    """The census grouped by directed-class shape."""
    return _by_shape(enumerate_oriented_stg3(n_colours))


def oriented_stg3_via_quotient(n_colours: int) -> list[OrientedSTG]:
    """Cross-check route: quotient six-vertex semi-edge-free types.

    Enumerates admissible six-vertex types without semi-edges or odd
    cycles and quotients each by its top-colour pairs, and deduplicates.
    The classes t_i, i <= n-3, commute with the top colour, so both
    points of a pair reach the same pair.  The dart of a pair is read
    from its point on vertex 0's side of the bipartition: r_{n-2} after
    r_{n-1} there, which is r_{n-2} at the other point.  Exponential in
    n_colours; a cross-check for small colour counts.
    """
    n = n_colours
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # no odd closed walks rules out semi-edges from the start
        sixes = enumerate_stg(n, 6, filters=(lambda t: not stg_has_odd_closed_walk(t),),
                              fixed_point_free=True)
    found = []
    for t in sixes:
        m = np.array(t.tables)
        black = np.array(bipartition(t)) == 0
        rot = np.where(black, m[n - 2][m[n - 1]], m[n - 2])
        *tables, dart = quotient_tables(np.vstack([m[:n - 2], rot]),
                                        np.minimum(np.arange(6), m[n - 1]))
        found.append(OrientedSTG(tables=tuple(tables), dart=dart))
    return [found[i] for i in _code_order(_oriented_codes(found), first_of_each=True)]


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
    three = {n: enumerate_stg(n, 3) for n in range(3, 7)}
    four = enumerate_stg(4, 4)
    for n in range(3, 7):
        checks.append(CensusCheck(f"k=1 types, {n} colours", 1, len(enumerate_stg(n, 1))))
    for n in (3, 4, 5):
        checks.append(CensusCheck(
            f"k=2 types, {n} colours", 2 ** n - 1, len(enumerate_stg(n, 2))))
    for n in range(3, 7):
        checks.append(CensusCheck(f"k=3 types, {n} colours", 2 * n - 3, len(three[n])))
    checks.append(CensusCheck(
        "k=4 fully-transitive types, 4 colours", 20,
        sum(map(is_fully_transitive, four))))
    for n in range(3, 7):
        checks.append(CensusCheck(
            f"k=3 fully-transitive types, {n} colours", 0,
            sum(map(is_fully_transitive, three[n]))))
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
    oriented = {n: enumerate_oriented_stg3(n) for n in range(4, 11)}
    for n, census in oriented.items():
        expected = expected_totals.get(n, 2 * n - 3)
        checks.append(CensusCheck(
            f"oriented 3-vertex types, {n} colours", expected, len(census)))
    for n in range(7, 11):
        groups = _by_shape(oriented[n])
        checks.append(CensusCheck(
            f"oriented 3-vertex, three loops, {n} colours", 2 * n - 7,
            len(groups["three_loops"])))
        checks.append(CensusCheck(
            f"oriented 3-vertex, single loop, {n} colours", 2,
            len(groups["two_cycle_loop"])))
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
