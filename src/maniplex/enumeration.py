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
labelled tuple an exhaustive search would meet.  A rooted canonical
code sorts the classes.  Vertices are
relabelled, colours never are, so the classes are colour-specific.

The three-vertex oriented census is the same search on the six-point
double covers of the oriented quotients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .flag_graph import InternalCheckError, component, quotient_tables, two_colouring
from .oriented import OrientedSTG, stg_has_odd_closed_walk
from .stg import SymmetryTypeGraph, face_orbit_splits, transitivity_profile


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


def _rooted_code(tables, root: int, semi: int) -> bytes:
    """Serialization of partner tables with ``root`` labelled 0.

    Vertices are read in label order and, at each, the tables in colour
    order; a vertex met for the first time takes the next free label.
    In the first ``semi`` tables a fixed point is a semi-edge, written
    255; in the others it is written as the vertex's label.
    """
    columns = [(m, c < semi) for c, m in enumerate(tables)]
    label = {root: 0}
    order = [root]
    code = bytearray()
    for u in order:
        for m, marks_semi in columns:
            v = m[u]
            if v == u and marks_semi:
                code.append(255)
                continue
            if v not in label:
                label[v] = len(order)
                order.append(v)
            code.append(label[v])
    if len(order) != len(tables[0]):
        raise ValueError("a canonical code needs a connected input")
    return bytes(code)


def _least_code(tables, semi: int) -> bytes:
    """The least rooted code over all roots.

    On a connected input this is the least serialization over all k!
    vertex relabellings: once the root is fixed, wherever a new vertex
    is met the next free label is the only smallest byte, and the
    vertex labelled j is met before vertex j's cells are read.
    """
    return min(_rooted_code(tables, root, semi) for root in range(len(tables[0])))


def canonical_code(t: SymmetryTypeGraph) -> bytes:
    """Least serialization over all vertex relabellings.

    Vertices are permuted, colours are not; 255 marks a semi-edge.
    Raises ValueError when ``t`` is disconnected.
    """
    return _least_code(t.tables, t.rank)


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


def _commuting_tuples(candidates, relabellings):
    """The tuples of one table per colour, drawn from that colour's list
    in ``candidates``, in which colours at distance >= 2 commute: one per
    orbit of the group ``relabellings``, whose point permutations each
    map every list onto itself.

    A tuple is kept when its positions in the lists are lexicographically
    least among its images.  At colour i the chosen table must be least
    among its images under the relabellings fixing colours 0..i-1, which
    then narrow to those fixing it too; a prefix that fails has no
    extension that passes, so the whole subtree is skipped.  The tuple
    kept from each orbit is the one an exhaustive search in list order
    meets first.

    Tuples come in lexicographic order of the lists, colour 0 most
    significant.
    """
    tables = list(dict.fromkeys(m for cands in candidates for m in cands))
    if not tables:
        return
    commutes = _commutation_masks(tables)
    index = {m: a for a, m in enumerate(tables)}
    lists = [[index[m] for m in cands] for cands in candidates]
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
            yield tuple(tables[a] for a in chosen)
            return
        after = allowed & commutes[chosen[-1]] if chosen else allowed
        for a in lists[c]:
            if allowed >> a & 1 and not stabiliser & earlier[c][a]:
                chosen.append(a)
                yield from grow(after, stabiliser & fixes[a])
                chosen.pop()

    yield from grow((1 << len(tables)) - 1, (1 << len(relabellings)) - 1)


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


def _keep_new(found: dict, code: bytes, item) -> None:
    """Record ``item`` under ``code``; the search yields one per class."""
    if code in found:
        raise InternalCheckError(f"the census met class {code.hex()} twice")
    found[code] = item


def enumerate_stg(n_colours: int, k: int, filters=(),
                  fixed_point_free: bool = False) -> list[SymmetryTypeGraph]:
    """All admissible connected coloured pregraphs on k vertices.

    One representative per class, the first one an exhaustive search
    over ``involutions(k)`` meets, sorted by canonical code; ``filters``
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
    for ms in _commuting_tuples([choices] * n_colours, _relabellings(k)):
        if len(component(ms, 0)) == k:
            t = SymmetryTypeGraph(ms)
            _keep_new(found, canonical_code(t), t)
    graphs = [found[code] for code in sorted(found)]
    for predicate in filters:
        graphs = [t for t in graphs if predicate(t)]
    return graphs


def is_fully_transitive(t: SymmetryTypeGraph) -> bool:
    return not transitivity_profile(t)


# ---------------------------------------------------------------------------
# three-vertex oriented quotients


def _inverse(p) -> tuple[int, ...]:
    inv = [0] * len(p)
    for u, v in enumerate(p):
        inv[v] = u
    return tuple(inv)


def oriented_canonical_code(ot: OrientedSTG) -> bytes:
    """Least serialization over relabellings and dart reversal.

    Reversing every dart is the quotient of the opposite orientation
    choice of the same structure, so mirror pairs count once.  The dart
    is one more table after the undirected classes, a loop written as
    the vertex itself.
    """
    return min(_least_code(ot.tables + (dart,), len(ot.tables))
               for dart in (ot.dart, _inverse(ot.dart)))


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
    classes = {_lift(t, t): t for t in _INVOLUTIONS3}
    top = _lift(range(3), range(3))
    # a relabelling p acts diagonally on black and white points; reversing
    # every dart swaps black u with white u
    diagonal = [p + tuple(v + 3 for v in p) for p in _relabellings(3)]
    group = diagonal + [d[3:] + d[:3] for d in diagonal]
    darts = [_lift(rot, _inverse(rot)) for rot in _DARTS3]
    dart_images = _images(darts, group)
    found: dict[bytes, OrientedSTG] = {}
    for r, rot in enumerate(_DARTS3):
        if dart_images[r].min() < r:
            continue
        stabiliser = [group[g] for g in np.flatnonzero(dart_images[r] == r)]
        candidates = [list(classes)] * (n - 2) + [[darts[r]], [top]]
        for ms in _commuting_tuples(candidates, stabiliser):
            if len(component(ms, 0)) == 6:
                ot = OrientedSTG(tables=tuple(classes[m] for m in ms[:-2]), dart=rot)
                _keep_new(found, oriented_canonical_code(ot), ot)
    return [found[code] for code in sorted(found)]


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
    found: dict[bytes, OrientedSTG] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # no odd closed walks rules out semi-edges from the start
        sixes = enumerate_stg(n, 6, filters=(lambda t: not stg_has_odd_closed_walk(t),),
                              fixed_point_free=True)
    for t in sixes:
        m = np.array(t.tables)
        black = np.array(two_colouring(t.tables)) == 0
        rot = np.where(black, m[n - 2][m[n - 1]], m[n - 2])
        *tables, dart = quotient_tables(np.vstack([m[:n - 2], rot]),
                                        np.minimum(np.arange(6), m[n - 1]))
        ot = OrientedSTG(tables=tuple(tables), dart=dart)
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
        [oriented_canonical_code(ot) for ot in oriented[4]],
        [oriented_canonical_code(ot) for ot in oriented_stg3_via_quotient(4)]))
    return checks


def _profile_shape_ok(t: SymmetryTypeGraph) -> bool:
    profile = sorted(transitivity_profile(t))
    if len(profile) <= 2:
        return True
    return len(profile) == 3 and profile[2] - profile[0] == 2
