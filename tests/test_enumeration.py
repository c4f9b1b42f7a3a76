import inspect
import random
import warnings
from itertools import combinations, permutations, product

import numpy as np
import pytest

from maniplex import enumeration
from maniplex.cli import main
from maniplex.constructions import CORPUS
from maniplex.enumeration import (CensusCheck, census, enumerate_stg, involutions,
                                  is_fully_transitive, oriented_stg_via_quotient, verify_census)
from maniplex.flag_graph import InternalCheckError
from maniplex.formats import slot_text
from maniplex.oriented import classify_oriented, oriented_digraph
from maniplex.stg import (SEMI, SymmetryTypeGraph, ThreeOrbitJ, ThreeOrbitJJ1, TwoOrbit,
                          bipartition, class_labels, classify, transitivity_profile)
from oracles import (_lift, canonical_code, commute_defect, component, enumerate_oriented_stg3,
                     exhaustive_stg, fixed_point_free_levels, hand_oriented_stg3,
                     hand_quotient_route, is_admissible, loop_least_code, min_code,
                     oriented_canonical_code, oriented_min_code, oriented_stg3_families,
                     recursive_commuting_tuples, recursive_involutions, stg_from_slots)


def test_involution_counts():
    # 1, 2, 4, 10, 26 involutions on 1..5 points
    assert [len(involutions(k)) for k in range(1, 6)] == [1, 2, 4, 10, 26]


def test_involutions_match_the_recursion_in_increasing_order():
    for k in range(1, 9):
        found = involutions(k)
        assert found == recursive_involutions(k), k
        assert all(a < b for a, b in zip(found, found[1:])), k


def test_one_vertex_count():
    for n in range(1, 7):
        graphs = enumerate_stg(n, 1)
        assert len(graphs) == 1
        assert graphs[0].slots == [[SEMI] * n]


def test_two_vertex_counts():
    for n in (3, 4, 5, 6):
        assert len(enumerate_stg(n, 2)) == 2 ** n - 1


def test_three_vertex_counts():
    for n in range(3, 7):
        assert len(enumerate_stg(n, 3)) == 2 * n - 3


def test_four_orbit_fully_transitive_count():
    assert len(enumerate_stg(4, 4, filters=(is_fully_transitive,))) == 20


def test_no_fully_transitive_three_orbit():
    for n in range(3, 7):
        assert enumerate_stg(n, 3, filters=(is_fully_transitive,)) == []


def test_no_fully_transitive_five_orbit_rank3():
    assert enumerate_stg(4, 5, filters=(is_fully_transitive,)) == []


def test_all_enumerated_admissible_and_classified():
    for t in enumerate_stg(4, 2):
        assert is_admissible(t)
        assert isinstance(classify(t), TwoOrbit)
    for t in enumerate_stg(4, 3):
        assert is_admissible(t)
        assert isinstance(classify(t), (ThreeOrbitJ, ThreeOrbitJJ1))


def test_three_orbit_classes_cover_both_patterns():
    kinds = {type(classify(t)) for t in enumerate_stg(5, 3)}
    assert kinds == {ThreeOrbitJ, ThreeOrbitJJ1}


def test_canonical_code_relabelling_invariance():
    t1 = stg_from_slots((
        (SEMI, 1, SEMI), (SEMI, 0, 2), (SEMI, SEMI, 1)))
    # t1 with vertices relabelled by 0->1, 1->2, 2->0
    t2 = stg_from_slots((
        (SEMI, SEMI, 2), (SEMI, 2, SEMI), (SEMI, 1, 0)))
    assert canonical_code(t1) == canonical_code(t2)


def test_canonical_code_is_colour_sensitive():
    t01 = stg_from_slots((
        (1, SEMI, SEMI), (0, 2, SEMI), (SEMI, 1, SEMI)))
    t12 = stg_from_slots((
        (SEMI, 1, SEMI), (SEMI, 0, 2), (SEMI, SEMI, 1)))
    assert classify(t01) == ThreeOrbitJJ1(0)
    assert classify(t12) == ThreeOrbitJJ1(1)
    assert canonical_code(t01) != canonical_code(t12)


def test_enumeration_sorted_and_unique():
    graphs = enumerate_stg(4, 3)
    codes = [canonical_code(t) for t in graphs]
    assert codes == sorted(codes)
    assert len(codes) == len(set(codes))


def test_corpus_quotients_appear_in_enumeration(corpus):
    tables = {}
    for label in CORPUS:
        t = corpus.stg(label)
        key = (t.rank, t.vertex_count)
        if key not in tables:
            tables[key] = {canonical_code(x) for x in enumerate_stg(*key)}
        assert canonical_code(t) in tables[key], label


def test_four_orbit_component_bounds_and_profiles():
    from maniplex.stg import face_orbit_splits

    graphs = enumerate_stg(4, 4)
    assert len(graphs) > 20
    for t in graphs:
        for i in range(t.rank):
            sizes = face_orbit_splits(t, i)
            assert 1 <= len(sizes) <= 3
        profile = sorted(transitivity_profile(t))
        assert len(profile) <= 3
        if len(profile) == 3:
            assert profile[2] - profile[0] == 2


def test_oriented_three_vertex_totals():
    expected = {4: 6, 5: 9, 6: 10, 7: 11, 8: 13, 9: 15, 10: 17}
    for n, want in expected.items():
        assert len(enumerate_oriented_stg3(n)) == want, n


def test_oriented_family_counts():
    for n in range(7, 11):
        groups = oriented_stg3_families(n)
        assert len(groups["three_loops"]) == 2 * n - 7
        assert len(groups["two_cycle_loop"]) == 2


def test_oriented_small_rank_specials_present():
    # the exceptional dart-3-cycle graphs with consecutive edges
    for n, cyc3 in ((4, 3), (5, 4), (6, 3), (7, 2)):
        assert len(oriented_stg3_families(n)["three_cycle"]) == cyc3


def test_oriented_direct_route_matches_quotient_route():
    # every colour count verify_census reports, and the two below it
    direct = enumeration._oriented_census(range(2, 11), 3)
    for n in range(2, 11):
        assert oriented_codes(direct[n]) == oriented_codes(oriented_stg_via_quotient(n, 3)), n


def oriented_codes(ots):
    return [oriented_canonical_code(ot) for ot in ots]


def test_quotient_route_matches_the_hand_formula():
    # the oriented di-graph of each cover gives the classes that the
    # hand-read dart on its top-colour pairs gives, in the same order
    for n in range(4, 11):
        assert oriented_codes(oriented_stg_via_quotient(n, 3)) == \
            oriented_codes(hand_quotient_route(n)), n


def test_no_cover_and_no_level_give_no_class():
    # one fixed-point-free matching cannot connect six points, and the
    # direct search's first level, the dart alone, is two colours
    assert oriented_stg_via_quotient(1, 3) == []
    census = enumeration._oriented_census([1, 2], 3)
    assert census[1] == [] and enumeration._oriented_codes([]).size == 0
    # at two colours both routes find the directed 3-cycle, and it alone
    (cycle,) = census[2]
    assert cycle.tables.shape == (0, 3) and cycle.dart.tolist() in ([1, 2, 0], [2, 0, 1])
    assert oriented_codes([cycle]) == oriented_codes(oriented_stg_via_quotient(2, 3))


def test_two_vertex_oriented_classes_are_the_proper_subsets_of_the_colours():
    # the oriented 2-orbit classification: 2⁺_I for each proper subset I
    # of {0, ..., n-2}, the colours with a semi-edge or a loop, each once
    census = enumeration._oriented_census(range(2, 9), 2)
    for n in range(2, 9):
        subsets = [s for size in range(n - 1) for s in combinations(range(n - 1), size)]
        expected = ["2⁺_{" + ",".join(map(str, s)) + "}" if s else "2⁺_∅" for s in subsets]
        labels = [classify_oriented(ot).label() for ot in census[n]]
        assert len(labels) == 2 ** (n - 1) - 1 and sorted(labels) == sorted(expected), n
        assert oriented_codes(census[n]) == oriented_codes(oriented_stg_via_quotient(n, 2)), n


def test_four_vertex_oriented_routes_agree():
    census = enumeration._oriented_census(range(3, 6), 4)
    assert [len(census[n]) for n in range(3, 6)] == [10, 39, 113]
    for n in range(3, 6):
        assert oriented_codes(census[n]) == oriented_codes(oriented_stg_via_quotient(n, 4)), n


def test_one_vertex_oriented_census_is_rotary_and_the_cross_check_refuses_it():
    # the cross-check's oriented di-graph would be a flag graph on one flag
    census = enumeration._oriented_census(range(2, 7), 1)
    assert [[classify_oriented(ot).label() for ot in census[n]] for n in range(2, 7)] == \
        [["rotary"]] * 5
    with pytest.raises(ValueError, match="at least two vertices, not 1"):
        oriented_stg_via_quotient(3, 1)


def test_the_cross_check_reads_the_bipartite_classes_without_semi_edges(monkeypatch):
    # each cover the cross-check orients is a class of the exhaustive
    # search without fixed points, and each bipartite class is read once
    read = []

    def reading(g, parity):
        read.append(canonical_code(SymmetryTypeGraph(g.adj)))
        return oriented_digraph(g, parity)

    monkeypatch.setattr(enumeration, "oriented_digraph", reading)
    for n in range(3, 6):
        read.clear()
        oriented_stg_via_quotient(n, 3)
        expected = {canonical_code(t) for t in exhaustive_stg(n, 6, True)
                    if bipartition(t) is not None}
        assert len(read) == len(set(read)) and set(read) == expected, n


def test_oriented_census_matches_hand_derived_search():
    # same classes in the same order; codes equal the k! oracle's
    for n in range(4, 13):
        census = enumerate_oriented_stg3(n)
        codes = oriented_codes(census)
        assert codes == [oriented_min_code(ot) for ot in hand_oriented_stg3(n)], n
        assert codes == [oriented_min_code(ot) for ot in census], n


@pytest.mark.parametrize("n_colours,k", [(3, 4), (4, 4), (3, 5), (4, 5), (5, 4), (6, 4),
                                         (5, 5), (6, 3), (3, 6)])
def test_canonical_code_matches_all_relabellings(n_colours, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graphs = enumerate_stg(n_colours, k)
    assert [canonical_code(t) for t in graphs] == [min_code(t.slots) for t in graphs]


def check_fixed_point_free_levels(k, colours):
    """Each level of the cross-check's search on k points: one tuple per
    class, the first labelled tuple met of each canonical code."""
    for n, level in enumerate(fixed_point_free_levels(k, colours), 1):
        expected = [t.tables.tolist() for t in exhaustive_stg(n, k, True)]
        assert sorted(level.tolist()) == sorted(expected), (k, n)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_orderly_search_matches_exhaustive_search(k):
    # same classes, representatives and order as keeping the first
    # labelled tuple met of each canonical code; without fixed points,
    # the cross-check's search, the same classes and representatives
    for n_colours in range(1, 7):
        assert enumerate_stg(n_colours, k) == exhaustive_stg(n_colours, k), n_colours
    check_fixed_point_free_levels(k, 6)


@pytest.mark.parametrize("n_colours,k", [(3, 5), (4, 4), (5, 4)])
def test_representatives_are_least_among_relabellings(n_colours, k):
    position = {m: j for j, m in enumerate(involutions(k))}
    for t in enumerate_stg(n_colours, k):
        tables = t.tables
        own = [position[tuple(m)] for m in tables]
        for p in permutations(range(k)):
            image = [0] * k
            relabelled = []
            for m in tables:
                for u in range(k):
                    image[p[u]] = p[m[u]]
                relabelled.append(position[tuple(image)])
            assert own <= relabelled, (t, p)


def test_commutation_masks_match_pairwise_defects():
    # the one-array commutation table against one commute_defect per pair,
    # on every involution list up to six points and on the oriented lifts
    for tables in [involutions(k) for k in range(1, 7)] + [oriented_tables()]:
        expected = [[commute_defect(ma, mb) is None for mb in tables] for ma in tables]
        assert enumeration._commutes(np.array(tables, np.uint8)).tolist() == expected


def oriented_tables():
    """The distinct double-cover lifts of the three-vertex oriented
    quotients: classes, then darts."""
    lifts = [_lift(t, t) for t in involutions(3)]
    lifts += [_lift(rot, np.argsort(rot).tolist()) for rot in permutations(range(3))]
    return list(dict.fromkeys(lifts))


def check_levels(tables, colours, relabellings):
    """Every level of the array search against the recursive oracle run
    to that depth over the one candidate list."""
    levels = enumeration._commuting_tuples(np.array(tables, np.uint8), colours, relabellings)
    depth = 0
    for depth, rows in enumerate(levels, 1):
        lists = [list(range(len(tables)))] * depth
        expected = list(recursive_commuting_tuples(tables, lists, relabellings))
        assert rows.dtype == np.int16 and rows.shape == (len(expected), depth)
        assert list(map(tuple, rows.tolist())) == expected, depth
    assert depth == colours


@pytest.mark.parametrize("k", range(1, 7))
def test_every_level_matches_the_recursive_search(k):
    check_levels(involutions(k), 6, enumeration._relabellings(k))


def test_levels_match_the_recursive_search_without_fixed_points():
    choices = [m for m in involutions(6) if all(m[v] != v for v in range(6))]
    check_levels(choices, 6, enumeration._relabellings(6))
    check_fixed_point_free_levels(3, 3)  # no candidate at all on an odd number of points


def test_oriented_levels_match_the_recursive_search_under_each_dart():
    # the three-point classes under each dart's relabelling stabiliser:
    # the p with p rot p^-1 equal to rot or to rot^-1
    classes = involutions(3)
    for rot in permutations(range(3)):
        inverse = tuple(np.argsort(rot).tolist())
        stabiliser = [p for p in enumeration._relabellings(3)
                      if tuple(p[rot[p.index(u)]] for u in range(3)) in (rot, inverse)]
        check_levels(classes, 7, stabiliser)


@pytest.mark.parametrize("k", range(1, 5))
def test_the_k_point_relations_are_the_double_cover_commutations(k):
    # s t = t s exactly when the class lifts commute, and t rot t = rot^-1
    # exactly when the class lift commutes with the dart's lift; the top
    # table commutes with every class lift
    classes, identity = involutions(k), tuple(range(k))
    for s in classes:
        assert commute_defect(_lift(s, s), _lift(identity, identity)) is None, s
        for t in classes:
            commute = all(s[t[u]] == t[s[u]] for u in range(k))
            assert commute == (commute_defect(_lift(s, s), _lift(t, t)) is None), (s, t)
    for rot in permutations(range(k)):
        dart = _lift(rot, np.argsort(rot).tolist())
        for t in classes:
            inverts = tuple(t[rot[t[u]]] for u in range(k)) == tuple(np.argsort(rot).tolist())
            assert inverts == (commute_defect(_lift(t, t), dart) is None), (t, rot)


@pytest.mark.parametrize("k", range(1, 5))
def test_a_cover_connects_exactly_when_its_classes_and_dart_connect_the_k_points(k):
    # the cover: the class and dart lifts, then the top table joining u to u + k
    classes, identity = involutions(k), tuple(range(k))
    for rot in permutations(range(k)):
        dart = _lift(rot, np.argsort(rot).tolist())
        for n in range(0, 3):
            for ts in product(classes, repeat=n):
                cover = [_lift(t, t) for t in ts] + [dart, _lift(identity, identity)]
                assert (len(component(cover, 0)) == 2 * k) == (
                    len(component(list(ts) + [rot], 0)) == k), (ts, rot)


@pytest.mark.parametrize("k", range(1, 6))
def test_one_search_gives_every_colour_count(k):
    shared = enumeration._census(range(1, 8), k)
    assert sorted(shared) == list(range(1, 8))
    for n, (graphs, stack) in shared.items():
        alone = enumerate_stg(n, k)
        assert [t.tables.tolist() for t in graphs] == [t.tables.tolist() for t in alone], n
        assert stack.tolist() == [list(map(list, t.tables)) for t in alone], n


def test_one_search_gives_every_colour_count_without_fixed_points():
    check_fixed_point_free_levels(6, 5)


def test_one_search_per_dart_gives_every_oriented_colour_count():
    shared = enumeration._oriented_census(range(4, 13), 3)
    for n in range(4, 13):
        assert shared[n] == enumerate_oriented_stg3(n), n


def test_labelled_copies_fail_the_internal_check(monkeypatch, capsys):
    # with the identity as the only relabelling every labelled copy of a
    # class is emitted, and the census meets some class twice
    monkeypatch.setattr(enumeration, "_relabellings", lambda k: [tuple(range(k))])
    with pytest.raises(InternalCheckError):
        enumerate_stg(3, 3)
    with pytest.raises(InternalCheckError):
        enumerate_oriented_stg3(4)
    assert main(["enumerate", "--colors", "3", "--vertices", "3"]) == 4
    assert "internal check failed:" in capsys.readouterr().err


def test_oriented_rejects_small_rank():
    with pytest.raises(ValueError):
        enumerate_oriented_stg3(3)


def test_large_vertex_count_warns():
    with pytest.warns(UserWarning):
        graphs = enumerate_stg(1, 6)
    assert graphs == []  # one matching cannot connect six vertices


def test_large_vertex_count_warns_at_the_calling_line():
    # each public entry point warns at the line that called it
    with pytest.warns(UserWarning, match="may be slow") as record:
        line = inspect.currentframe().f_lineno + 1
        graphs, _ = census(1, 6)
        assert enumerate_stg(1, 6) == graphs == []
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line), (__file__, line + 1)]


def test_census_refuses_more_candidates_than_int16_rows_index(monkeypatch):
    # 35,696 involutions on 11 points, 9,496 on 10; refused before any is listed
    def unlisted(k):
        raise AssertionError(f"involutions({k}) listed")

    monkeypatch.setattr(enumeration, "involutions", unlisted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before the k > 5 warning
        with pytest.raises(ValueError, match="^35,696 involutions on 11"):
            census(3, 11)
        with pytest.raises(ValueError, match="^140,152 involutions on 12"):
            census(3, 12)
    monkeypatch.undo()
    assert len(involutions(10)) == 9496 <= np.iinfo(np.int16).max < len(recursive_involutions(11))


def test_code_order_raises_on_a_repeated_row():
    codes = np.array([[1, 2], [0, 3], [1, 2]], np.uint8)
    assert enumeration._code_order(codes[:2]) == [1, 0]
    with pytest.raises(InternalCheckError, match="twice"):
        enumeration._code_order(codes)


def test_degenerate_parameters():
    assert len(enumerate_stg(1, 1)) == 1
    assert len(enumerate_stg(1, 2)) == 1  # a single edge
    with pytest.raises(ValueError):
        enumerate_stg(0, 1)


def test_census_report_all_green():
    # the report and its cross-check route raise no warning at all
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_census()
        assert oriented_stg_via_quotient(4, 3)
    failed = [str(check) for check in report if not check.passed]
    assert failed == []


def test_census_check_lines():
    assert str(CensusCheck("k=1 types, 3 colours", 1, 1)) == \
        "[ok] k=1 types, 3 colours: expected 1, got 1"
    assert str(CensusCheck("k=3 types, 4 colours", 5, 4)) == \
        "[FAIL] k=3 types, 4 colours: expected 5, got 4"


def test_enumerate_raises_on_an_inadmissible_class(monkeypatch):
    # the search itself keeps only commuting tuples; one that does not
    # commute must be caught by the check of the class list
    inv = involutions(3)
    a, b = inv.index((1, 0, 2)), inv.index((0, 2, 1))

    def levels(tables, colours, relabellings):
        for depth in range(1, 4):
            yield np.array([[a, a, b][:depth]], np.int16)

    monkeypatch.setattr(enumeration, "_commuting_tuples", levels)
    with pytest.raises(InternalCheckError, match=r"bad \(0,2\) 2-factor at vertex 0"):
        enumerate_stg(3, 3)


def test_the_cross_check_raises_on_a_cover_that_fails_to_commute(monkeypatch):
    # the search keeps only commuting tuples; a connected cover whose
    # colours 0 and 2 do not commute must be caught before it is read
    fixed_point_free = [m for m in involutions(6) if all(m[u] != u for u in range(6))]
    a, b = fixed_point_free.index((1, 0, 3, 2, 5, 4)), fixed_point_free.index((5, 2, 1, 4, 3, 0))

    def level(tables, colours, relabellings):
        yield np.array([[a, b, b]], np.int16)

    monkeypatch.setattr(enumeration, "_commuting_tuples", level)
    with pytest.raises(InternalCheckError, match=r"fails to commute: \(0, 0, 2, 0\)"):
        oriented_stg_via_quotient(3, 3)


# enumeration._least_codes against the per-class rooted codes and the k!
# relabellings it replaced


def least_codes(tuples, semi):
    """``_least_codes`` of a list of tuples, each its only variant."""
    return enumeration._least_codes(np.array(tuples)[:, None], semi)


CODE_GRID = ([(n, 4) for n in range(3, 9)] + [(n, 5) for n in range(3, 7)]
             + [(n, 6) for n in range(3, 6)] + [(3, 7)])


@pytest.mark.parametrize("n_colours,k", CODE_GRID)
def test_least_codes_match_the_loops_on_every_class(n_colours, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graphs = enumerate_stg(n_colours, k)
    codes = least_codes([t.tables for t in graphs], n_colours)
    assert codes.dtype == np.uint8 and codes.shape == (len(graphs), n_colours * k)
    for t, code in zip(graphs, codes):
        assert code.tobytes() == loop_least_code(t.tables, n_colours) == min_code(t.slots), t


def random_connected_tuple(rng, colours, k, semi):
    """Random tables on k points connecting them: involutions in the first
    ``semi`` colours (fixed points are semi-edges), permutations after."""
    while True:
        tables = []
        for c in range(colours):
            points = list(range(k))
            rng.shuffle(points)
            m = list(range(k))
            if c < semi:
                for u, v in zip(points[::2], points[1::2]):
                    if rng.random() < 0.7:
                        m[u], m[v] = v, u
            else:
                m = points
            tables.append(tuple(m))
        if len(component(tables, 0)) == k:
            return tuple(tables)


def test_least_codes_match_the_loop_on_random_tuples():
    # one tuple at a time and in batches of one shape, with semi < colours
    rng = random.Random(14)
    batches = {}
    for _ in range(2000):
        colours, k = rng.randint(1, 5), rng.randint(1, 9)
        semi = rng.randrange(colours)
        tables = random_connected_tuple(rng, colours, k, semi)
        expected = loop_least_code(tables, semi)
        assert least_codes([tables], semi)[0].tobytes() == expected, tables
        batches.setdefault((colours, k, semi), []).append((tables, expected))
    for (colours, k, semi), batch in batches.items():
        codes = least_codes([tables for tables, _ in batch], semi)
        assert [code.tobytes() for code in codes] == [expected for _, expected in batch]


def test_least_codes_raise_on_a_disconnected_tuple_in_a_batch():
    graphs = enumerate_stg(4, 4)
    tables = [t.tables for t in graphs]
    split = ((1, 0, 3, 2),) * 4  # two components {0, 1} and {2, 3}
    for position in (0, 1, len(tables) // 2, len(tables)):
        with pytest.raises(ValueError, match="connected"):
            least_codes(tables[:position] + [split] + tables[position:], 4)
    with pytest.raises(ValueError, match="connected"):
        least_codes([split], 4)


def path(k):
    """Two colours alternating along a path on k vertices, semi-edges at
    its ends."""
    def partner(u, odd):
        v = u + 1 if u % 2 == odd else u - 1
        return v if 0 <= v < k else u
    return tuple(partner(u, 0) for u in range(k)), tuple(partner(u, 1) for u in range(k))


@pytest.mark.parametrize("k", [255, 256, 257])
def test_codes_label_at_most_255_vertices(k):
    tables = path(k)
    flipped = tuple(tuple(k - 1 - m[k - 1 - u] for u in range(k)) for m in tables)
    t = enumeration.SymmetryTypeGraph(tables)
    if k == 255:
        code = canonical_code(t)
        assert code == loop_least_code(tables, 2) and code.count(255) == 2
        codes = least_codes([tables, flipped, tables], 2)
        assert [c.tobytes() for c in codes] == [code] * 3
        return
    with pytest.raises(ValueError, match="255"):
        canonical_code(t)
    with pytest.raises(ValueError, match="255"):
        least_codes([tables, flipped, tables], 2)


def test_oriented_codes_match_all_relabellings_in_one_pass():
    for n in range(4, 11):
        census = enumerate_oriented_stg3(n)
        codes = enumeration._oriented_codes(census)
        assert [code.tobytes() for code in codes] == [oriented_min_code(ot) for ot in census], n


def test_a_class_met_twice_fails_the_internal_check(monkeypatch, capsys):
    search = enumeration._commuting_tuples

    def twice(tables, colours, relabellings):
        # each level's tuples, then its last connected one again
        for rows in search(tables, colours, relabellings):
            last = [t for t, row in enumerate(rows.tolist())
                    if len(component(tables[row].tolist(), 0)) == tables.shape[1]][-1:]
            yield np.vstack([rows, rows[last]])

    monkeypatch.setattr(enumeration, "_commuting_tuples", twice)
    with pytest.raises(InternalCheckError, match="twice"):
        enumerate_stg(3, 3)
    assert main(["enumerate", "--colors", "4", "--vertices", "4", "--count-only"]) == 4
    assert "internal check failed:" in capsys.readouterr().err


# the census CSV's array routes against classify and the slots, class by class


def slots_line(t) -> str:
    return ";".join(" ".join(map(str, row)) for row in t.slots)


@pytest.mark.parametrize("n_colours, k",
                         [(n, k) for n in range(1, 8) for k in range(1, 5)] + [(4, 5), (3, 6)])
def test_labels_and_slot_text_match_classify_and_the_slots(n_colours, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graphs, stack = census(n_colours, k)
    assert stack.tolist() == [list(map(list, t.tables)) for t in graphs]
    # each label against classify on an unchecked copy, which shares no facts
    assert class_labels(graphs) == [classify(SymmetryTypeGraph(t.tables)).label()
                                    for t in graphs]
    assert slot_text(stack) == [slots_line(t) for t in graphs]


def test_filtered_census_keeps_the_stack_in_step():
    for filters in [(is_fully_transitive,), (lambda t: not is_fully_transitive(t),),
                    (is_fully_transitive, lambda t: 2 in t.tables[0])]:
        graphs, stack = census(5, 4, filters)
        assert graphs == [t for t in enumerate_stg(5, 4) if all(p(t) for p in filters)]
        assert stack.tolist() == [list(map(list, t.tables)) for t in graphs]


def test_slot_text_writes_two_digit_vertices_and_semi_edges():
    rng, graphs = random.Random(18), []
    for _ in range(60):  # five random involutions on 12 points, fixed points included
        tables = []
        for _ in range(5):
            points, m = rng.sample(range(12), 12), list(range(12))
            for u, v in zip(points[:rng.randint(0, 6)], points[6:]):
                m[u], m[v] = v, u
            tables.append(tuple(m))
        graphs.append(SymmetryTypeGraph(tuple(tables)))
    text = slot_text(np.array([t.tables for t in graphs], np.uint8))
    assert text == [slots_line(t) for t in graphs]
    assert any("-1" in line for line in text) and any("11" in line for line in text)
