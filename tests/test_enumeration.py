import inspect
import random
import warnings
from itertools import permutations

import numpy as np
import pytest

from maniplex import enumeration
from maniplex.cli import main
from maniplex.constructions import CORPUS
from maniplex.enumeration import (census, enumerate_stg, involutions, is_fully_transitive,
                                  oriented_stg3_via_quotient, verify_census)
from maniplex.flag_graph import InternalCheckError
from maniplex.formats import slot_text
from maniplex.stg import (SEMI, SymmetryTypeGraph, ThreeOrbitJ, ThreeOrbitJJ1, TwoOrbit,
                          class_labels, classify, transitivity_profile)
from oracles import (canonical_code, commute_defect, component, enumerate_oriented_stg3,
                     exhaustive_stg, hand_oriented_stg3, hand_quotient_route, is_admissible,
                     loop_least_code, min_code, oriented_canonical_code, oriented_min_code,
                     oriented_stg3_families, recursive_commuting_tuples, recursive_involutions,
                     stg_from_slots)


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
        assert graphs[0].slots == ((SEMI,) * n,)


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
    # every colour count verify_census reports
    for n in range(4, 11):
        direct = [oriented_canonical_code(ot) for ot in enumerate_oriented_stg3(n)]
        via = [oriented_canonical_code(ot) for ot in oriented_stg3_via_quotient(n)]
        assert direct == via, n


def test_quotient_route_matches_the_hand_formula():
    # the oriented di-graph on the census's sides gives the quotients the
    # hand-read dart gave: the same representatives in the same order
    for n in range(4, 11):
        assert oriented_stg3_via_quotient(n) == hand_quotient_route(n), n


def test_oriented_census_matches_hand_derived_search():
    # same classes, order and representatives; codes equal the k! oracle's
    for n in range(4, 13):
        census = enumerate_oriented_stg3(n)
        assert census == hand_oriented_stg3(n), n
        assert [oriented_canonical_code(ot) for ot in census] == [
            oriented_min_code(ot) for ot in census], n


@pytest.mark.parametrize("n_colours,k", [(3, 4), (4, 4), (3, 5), (4, 5), (5, 4), (6, 4),
                                         (5, 5), (6, 3), (3, 6)])
def test_canonical_code_matches_all_relabellings(n_colours, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graphs = enumerate_stg(n_colours, k)
    assert [canonical_code(t) for t in graphs] == [min_code(t.slots) for t in graphs]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_orderly_search_matches_exhaustive_search(k):
    # same classes, representatives and order as keeping the first
    # labelled tuple met of each canonical code
    for n_colours in range(1, 7):
        for fixed_point_free in (False, True):
            assert enumeration._census((n_colours,), k, (), fixed_point_free)[n_colours][0] == \
                exhaustive_stg(n_colours, k, fixed_point_free), (n_colours, fixed_point_free)


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
    """The distinct lifts of the three-vertex oriented census: classes, then darts."""
    rots = sorted(permutations(range(3)), key=enumeration._dart_order)
    lifts = [enumeration._lift(t, t) for t in rots if t in involutions(3)]
    lifts += [enumeration._lift(rot, np.argsort(rot).tolist()) for rot in rots]
    return list(dict.fromkeys(lifts))


def check_levels(tables, lists, relabellings):
    """Every level of the array search against the recursive oracle run
    to that depth, and each row's allowed tables against the pairs."""
    commutes = np.array([[commute_defect(ma, mb) is None for mb in tables] for ma in tables])
    levels = enumeration._commuting_tuples(np.array(tables, np.uint8), lists, relabellings)
    depth = 0
    for depth, (rows, allowed) in enumerate(levels, 1):
        expected = list(recursive_commuting_tuples(tables, lists[:depth], relabellings))
        assert rows.dtype == np.int16 and rows.shape == (len(expected), depth)
        assert list(map(tuple, rows.tolist())) == expected, depth
        assert np.array_equal(allowed, commutes[rows[:, :-1]].all(axis=1)), depth
    assert depth == len(lists)


@pytest.mark.parametrize("k", range(1, 7))
def test_every_level_matches_the_recursive_search(k):
    choices = involutions(k)
    check_levels(choices, [list(range(len(choices)))] * 6, enumeration._relabellings(k))


def test_levels_match_the_recursive_search_without_fixed_points():
    choices = [m for m in involutions(6) if all(m[v] != v for v in range(6))]
    check_levels(choices, [list(range(len(choices)))] * 6, enumeration._relabellings(6))
    for n in range(1, 4):  # no candidate at all on an odd number of points
        assert enumeration._census((n,), 3, (), True)[n][0] == []


def test_oriented_levels_match_the_recursive_search_under_each_dart():
    # the class lifts under each dart's stabiliser of relabellings and
    # reversal, with the dart and top tables among the candidates
    tables, k = oriented_tables(), 3
    classes = tables[:len(involutions(3))]  # oriented_tables puts the classes first
    diagonal = [p + tuple(v + k for v in p) for p in enumeration._relabellings(k)]
    group = diagonal + [d[k:] + d[:k] for d in diagonal]
    top = enumeration._lift(range(k), range(k))
    for dart in tables[len(classes):]:
        stabiliser = [g for g in group if all(dart[g[u]] == g[dart[u]] for u in range(2 * k))]
        lifts = list(dict.fromkeys(classes + [dart, top]))
        check_levels(lifts, [list(range(len(classes)))] * 7, stabiliser)


@pytest.mark.parametrize("k", range(1, 6))
def test_one_search_gives_every_colour_count(k):
    shared = enumeration._census(range(1, 8), k)
    assert sorted(shared) == list(range(1, 8))
    for n, (graphs, stack) in shared.items():
        alone = enumerate_stg(n, k)
        assert [t.tables for t in graphs] == [t.tables for t in alone], n
        assert stack.tolist() == [list(map(list, t.tables)) for t in alone], n


def test_one_search_gives_every_colour_count_without_fixed_points():
    shared = enumeration._census(range(1, 6), 6, fixed_point_free=True)
    for n in range(1, 6):
        alone = enumeration._census((n,), 6, (), True)[n][0]
        assert [t.tables for t in shared[n][0]] == [t.tables for t in alone], n


def test_one_search_per_dart_gives_every_oriented_colour_count():
    shared = enumeration._oriented_census(range(4, 13))
    for n in range(4, 13):
        assert shared[n] == enumerate_oriented_stg3(n), n


def test_dart_order_is_moved_points_then_cycle_notation():
    # at three points: the identity, (0 1), (0 2), (1 2), (0 1 2), (0 2 1),
    # the order the oriented census's representatives rest on
    rots = sorted(permutations(range(3)), key=enumeration._dart_order)
    assert rots == [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    assert [enumeration._dart_order(p)[0] for p in permutations(range(4))].count(4) == 9
    assert enumeration._dart_order((1, 2, 3, 0, 5, 4)) == (6, [[0, 1, 2, 3], [4, 5]])


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
    with pytest.warns(UserWarning, match="may be slow") as record:
        line = inspect.currentframe().f_lineno + 1
        graphs, _ = census(1, 6)
    assert graphs == []
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]


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
        assert oriented_stg3_via_quotient(4)
    failed = [str(check) for check in report if not check.passed]
    assert failed == []


def test_enumerate_raises_on_an_inadmissible_class(monkeypatch):
    # the search itself keeps only commuting tuples; one that does not
    # commute must be caught by the check of the class list
    inv = involutions(3)
    a, b = inv.index((1, 0, 2)), inv.index((0, 2, 1))

    def levels(tables, lists, relabellings):
        for depth in range(1, 4):
            yield np.array([[a, a, b][:depth]], np.int16), np.ones((1, len(tables)), bool)

    monkeypatch.setattr(enumeration, "_commuting_tuples", levels)
    with pytest.raises(InternalCheckError, match=r"bad \(0,2\) 2-factor at vertex 0"):
        enumerate_stg(3, 3)


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

    def twice(tables, lists, relabellings):
        # each level's tuples, then its last connected one again
        for rows, allowed in search(tables, lists, relabellings):
            last = [t for t, row in enumerate(rows.tolist())
                    if len(component(tables[row].tolist(), 0)) == tables.shape[1]][-1:]
            yield np.vstack([rows, rows[last]]), np.vstack([allowed, allowed[last]])

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
