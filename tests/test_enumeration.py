import warnings
from itertools import permutations

import pytest

from maniplex import enumeration
from maniplex.cli import main
from maniplex.constructions import CORPUS
from maniplex.enumeration import (canonical_code, enumerate_oriented_stg3,
                                  enumerate_stg, involutions, is_fully_transitive,
                                  oriented_canonical_code, oriented_stg3_families,
                                  oriented_stg3_via_quotient, verify_census)
from maniplex.flag_graph import InternalCheckError
from maniplex.stg import (SEMI, ThreeOrbitJ, ThreeOrbitJJ1, TwoOrbit, classify,
                          is_admissible, transitivity_profile)
from oracles import (commute_defect, exhaustive_stg, hand_oriented_stg3, min_code,
                     oriented_min_code, stg_from_slots)


def test_involution_counts():
    # 1, 2, 4, 10, 26 involutions on 1..5 points
    assert [len(involutions(k)) for k in range(1, 6)] == [1, 2, 4, 10, 26]


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
    for n in range(4, 9):
        direct = [oriented_canonical_code(ot) for ot in enumerate_oriented_stg3(n)]
        via = [oriented_canonical_code(ot) for ot in oriented_stg3_via_quotient(n)]
        assert direct == via, n


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
            assert enumerate_stg(n_colours, k, fixed_point_free=fixed_point_free) == \
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
    lifts = [enumeration._lift(t, t) for t in enumeration._INVOLUTIONS3]
    lifts += [enumeration._lift(rot, enumeration._inverse(rot))
              for rot in enumeration._DARTS3]
    for tables in [involutions(k) for k in range(1, 7)] + [list(dict.fromkeys(lifts))]:
        expected = [sum(1 << b for b, mb in enumerate(tables)
                        if commute_defect(ma, mb) is None) for ma in tables]
        assert enumeration._commutation_masks(tables) == expected


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


def test_degenerate_parameters():
    assert len(enumerate_stg(1, 1)) == 1
    assert len(enumerate_stg(1, 2)) == 1  # a single edge
    with pytest.raises(ValueError):
        enumerate_stg(0, 1)


def test_census_report_all_green():
    report = verify_census()
    failed = [str(check) for check in report if not check.passed]
    assert failed == []
