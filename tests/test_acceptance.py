"""Acceptance suite: one test per criterion, exact expectations throughout.

Each test prints a single PASS line once its assertions hold; run with
``pytest -s tests/test_acceptance.py`` to see the checklist.
"""

import random

import numpy as np

from maniplex.constructions import CORPUS
from maniplex.enumeration import enumerate_stg, is_fully_transitive
from maniplex.flag_graph import validate
from maniplex.oriented import (aut_plus, black_orbit_count, is_chiral_a_la_conway,
                               orientation, oriented_stg, classify_oriented,
                               stg_has_odd_closed_walk, Rotary)
from maniplex.stg import (FourOrbitFamily, Regular, ThreeOrbitJJ1, TwoOrbit,
                          classify, face_orbit_splits, transitivity_profile)
from maniplex.walkgen import generates_full_group, realize_generators, reduce_generators
from oracles import (closure, enumerate_oriented_stg3, i_faces, is_admissible,
                     oriented_stg3_families, verify_face_projection)


def test_criterion_1_axiom_suite(corpus):
    for label in CORPUS:
        assert validate(corpus.graph(label)) == [], label
    assert orientation(corpus.graph("hemicube")) is None
    print("criterion 1 PASS: all corpus constructions valid; hemicube not orientable")


def test_criterion_2_orbit_identities(corpus):
    for label in CORPUS:
        g = corpus.graph(label)
        a = corpus.aut(label)
        assert a.order * a.orbit_count == g.flag_count, label
    expected = {
        "cube": (48, 1),
        "cuboctahedron": (48, 2),
        "prism:3": (12, 3),
        "pyramid:4": (8, 4),
        "torus44:1,2": (20, 2),
    }
    for label, (order, k) in expected.items():
        a = corpus.aut(label)
        assert (a.order, a.orbit_count) == (order, k), label
    print("criterion 2 PASS: |Aut| x k = flag count on the corpus; pinned orders match")


def test_criterion_3_classification(corpus):
    assert classify(corpus.stg("cube")) == Regular()
    assert classify(corpus.stg("cuboctahedron")) == TwoOrbit(frozenset({0, 1}))
    assert classify(corpus.stg("prism:3")) == ThreeOrbitJJ1(1)
    assert classify(corpus.stg("torus44:1,2")) == TwoOrbit(frozenset())
    cls = classify(corpus.stg("pyramid:4"))
    assert isinstance(cls, FourOrbitFamily)
    assert cls.profile == frozenset({0, 1, 2})
    print("criterion 3 PASS: regular / 2_{0,1} / 3^{1,2} / 2_∅ / 4-orbit labels as expected")


def test_criterion_4_census_counts():
    for n in range(3, 7):
        assert len(enumerate_stg(n, 1)) == 1
    assert [len(enumerate_stg(n, 2)) for n in (3, 4, 5)] == [7, 15, 31]
    assert [len(enumerate_stg(n, 3)) for n in (3, 4, 5, 6)] == [3, 5, 7, 9]
    assert len(enumerate_stg(4, 4, filters=(is_fully_transitive,))) == 20
    print("criterion 4 PASS: census counts 1 / 2^n-1 / 2n-3 / 20")


def test_criterion_5_theorem_checks():
    for n in range(3, 7):
        assert enumerate_stg(n, 3, filters=(is_fully_transitive,)) == []
    assert enumerate_stg(4, 3, filters=(is_fully_transitive,)) == []
    assert enumerate_stg(4, 5, filters=(is_fully_transitive,)) == []
    for t in enumerate_stg(4, 4):
        for i in range(t.rank):
            assert 1 <= len(face_orbit_splits(t, i)) <= 3
        profile = sorted(transitivity_profile(t))
        assert len(profile) <= 3
        if len(profile) == 3:
            assert profile[2] - profile[0] == 2
    print("criterion 5 PASS: no fully-transitive types at k=3 or k=5; "
          "4-vertex profiles within the four cases")


def test_criterion_6_generator_theorem(corpus):
    for label in CORPUS:
        g, a, t = corpus.graph(label), corpus.aut(label), corpus.stg(label)
        assert generates_full_group(realize_generators(a, t), a), label
    g, a, t = (corpus.graph("cuboctahedron"), corpus.aut("cuboctahedron"),
               corpus.stg("cuboctahedron"))
    s = realize_generators(a, t)
    assert s.words == [(0,), (1,), (2, 0, 2), (2, 1, 2)]
    red = reduce_generators(s)
    assert len(closure(red.automorphisms, g.flag_count)) == 48
    print("criterion 6 PASS: walk generators span Aut on the corpus; "
          "two-orbit pattern confirmed on the cuboctahedron")


def test_criterion_7_oriented_suite(corpus):
    g = corpus.graph("torus44:1,2")
    o = orientation(g)
    assert o is not None
    ap = aut_plus(corpus.aut("torus44:1,2"), o)
    assert is_chiral_a_la_conway(corpus.aut("torus44:1,2"), ap, corpus.stg("torus44:1,2"))
    assert ap.order == 20
    assert classify_oriented(oriented_stg(ap, o)) == Rotary()

    for label in ("cube", "cuboctahedron"):
        g = corpus.graph(label)
        o = orientation(g)
        ap = aut_plus(corpus.aut(label), o)
        assert corpus.aut(label).order // ap.order == 2, label

    for label in CORPUS:
        g = corpus.graph(label)
        o = orientation(g)
        if o is None:
            continue
        t = corpus.stg(label)
        ap = aut_plus(corpus.aut(label), o)
        same = black_orbit_count(ap, o) == t.vertex_count
        assert same == stg_has_odd_closed_walk(t), label
    print("criterion 7 PASS: chiral torus; index-2 cube/cuboctahedron; "
          "vertex-count theorem on all orientable corpus items")


def test_criterion_8_oriented_three_vertex_census():
    # reported-rank r corresponds to n_colours = r + 1 throughout
    totals = {4: 6, 5: 9, 6: 10}
    for n in range(4, 11):
        want = totals.get(n, 2 * n - 3)
        assert len(enumerate_oriented_stg3(n)) == want, n
    for n in range(7, 11):
        groups = oriented_stg3_families(n)
        assert len(groups["three_loops"]) == 2 * n - 7, n
        assert len(groups["two_cycle_loop"]) == 2, n
    print("criterion 8 PASS: oriented 3-vertex census 6/9/10/2n-3 with "
          "2n-7 three-loop and 2 single-loop members "
          "(reported rank r = n_colours - 1)")


def test_criterion_9_property_suite(corpus):
    rng = random.Random(9)
    for label in CORPUS:
        g, a = corpus.graph(label), corpus.aut(label)
        for _ in range(100):
            word = [rng.randrange(g.rank) for _ in range(rng.randint(1, 8))]
            orbit = rng.randrange(a.orbit_count)
            members = np.nonzero(a.orbit_of == orbit)[0]
            f1 = int(members[rng.randrange(members.size)])
            f2 = int(members[rng.randrange(members.size)])
            assert a.orbit_of[g.act(f1, word)] == a.orbit_of[g.act(f2, word)]

    for label in CORPUS:
        assert is_admissible(corpus.stg(label)), label

    for label in CORPUS:
        g = corpus.graph(label)
        if g.rank < 3:
            continue
        a, t = corpus.aut(label), corpus.stg(label)
        for i in range(1, g.rank):
            part = i_faces(g, i)
            for face in range(part.face_count):
                assert verify_face_projection(a, t, i, face), (label, i, face)
    print("criterion 9 PASS: orbit-word lemma, quotient admissibility, "
          "and face projections hold with zero violations")
