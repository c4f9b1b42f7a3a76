import pytest

from maniplex.constructions import cube, cuboctahedron, prism
from maniplex.stg import SEMI, SymmetryTypeGraph, quotient
from maniplex.symmetry import aut_group, identity
from maniplex.walkgen import (GeneratorSet, Walk, check_walk,
                              generates_full_group, generating_walks,
                              min_spanning_walk, realize_generators,
                              reduce_generators)
from oracles import closure


def test_min_walk_single_vertex_is_empty():
    t = SymmetryTypeGraph(rank=3, vertex_count=1, slots=((SEMI, SEMI, SEMI),))
    assert min_spanning_walk(t) == Walk(start=0, steps=())


def test_min_walk_cuboctahedron_single_step():
    g = cuboctahedron()
    t = quotient(g, aut_group(g))
    walk = min_spanning_walk(t)
    assert walk.steps == ((2, 1),)


def test_min_walk_prism3_two_steps():
    g = prism(3)
    t = quotient(g, aut_group(g))
    walk = min_spanning_walk(t)
    assert len(walk.steps) == 2
    assert sorted(walk.word) == [1, 2]
    check_walk(t, walk)


def test_min_walk_prefers_lexicographic_word():
    # two vertices joined by edges of colours 1 and 2: the walk picks 1
    t = SymmetryTypeGraph(rank=3, vertex_count=2, slots=(
        (SEMI, 1, 1), (SEMI, 0, 0)))
    assert min_spanning_walk(t).word == (1,)


def test_generating_walks_regular_case():
    t = SymmetryTypeGraph(rank=4, vertex_count=1, slots=((SEMI,) * 4,))
    walks = generating_walks(t, min_spanning_walk(t))
    assert [w.word for w in walks] == [(0,), (1,), (2,), (3,)]


def test_generating_walks_cuboctahedron():
    g = cuboctahedron()
    t = quotient(g, aut_group(g))
    walks = generating_walks(t, min_spanning_walk(t))
    assert [w.word for w in walks] == [(0,), (1,), (2, 0, 2), (2, 1, 2)]
    assert all(w.is_closed() for w in walks)


def test_generator_count_formula(corpus):
    for label in ("cube", "cuboctahedron", "prism:3", "pyramid:4", "torus44:1,2"):
        t = corpus.stg(label)
        walk = min_spanning_walk(t)
        walks = generating_walks(t, walk)
        semi_count = sum(len(t.semi_colours(u)) for u in range(t.vertex_count))
        edge_count = len(t.edges())
        assert len(walks) == semi_count + (edge_count - len(walk.steps))


def test_walks_closed_at_start(corpus):
    for label in ("prism:4", "pyramid:5", "torus44:2,1"):
        t = corpus.stg(label)
        for w in generating_walks(t, min_spanning_walk(t)):
            assert w.start == 0 and w.is_closed()
            check_walk(t, w)


def test_realize_generators_cube():
    g = cube()
    a = aut_group(g)
    s = realize_generators(g, a, quotient(g, a))
    assert [w for w in s.words] == [(0,), (1,), (2,)]
    assert len(closure(s.automorphisms, g.flag_count)) == 48


def test_realized_closure_matches_aut(corpus):
    for label in ("cube", "cuboctahedron", "prism:3", "pyramid:4",
                  "torus44:1,2", "simplex:4", "hemicube"):
        g, a, t = corpus.graph(label), corpus.aut(label), corpus.stg(label)
        assert generates_full_group(realize_generators(g, a, t), a), label


def test_reduce_removes_identity_and_duplicates():
    g = cuboctahedron()
    a = aut_group(g)
    s = realize_generators(g, a, quotient(g, a))
    ident = identity(g.flag_count)
    padded = GeneratorSet(
        base_flag=s.base_flag,
        spanning_walk=s.spanning_walk,
        walks=[s.walks[0]] + s.walks + [s.walks[0]],
        words=[(2, 2)] + s.words + [s.words[0]],
        automorphisms=[ident] + s.automorphisms + [s.automorphisms[0]],
    )
    red = reduce_generators(padded)
    assert ident.tobytes() not in {a.tobytes() for a in red.automorphisms}
    keys = [a.tobytes() for a in red.automorphisms]
    assert len(keys) == len(set(keys))
    assert len(closure(red.automorphisms, g.flag_count)) == a.order
    # r2 r0 r2 = r0 at rank 3, so the reduced set drops one duplicate
    assert len(red.automorphisms) == 3


def test_reduce_idempotent():
    g = prism(3)
    a = aut_group(g)
    s = reduce_generators(realize_generators(g, a, quotient(g, a)))
    again = reduce_generators(s)
    assert [x.tobytes() for x in again.automorphisms] == [x.tobytes() for x in s.automorphisms]


def test_check_walk_rejects_retrace():
    t = SymmetryTypeGraph(rank=3, vertex_count=2, slots=((SEMI, SEMI, 1), (SEMI, SEMI, 0)))
    with pytest.raises(ValueError):
        check_walk(t, Walk(start=0, steps=((2, 1), (2, 0))))
    with pytest.raises(ValueError):
        check_walk(t, Walk(start=0, steps=((1, 1),)))


def test_generating_walks_requires_spanning():
    g = cuboctahedron()
    t = quotient(g, aut_group(g))
    with pytest.raises(ValueError):
        generating_walks(t, Walk(start=0, steps=()))
