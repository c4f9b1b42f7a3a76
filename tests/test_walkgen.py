import contextlib
import io
import json
import random
from itertools import product

import pytest

from maniplex.cli import main
from maniplex.constructions import construction, cube, cuboctahedron, prism
from maniplex.enumeration import enumerate_stg
from maniplex.formats import write_maniplex_text
from maniplex.stg import SEMI, quotient
from maniplex.symmetry import aut_group
from maniplex.walkgen import (GeneratorSet, generates_full_group, realize_generators,
                              reduce_generators, spanning_tree)
from oracles import (Walk, check_walk, closure, generating_walks, identity, min_spanning_walk,
                     random_map, relabel, spanning_walk_words, stg_from_slots, walk_from_word)


def test_min_walk_single_vertex_is_empty():
    t = stg_from_slots(((SEMI, SEMI, SEMI),))
    assert min_spanning_walk(t) == Walk(start=0, steps=())


def test_min_walk_cuboctahedron_single_step():
    g = cuboctahedron()
    t = quotient(aut_group(g))
    walk = min_spanning_walk(t)
    assert walk.steps == ((2, 1),)


def test_min_walk_prism3_two_steps():
    g = prism(3)
    t = quotient(aut_group(g))
    walk = min_spanning_walk(t)
    assert len(walk.steps) == 2
    assert sorted(walk.word) == [1, 2]
    check_walk(t, walk)


def test_min_walk_prefers_lexicographic_word():
    # two vertices joined by edges of colours 1 and 2: the walk picks 1
    t = stg_from_slots((
        (SEMI, 1, 1), (SEMI, 0, 0)))
    assert min_spanning_walk(t).word == (1,)


def test_spanning_tree_descends_at_once():
    # a 4-cycle 0 -1- 1 -2- 2 -1- 3 -2- 0: the search goes 0, 1, 2, 3
    # along colours 1, 2, 1 instead of reaching 3 from 0 along colour 2
    t = stg_from_slots((
        (SEMI, 1, 3), (SEMI, 0, 2), (SEMI, 3, 1), (SEMI, 2, 0)))
    assert spanning_tree(t) == {0: (), 1: (1,), 2: (1, 2), 3: (1, 2, 1)}
    assert list(spanning_tree(t)) == [0, 1, 2, 3]
    assert generating_walks(t)[0] == (2, 1, 2, 1)


def test_generating_walks_regular_case():
    t = stg_from_slots(((SEMI,) * 4,))
    assert generating_walks(t) == [(0,), (1,), (2,), (3,)]


def test_generating_walks_cuboctahedron():
    g = cuboctahedron()
    t = quotient(aut_group(g))
    assert generating_walks(t) == [(0,), (1,), (2, 0, 2), (2, 1, 2)]


def test_generator_count_formula(corpus):
    for label in ("cube", "cuboctahedron", "prism:3", "pyramid:4", "torus44:1,2"):
        t = corpus.stg(label)
        semi_count = sum(len(t.semi_colours(u)) for u in range(t.vertex_count))
        edge_count = len(t.edges())
        assert len(generating_walks(t)) == semi_count + edge_count - (t.vertex_count - 1)


def test_walks_closed_at_start(corpus):
    for label in ("prism:4", "pyramid:5", "torus44:2,1"):
        t = corpus.stg(label)
        for word in generating_walks(t):
            w = walk_from_word(t, 0, word)
            assert w.is_closed()
            check_walk(t, w)


def rooted_stgs(colours, vertices):
    """Every admissible STG, once rooted at each of its vertices."""
    for t in enumerate_stg(colours, vertices):
        for root in range(vertices):
            swap = list(range(vertices))
            swap[0], swap[root] = root, 0
            slots = [()] * vertices
            for u, row in enumerate(t.slots):
                slots[swap[u]] = tuple(SEMI if s == SEMI else swap[s] for s in row)
            yield stg_from_slots(tuple(slots))


def test_words_match_the_spanning_walk_oracle():
    """Up to 4 vertices the depth-first tree gives the words of the
    shortest spanning walk wherever that walk does not turn back."""
    compared = raised = 0
    for colours, vertices in product(range(1, 6), range(1, 5)):
        for t in rooted_stgs(colours, vertices):
            words = generating_walks(t)
            for word in words:
                assert walk_from_word(t, 0, word).is_closed()
            try:
                expected = spanning_walk_words(t)
            except ValueError:
                raised += 1
                continue
            assert words == expected, t
            compared += 1
    assert compared > 1000 and raised > 0


def test_generating_walks_requires_spanning():
    t = stg_from_slots(((SEMI, SEMI), (SEMI, SEMI)))
    with pytest.raises(ValueError):
        generating_walks(t)


def analyze_generators(tmp_path, g):
    path = tmp_path / "input.mnpx"
    path.write_text(write_maniplex_text(g))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(path), "--json", "--generators"]) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("label, seed", [("prism:5", 1), ("prism:5", 2), ("prism:5", 4),
                                         ("prism:5", 5), ("prism:3", 2), ("pyramid:5", 0),
                                         ("pyramid:5", 2), ("pyramid:5", 4)])
def test_generators_where_the_spanning_walk_turned_back(tmp_path, label, seed):
    g = relabel(construction(label), random.Random(seed))
    t = quotient(aut_group(g))
    with pytest.raises(ValueError, match="retraces"):
        spanning_walk_words(t)
    report = analyze_generators(tmp_path, g)
    assert report["generators"]["matches_aut"] is True


def test_generators_on_smallest_turning_back_random_map(tmp_path):
    g = random_map(random.Random(5), 3, 1, True)
    report = analyze_generators(tmp_path, g)
    assert report["stg"]["slots"] == [[1, 2, -1], [0, -1, -1], [-1, 0, -1]]
    assert report["generators"]["matches_aut"] is True


def test_realize_generators_cube():
    g = cube()
    a = aut_group(g)
    s = realize_generators(a, quotient(a))
    assert [w for w in s.words] == [(0,), (1,), (2,)]
    assert len(closure(s.automorphisms, g.flag_count)) == 48


def test_realized_closure_matches_aut(corpus):
    for label in ("cube", "cuboctahedron", "prism:3", "pyramid:4",
                  "torus44:1,2", "simplex:4", "hemicube"):
        g, a, t = corpus.graph(label), corpus.aut(label), corpus.stg(label)
        assert generates_full_group(realize_generators(a, t), a), label


def test_reduce_removes_identity_and_duplicates():
    g = cuboctahedron()
    a = aut_group(g)
    s = realize_generators(a, quotient(a))
    ident = identity(g.flag_count)
    padded = GeneratorSet(
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
    s = reduce_generators(realize_generators(a, quotient(a)))
    again = reduce_generators(s)
    assert [x.tobytes() for x in again.automorphisms] == [x.tobytes() for x in s.automorphisms]


def test_check_walk_rejects_retrace():
    t = stg_from_slots(((SEMI, SEMI, 1), (SEMI, SEMI, 0)))
    with pytest.raises(ValueError):
        check_walk(t, Walk(start=0, steps=((2, 1), (2, 0))))
    with pytest.raises(ValueError):
        check_walk(t, Walk(start=0, steps=((1, 1),)))
