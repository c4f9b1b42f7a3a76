import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from maniplex import formats
from maniplex.cli import main
from maniplex.constructions import (CORPUS, cube, cuboctahedron, hemicube, polygon,
                                    prism, simplex, torus44)
from maniplex.flag_graph import FlagGraph, InternalCheckError
from maniplex.oriented import (Rotary, TwoOrbitOriented, aut_plus, classify_oriented,
                               is_chiral_a_la_conway, orientation, oriented_digraph,
                               oriented_stg, stg_has_odd_closed_walk)
from maniplex.stg import quotient
from maniplex.symmetry import aut_group
from oracles import (are_isomorphic, black_orbit_count, check_facets_against_faces, enantiomorph,
                     has_semi_edges)


def test_orientability():
    assert orientation(cube()) is not None
    assert orientation(torus44(1, 2)) is not None
    assert orientation(hemicube()) is None


def test_orientation_parts_alternate():
    g = prism(5)
    o = orientation(g)
    for i in range(g.rank):
        assert np.all(o[g.adj[i]] != o)
    assert o[0] == 0


def test_digraph_counts_and_classes():
    g = cuboctahedron()
    d = oriented_digraph(g, orientation(g))
    assert d.flag_count == 48
    g = cube()
    d = oriented_digraph(g, orientation(g))
    assert d.flag_count == 24
    assert d.rank == 3  # t_0, rot, rot^-1
    t0, rot, rot_inv = d.adj
    ident = np.arange(24)
    assert np.array_equal(t0[t0], ident)
    assert np.all(t0 != ident)
    assert np.all(rot != ident)
    assert np.array_equal(rot[rot_inv], ident)
    # rot turns around a vertex: cycles have the vertex degree, here 3
    x = ident
    for _ in range(3):
        x = rot[x]
    assert np.array_equal(x, ident)


def test_polygon_digraph_is_directed_cycle():
    l = 6
    g = polygon(l)
    d = oriented_digraph(g, orientation(g))
    assert d.flag_count == l
    assert d.rank == 2  # no t classes, only rot and rot^-1
    seen = set()
    f = 0
    for _ in range(l):
        seen.add(f)
        f = int(d.adj[0, f])
    assert f == 0 and len(seen) == l


def test_digraph_needs_rank_two():
    g = simplex(1)
    with pytest.raises(ValueError):
        oriented_digraph(g, orientation(g))


def test_oriented_stg_needs_rank_two():
    g = FlagGraph([[1, 0]])
    o = orientation(g)
    with pytest.raises(ValueError, match="rank >= 2"):
        oriented_stg(aut_plus(aut_group(g), o), o)


def test_aut_plus_orders():
    g = cube()
    o = orientation(g)
    ap = aut_plus(aut_group(g), o)
    assert ap.order == 24
    assert aut_group(g).order // ap.order == 2

    g = torus44(1, 2)
    o = orientation(g)
    ap = aut_plus(aut_group(g), o)
    assert ap.order == 20
    assert aut_group(g).order == 20

    g = cuboctahedron()
    o = orientation(g)
    ap = aut_plus(aut_group(g), o)
    assert ap.order == 24
    assert black_orbit_count(ap, o) == 2


def test_chirality_both_tests_agree(corpus):
    for label in CORPUS:
        g = corpus.graph(label)
        o = orientation(g)
        if o is None:
            continue
        a = corpus.aut(label)
        chiral = is_chiral_a_la_conway(a, aut_plus(a, o), corpus.stg(label))
        if label == "torus44:1,2":
            assert chiral
        if label in ("cube", "cuboctahedron"):
            assert not chiral


def test_chirality_tests_that_disagree_raise():
    a = aut_group(cube())  # Aut given as its own Aut+: the group test reads chiral
    with pytest.raises(InternalCheckError, match="disagree: group=True, graph=False"):
        is_chiral_a_la_conway(a, a, quotient(a))


def test_odd_closed_walk_detection(corpus):
    assert stg_has_odd_closed_walk(corpus.stg("cube"))          # semi-edges
    assert stg_has_odd_closed_walk(corpus.stg("cuboctahedron"))  # semi-edges
    assert not stg_has_odd_closed_walk(corpus.stg("torus44:1,2"))


def test_oriented_stg_rotary():
    g = torus44(1, 2)
    o = orientation(g)
    ot = oriented_stg(aut_plus(aut_group(g), o), o)
    assert ot.vertex_count == 1
    assert ot.undirected == [[-1]]     # one undirected class, a semi-edge
    assert ot.dart.tolist() == [0]     # a loop
    assert classify_oriented(ot) == Rotary()

    g = cube()
    o = orientation(g)
    ot = oriented_stg(aut_plus(aut_group(g), o), o)
    assert classify_oriented(ot) == Rotary()


def test_rotary_rank4_shape():
    # one vertex, a loop, and rank-2 semi-edges for the undirected classes
    from maniplex.constructions import hypercube

    g = hypercube(4)
    o = orientation(g)
    ot = oriented_stg(aut_plus(aut_group(g), o), o)
    assert ot.vertex_count == 1
    assert ot.undirected == [[-1, -1]]
    assert ot.dart.tolist() == [0]
    assert classify_oriented(ot) == Rotary()


def test_oriented_two_orbit_class():
    g = cuboctahedron()
    o = orientation(g)
    ot = oriented_stg(aut_plus(aut_group(g), o), o)
    assert ot.vertex_count == 2
    cls = classify_oriented(ot)
    assert isinstance(cls, TwoOrbitOriented)
    assert cls.semi_colours == frozenset()


def test_enantiomorph_involution():
    g = torus44(1, 2)
    d = oriented_digraph(g, orientation(g))
    assert enantiomorph(enantiomorph(d)) == d


def test_enantiomorph_mirror_maps():
    d12 = oriented_digraph(torus44(1, 2), orientation(torus44(1, 2)))
    d21 = oriented_digraph(torus44(2, 1), orientation(torus44(2, 1)))
    assert are_isomorphic(enantiomorph(d12), d21) is not None
    assert are_isomorphic(d12, d21) is None

    g = cube()
    d = oriented_digraph(g, orientation(g))
    assert are_isomorphic(enantiomorph(d), d) is not None


def test_vertex_count_theorem(corpus):
    # quotient and oriented quotient have equally many vertices exactly
    # when the quotient has a semi-edge or an odd cycle
    for label in CORPUS:
        g = corpus.graph(label)
        o = orientation(g)
        if o is None:
            continue
        t = corpus.stg(label)
        ap = aut_plus(corpus.aut(label), o)
        same = black_orbit_count(ap, o) == t.vertex_count
        assert same == stg_has_odd_closed_walk(t), label


def test_facet_partition_matches_faces(corpus):
    for label in ("cube", "cuboctahedron", "torus44:1,2", "prism:3",
                  "pyramid:4", "polygon:5", "simplex:4"):
        g = corpus.graph(label)
        o = orientation(g)
        if o is None:
            continue
        assert check_facets_against_faces(g, o), label


def test_chiral_orbit_count_doubles(corpus):
    # chiral-a-la-Conway: no semi-edges, and the full orbit count is twice
    # the orientation-preserving one
    seen_chiral = 0
    for label in CORPUS:
        g = corpus.graph(label)
        o = orientation(g)
        if o is None:
            continue
        a = corpus.aut(label)
        t = corpus.stg(label)
        ap = aut_plus(a, o)
        if is_chiral_a_la_conway(a, ap, t):
            seen_chiral += 1
            assert not has_semi_edges(t), label
            assert a.orbit_count == 2 * black_orbit_count(ap, o), label
    assert seen_chiral > 0


def test_digraph_classes_agree_with_flag_actions(corpus):
    # t classes are fixed-point-free and match r_{n-1} then r_i on black flags
    for label in ("cuboctahedron", "prism:3", "torus44:1,2", "hypercube:4"):
        g = corpus.graph(label)
        o = orientation(g)
        d = oriented_digraph(g, o)
        black = np.flatnonzero(o == 0)
        n = g.rank
        assert d.rank == n
        ident = np.arange(d.flag_count)
        for i in range(n - 2):
            assert np.all(d.adj[i] != ident)
            assert np.array_equal(d.adj[i][d.adj[i]], ident)
            composed = g.adj[i][g.adj[n - 1][black]]
            assert np.array_equal(black[d.adj[i]], composed)
        rot, rot_inv = d.adj[n - 2], d.adj[n - 1]
        assert np.all(rot != ident)
        composed = g.adj[n - 2][g.adj[n - 1][black]]
        assert np.array_equal(black[rot], composed)
        assert np.array_equal(rot_inv[rot], ident)


def test_index_two_iff_orientation_reversing(corpus):
    for label in CORPUS:
        g = corpus.graph(label)
        o = orientation(g)
        if o is None:
            continue
        a = corpus.aut(label)
        ap = aut_plus(a, o)
        assert a.order % ap.order == 0
        index = a.order // ap.order
        assert index in (1, 2)
        reversing_exists = any(o[t] != o[0] for t in a.targets)
        assert (index == 2) == reversing_exists, label


def test_report_halves_the_aut_plus_orbit_count(corpus, monkeypatch, capsys):
    # each colour pairs the black Aut+ orbits with the white ones
    g, a = corpus.graph("prism:3"), corpus.aut("prism:3")
    o = orientation(g)
    assert main(["analyze", "prism:3", "--oriented", "--json"]) == 0
    block = json.loads(capsys.readouterr().out)["oriented"]
    assert block["black_orbit_count"] == black_orbit_count(aut_plus(a, o), o) == 3
    # Aut in place of Aut+: three orbits, which no orientable graph's Aut+ has
    monkeypatch.setattr(formats, "aut_plus", lambda aut, parity: aut)
    assert main(["analyze", "prism:3", "--oriented", "--json"]) == 4
    assert "internal check failed: Aut+ has an odd number of orbits, 3" in capsys.readouterr().err


def test_corpus_table_runs_the_aut_plus_orbit_check(monkeypatch):
    # the script reads formats.report, so it inherits the check that the CLI has
    script = Path(__file__).parent.parent / "scripts" / "corpus_table.py"
    table = runpy.run_path(str(script))["main"]
    monkeypatch.setattr(formats, "aut_plus", lambda aut, parity: aut)
    with pytest.raises(InternalCheckError, match=r"Aut\+ has an odd number of orbits"):
        table()
