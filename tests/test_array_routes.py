"""The array routes of the builders, the cycle notation, the orbit
labels, the group search, Aut+ by Schreier generators, the commutation
test and the colour refinement against the per-flag, per-pair, tree and
rank-based routes they replaced (kept in oracles.py)."""

import random
import warnings
from importlib import resources
from itertools import product

import numpy as np
import pytest

from maniplex import symmetry
from maniplex.constructions import (CORPUS, MapError, MapSpec, construction, hypercube,
                                    map_from_faces, polygon, prism, pyramid, simplex, torus44)
from maniplex.flag_graph import FlagGraph, component_labels, non_commuting, validate
from maniplex.formats import cycle_string, parse_map_text
from maniplex.oriented import aut_plus, orientation
from maniplex.symmetry import are_isomorphic, aut_group, invariant_colours
from maniplex.walkgen import realize_generators, reduce_generators
from oracles import (components, loop_cycle_string, loop_hypercube, loop_map_from_faces,
                     loop_polygon, loop_simplex, loop_torus44, pair_non_commuting, random_map,
                     rank_invariant_colours, relabel, tree_search_group)

# the labels of the analyze benchmarks
BENCHMARK_LABELS = ("prism:200", "pyramid:200", "torus44:20,7", "simplex:6", "hypercube:5",
                    "torus44:20,0", "torus44:16,0", "torus44:12,12", "torus44:9,9")


@pytest.mark.parametrize("d", range(1, 8))
def test_simplex_matches_loop(d):
    assert simplex(d) == loop_simplex(d)


@pytest.mark.parametrize("d", range(1, 7))
def test_hypercube_matches_loop(d):
    assert hypercube(d) == loop_hypercube(d)


def test_polygon_matches_loop():
    for l in range(2, 40):
        assert polygon(l) == loop_polygon(l), l


def test_torus44_matches_loop():
    for b, c in product(range(-6, 7), repeat=2):
        if (b, c) != (0, 0):
            assert torus44(b, c) == loop_torus44(b, c), (b, c)


def seeded_permutations():
    rng = np.random.default_rng(5)
    yield np.arange(7)
    yield np.roll(np.arange(1000), 1)
    yield np.roll(np.arange(1000), -1)
    for n in (1, 2, 3, 10, 257):
        yield rng.permutation(n)
        # an involution with fixed points
        inv = np.arange(n)
        pairs = rng.permutation(n)[: 2 * (n // 3)].reshape(-1, 2)
        inv[pairs[:, 0]], inv[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        yield inv


def test_cycle_string_matches_loop():
    for perm in seeded_permutations():
        perm = perm.astype(np.int32)
        assert cycle_string(perm) == loop_cycle_string(perm), perm


def test_cycle_string_matches_loop_on_corpus_generators(corpus):
    for label in CORPUS:
        g, a = corpus.graph(label), corpus.aut(label)
        for perm in reduce_generators(realize_generators(g, a, corpus.stg(label))).automorphisms:
            assert cycle_string(perm) == loop_cycle_string(perm), label


def few_moved(rng, n):
    """A permutation of n points moving about a quarter of them, so that a
    few such tables leave several components."""
    p = np.arange(n)
    moved = rng.choice(n, size=n // 4, replace=False)
    p[moved] = rng.permutation(moved)
    return p


def test_component_labels_match_components():
    rng = np.random.default_rng(9)
    assert component_labels([], 3).tolist() == [0, 1, 2]
    for _ in range(200):
        n = int(rng.integers(1, 80))
        tables = [rng.permutation(n) if rng.random() < 0.2 else few_moved(rng, n)
                  for _ in range(int(rng.integers(0, 4)))]
        label = component_labels(tables, n)
        expected = np.empty(n, dtype=np.int64)
        for comp in components([t.tolist() for t in tables], n):
            expected[comp] = comp[0]
        assert label.dtype == np.int32
        assert label.tolist() == expected.tolist()


def same_group(new, old):
    assert np.array_equal(new.targets, old.targets)
    assert np.array_equal(new.orbit_of, old.orbit_of)
    assert new.orbit_count == old.orbit_count


def check_search(g):
    """aut_group against the tree route over the colour candidates, and
    aut_plus against it over Aut's targets of flag 0's colour."""
    colour = invariant_colours(g.adj)
    a, old = aut_group(g), tree_search_group(g, np.flatnonzero(colour == colour[0]))
    same_group(a, old)
    assert [p.tolist() for p in a.generators] == [p.tolist() for p in old.generators]
    o = orientation(g)
    if o is None:
        return
    ap = aut_plus(g, o, aut=a)
    same_group(ap, tree_search_group(g, a.targets[o.colour_of[a.targets] == o.colour_of[0]]))
    for p in ap.generators:     # each keeps flag 0's colour, and every other flag's
        assert np.array_equal(o.colour_of[p], o.colour_of)
    assert np.array_equal(np.flatnonzero(component_labels(ap.generators, g.flag_count) == 0),
                          ap.targets)


def test_aut_group_and_aut_plus_match_tree_route_on_corpus(corpus):
    for label in CORPUS:
        check_search(corpus.graph(label))


def test_aut_group_and_aut_plus_match_tree_route_on_random_maps():
    rng = random.Random(31)
    for sheets, orientable in product((1, 2, 3), (True, False)):
        g = random_map(rng, 36 // sheets, sheets, orientable)
        check_search(g)
        check_search(relabel(g, rng))


def test_aut_plus_stores_no_identity_and_no_repeated_generator(corpus):
    # the action is free, so an element is known by its image of flag 0
    rng = random.Random(31)
    graphs = [corpus.graph(label) for label in CORPUS]
    graphs += [random_map(rng, 36 // sheets, sheets, orientable)
               for sheets, orientable in product((1, 2, 3), (True, False))]
    swapped = 0
    for g in graphs:
        if (o := orientation(g)) is None:
            continue
        a = aut_group(g)
        ap = aut_plus(g, o, aut=a)
        images = [int(p[0]) for p in ap.generators]
        assert 0 not in images and len(set(images)) == len(images)
        swapped += ap.order < a.order
    assert swapped >= 5  # Schreier products were formed, not Aut returned as it is


# flag_graph.non_commuting against one commute_defect per colour pair


def random_tables(rng, rank, k):
    """``rank`` tables on k points: involutions, mostly, or permutations."""
    out = []
    for _ in range(rank):
        if rng.random() < 0.2:
            out.append(tuple(rng.sample(range(k), k)))
            continue
        m = list(range(k))
        points = rng.sample(range(k), 2 * rng.randrange(k // 2 + 1))
        for u, v in zip(points[::2], points[1::2]):
            m[u], m[v] = v, u
        out.append(tuple(m))
    return tuple(out)


def test_non_commuting_matches_pairs_on_random_tuples():
    rng = random.Random(13)
    failing = 0
    for _ in range(2000):
        tables = random_tables(rng, rng.randrange(1, 7), rng.randrange(1, 10))
        expected = pair_non_commuting(tables)
        in_stack = [(0, *entry) for entry in expected]
        assert non_commuting([tables]) == in_stack, tables
        assert non_commuting(np.array([tables], dtype=np.int32)) == in_stack, tables
        failing += bool(expected)
    assert 500 < failing < 1900


def rewired(g, rng, colour):
    """g's tables with two edges of one colour swapped for two others."""
    adj = g.adj.copy()
    m = adj[colour]
    u, v = rng.sample(range(g.flag_count), 2)
    while v in (u, m[u]):
        v = rng.randrange(g.flag_count)
    pu, pv = int(m[u]), int(m[v])
    m[u], m[v], m[pu], m[pv] = v, u, pv, pu
    return adj


def test_non_commuting_matches_pairs_on_flag_graphs_with_defects(corpus):
    rng = random.Random(17)
    for label in CORPUS:
        g = corpus.graph(label)
        assert non_commuting(g.adj[None]) == pair_non_commuting(g.adj) == []
        if g.rank < 3:
            continue
        for colour in range(g.rank):
            adj = rewired(g, rng, colour)
            expected = pair_non_commuting(adj)
            assert non_commuting(adj[None]) == [(0, *e) for e in expected], (label, colour)
            found = [(v.colours[0], v.colours[1], v.flag) for v in validate(FlagGraph(adj))
                     if v.kind == "commuting condition"]
            assert found == expected, (label, colour)


# constructions.map_from_faces against its per-flag loops


MAP_ERRORS = [
    MapSpec(3, ((0, 1, 2),)),                          # an edge in one slot
    MapSpec(2, ((0, 1), (0, 1))),                      # a 2-gon
    MapSpec(3, ((0, 0, 1), (0, 1, 2))),                # a repeated vertex
    MapSpec(3, ((0, 1, 3), (0, 3, 1))),                # a vertex out of range
    MapSpec(5, ((0, 1, 2), (0, 2, 1))),                # vertices in no face
    MapSpec(3, ((0, 1, 2), (0, 2, 1), (0, 1, 2))),     # an edge in three slots
    MapSpec(6, ((0, 1, 2), (0, 2, 1), (3, 4, 5), (3, 5, 4))),   # disconnected
]


def data_map_specs():
    return [parse_map_text(path.read_text())
            for path in sorted(resources.files("maniplex").joinpath("data").iterdir())
            if path.name.endswith(".map")]


def test_map_from_faces_matches_loop():
    specs = data_map_specs()
    assert len(specs) == 5
    # one face around a tree, each edge read in both directions, and one
    # face reading a triangle twice in the same direction
    specs += [MapSpec(4, ((0, 1, 2, 3, 2, 1),)), MapSpec(3, ((0, 1, 2, 0, 1, 2),))]
    for spec in specs:
        assert map_from_faces(spec) == loop_map_from_faces(spec), spec
    for l in range(3, 41):
        squares = tuple((k, (k + 1) % l, l + (k + 1) % l, l + k) for k in range(l))
        prism_spec = MapSpec(2 * l, (tuple(range(l)), tuple(range(l, 2 * l))) + squares)
        triangles = tuple((k, (k + 1) % l, l) for k in range(l))
        pyramid_spec = MapSpec(l + 1, (tuple(range(l)),) + triangles)
        assert prism(l) == loop_map_from_faces(prism_spec), l
        assert pyramid(l) == loop_map_from_faces(pyramid_spec), l


@pytest.mark.parametrize("spec", MAP_ERRORS)
def test_map_from_faces_errors_match_loop(spec):
    with pytest.raises(MapError) as new:
        map_from_faces(spec)
    with pytest.raises(MapError) as old:
        loop_map_from_faces(spec)
    assert str(new.value) == str(old.value)


# symmetry.invariant_colours against the rank-based refinement


def same_partition(a, b):
    a, b = np.asarray(a), np.asarray(b)
    pairs = np.unique(np.stack([a, b]), axis=1).shape[1]
    return pairs == np.unique(a).size == np.unique(b).size


def seeded_random_maps(base_edges):
    """Six seeded random maps, trivial, Z_2 and Z_3 sheets, orientable or
    not, each followed by a relabelling."""
    rng = random.Random(23)
    for sheets, orientable in product((1, 2, 3), (True, False)):
        g = random_map(rng, base_edges // sheets, sheets, orientable)
        yield g
        yield relabel(g, rng)


def test_hashed_colours_give_the_rank_partition(corpus):
    graphs = [corpus.graph(label) for label in CORPUS]
    graphs += [construction(label) for label in BENCHMARK_LABELS]
    graphs += list(seeded_random_maps(600))
    for g in graphs:
        assert same_partition(invariant_colours(g.adj), rank_invariant_colours(g.adj)), g
    # on a disjoint union, as are_isomorphic colours it
    g, h = graphs[-2:]
    union = np.concatenate([g.adj, h.adj + g.flag_count], axis=1)
    assert same_partition(invariant_colours(union), rank_invariant_colours(union))


COLOURINGS = {
    "hashed": invariant_colours,
    "rank": rank_invariant_colours,
    "all equal": lambda tables: np.zeros(np.shape(tables)[1], dtype=np.int64),
}


def group_results(graphs, pairs):
    out = []
    for g in graphs:
        a = aut_group(g)
        out.append((a.targets.tolist(), [p.tolist() for p in a.generators],
                    a.orbit_of.tolist(), a.orbit_count))
    for g, h in pairs:
        m = are_isomorphic(g, h)
        out.append(None if m is None else m.tolist())
    return out


def test_search_results_do_not_depend_on_the_colouring(corpus, monkeypatch):
    graphs = [corpus.graph(label) for label in CORPUS if corpus.graph(label).flag_count <= 1000]
    graphs += [construction("prism:20"), construction("pyramid:20"), torus44(5, 2)]
    graphs += list(seeded_random_maps(60))
    pairs = list(zip(graphs[-12::2], graphs[-11::2]))          # each random map, relabelled
    pairs += [(graphs[-12], graphs[-10]), (torus44(5, 0), torus44(4, 3)),
              (torus44(1, 2), torus44(2, 1))]
    results = {}
    for name, colouring in COLOURINGS.items():
        monkeypatch.setattr(symmetry, "invariant_colours", colouring)
        results[name] = group_results(graphs, pairs)
    assert results["hashed"] == results["rank"] == results["all equal"]
    assert sum(r is not None for r in results["hashed"][len(graphs):]) == 7


def test_invariant_colours_raise_no_overflow_warning(corpus):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label in CORPUS:
            invariant_colours(corpus.graph(label).adj)
        invariant_colours(hypercube(6).adj)

