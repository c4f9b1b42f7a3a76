"""The array routes of the builders, the cycle notation, the orbit
labels, the group search, Aut+ and the oriented STG read off Aut, the
commutation test, the colour refinement, the orientation, the face
projection, the generator reduction, the file parse and the
breadth-first tree against the per-flag, per-pair, tree, Schreier,
move-graph, rank-based, per-level, per-token and sorting routes they
replaced (kept in oracles.py)."""

import dataclasses
import random
import warnings
from collections import Counter
from importlib import resources
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maniplex import flag_graph, oriented, symmetry
from maniplex.constructions import (CORPUS, MapError, MapSpec, construction, hypercube,
                                    map_from_faces, polygon, prism, pyramid, simplex, torus44)
from maniplex.enumeration import enumerate_stg
from maniplex.flag_graph import (FlagGraph, InternalCheckError, component_labels, non_commuting,
                                 validate)
from maniplex.formats import (ParseError, _colour_row, cycle_string, parse_maniplex_text,
                              parse_map_text, write_maniplex_text)
from maniplex.oriented import (Orientation, aut_plus, black_orbit_count, orientation,
                               oriented_digraph, oriented_stg)
from maniplex.stg import SymmetryTypeGraph, check_all, quotient
from maniplex.symmetry import aut_group, invariant_colours
from maniplex.walkgen import GeneratorSet, realize_generators, reduce_generators
from oracles import (all_products_invariant_colours, are_isomorphic, bytes_reduce_generators,
                     components, digraph_oriented_stg, face_maniplex, format_cycle_string,
                     hook_and_jump_labels, i_faces, level_orientation,
                     loop_cycle_string, loop_hypercube, loop_map_from_faces, loop_polygon,
                     loop_simplex, loop_torus44, matmul_invariant_colours,
                     pair_non_commuting, random_map, rank_invariant_colours, relabel,
                     relabel_aut_group, schreier_aut_plus, sorted_bfs_levels,
                     recolour_dual, token_parse_maniplex_text, trial_order, tree_search_group,
                     verify_face_projection, walk_face_projection, walk_realize_generators)

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
    """int32 permutations, with point counts at each digit-count
    boundary, then an int64 array and a Python list."""
    rng = np.random.default_rng(5)
    yield np.arange(7, dtype=np.int32)
    yield np.roll(np.arange(1000, dtype=np.int32), 1)
    yield np.roll(np.arange(1000, dtype=np.int32), -1)
    for n in (1, 2, 3, 10, 11, 100, 101, 257, 1001, 100000):
        yield rng.permutation(n).astype(np.int32)
        # an involution with fixed points
        inv = np.arange(n, dtype=np.int32)
        pairs = rng.permutation(n)[: 2 * (n // 3)].reshape(-1, 2)
        inv[pairs[:, 0]], inv[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        yield inv
    yield rng.permutation(101).astype(np.int64)
    yield rng.permutation(12).tolist()


def test_cycle_string_matches_loop():
    for perm in seeded_permutations():
        text = cycle_string(perm)
        assert text == loop_cycle_string(np.asarray(perm)) == format_cycle_string(perm), perm


def test_cycle_string_matches_loop_on_corpus_generators(corpus):
    for label in CORPUS:
        g, a = corpus.graph(label), corpus.aut(label)
        for perm in reduce_generators(realize_generators(a, corpus.stg(label))).automorphisms:
            assert cycle_string(perm) == loop_cycle_string(perm), label


def generator_cases(corpus):
    """(graph, group, STG) on every corpus label, prism:20, pyramid:20 and
    torus44:5,2, a seeded relabelling of each, and the seeded random maps."""
    graphs = [corpus.graph(label) for label in CORPUS]
    graphs += [construction("prism:20"), construction("pyramid:20"), torus44(5, 2)]
    rng = random.Random(11)
    graphs += [relabel(g, rng) for g in list(graphs)]
    graphs += list(seeded_random_maps(120))
    for g in graphs:
        a = aut_group(g)
        yield g, a, quotient(a)


def test_realized_generators_and_their_text_match_the_word_walk_and_the_format(corpus):
    for g, a, t in generator_cases(corpus):
        new, old = realize_generators(a, t), walk_realize_generators(g, a, t)
        assert new.words == old.words, g
        assert [p.tolist() for p in new.automorphisms] == [p.tolist() for p in old.automorphisms]
        for perm in reduce_generators(new).automorphisms:
            assert cycle_string(perm) == format_cycle_string(perm), g


def test_a_tree_step_leaving_its_orbit_is_caught(corpus):
    g, a, t = corpus.graph("pyramid:4"), corpus.aut("pyramid:4"), corpus.stg("pyramid:4")
    assert a.orbit_count >= 3
    swap = np.arange(a.orbit_count)
    swap[[1, 2]] = 2, 1          # orbit ids still start at the base flag
    with pytest.raises(InternalCheckError, match="spanning tree step"):
        realize_generators(dataclasses.replace(a, orbit_of=swap[a.orbit_of]), t)


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


def test_component_labels_match_hook_and_jump_on_edge_cases():
    assert component_labels([], 0).tolist() == hook_and_jump_labels([], 0).tolist() == []
    assert component_labels([], 4).tolist() == hook_and_jump_labels([], 4).tolist()
    for m in ([0], [1, 0, 2], [3, 2, 1, 0, 4], [1, 2, 3, 4, 0]):
        assert component_labels([m], len(m)).tolist() == hook_and_jump_labels([m], len(m)).tolist()


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=5), st.data())
def test_component_labels_match_hook_and_jump_on_random_involutions(n, colours, data):
    tables = []
    for _ in range(colours):
        points = data.draw(st.permutations(range(n)))
        pairs = data.draw(st.integers(min_value=0, max_value=n // 2))
        m = np.arange(n)
        m[points[:pairs]], m[points[pairs:2 * pairs]] = points[pairs:2 * pairs], points[:pairs]
        tables.append(m)
    assert component_labels(tables, n).tolist() == hook_and_jump_labels(tables, n).tolist()


def test_component_labels_match_hook_and_jump_without_each_colour(corpus):
    for label in CORPUS:
        g = corpus.graph(label)
        for i in range(g.rank):
            tables = np.delete(g.adj, i, axis=0)
            assert np.array_equal(component_labels(tables, g.flag_count),
                                  hook_and_jump_labels(tables, g.flag_count)), (label, i)


def test_component_labels_match_hook_and_jump_on_the_check_stacks(corpus, monkeypatch):
    # every stack the STG check labels, on census classes and corpus quotients
    seen = []

    def both(tables, count):
        label = component_labels(tables, count)
        assert np.array_equal(label, hook_and_jump_labels(tables, count))
        seen.append(count)
        return label

    monkeypatch.setattr(flag_graph, "component_labels", both)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n, k in [(3, 3), (4, 4), (5, 4), (3, 6)]:
            check_all([SymmetryTypeGraph(t.tables) for t in enumerate_stg(n, k)])
    for label in CORPUS:  # one shape per check
        check_all([SymmetryTypeGraph(corpus.stg(label).tables)])
    assert len(seen) >= 5


@given(st.integers(min_value=1, max_value=60), st.data())
def test_hook_from_a_forest_matches_hook_and_jump(n, data):
    # the orbits so far as a forest, joined along a further permutation,
    # as aut_group grows them: a forest table is no permutation, so the
    # oracle hooks it both ways
    perms = [np.array(data.draw(st.permutations(range(n)))) for _ in range(3)]
    start = component_labels(perms[:2], n).astype(np.intp)
    expected = hook_and_jump_labels([start, perms[2]], n)
    assert flag_graph._hook([perms[2]], start).tolist() == expected.tolist()


def same_group(new, old):
    assert np.array_equal(new.targets, old.targets)
    assert np.array_equal(new.orbit_of, old.orbit_of)
    assert new.orbit_count == old.orbit_count


def check_search(g):
    """aut_group against the tree route over the colour candidates, flag
    0's neighbours first, and aut_plus against it over Aut's targets of
    flag 0's colour; the Schreier route's generators reach Aut+'s targets."""
    a, old = aut_group(g), tree_search_group(g, trial_order(g))
    same_group(a, old)
    assert [p.tolist() for p in a.generators] == [p.tolist() for p in old.generators]
    o = orientation(g)
    if o is None:
        return
    ap = aut_plus(a, o)
    same_group(ap, tree_search_group(g, a.targets[o.colour_of[a.targets] == o.colour_of[0]]))
    schreier = schreier_aut_plus(a, o)
    for p in schreier.generators:     # each keeps flag 0's colour, and every other flag's
        assert np.array_equal(o.colour_of[p], o.colour_of)
    assert np.array_equal(np.flatnonzero(component_labels(schreier.generators, g.flag_count) == 0),
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
        ap = schreier_aut_plus(a, o)
        images = [int(p[0]) for p in ap.generators]
        assert 0 not in images and len(set(images)) == len(images)
        swapped += ap.order < a.order
    assert swapped >= 5  # Schreier products were formed, not Aut returned as it is


def oriented_cases(corpus):
    """(name, group, orientation) on every orientable CORPUS label and
    benchmark label, seeded orientable random maps with a relabelling
    each, and the sheet shift with Aut = Z_250."""
    labels = list(CORPUS) + [label for label in BENCHMARK_LABELS if label not in CORPUS]
    graphs = [(label, corpus.graph(label), corpus.aut(label)) for label in labels]
    rng = random.Random(32)
    for sheets in (1, 2, 3, 5):
        g = random_map(rng, 40 // sheets, sheets, True)
        graphs += [(f"map {sheets}", g, None), (f"relabelled {sheets}", relabel(g, rng), None)]
    graphs.append(("Z_250", random_map(random.Random(5), 20, 250, True), None))
    for name, g, a in graphs:
        if (o := orientation(g)) is not None:
            yield name, aut_group(g) if a is None else a, o


def test_aut_plus_and_oriented_stg_match_the_schreier_and_move_graph_routes(corpus):
    index_two = 0
    for name, a, o in oriented_cases(corpus):
        ap, old = aut_plus(a, o), schreier_aut_plus(a, o)
        same_group(ap, old)
        assert black_orbit_count(ap, o) == black_orbit_count(old, o), name
        index_two += ap.order < a.order
        if a.graph.rank >= 2:
            ot, old_ot = oriented_stg(ap, o), digraph_oriented_stg(old, o)
            assert (ot.tables, ot.dart) == (old_ot.tables, old_ot.dart), name
    assert index_two > 40


def test_aut_plus_and_oriented_stg_label_nothing_and_build_no_move_graph(corpus, monkeypatch):
    cases = [(a, o) for _, a, o in oriented_cases(corpus)]

    def refused(*args):
        raise AssertionError("a labelling or a move graph was built")

    for module in (flag_graph, symmetry, oriented):
        for name in ("_hook", "component_labels", "_both_ways", "quotient_tables",
                     "oriented_digraph"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    for a, o in cases:
        ap = aut_plus(a, o)
        assert ap.generators == [] or ap is a
        if a.graph.rank >= 2:
            oriented_stg(ap, o)


def test_a_part_neither_kept_nor_swapped_is_caught():
    # flag 0 keeps its colour and some generator swaps it, so the flipped
    # flag shows only where a generator is read beyond flag 0
    g = hypercube(3)
    a, o = aut_group(g), orientation(g)
    assert aut_plus(a, o).order == 24
    colour = o.colour_of.copy()
    colour[g.flag_count - 1] ^= 1
    with pytest.raises(InternalCheckError, match="neither keeps nor swaps"):
        aut_plus(a, Orientation(colour_of=colour))


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


def test_column_sums_give_the_matmul_colours(corpus):
    # int64 sums wrap alike in any order, so the colours are equal, not
    # merely the same partition
    graphs = [corpus.graph(label) for label in CORPUS]
    graphs += [construction(label) for label in BENCHMARK_LABELS + ("hypercube:6",)]
    graphs += list(seeded_random_maps(600))
    for g in graphs:
        assert np.array_equal(invariant_colours(g.adj), matmul_invariant_colours(g.adj)), g
    g, h = graphs[-2:]
    union = np.concatenate([g.adj, h.adj + g.flag_count], axis=1)
    assert np.array_equal(invariant_colours(union), matmul_invariant_colours(union))


COLOURINGS = {
    "hashed": invariant_colours,
    "all products": all_products_invariant_colours,
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
    # move graphs, whose tables rot and rot^-1 are not involutions; the
    # last six are those of the orientable random maps and relabellings
    moves = [oriented_digraph(g, o) for g in graphs
             if g.rank >= 2 and (o := orientation(g)) is not None]
    move_pairs = list(zip(moves[-6::2], moves[-5::2]))
    move_pairs += [tuple(oriented_digraph(g, orientation(g)) for g in (torus44(1, 2), torus44(2, 1)))]
    results = {}
    for name, colouring in COLOURINGS.items():
        monkeypatch.setattr(symmetry, "invariant_colours", colouring)
        results[name] = group_results(graphs + moves, pairs + move_pairs)
    assert (results["hashed"] == results["all products"] == results["rank"]
            == results["all equal"])
    found = results["hashed"][len(graphs) + len(moves):]
    assert sum(r is not None for r in found[:len(pairs)]) == 7
    # a map's move graph and its relabelling's are isomorphic where some
    # isomorphism of the maps sends flag 0 to a black flag, as for two of
    # the three; the chiral torus's two move graphs are mirror images
    assert len(moves) > 40 and [r is not None for r in found[len(pairs):]] == [True, True, False, False]


def test_invariant_colours_raise_no_overflow_warning(corpus):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label in CORPUS:
            invariant_colours(corpus.graph(label).adj)
        invariant_colours(hypercube(6).adj)



# oriented.orientation, verify_face_projection and
# walkgen.reduce_generators against the level replay, the per-flag search
# and the whole-table keys they replaced


def test_orientation_matches_the_level_replay(corpus):
    graphs = [corpus.graph(label) for label in CORPUS]
    graphs += [construction(label) for label in BENCHMARK_LABELS + ("prism:10000",)]
    graphs += list(seeded_random_maps(600))
    square = [1, 0, 3, 2], [3, 2, 1, 0]           # two squares: bipartite, disconnected
    graphs.append(FlagGraph([m + [v + 4 for v in m] for m in square]))
    found = []
    for g in graphs:
        new, old = orientation(g), level_orientation(g)
        found.append(new is not None)
        assert (new is None) == (old is None), g
        if new is not None:
            assert new.colour_of.dtype == np.int8 and not new.colour_of.flags.writeable
            assert np.array_equal(new.colour_of, old.colour_of), g
    assert 0 < sum(found) < len(found) and not found[-1]


def face_projection_cases(corpus):
    """(name of the group, graph, group, STG) under Aut, the trivial
    group and Aut+ (where it is not Aut) on the corpus maps of rank >= 3
    and at most 64 flags, prism:9 and pyramid:9, then under Aut on four
    larger maps."""
    for label in [label for label in CORPUS if corpus.graph(label).rank >= 3
                  and corpus.graph(label).flag_count <= 64] + ["prism:9", "pyramid:9"]:
        g, a = corpus.graph(label), corpus.aut(label)
        groups = {"Aut": a, "trivial": symmetry._group(g, [], component_labels([], g.flag_count))}
        if (o := orientation(g)) is not None and (plus := aut_plus(a, o)).order < a.order:
            groups["Aut+"] = plus
        yield from ((name, g, group, quotient(group)) for name, group in groups.items())
    for label in ("prism:40", "pyramid:30", "hypercube:4", "simplex:4"):
        yield "Aut", corpus.graph(label), corpus.aut(label), corpus.stg(label)


def test_face_projection_holds_and_matches_the_walk(corpus):
    faces = Counter()
    for name, g, a, t in face_projection_cases(corpus):
        for i in range(1, g.rank):
            for face in range(i_faces(g, i).face_count):
                assert verify_face_projection(a, t, i, face), (name, g, i, face)
                assert walk_face_projection(g, i, face, a, t), (name, g, i, face)
                faces[name] += 1
    assert min(faces.values()) > 300 and set(faces) == {"Aut", "Aut+", "trivial"}


def test_face_projection_matches_the_walk_on_a_quotient_of_another_map(corpus):
    # a quotient of another map with as many vertices as the group has
    # orbits: both routes find the orbits meeting some faces not closed
    # in it, and answer alike
    answers = Counter()
    for label, other in [("cuboctahedron", "torus44:1,2"), ("torus44:1,2", "cuboctahedron"),
                         ("prism:5", "prism:3"), ("pyramid:4", "pyramid:6")]:
        g, a, t = corpus.graph(label), corpus.aut(label), corpus.stg(other)
        assert t.vertex_count == a.orbit_count
        for i in range(1, g.rank):
            for face in range(i_faces(g, i).face_count):
                answer = verify_face_projection(a, t, i, face)
                assert answer == walk_face_projection(g, i, face, a, t), (label, other, i, face)
                answers[answer] += 1
    assert answers[False] and answers[True]


def test_reduce_generators_matches_whole_table_keys(corpus):
    cases = [(corpus.graph(label), corpus.aut(label), corpus.stg(label)) for label in CORPUS]
    for g in seeded_random_maps(120):
        a = aut_group(g)
        cases.append((g, a, quotient(a)))
    for g, a, t in cases:
        s = realize_generators(a, t)
        # the identity, then the whole list again, as duplicates to drop
        padded = GeneratorSet(s.base_flag, [()] + s.words * 2,
                              [np.arange(g.flag_count, dtype=np.int32)] + s.automorphisms * 2)
        for given in (s, padded):
            new, old = reduce_generators(given), bytes_reduce_generators(given)
            assert new.words == old.words
            assert [p.tolist() for p in new.automorphisms] == [p.tolist() for p in old.automorphisms]


# formats.parse_maniplex_text, FlagGraph.bfs_levels and aut_group's orbit
# labels against the per-token parse, the sorted levels and the relabelling
# of every generator they replaced


# each replaces line r1 of a digon file, "r1: 3 2 1 0"
COLOUR_LINES = ["3 2 1 0", "3  2   1 0", "+3 2 1 0", "3 2 1_0 0", "3 2 1 \u0660", "\uff13 2 1 0",
                "3\t2\t1\t0", "3 2 1 x", "3 2 1", "3 2 1 0 0", "", "3 2 1 -1", "3 2 1 -0",
                "3 2 1 4294967296", "3 2 1 9223372036854775807", "3 2 1 " + "9" * 19,
                "3 2 1 " + "9" * 25, "0 2 1 " + "9" * 25 + " x"]


def parse_outcome(parse, text):
    try:
        return parse(text).adj.tolist()
    except ParseError as exc:
        return str(exc)


def test_parse_matches_the_token_route(corpus):
    texts = [write_maniplex_text(corpus.graph(label)) for label in CORPUS]
    texts += [write_maniplex_text(g) for g in seeded_random_maps(600)]
    texts += [f"maniplex rank=2 flags=4\nr0: 1 0 3 2\nr1: {line}\n" for line in COLOUR_LINES]
    # a later line's bad token is reported before an earlier line's range
    texts.append("maniplex rank=2 flags=4\nr0: 1 0 3 " + "9" * 25 + "\nr1: 3 2 1 x\n")
    outcomes = [parse_outcome(parse_maniplex_text, text) for text in texts]
    assert outcomes == [parse_outcome(token_parse_maniplex_text, text) for text in texts]
    digon = [[1, 0, 3, 2], [3, 2, 1, 0]]
    assert outcomes[-len(COLOUR_LINES) - 1:] == [
        digon, digon, digon, "flag image out of range", digon, digon, digon,
        "bad flag index on line r1", "line r1 lists 3 flags, expected 4",
        "line r1 lists 5 flags, expected 4", "line r1 lists 0 flags, expected 4",
        "flag image out of range", digon] + ["flag image out of range"] * 4 + [
        "bad flag index on line r1"] * 2


def test_parse_reads_digit_lines_in_one_pass(monkeypatch):
    row = _colour_row(" 3 2  1 " + "9" * 25)
    assert isinstance(row, np.ndarray) and row.tolist() == [3, 2, 1, 2**63 - 1]
    for rest in (" 3\t2", " +3 2", " \u0663 2"):
        assert isinstance(_colour_row(rest), list), rest
    with pytest.raises(ValueError):
        _colour_row(" 3 2 x")
    # a parse that stops short of the line's digit runs is not kept
    monkeypatch.setattr(np, "fromstring", lambda text, dtype, sep: np.zeros(2, dtype))
    assert _colour_row(" 3 2 1") == [3, 2, 1]


def test_bfs_levels_match_the_sorted_levels(corpus):
    graphs = [corpus.graph(label) for label in CORPUS]
    graphs += [construction(label) for label in BENCHMARK_LABELS]
    graphs += list(seeded_random_maps(600))
    square = [1, 0, 3, 2], [3, 2, 1, 0]           # two squares: disconnected
    graphs.append(FlagGraph([m + [v + 4 for v in m] for m in square]))
    for g in graphs:
        for source in (0, g.flag_count - 1):
            levels = g.bfs_levels(source)
            old_levels, old_depth = sorted_bfs_levels(g, source)
            assert len(levels) == len(old_levels), (g, source)
            depth = np.full(g.flag_count, -1, dtype=np.int32)
            depth[source] = 0
            for d, ((flags, parents, colours), (old_flags, _, _)) in enumerate(
                    zip(levels, old_levels), start=1):
                assert (depth[flags] == -1).all() and np.unique(flags).size == flags.size
                assert (depth[parents] == d - 1).all()
                assert np.array_equal(flags, g.adj[colours, parents])
                assert np.array_equal(np.sort(flags), old_flags)
                depth[flags] = d
            assert np.array_equal(depth, old_depth), (g, source)
        assert np.array_equal(g.depths(), sorted_bfs_levels(g)[1])
    assert not graphs[-1].is_connected()


def test_flag_tables_are_c_contiguous(corpus):
    # bfs_levels takes whole columns at every level, which copies an F-order table
    graphs = [corpus.graph(label) for label in CORPUS] + [hypercube(6)]
    graphs.append(parse_maniplex_text(write_maniplex_text(hypercube(4))))
    spec = parse_map_text(resources.files("maniplex").joinpath("data/cube.map").read_text())
    graphs.append(map_from_faces(spec))
    g = hypercube(4)
    graphs += [face_maniplex(g, 3, 0), oriented_digraph(g, orientation(g)), recolour_dual(g)]
    for g in graphs:
        assert g.adj.flags.c_contiguous, g


def test_incremental_orbit_labels_match_the_full_relabel(corpus):
    graphs = [corpus.graph(label) for label in CORPUS if corpus.graph(label).flag_count <= 1000]
    # relabelled, the orbits so far meet the new generator out of flag order
    graphs += [relabel(g, random.Random(seed)) for g in list(graphs) for seed in range(3)]
    graphs += [construction(label) for label in ("simplex:6", "torus44:20,0", "prism:200")]
    graphs += list(seeded_random_maps(120))
    for g in graphs:
        new, old = aut_group(g), relabel_aut_group(g)
        assert new.targets.tolist() == old.targets.tolist(), g
        assert [p.tolist() for p in new.generators] == [p.tolist() for p in old.generators], g
        assert new.orbit_of.tolist() == old.orbit_of.tolist() and new.orbit_count == old.orbit_count
