"""The array routes of the builders, the cycle notation and the orbit
labels against the per-flag loops they replaced (kept in oracles.py)."""

import random
from itertools import product

import numpy as np
import pytest

from maniplex.constructions import CORPUS, hypercube, polygon, simplex, torus44
from maniplex.flag_graph import component_labels, components
from maniplex.formats import cycle_string
from maniplex.oriented import orientation
from maniplex.symmetry import invariant_colours, search_group
from maniplex.walkgen import realize_generators, reduce_generators
from oracles import (loop_cycle_string, loop_hypercube, loop_polygon, loop_simplex,
                     loop_torus44, random_map, relabel, tree_search_group)


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


def check_search(g):
    colour = invariant_colours(g.adj)
    candidates = [np.flatnonzero(colour == colour[0])]
    a = search_group(g, candidates[0])
    o = orientation(g)
    if o is not None:
        candidates.append(a.targets[o.colour_of[a.targets] == o.colour_of[0]])
    for cands in candidates:
        new, old = search_group(g, cands), tree_search_group(g, cands)
        assert np.array_equal(new.targets, old.targets)
        assert np.array_equal(new.orbit_of, old.orbit_of)
        assert new.orbit_count == old.orbit_count
        assert [p.tolist() for p in new.generators] == [p.tolist() for p in old.generators]


def test_search_group_matches_tree_route_on_corpus(corpus):
    for label in CORPUS:
        check_search(corpus.graph(label))


def test_search_group_matches_tree_route_on_random_maps():
    rng = random.Random(31)
    for sheets, orientable in product((1, 2, 3), (True, False)):
        g = random_map(rng, 36 // sheets, sheets, orientable)
        check_search(g)
        check_search(relabel(g, rng))
