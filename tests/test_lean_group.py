"""The lean automorphism group (generators, orbit of flag 0, orbit
partition) against trial extension of flag 0 to every flag."""

import contextlib
import io
import json
import math
import random
import time
from itertools import product

import numpy as np
import pytest

import oracles
from maniplex import symmetry, walkgen
from maniplex.cli import main
from maniplex.constructions import CORPUS, construction, torus44
from maniplex.flag_graph import InternalCheckError, component_labels
from maniplex.formats import write_maniplex_text
from maniplex.oriented import aut_plus, orientation
from maniplex.stg import quotient
from maniplex.symmetry import aut_group, invert
from maniplex.walkgen import generates_full_group, realize_generators, reduce_generators
from oracles import (are_isomorphic, closure, orbit_partition, random_map, relabel,
                     schreier_aut_plus, trial_extension_elements)


def check_against_oracle(g, a=None):
    """Order, targets and orbit_of of Aut and Aut+ match the oracle's."""
    elements = trial_extension_elements(g)
    a = aut_group(g) if a is None else a
    assert a.order == len(elements)
    assert a.targets.tolist() == sorted(int(el[0]) for el in elements)
    assert np.array_equal(a.orbit_of, orbit_partition(elements))
    assert a.orbit_count * a.order == g.flag_count
    o = orientation(g)
    if o is not None:
        kept = [el for el in elements if o.colour_of[el[0]] == o.colour_of[0]]
        ap = aut_plus(a, o)
        assert ap.targets.tolist() == sorted(int(el[0]) for el in kept)
        assert np.array_equal(ap.orbit_of, orbit_partition(kept))
    return a


def test_aut_group_matches_trial_extension_on_corpus(corpus):
    for label in CORPUS:
        check_against_oracle(corpus.graph(label), corpus.aut(label))


def random_maps():
    """Seeded random maps with Z_s sheet symmetry, s = 1, 2, 3, orientable
    or not, at three sizes, each with a random relabelling."""
    rng = random.Random(2024)
    for extra, sheets, orientable in product(range(3), (1, 2, 3), (True, False)):
        g = random_map(rng, 30 // sheets + extra, sheets, orientable)
        yield sheets, g, relabel(g, rng)


def test_aut_group_matches_trial_extension_on_random_maps():
    for sheets, g, moved in random_maps():
        a = check_against_oracle(g)
        b = check_against_oracle(moved)
        assert a.order % sheets == 0
        assert (a.order, a.orbit_count) == (b.order, b.orbit_count)
        m = are_isomorphic(g, moved)
        assert m is not None
        assert all(np.array_equal(m[g.adj[i]], moved.adj[i][m]) for i in range(g.rank))


def test_elements_recomputed_from_targets():
    g = torus44(2, 1)
    a = aut_group(g)
    elements = [a.element(t) for t in a.targets]
    assert [int(el[0]) for el in elements] == a.targets.tolist()
    generated = closure(a.generators, g.flag_count)
    assert {el.tobytes() for el in elements} == {el.tobytes() for el in generated}
    p = aut_group(construction("pyramid:4"))
    with pytest.raises(ValueError):
        p.element(int(np.flatnonzero(p.orbit_of != 0)[0]))


@pytest.mark.parametrize("label", ["cube", "simplex:4", "hypercube:4", "torus44:3,0"])
def test_regular_search_needs_at_most_log2_extensions(label, monkeypatch):
    g = construction(label)
    calls = []
    real = symmetry._extend

    def counted(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(symmetry, "_extend", counted)
    a = aut_group(g)
    assert a.orbit_count == 1
    assert len(a.generators) == len(calls) <= math.log2(g.flag_count)


@pytest.mark.parametrize("label", ["cube", "hypercube:4", "torus44:1,2", "random"])
def test_aut_plus_makes_no_trial_extension(label, monkeypatch):
    g = random_map(random.Random(3), 15, 2, True) if label == "random" else construction(label)
    a, o = aut_group(g), orientation(g)
    calls = []
    real = symmetry._extend
    monkeypatch.setattr(symmetry, "_extend", lambda *args: calls.append(1) or real(*args))
    ap = aut_plus(a, o)
    assert calls == []
    assert ap.targets.tolist() == [t for t in a.targets.tolist()
                                   if o.colour_of[t] == o.colour_of[0]]


def test_a_wrong_schreier_set_is_caught(monkeypatch):
    g = construction("hypercube:4")
    a, o = aut_group(g), orientation(g)
    real = oracles._both_ways

    def without_last(tables):
        # the Schreier route labels the distinct products other than the
        # identity, two or fewer per generator of Aut, which an element's
        # image of flag 0 tells apart, and their inverses; on hypercube:4
        # the last one left out, inverse and all, leaves a proper subgroup
        # of Aut+ (order 12, not 192)
        images = [int(q[0]) for q in tables]
        assert 0 not in images and len(set(images)) == len(images) <= 2 * len(a.generators)
        return real(tables[:-1])

    monkeypatch.setattr(oracles, "_both_ways", without_last)
    with pytest.raises(InternalCheckError, match="not half"):
        schreier_aut_plus(a, o)


def test_generators_of_order_above_two_are_labelled_with_their_inverses(monkeypatch):
    # a root hooks one step forward only, so a cycle u -> u + 1 alone took
    # one round per point: each automorphism that is no involution must
    # come with its inverse to the group search's, the Schreier route's
    # and the generator closure's labellings
    calls = {}
    for module, name in ((symmetry, "_hook"), (oracles, "component_labels"),
                         (walkgen, "component_labels")):
        seen = calls[module.__name__] = []

        def recorded(tables, *args, real=getattr(module, name), seen=seen):
            seen.append(list(tables))
            return real(tables, *args)

        monkeypatch.setattr(module, name, recorded)
    g = random_map(random.Random(5), 20, 250, False)
    a = aut_group(g)
    s = reduce_generators(realize_generators(a, quotient(a)))
    assert generates_full_group(s, a)
    assert a.order == 250 and len(a.generators) == 1
    assert len(s.automorphisms) == 20 and all(p[p[0]] != 0 for p in s.automorphisms)
    h = construction("hypercube:4")
    schreier_aut_plus(aut_group(h), orientation(h))
    for module, seen in calls.items():
        long_cycles = 0
        for tables in seen:
            for p in tables:
                if p[p[0]] != 0:
                    long_cycles += 1
                    assert any(np.array_equal(q, invert(p)) for q in tables), module
        assert long_cycles, module


def test_a_cycle_labelled_with_its_inverse_gives_the_forward_labels():
    n = 16_000
    p = np.roll(np.arange(n), -1)  # u -> u + 1
    assert np.array_equal(component_labels([p, invert(p)], n), component_labels([p], n))


def test_generates_full_group_rejects_a_proper_subgroup():
    g = construction("cuboctahedron")
    a = aut_group(g)
    s = realize_generators(a, quotient(a))
    assert generates_full_group(s, a)
    s.automorphisms = s.automorphisms[:1]
    assert len(closure(s.automorphisms, g.flag_count)) < a.order
    assert not generates_full_group(s, a)


def test_non_isomorphic_random_maps_cost_no_extension(monkeypatch):
    rng = random.Random(11)
    g1, g2 = (random_map(rng, 40, 1, True) for _ in range(2))
    calls = []
    real = symmetry._extend
    monkeypatch.setattr(symmetry, "_extend", lambda *args: calls.append(1) or real(*args))
    assert are_isomorphic(g1, g2) is None
    assert len(calls) < g1.flag_count // 10


def analyze_file(tmp_path, g, *flags):
    path = tmp_path / "input.mnpx"
    path.write_text(write_maniplex_text(g))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(path), "--json", *flags]) == 0
    return json.loads(out.getvalue())


def test_generators_on_twenty_orbit_map(tmp_path):
    g = random_map(random.Random(4), 5, 1, True)
    report = analyze_file(tmp_path, g, "--generators")
    assert report["orbit_count"] == 20
    assert report["generators"]["matches_aut"] is True


def test_generators_on_2400_flag_random_map(tmp_path):
    g = random_map(random.Random(7), 600, 1, True)
    start = time.perf_counter()
    report = analyze_file(tmp_path, g, "--generators", "--oriented")
    assert time.perf_counter() - start < 5
    assert report["orbit_count"] == 2400 == g.flag_count
    assert report["generators"]["matches_aut"] is True


REGULAR_EXTRA = ("simplex:6", "hypercube:5", "torus44:20,0")


def test_regular_generators_are_the_neighbour_trials(corpus, monkeypatch):
    # on one orbit the group's generators are the rho_c that send flag 0
    # to its colour-c neighbour, each tried in colour order unless the
    # group so far already reaches it; every semi-edge word ends at one of
    # those neighbours, so the report extends none of them again
    labels = [label for label in CORPUS if corpus.aut(label).orbit_count == 1]
    labels += list(REGULAR_EXTRA)
    assert len(labels) > 20 and all(corpus.aut(label).orbit_count == 1 for label in labels)
    calls = []
    real = symmetry._extend

    def counted(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(symmetry, "_extend", counted)
    extended = {}
    for label in labels:
        g, a, t = corpus.graph(label), corpus.aut(label), corpus.stg(label)
        found = []
        for target in g.adj[:, 0].tolist():
            if component_labels(a.generators[:len(found)], g.flag_count)[target] != 0:
                found.append(target)
        assert [int(p[0]) for p in a.generators] == found, label
        calls.clear()
        realize_generators(a, t)
        if calls:
            extended[label] = calls[:]
    # on the degenerate tori {4,4}_(1,0) and (0,1), rho_2 lies in the
    # group of rho_0 and rho_1, so its word alone needs an extension
    assert extended == {"torus44:0,1": [7], "torus44:1,0": [7]}
