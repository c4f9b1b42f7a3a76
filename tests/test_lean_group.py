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

from maniplex import oriented, symmetry
from maniplex.cli import main
from maniplex.constructions import CORPUS, construction, torus44
from maniplex.flag_graph import InternalCheckError
from maniplex.formats import write_maniplex_text
from maniplex.oriented import aut_plus, orientation
from maniplex.stg import quotient
from maniplex.symmetry import are_isomorphic, aut_group
from maniplex.walkgen import generates_full_group, realize_generators
from oracles import closure, orbit_partition, random_map, relabel, trial_extension_elements


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
        ap = aut_plus(g, o)
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
    ap = aut_plus(g, o, aut=a)
    assert calls == []
    assert ap.targets.tolist() == [t for t in a.targets.tolist()
                                   if o.colour_of[t] == o.colour_of[0]]


def test_a_wrong_schreier_set_is_caught(monkeypatch):
    g = construction("hypercube:4")
    a, o = aut_group(g), orientation(g)
    real = oriented.component_labels

    def without_last(tables, count):
        # aut_plus labels the distinct Schreier products other than the
        # identity, two or fewer per generator of Aut, which an element's
        # image of flag 0 tells apart; on hypercube:4 the last one left
        # out leaves a proper subgroup of Aut+ (order 12, not 192)
        images = [int(q[0]) for q in tables]
        assert 0 not in images and len(set(images)) == len(images) <= 2 * len(a.generators)
        return real(tables[:-1], count)

    monkeypatch.setattr(oriented, "component_labels", without_last)
    with pytest.raises(InternalCheckError, match="not half"):
        aut_plus(g, o, aut=a)


def test_generates_full_group_rejects_a_proper_subgroup():
    g = construction("cuboctahedron")
    a = aut_group(g)
    s = realize_generators(g, a, quotient(g, a))
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
