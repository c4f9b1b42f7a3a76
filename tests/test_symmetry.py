import itertools

import numpy as np

from maniplex.constructions import cube, polygon, pyramid, simplex, torus44
from maniplex.symmetry import aut_group, invert
from oracles import are_isomorphic, compose, extend_automorphism, identity


def all_automorphisms_brute(g):
    """Oracle: filter every permutation of the flags (tiny graphs only)."""
    out = []
    for perm in itertools.permutations(range(g.flag_count)):
        img = np.array(perm, dtype=np.int32)
        if all(np.array_equal(img[g.adj[i]], g.adj[i][img]) for i in range(g.rank)):
            out.append(img)
    return out


def test_aut_matches_full_permutation_search():
    for g in (polygon(2), polygon(3), simplex(2)):
        expect = {a.tobytes() for a in all_automorphisms_brute(g)}
        a = aut_group(g)
        got = {a.element(t).tobytes() for t in a.targets}
        assert got == expect
        assert len(got) == len(expect)


def test_identity_extension():
    g = cube()
    auto = extend_automorphism(g, 5, 5)
    assert auto is not None
    assert np.array_equal(auto, identity(g.flag_count))


def test_cube_every_target_extends():
    g = cube()
    assert all(extend_automorphism(g, 0, t) is not None for t in range(g.flag_count))


def test_pyramid_distinct_orbits_do_not_extend():
    g = pyramid(4)
    a = aut_group(g)
    assert a.orbit_count == 4
    source = 0
    for target in range(g.flag_count):
        extended = extend_automorphism(g, source, target) is not None
        assert extended == (a.orbit_of[source] == a.orbit_of[target])


def test_group_axioms_and_semiregularity():
    for g in (cube(), pyramid(4), torus44(1, 2)):
        a = aut_group(g)
        elements = [a.element(t) for t in a.targets]
        keys = {el.tobytes() for el in elements}
        assert identity(g.flag_count).tobytes() in keys
        for el in elements[:8]:
            assert invert(el).tobytes() in keys
            assert compose(el, elements[-1]).tobytes() in keys
        for el in elements:
            fixed = np.nonzero(el == identity(g.flag_count))[0]
            assert fixed.size in (0, g.flag_count)
        assert a.order * a.orbit_count == g.flag_count


def test_orbit_ids_by_least_flag():
    a = aut_group(pyramid(4))
    firsts = [int(np.nonzero(a.orbit_of == o)[0][0]) for o in range(a.orbit_count)]
    assert firsts == sorted(firsts)
    assert a.orbit_of[0] == 0


def test_are_isomorphic_size_mismatch():
    assert are_isomorphic(cube(), simplex(3)) is None


def test_are_isomorphic_finds_colour_bijection():
    g1, g2 = torus44(1, 2), torus44(2, 1)
    m = are_isomorphic(g1, g2)
    assert m is not None
    for i in range(g1.rank):
        assert np.array_equal(m[g1.adj[i]], g2.adj[i][m])


def test_same_size_non_isomorphic():
    # both have 200 flags; one is reflexible, the other chiral
    assert are_isomorphic(torus44(5, 0), torus44(4, 3)) is None
