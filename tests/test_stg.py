import random
from itertools import product

import pytest

from maniplex import stg
from maniplex.cli import main
from maniplex.constructions import CORPUS, cube, cuboctahedron, prism, pyramid, torus44
from maniplex.flag_graph import i_faces
from maniplex.oriented import aut_plus, orientation, oriented_stg
from maniplex.stg import (SEMI, FourOrbitFamily, Regular, SymmetryTypeGraph,
                          ThreeOrbitJ, ThreeOrbitJJ1, TwoOrbit, classify,
                          is_admissible, is_i_face_transitive, quotient,
                          stg_violations, transitivity_profile,
                          verify_face_projection)
from maniplex.symmetry import aut_group
from oracles import (orbit_loop_oriented_stg, orbit_loop_quotient, random_map, relabel,
                     stg_from_slots)


def test_cube_quotient_is_one_vertex_all_semi():
    g = cube()
    t = quotient(g, aut_group(g))
    assert t.vertex_count == 1
    assert t.slots == ((SEMI, SEMI, SEMI),)


def test_cuboctahedron_quotient_slots():
    g = cuboctahedron()
    t = quotient(g, aut_group(g))
    assert t.vertex_count == 2
    assert t.slots == ((SEMI, SEMI, 1), (SEMI, SEMI, 0))


def test_quotient_vertex_count_is_orbit_count(corpus):
    for label in ("prism:5", "pyramid:6", "torus44:1,3", "cuboctahedron"):
        assert corpus.stg(label).vertex_count == corpus.aut(label).orbit_count


def test_transitivity_cuboctahedron():
    g = cuboctahedron()
    t = quotient(g, aut_group(g))
    assert is_i_face_transitive(t, 0)
    assert is_i_face_transitive(t, 1)
    assert not is_i_face_transitive(t, 2)


def test_transitivity_matches_face_orbit_counts(corpus):
    # independent oracle: count face orbits through the face partition
    for label in ("prism:3", "pyramid:4", "cuboctahedron", "torus44:1,2"):
        g, a, t = corpus.graph(label), corpus.aut(label), corpus.stg(label)
        for i in range(g.rank):
            part = i_faces(g, i)
            orbit_signature = {
                frozenset(int(a.orbit_of[f]) for f in part.flags_of(face))
                for face in range(part.face_count)
            }
            face_orbits = len(orbit_signature)
            assert is_i_face_transitive(t, i) == (face_orbits == 1), (label, i)


def test_single_vertex_always_transitive():
    t = stg_from_slots(((SEMI,) * 4,))
    assert all(is_i_face_transitive(t, i) for i in range(4))


def test_profiles():
    graphs = {
        "cube": (cube(), frozenset()),
        "prism3": (prism(3), frozenset({1, 2})),
        "pyramid4": (pyramid(4), frozenset({0, 1, 2})),
    }
    for name, (g, expected) in graphs.items():
        t = quotient(g, aut_group(g))
        assert transitivity_profile(t) == expected, name


def test_colour_out_of_range():
    t = quotient(cube(), aut_group(cube()))
    with pytest.raises(ValueError):
        is_i_face_transitive(t, 3)


def test_classify_corpus():
    assert classify(quotient(cube(), aut_group(cube()))) == Regular()
    g = cuboctahedron()
    assert classify(quotient(g, aut_group(g))) == TwoOrbit(frozenset({0, 1}))
    g = prism(3)
    assert classify(quotient(g, aut_group(g))) == ThreeOrbitJJ1(1)
    g = torus44(1, 2)
    assert classify(quotient(g, aut_group(g))) == TwoOrbit(frozenset())
    g = pyramid(4)
    cls = classify(quotient(g, aut_group(g)))
    assert isinstance(cls, FourOrbitFamily)
    assert cls.profile == frozenset({0, 1, 2})


def test_classify_three_orbit_with_parallel_edges():
    # middle vertex with one j-edge and parallel (j-1, j+1)-edges
    t = stg_from_slots((
        (SEMI, 1, SEMI),
        (2, 0, 2),
        (1, SEMI, 1),
    ))
    assert is_admissible(t)
    assert classify(t) == ThreeOrbitJ(1)


def test_labels():
    assert Regular().label() == "regular"
    assert TwoOrbit(frozenset({0, 1})).label() == "2_{0,1}"
    assert TwoOrbit(frozenset()).label() == "2_∅"
    assert ThreeOrbitJ(1).label() == "3^{1}"
    assert ThreeOrbitJJ1(1).label() == "3^{1,2}"


def test_admissibility_rejects_bad_two_factor():
    # three vertices in one (0,2) component: path, not a 4-cycle quotient
    t = stg_from_slots((
        (1, SEMI, SEMI),
        (0, SEMI, 2),
        (SEMI, SEMI, 1),
    ))
    assert not is_admissible(t)
    assert any("2-factor" in line for line in stg_violations(t))


def test_admissibility_rejects_asymmetry():
    t = stg_from_slots(((1,), (2,), (0,)))
    assert any("asymmetric" in line for line in stg_violations(t))


def test_violations_of_malformed_tables():
    # a table of the wrong length, a value out of range, a non-involution
    assert stg_violations(SymmetryTypeGraph(((1, 0), (0,)))) == [
        "colour 1 has 1 entries, expected 2"]
    assert stg_violations(SymmetryTypeGraph(((1, 0), (0, 2)))) == [
        "slot (1, 1) out of range"]
    assert stg_violations(SymmetryTypeGraph(((1, 2, 0),))) == [
        "asymmetric edge (0, 1) colour 0", "asymmetric edge (1, 2) colour 0",
        "asymmetric edge (2, 0) colour 0"]
    assert stg_violations(SymmetryTypeGraph(((1, 0, 1),))) == [
        "asymmetric edge (2, 1) colour 0"]
    assert not is_admissible(SymmetryTypeGraph(((1, 0), (-1, 1))))


def test_quotients_match_the_orbit_loops(corpus):
    # every corpus label, and seeded random maps, orientable or not, with
    # their relabellings
    graphs = [corpus.graph(label) for label in CORPUS]
    rng = random.Random(8)
    for sheets, orientable in product((1, 2, 3), (True, False)):
        g = random_map(rng, 24 // sheets, sheets, orientable)
        graphs += [g, relabel(g, rng)]
    oriented = 0
    for g in graphs:
        a = aut_group(g)
        assert quotient(g, a) == orbit_loop_quotient(g, a)
        o = orientation(g)
        if o is not None and g.rank >= 2:
            ap = aut_plus(g, o, aut=a)
            assert oriented_stg(g, o, a_plus=ap) == orbit_loop_oriented_stg(g, o, ap)
            oriented += 1
    assert oriented > len(graphs) // 3


def test_quotient_always_admissible(corpus):
    for label in ("prism:6", "pyramid:5", "torus44:2,1", "hemicube", "simplex:4"):
        assert is_admissible(corpus.stg(label))


def test_face_projection_cube():
    g = cube()
    assert verify_face_projection(g, 2, 0)


def test_face_projection_prism_triangle_and_cubocta_square(corpus):
    g = corpus.graph("prism:3")
    part = i_faces(g, 2)
    from maniplex.flag_graph import face_maniplex

    for face in range(part.face_count):
        assert verify_face_projection(g, 2, face, aut=corpus.aut("prism:3"),
                                      stg=corpus.stg("prism:3"))
        sub = face_maniplex(g, 2, face)
        if sub.flag_count == 6:
            assert aut_group(sub).orbit_count == 1

    g = corpus.graph("cuboctahedron")
    part = i_faces(g, 2)
    for face in range(part.face_count):
        assert verify_face_projection(g, 2, face, aut=corpus.aut("cuboctahedron"),
                                      stg=corpus.stg("cuboctahedron"))


def test_three_orbit_classes_have_reflexible_j_faces(corpus):
    # the distinguished-face structure of each 3-orbit corpus item is 1-orbit
    from maniplex.flag_graph import face_maniplex

    for label in ("prism:3", "prism:5", "prism:6"):
        t = corpus.stg(label)
        cls = classify(t)
        assert isinstance(cls, (ThreeOrbitJ, ThreeOrbitJJ1))
        g = corpus.graph(label)
        js = {cls.j} if isinstance(cls, ThreeOrbitJ) else {cls.j, cls.j + 1}
        for j in js:
            if j == 0:
                continue
            part = i_faces(g, j)
            for face in range(part.face_count):
                assert aut_group(face_maniplex(g, j, face)).orbit_count == 1


@pytest.mark.parametrize("extra", [[], ["--generators", "--oriented"]])
def test_analyze_checks_each_stg_once(monkeypatch, capsys, extra):
    checked = []
    check = stg._violations
    monkeypatch.setattr(stg, "_violations", lambda t: checked.append(t) or check(t))
    assert main(["analyze", "prism:5", "--json"] + extra) == 0
    capsys.readouterr()
    # the list keeps every checked graph alive, so ids are not reused
    assert checked and len({id(t) for t in checked}) == len(checked)
    if not extra:
        assert len(checked) == 1


def test_stg_violations_returns_a_new_list_each_call():
    for slots in [((SEMI, SEMI, SEMI),), ((1, SEMI), (SEMI, SEMI))]:
        t = stg_from_slots(slots)
        first = stg_violations(t)
        expected = list(first)
        first.append("mutated")
        assert stg_violations(t) == expected
        assert stg_violations(t) is not stg_violations(t)

