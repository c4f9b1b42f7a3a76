import random
import re
import warnings
from collections import Counter
from itertools import product

import numpy as np
import pytest

from maniplex import stg
from maniplex.cli import main
from maniplex.constructions import CORPUS, cube, cuboctahedron, prism, pyramid, torus44
from maniplex.enumeration import enumerate_stg
from maniplex.flag_graph import InternalCheckError
from maniplex.oriented import (OrientedSTG, aut_plus, orientation, oriented_stg,
                               stg_has_odd_closed_walk)
from maniplex.stg import (SEMI, FourOrbitFamily, Regular, SymmetryTypeGraph,
                          ThreeOrbitJ, ThreeOrbitJJ1, TwoOrbit, bipartition, check_all,
                          class_labels, classify, face_orbit_splits, quotient, stg_violations,
                          transitivity_profile)
from maniplex.symmetry import aut_group
from oracles import (edge_pattern_three_orbit, face_maniplex, i_faces, is_admissible,
                     is_i_face_transitive, loop_violations, orbit_loop_oriented_stg,
                     orbit_loop_quotient, random_map, relabel, stg_from_slots,
                     verify_face_projection, walk_facts)
from test_enumeration import CODE_GRID


def test_cube_quotient_is_one_vertex_all_semi():
    g = cube()
    t = quotient(aut_group(g))
    assert t.vertex_count == 1
    assert t.slots == [[SEMI, SEMI, SEMI]]


def test_cuboctahedron_quotient_slots():
    g = cuboctahedron()
    t = quotient(aut_group(g))
    assert t.vertex_count == 2
    assert t.slots == [[SEMI, SEMI, 1], [SEMI, SEMI, 0]]


def test_quotient_vertex_count_is_orbit_count(corpus):
    for label in ("prism:5", "pyramid:6", "torus44:1,3", "cuboctahedron"):
        assert corpus.stg(label).vertex_count == corpus.aut(label).orbit_count


def test_transitivity_cuboctahedron():
    g = cuboctahedron()
    t = quotient(aut_group(g))
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
        t = quotient(aut_group(g))
        assert transitivity_profile(t) == expected, name


def test_colour_out_of_range(corpus):
    for label, colours in [("cube", (-1, 3)), ("prism:5", (-1, 3, 7))]:
        t = corpus.stg(label)
        for i in colours:
            for question in (is_i_face_transitive, face_orbit_splits):
                with pytest.raises(ValueError, match=f"colour {i} out of range for rank 3"):
                    question(t, i)


def test_classify_corpus():
    assert classify(quotient(aut_group(cube()))) == Regular()
    g = cuboctahedron()
    assert classify(quotient(aut_group(g))) == TwoOrbit(frozenset({0, 1}))
    g = prism(3)
    assert classify(quotient(aut_group(g))) == ThreeOrbitJJ1(1)
    g = torus44(1, 2)
    assert classify(quotient(aut_group(g))) == TwoOrbit(frozenset())
    g = pyramid(4)
    cls = classify(quotient(aut_group(g)))
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


def test_classify_matches_the_edge_pattern_on_three_vertices(corpus):
    # the profile-based names against the edge-pattern match they replaced,
    # on every three-vertex class up to ten colours and every 3-orbit item
    classes = [t for n in range(2, 11) for t in enumerate_stg(n, 3)]
    items = [t for label in CORPUS if (t := corpus.stg(label)).vertex_count == 3]
    assert (len(classes), len(items)) == (81, 5)  # prism:3 and prism:5-8
    for t in classes + items:
        expected = edge_pattern_three_orbit(t)
        assert expected is not None and classify(t) == expected, t.tables
    assert class_labels(classes) == [classify(t).label() for t in classes]


def test_classify_raises_on_a_three_vertex_profile_outside_the_paper(monkeypatch, capsys):
    # the paper leaves {j} and {j, j+1} only; another profile is a bug
    t = quotient(aut_group(prism(3)))
    monkeypatch.setattr(stg, "transitivity_profile", lambda t: frozenset({0, 2}))
    with pytest.raises(InternalCheckError):
        classify(t)
    assert main(["analyze", "prism:3"]) == 4
    assert "internal check failed:" in capsys.readouterr().err


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
    with pytest.raises(ValueError) as info:
        classify(t)
    assert str(info.value) == f"not an admissible symmetry type graph: {stg_violations(t)}"


def test_admissibility_rejects_asymmetry():
    t = stg_from_slots(((1,), (2,), (0,)))
    assert any("asymmetric" in line for line in stg_violations(t))


def test_violations_of_malformed_tables():
    # a table of the wrong length, a value out of range, a non-involution
    with pytest.raises(ValueError, match="inhomogeneous"):
        SymmetryTypeGraph(((1, 0), (0,)))
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
        assert quotient(a) == orbit_loop_quotient(g, a)
        o = orientation(g)
        if o is not None and g.rank >= 2:
            ap = aut_plus(a, o)
            assert oriented_stg(ap, o) == orbit_loop_oriented_stg(g, o, ap)
            oriented += 1
    assert oriented > len(graphs) // 3


def test_quotient_always_admissible(corpus):
    for label in ("prism:6", "pyramid:5", "torus44:2,1", "hemicube", "simplex:4"):
        assert is_admissible(corpus.stg(label))


def test_face_projection_cube():
    a = aut_group(cube())
    assert verify_face_projection(a, quotient(a), 2, 0)


def test_face_projection_prism_triangle_and_cubocta_square(corpus):
    g = corpus.graph("prism:3")
    part = i_faces(g, 2)
    for face in range(part.face_count):
        assert verify_face_projection(corpus.aut("prism:3"), corpus.stg("prism:3"), 2, face)
        sub = face_maniplex(g, 2, face)
        if sub.flag_count == 6:
            assert aut_group(sub).orbit_count == 1

    g = corpus.graph("cuboctahedron")
    part = i_faces(g, 2)
    for face in range(part.face_count):
        assert verify_face_projection(corpus.aut("cuboctahedron"), corpus.stg("cuboctahedron"),
                                      2, face)


@pytest.mark.parametrize("label, other, counts", [
    ("cuboctahedron", "prism:4", "vertex count 1 is not the group's orbit count 2"),
    ("pyramid:4", "prism:4", "vertex count 1 is not the group's orbit count 4"),
    ("prism:5", "pyramid:5", "vertex count 4 is not the group's orbit count 3")])
def test_face_projection_rejects_a_quotient_of_another_orbit_count(corpus, label, other, counts):
    g = corpus.graph(label)
    for i in range(1, g.rank):
        for face in range(i_faces(g, i).face_count):
            with pytest.raises(ValueError, match=counts):
                verify_face_projection(corpus.aut(label), corpus.stg(other), i, face)


def test_three_orbit_classes_have_reflexible_j_faces(corpus):
    # the distinguished-face structure of each 3-orbit corpus item is 1-orbit
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


@pytest.mark.parametrize("extra", [[], ["--generators", "--oriented"], ["--oriented"]])
def test_analyze_checks_each_stg_once(monkeypatch, capsys, extra):
    checked = []
    check = stg._check
    monkeypatch.setattr(stg, "_check", lambda ts, *rest: checked.extend(ts) or check(ts, *rest))
    assert main(["analyze", "prism:5", "--json"] + extra) == 0
    capsys.readouterr()
    # one pass over the one STG: the profile, the class and, under
    # --oriented, the bipartition are read off what it kept
    assert len(checked) == 1


def test_stg_violations_returns_a_new_list_each_call():
    for slots in [((SEMI, SEMI, SEMI),), ((1, SEMI), (SEMI, SEMI))]:
        t = stg_from_slots(slots)
        first = stg_violations(t)
        expected = list(first)
        first.append("mutated")
        assert stg_violations(t) == expected
        assert stg_violations(t) is not stg_violations(t)



# the array check of stg._check against the loop it replaced


MALFORMED = [((1, 0), (0, 2)), ((1, 2, 0),), ((1, 0, 1),), ((1, 0), (-1, 1)),
             ((1, 0, 2), (0, 1, 2), (0, 2, 1)), ((1, 0, 2), (0, 2, 1), (2, 1, 0)),
             ((1, 0, 3, 2), (0, 1, 2, 3)), ((5, 0), (1, 0))]
# tables of unequal lengths, which no graph holds: its construction refuses them
RAGGED = [((1, 0), (0,)), ((0,), (0, 1), (1, 0, 2))]


def fresh(t):
    """An unchecked copy of ``t``."""
    return SymmetryTypeGraph(t.tables)


def check_by_shape(graphs):
    """``check_all`` once per table shape among ``graphs``."""
    shapes = {}
    for t in graphs:
        shapes.setdefault(tuple(map(len, t.tables)), []).append(t)
    for group in shapes.values():
        check_all(group)


def test_array_check_matches_the_loop_on_malformed_tables():
    for tables in MALFORMED:
        t = SymmetryTypeGraph(tables)
        assert stg_violations(t) == loop_violations(t), tables
        assert [list(problems) for problems, _, _ in stg._check([fresh(t)], {})] == [
            loop_violations(t)], tables


@pytest.mark.parametrize("tables", RAGGED + [(1, 0), (((1, 0),),)])
def test_tables_of_another_shape_are_refused(tables):
    with pytest.raises(ValueError):
        SymmetryTypeGraph(tables)


@pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
def test_no_colour_or_no_vertex_is_refused_with_its_shape(shape):
    # such tables were once accepted, and the check then failed inside
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
        SymmetryTypeGraph(np.zeros(shape, np.int32))
    with pytest.raises(ValueError, match=re.escape("shape (0,)")):
        OrientedSTG(tables=np.zeros((shape[0], 0), np.int32), dart=[])
    # a rank-2 oriented quotient has no undirected class at all
    assert OrientedSTG(tables=np.zeros((0, 2), np.int32), dart=[1, 0]).rank == 2


@pytest.mark.parametrize("entry", [2**31, 2**32 + 1, -2**31 - 1, 0.5])
def test_entries_that_int32_does_not_hold_are_refused(entry):
    # an int64 array once narrowed unchecked: 2**32 + 1 read as 1
    for tables in (np.array([[1, entry]]), [[1, entry]]):
        with pytest.raises((ValueError, OverflowError)):
            SymmetryTypeGraph(tables)
        with pytest.raises((ValueError, OverflowError)):
            OrientedSTG(tables=tables, dart=(0, 1))


def random_defective_tables(rng):
    """Random involutions on up to eight points, with some of: entries out
    of range, asymmetric entries, a second component, non-commuting
    colours (which random involutions mostly are already)."""
    k, colours = rng.randint(1, 8), rng.randint(1, 6)
    tables = []
    for _ in range(colours):
        points = list(range(k))
        rng.shuffle(points)
        m = list(range(k))
        for u, v in zip(points[::2], points[1::2]):
            if rng.random() < 0.6:
                m[u], m[v] = v, u
        tables.append(m)
    if rng.random() < 0.3:  # a second component: disjoint union with a copy
        tables = [m + [v + k for v in m] for m in tables]
        k *= 2
    if rng.random() < 0.2:  # a commuting tuple: every colour the same table
        tables = [list(tables[0]) for _ in tables]
    for _ in range(rng.choice([0, 0, 1, 2])):  # an out-of-range entry
        rng.choice(tables)[rng.randrange(k)] = rng.choice([-1, k, k + 3, -7])
    for _ in range(rng.choice([0, 0, 1, 2])):  # an asymmetric entry
        rng.choice(tables)[rng.randrange(k)] = rng.randrange(k)
    return tuple(map(tuple, tables))


def test_array_check_matches_the_loop_on_random_defects():
    rng = random.Random(15)
    graphs, kinds = [], set()
    for _ in range(2000):
        t = SymmetryTypeGraph(random_defective_tables(rng))
        expected = loop_violations(t)
        assert stg_violations(t) == expected, t.tables
        graphs.append((fresh(t), expected))
        words = {line.split()[0] for line in expected}
        kinds |= words | {"admissible" if not words else "mixed" if len(words) > 1 else "single"}
    assert kinds >= {"slot", "asymmetric", "disconnected", "bad", "admissible", "single", "mixed"}
    # one check_all per table shape gives each graph its own result
    check_by_shape([t for t, _ in graphs])
    assert [stg_violations(t) for t, _ in graphs] == [expected for _, expected in graphs]


def test_array_check_matches_the_loop_on_quotients(corpus):
    graphs = [corpus.stg(label) for label in CORPUS]
    rng = random.Random(16)
    for sheets, orientable in product((1, 2, 3), (True, False)):
        g = random_map(rng, 60 // sheets, sheets, orientable)
        graphs.append(quotient(aut_group(g)))
    for t in graphs:
        assert [list(problems) for problems, _, _ in stg._check([fresh(t)], {})] == [
            loop_violations(t)] == [[]]
    # an asymmetric entry in each with two vertices or more: m[0] moved on by one
    broken = []
    for t in graphs:
        k = t.vertex_count
        for c in range(t.rank if k > 1 else 0):
            tables = t.tables.copy()
            tables[c, 0] = (tables[c, 0] + 1) % k
            broken.append(SymmetryTypeGraph(tables))
    check_by_shape(broken)
    assert [stg_violations(t) for t in broken] == [loop_violations(t) for t in broken]
    assert len(broken) > 80 and all(stg_violations(t) for t in broken)


def test_check_all_keeps_each_result_and_skips_checked_graphs(monkeypatch):
    graphs = [SymmetryTypeGraph(tables) for tables in MALFORMED]
    check_by_shape(graphs[:3])
    calls = []
    check = stg._check
    monkeypatch.setattr(stg, "_check", lambda ts, *rest: calls.append(len(ts)) or check(ts, *rest))
    check_by_shape(graphs)
    assert sum(calls) == len(graphs) - 3
    assert [stg_violations(t) for t in graphs] == [loop_violations(t) for t in graphs]
    assert sum(calls) == len(graphs) - 3  # stg_violations read what was kept


# the facts the check keeps against the depth-first walk it replaced


def listed(facts):
    """Kept facts, read-only arrays or None, as lists."""
    assert all(a is None or not a.flags.writeable for a in facts)
    return [None if a is None else a.tolist() for a in facts]


def check_facts(graphs):
    """Each graph's kept facts, found in one batch per table shape and
    alone, equal the walk's; so do the answers read off them."""
    check_by_shape(graphs)
    for t in graphs:
        without, side = walk_facts(t)
        expected = [list(map(list, without)), None if side is None else list(side)]
        assert listed(stg._well_formed(t)) == listed(stg._check([t], {})[0][1:]) == expected, t
        assert listed([bipartition(t)]) == expected[1:]
        assert stg_has_odd_closed_walk(t) == (side is None)
        assert transitivity_profile(t) == {i for i, labels in enumerate(without) if any(labels)}
        for i, labels in enumerate(without):
            sizes = tuple(sorted(Counter(labels).values()))
            assert face_orbit_splits(t, i) == sizes
            assert is_i_face_transitive(t, i) == (sizes == (t.vertex_count,))


def test_facts_match_the_walk_on_random_tables():
    # the defect-free draws of random_defective_tables
    rng, graphs = random.Random(17), []
    while len(graphs) < 2000:
        t = SymmetryTypeGraph(random_defective_tables(rng))
        if not any(line.split()[0] in ("slot", "asymmetric") for line in loop_violations(t)):
            graphs.append(t)
    check_facts(graphs)
    kinds = {word for t in graphs for word in [line.split()[0] for line in stg_violations(t)]
             or ["admissible"]}
    assert kinds == {"disconnected", "bad", "admissible"}
    assert any(m[u] == u for t in graphs for m in t.tables for u in range(len(m)))
    assert any(bipartition(t) is not None for t in graphs)


@pytest.mark.parametrize("n_colours,k", CODE_GRID)
def test_facts_match_the_walk_on_every_class(n_colours, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        check_facts(enumerate_stg(n_colours, k))


def test_facts_match_the_walk_on_quotients(corpus):
    graphs = [corpus.stg(label) for label in CORPUS]
    rng = random.Random(18)
    for sheets, orientable in product((1, 2, 3), (True, False)):
        g = random_map(rng, 60 // sheets, sheets, orientable)
        graphs.append(quotient(aut_group(g)))
    check_facts(graphs)


MALFORMED_QUESTIONS = [transitivity_profile, lambda t: is_i_face_transitive(t, 0),
                       lambda t: face_orbit_splits(t, 0), stg_has_odd_closed_walk]


@pytest.mark.parametrize("tables", [((1, 0, 2), (0, 2, 1), (3, 1, 0)),
                                    ((1, 1, 2), (0, 2, 1), (1, 0, 2))])
def test_questions_on_malformed_tables_raise_value_error(tables):
    for question in MALFORMED_QUESTIONS:
        t = SymmetryTypeGraph(tables)
        problems = loop_violations(t)
        assert problems and "disconnected" not in problems
        with pytest.raises(ValueError) as info:
            question(t)
        assert str(info.value) == f"not a well-formed symmetry type graph: {problems}"
