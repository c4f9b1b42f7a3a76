import math
import re

import pytest

from maniplex.constructions import (CORPUS, MapError, MapSpec, construction, cube,
                                    cuboctahedron, hypercube, map_from_faces,
                                    octahedron, polygon, prism, pyramid, simplex,
                                    tetrahedron, torus44)
from maniplex.flag_graph import check_flag_count, validate
from maniplex.symmetry import aut_group
from oracles import are_isomorphic, i_faces


def test_flag_counts_closed_forms():
    assert polygon(5).flag_count == 10
    assert polygon(2).flag_count == 4
    assert simplex(3).flag_count == 24
    assert hypercube(3).flag_count == 48
    assert hypercube(4).flag_count == 384
    assert prism(3).flag_count == 36
    assert pyramid(4).flag_count == 32
    assert cube().flag_count == 48
    assert cuboctahedron().flag_count == 96
    assert torus44(1, 2).flag_count == 40
    assert torus44(2, 0).flag_count == 32


def test_map_from_faces_counts():
    cube_spec = MapSpec(8, ((0, 1, 3, 2), (4, 5, 7, 6), (0, 1, 5, 4),
                            (2, 3, 7, 6), (0, 2, 6, 4), (1, 3, 7, 5)))
    assert map_from_faces(cube_spec).flag_count == 48
    pyramid_spec = MapSpec(5, ((0, 1, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)))
    assert map_from_faces(pyramid_spec).flag_count == 32


def test_every_builder_is_valid(corpus):
    for label in CORPUS:
        assert validate(corpus.graph(label)) == [], label


def test_builders_reject_bad_parameters():
    with pytest.raises(ValueError):
        polygon(1)
    with pytest.raises(ValueError):
        simplex(0)
    with pytest.raises(ValueError):
        hypercube(0)
    with pytest.raises(ValueError):
        prism(2)
    with pytest.raises(ValueError):
        pyramid(2)
    with pytest.raises(ValueError):
        torus44(0, 0)


def test_map_from_faces_rejects_open_edge():
    with pytest.raises(MapError):
        map_from_faces(MapSpec(3, ((0, 1, 2),)))


def test_map_from_faces_rejects_short_cycle():
    with pytest.raises(MapError):
        map_from_faces(MapSpec(2, ((0, 1), (0, 1))))


def test_map_from_faces_deterministic():
    spec = MapSpec(4, ((0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)))
    assert map_from_faces(spec) == map_from_faces(spec)


def test_hypercube_3_is_cube():
    assert are_isomorphic(hypercube(3), cube()) is not None


def test_prism_4_is_cube():
    assert are_isomorphic(prism(4), hypercube(3)) is not None


def test_pyramid_3_is_tetrahedron():
    assert are_isomorphic(pyramid(3), tetrahedron()) is not None


def test_polygon_vertex_faces():
    for l in (2, 3, 7):
        assert i_faces(polygon(l), 0).face_count == l


def test_octahedron_counts():
    g = octahedron()
    assert g.flag_count == 48
    assert i_faces(g, 2).face_count == 8
    assert i_faces(g, 0).face_count == 6


def test_torus_chirality_against_parameter_criterion():
    # bc(b-c) = 0 exactly for the reflexible members
    for b, c in ((1, 0), (2, 0), (2, 2), (1, 2), (1, 3), (2, 3)):
        g = torus44(b, c)
        a = aut_group(g)
        reflexible = a.orbit_count == 1
        assert reflexible == (b * c * (b - c) == 0), (b, c)


def test_torus_mirror_pairs_isomorphic():
    assert are_isomorphic(torus44(1, 2), torus44(2, 1)) is not None
    assert are_isomorphic(torus44(1, 3), torus44(3, 1)) is not None


def test_construction_labels():
    assert construction("prism:3").flag_count == 36
    assert construction("torus44:1,2").flag_count == 40
    assert construction("cube").flag_count == 48
    with pytest.raises(ValueError):
        construction("prism")
    with pytest.raises(ValueError):
        construction("cube:3")
    with pytest.raises(ValueError):
        construction("widget:1")


@pytest.mark.parametrize("label, example", [
    ("polygon:1,2", "polygon:3"), ("simplex:", "simplex:1"), ("hypercube:1,1", "hypercube:1"),
    ("prism:2,3", "prism:3"), ("pyramid", "pyramid:3"), ("torus44:1", "torus44:0,1")])
def test_a_parameter_count_error_suggests_a_label_that_builds(label, example):
    # the example is the builder's first corpus label, never one it refuses
    with pytest.raises(ValueError, match=f"parameter\\(s\\), e.g. {example}$"):
        construction(label)
    assert validate(construction(example)) == []


def refusal(call, *args) -> str:
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


def test_factorial_labels_are_refused_as_the_exact_count_would_be():
    # from 10^30 flags on the exponent comes from lgamma, and it is the one
    # the exact count gives: every message is the exact count's
    for d in range(12, 1001):
        assert refusal(construction, f"simplex:{d}") == refusal(
            check_flag_count, math.factorial(d + 1)), d
    for d in range(10, 1001):
        assert refusal(construction, f"hypercube:{d}") == refusal(
            check_flag_count, math.factorial(d) << d), d


def test_absurd_factorial_labels_are_refused_without_an_exact_factorial(monkeypatch):
    exact = math.factorial

    def small_only(m):
        assert m <= 10_000, f"an exact factorial of {m}"
        return exact(m)

    monkeypatch.setattr(math, "factorial", small_only)
    for label, shown in [("simplex:1000000", "about 10^5565714"),
                         ("hypercube:1000000", "about 10^5866738")]:
        with pytest.raises(ValueError, match=f"^{re.escape(shown)} flags exceed"):
            construction(label)
