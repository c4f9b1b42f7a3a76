import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from maniplex.constructions import construction, polygon, prism, pyramid, torus44
from maniplex.enumeration import canonical_code
from maniplex.flag_graph import i_faces, recolour_dual, validate
from maniplex.stg import is_admissible, quotient
from maniplex.symmetry import aut_group

SMALL_LABELS = ("polygon:4", "prism:3", "pyramid:4", "torus44:1,2",
                "cuboctahedron", "hemicube", "simplex:3")

_cache: dict = {}


def built(label):
    if label not in _cache:
        g = construction(label)
        _cache[label] = (g, aut_group(g))
    return _cache[label]


@given(st.integers(min_value=2, max_value=14))
def test_polygon_invariants(l):
    g = polygon(l)
    assert validate(g) == []
    assert g.flag_count == 2 * l
    assert i_faces(g, 0).face_count == l
    assert i_faces(g, 1).face_count == l
    assert np.array_equal(recolour_dual(recolour_dual(g)).adj, g.adj)


@given(st.integers(min_value=3, max_value=10))
def test_prism_pyramid_counts(l):
    p = prism(l)
    q = pyramid(l)
    assert validate(p) == [] and validate(q) == []
    assert p.flag_count == 12 * l
    assert q.flag_count == 8 * l
    assert i_faces(p, 2).face_count == l + 2
    assert i_faces(q, 2).face_count == l + 1


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_torus_counts(b, c):
    if (b, c) == (0, 0):
        return
    g = torus44(b, c)
    assert validate(g) == []
    n = b * b + c * c
    assert g.flag_count == 8 * n
    assert i_faces(g, 2).face_count == n
    assert i_faces(g, 0).face_count == n


@given(st.integers(min_value=0, max_value=6), st.data())
def test_word_action_respects_orbits(pick, data):
    # flags in one orbit stay in one orbit under any connection word
    g, a = built(SMALL_LABELS[pick % len(SMALL_LABELS)])
    word = data.draw(st.lists(st.integers(min_value=0, max_value=g.rank - 1),
                              min_size=1, max_size=8))
    orbit = data.draw(st.integers(min_value=0, max_value=a.orbit_count - 1))
    members = np.nonzero(a.orbit_of == orbit)[0]
    f1 = int(members[data.draw(st.integers(min_value=0, max_value=members.size - 1))])
    f2 = int(members[data.draw(st.integers(min_value=0, max_value=members.size - 1))])
    assert a.orbit_of[g.act(f1, word)] == a.orbit_of[g.act(f2, word)]


@given(st.integers(min_value=0, max_value=6))
def test_quotients_admissible(pick):
    g, a = built(SMALL_LABELS[pick % len(SMALL_LABELS)])
    assert is_admissible(quotient(a))


@given(st.integers(min_value=0, max_value=6), st.permutations(list(range(4))))
def test_canonical_code_invariant_under_relabelling(pick, perm):
    from maniplex.stg import SEMI
    from oracles import stg_from_slots

    g, a = built(SMALL_LABELS[pick % len(SMALL_LABELS)])
    t = quotient(a)
    k = t.vertex_count
    sigma = [p for p in perm if p < k]
    relabelled = stg_from_slots(
        tuple(
            tuple(
                SEMI if s == SEMI else sigma[s]
                for s in t.slots[sigma.index(new_u)]
            )
            for new_u in range(k)
        ),
    )
    assert canonical_code(relabelled) == canonical_code(t)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_extension_exists_iff_same_orbit(i, j):
    from maniplex.symmetry import extend_automorphism

    g, a = built("pyramid:4")
    f1 = (i * 7) % g.flag_count
    f2 = (j * 11) % g.flag_count
    found = extend_automorphism(g, f1, f2) is not None
    assert found == (a.orbit_of[f1] == a.orbit_of[f2])


@given(st.integers(min_value=2, max_value=8))
def test_aut_order_divides_flags(l):
    g = polygon(l)
    a = aut_group(g)
    assert g.flag_count % a.order == 0
    assert a.order * a.orbit_count == g.flag_count
    assert (a.order == g.flag_count) == (a.orbit_count == 1)
