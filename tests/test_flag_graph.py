import tracemalloc

import numpy as np
import pytest

from maniplex.constructions import MapSpec, cube, map_from_faces, polygon, prism, tetrahedron
from maniplex.flag_graph import MAX_FLAGS, FlagGraph, Violation, check_flag_count, validate
from oracles import are_isomorphic, face_maniplex, i_faces, recolour_dual


def brute_face_count(g, i):
    """Independent oracle: union-find over the edges of all other colours."""
    parent = list(range(g.flag_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in range(g.rank):
        if c == i:
            continue
        for f in range(g.flag_count):
            ra, rb = find(f), find(int(g.adj[c, f]))
            if ra != rb:
                parent[rb] = ra
    return len({find(f) for f in range(g.flag_count)})


def test_cube_is_valid():
    assert validate(cube()) == []


def test_fixed_point_is_reported():
    g = FlagGraph([[0, 1]])
    report = validate(g)
    assert any(v.kind == "fixed point" and v.colours == (0,) and v.flag == 0 for v in report)
    assert str(report[0]) == "fixed point, colour 0, flag 0"


def test_six_cycle_two_factor_breaks_commuting():
    # (0,2) 2-factor forms a 6-cycle instead of 4-cycles
    r0 = [1, 0, 3, 2, 5, 4]
    r2 = [5, 2, 1, 4, 3, 0]
    r1 = [3, 4, 5, 0, 1, 2]
    report = validate(FlagGraph([r0, r1, r2]))
    assert any(v.kind == "commuting condition" and v.colours == (0, 2) for v in report)


def test_overlapping_matchings_reported():
    g = FlagGraph([[1, 0], [1, 0]])
    report = validate(g)
    assert any(v.kind == "overlapping matchings" and v.colours == (0, 1) for v in report)


def test_disconnected_reported():
    g = FlagGraph([[1, 0, 3, 2], [1, 0, 3, 2]])
    report = validate(g)
    kinds = {v.kind for v in report}
    assert "disconnected" in kinds


def test_disconnected_witness_is_the_least_flag_off_the_tree():
    # two squares, 0-1-2-3 and 4-5-6-7, joined to nothing: the tree from
    # flag 0 reaches flags 0..3 at depths 0, 1, 2, 1
    square = [1, 0, 3, 2], [3, 2, 1, 0]
    g = FlagGraph([m + [v + 4 for v in m] for m in square])
    assert g.depths().tolist() == [0, 1, 2, 1, -1, -1, -1, -1]
    assert not g.is_connected()
    assert [str(v) for v in validate(g)] == ["disconnected, flag 4"]


def test_depths_follow_the_tree_levels():
    g = prism(5)
    depth = g.depths()
    assert depth[0] == 0 and g.is_connected()
    for d, (flags, parents, _) in enumerate(g.bfs_levels(), start=1):
        assert (depth[flags] == d).all() and (depth[parents] == d - 1).all()


def test_three_cycle_is_not_an_involution():
    g = FlagGraph([[1, 2, 0], [1, 0, 2]])
    report = validate(g)
    assert report[0] == Violation("not an involution", (0,), 0)
    assert str(report[0]) == "not an involution, colour 0, flag 0"
    assert [v.kind for v in report] == ["not an involution", "fixed point", "overlapping matchings"]


def test_cube_face_counts():
    c = cube()
    assert i_faces(c, 2).face_count == 6 == brute_face_count(c, 2)
    assert i_faces(c, 0).face_count == 8 == brute_face_count(c, 0)
    assert i_faces(c, 1).face_count == 12 == brute_face_count(c, 1)


def test_polygon_face_counts():
    g = polygon(5)
    assert i_faces(g, 1).face_count == 5 == brute_face_count(g, 1)
    assert i_faces(g, 0).face_count == 5


def test_faces_partition_flags():
    g = prism(5)
    for i in range(g.rank):
        part = i_faces(g, i)
        sizes = [part.flags_of(face).size for face in range(part.face_count)]
        assert sum(sizes) == g.flag_count
        assert part.face_of.min() == 0
        assert part.face_of.max() == part.face_count - 1


def test_face_ids_ordered_by_least_flag():
    g = cube()
    part = i_faces(g, 2)
    firsts = [int(part.flags_of(face)[0]) for face in range(part.face_count)]
    assert firsts == sorted(firsts)


def test_images_beyond_the_index_type_are_out_of_range():
    for big in (2**31, 2**40, 2**63, 10**24):
        with pytest.raises(ValueError, match="flag image out of range"):
            FlagGraph([[1, big]])
    with pytest.raises(ValueError, match="flag image out of range"):
        FlagGraph(np.array([[1, 2**32]], dtype=np.int64))


def test_tables_of_the_wrong_shape_are_refused():
    with pytest.raises(ValueError, match="adjacency must be a rank x flag_count table"):
        FlagGraph([1, 0])
    with pytest.raises(ValueError, match="at least one colour is required"):
        FlagGraph(np.empty((0, 2), np.int32))
    with pytest.raises(ValueError, match="at least two flags are required"):
        FlagGraph([[0]])


def test_more_flags_than_int32_indexes_are_refused():
    # a zero-copy view of 2**31 flags: the count is checked before any pass
    with pytest.raises(ValueError, match="2,147,483,648 flags exceed the limit of 2,147,483,647"):
        FlagGraph(np.broadcast_to(np.int32(1), (1, 2**31)))
    with pytest.raises(ValueError, match="about 10\\^40 flags exceed"):
        check_flag_count(2 * 10**40)
    check_flag_count(MAX_FLAGS)


def test_integer_arrays_are_range_checked_in_their_own_dtype():
    for dtype in (np.int8, np.uint16, np.int32, np.uint64, np.int64):
        g = FlagGraph(np.array([[1, 0, 3, 2]], dtype=dtype))
        assert g.adj.dtype == np.int32 and g.adj.tolist() == [[1, 0, 3, 2]], dtype
        with pytest.raises(ValueError, match="flag image out of range"):
            FlagGraph(np.array([[1, 0, 3, 4]], dtype=dtype))
    with pytest.raises(ValueError, match="flag image out of range"):
        FlagGraph(np.array([[1, 2**64 - 1]], dtype=np.uint64))
    with pytest.raises(ValueError, match="flag image out of range"):
        FlagGraph(np.array([[1, -1]], dtype=np.int8))
    # an int32 table is narrowed with one copy, not through an int64 one
    adj = np.ascontiguousarray(np.tile(np.arange(1 << 20, dtype=np.int32) ^ 1, (4, 1)))
    tracemalloc.start()
    try:
        g = FlagGraph(adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(g.adj, adj) and g.adj is not adj
    assert peak < 1.5 * adj.nbytes


def test_colour_out_of_range():
    with pytest.raises(ValueError):
        i_faces(polygon(3), 2)


def test_face_maniplex_of_cube_is_square():
    c = cube()
    for face in range(i_faces(c, 2).face_count):
        sub = face_maniplex(c, 2, face)
        assert validate(sub) == []
        assert are_isomorphic(sub, polygon(4)) is not None


def test_face_maniplex_of_prism_triangle():
    g = prism(3)
    part = i_faces(g, 2)
    shapes = sorted(
        face_maniplex(g, 2, face).flag_count // 2 for face in range(part.face_count))
    assert shapes == [3, 3, 4, 4, 4]
    tri_face = next(
        face for face in range(part.face_count)
        if face_maniplex(g, 2, face).flag_count == 6)
    assert are_isomorphic(face_maniplex(g, 2, tri_face), polygon(3)) is not None


def test_face_maniplex_of_polygon_is_single_edge():
    g = polygon(6)
    sub = face_maniplex(g, 1, 0)
    assert sub.rank == 1
    assert sub.flag_count == 2


def test_face_maniplex_rejects_rank_zero():
    with pytest.raises(ValueError):
        face_maniplex(polygon(4), 0, 0)
    with pytest.raises(ValueError):
        face_maniplex(polygon(4), 1, 99)


def test_recolour_dual_twice_is_identity():
    g = prism(3)
    assert np.array_equal(recolour_dual(recolour_dual(g)).adj, g.adj)


def test_tetrahedron_self_dual():
    t = tetrahedron()
    assert are_isomorphic(recolour_dual(t), t) is not None


def test_cube_dual_is_octahedron():
    from maniplex.constructions import octahedron

    assert are_isomorphic(recolour_dual(cube()), octahedron()) is not None


def test_face_components_pairwise_isomorphic():
    # a 2-face of the 4-cube splits into two components under colours 0, 1;
    # all such components carry the same structure
    from maniplex.constructions import hypercube
    from maniplex.flag_graph import FlagGraph

    g = hypercube(4)
    part = i_faces(g, 2)
    members = part.flags_of(0)
    comps = []
    left = set(int(f) for f in members)
    while left:
        seed = min(left)
        comp = {seed}
        stack = [seed]
        while stack:
            f = stack.pop()
            for c in range(2):
                nxt = int(g.adj[c, f])
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        left -= comp
        order = sorted(comp)
        local = {f: t for t, f in enumerate(order)}
        comps.append(FlagGraph(
            [[local[int(g.adj[c, f])] for f in order] for c in range(2)]))
    assert len(comps) == 2
    assert are_isomorphic(comps[0], comps[1]) is not None
    assert are_isomorphic(comps[0], face_maniplex(g, 2, 0)) is not None


def test_square_pyramid_spec_from_faces():
    spec = MapSpec(5, ((0, 1, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)))
    g = map_from_faces(spec)
    assert g.flag_count == 32
    assert validate(g) == []
