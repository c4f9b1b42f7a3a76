"""The partner-table core shared by flag graphs, symmetry type graphs and
the census enumerator, checked against independent oracles."""

import json
import random
import re
from itertools import permutations, product

import numpy as np
import pytest

from maniplex import oriented, symmetry
from maniplex.cli import main
from maniplex.constructions import CORPUS, construction, cube, torus44
from maniplex.enumeration import enumerate_stg, involutions
from maniplex.flag_graph import FlagGraph, InternalCheckError, non_commuting
from maniplex.oriented import oriented_digraph, orientation
from maniplex.stg import SymmetryTypeGraph, bipartition, quotient, stg_violations
from maniplex.symmetry import AutGroup, aut_group
from maniplex.walkgen import (GeneratorSet, generates_full_group, realize_generators,
                              reduce_generators)
from oracles import (are_isomorphic, canonical_code, closure, commute_defect, component,
                     components, min_code, two_colouring)

# The five quotients of an alternating (i, j) 4-cycle, as (m_i, m_j)
# partner tables on local vertices 0..size-1.
FIVE_QUOTIENTS = (
    ((0,), (0,)),                       # one vertex, two semi-edges
    ((1, 0), (1, 0)),                   # parallel i- and j-edge
    ((1, 0), (0, 1)),                   # i-edge, two j semi-edges
    ((0, 1), (1, 0)),                   # j-edge, two i semi-edges
    ((1, 0, 3, 2), (3, 2, 1, 0)),       # the 4-cycle itself
)


def _oracle_groups(tables, count):
    """Components by union-find, sorted by least vertex."""
    parent = list(range(count))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for m in tables:
        for u in range(count):
            parent[find(u)] = find(m[u])
    groups = {}
    for u in range(count):
        groups.setdefault(find(u), []).append(u)
    return sorted(groups.values())


def _is_five_quotient(mi, mj, comp):
    for qi, qj in FIVE_QUOTIENTS:
        if len(qi) != len(comp):
            continue
        for perm in permutations(comp):
            local = {u: t for t, u in enumerate(perm)}
            if all(local[mi[u]] == qi[local[u]] and local[mj[u]] == qj[local[u]]
                   for u in comp):
                return True
    return False


def _random_involution(rng, k):
    m = list(range(k))
    free = list(range(k))
    rng.shuffle(free)
    while len(free) >= 2:
        u = free.pop()
        if rng.random() < 0.6:
            v = free.pop()
            m[u], m[v] = v, u
    return m


def _stg(tables):
    return SymmetryTypeGraph(tuple(map(tuple, tables)))


def _oracle_violations(tables):
    """Whether the tables connect their points, and the components each
    colour pair at distance >= 2 rejects, by pair."""
    k = len(tables[0])
    rejected = {}
    for i in range(len(tables)):
        for j in range(i + 2, len(tables)):
            bad = [comp for comp in _oracle_groups((tables[i], tables[j]), k)
                   if not _is_five_quotient(tables[i], tables[j], comp)]
            if bad:
                rejected[(i, j)] = bad
    return len(_oracle_groups(tables, k)) == 1, rejected


def test_components_match_union_find():
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randint(1, 9)
        tables = [_random_involution(rng, k) for _ in range(rng.randint(1, 4))]
        groups = _oracle_groups(tables, k)
        assert components(tables) == groups
        start = rng.randrange(k)
        assert component(tables, start) == next(g for g in groups if start in g)
    assert components([], 3) == [[0], [1], [2]]
    assert component([], 1, 3) == [1]


def test_two_colouring_against_odd_closed_walks():
    rng = random.Random(11)
    for _ in range(300):
        k = rng.randint(1, 8)
        tables = [_random_involution(rng, k) for _ in range(rng.randint(1, 4))]
        adj = np.zeros((k, k), dtype=np.int64)
        for m in tables:
            adj[range(k), m] = 1  # a semi-edge is a loop: a closed walk of length 1
        # a shortest odd closed walk is an odd cycle, so it has at most k steps
        odd = any(np.trace(np.linalg.matrix_power(adj, l)) for l in range(1, k + 1, 2))
        side = two_colouring(tables)
        assert (side is None) == odd
        found = bipartition(_stg(tables))
        assert (None if found is None else found.tolist()) == side
        if side is not None:
            assert all(side[g[0]] == 0 for g in _oracle_groups(tables, k))
            assert all(side[u] != side[m[u]] for m in tables for u in range(k))


def test_five_quotient_check_against_explicit_table():
    # stg_violations flags exactly the colour pairs the table rejects,
    # each with a witness vertex inside a rejected component
    rng = random.Random(2024)
    bad_pair = re.compile(r"bad \((\d+),(\d+)\) 2-factor at vertex (\d+)")
    for _ in range(2000):
        k = rng.randint(1, 7)
        tables = [_random_involution(rng, k) for _ in range(rng.randint(3, 5))]
        connected, rejected = _oracle_violations(tables)
        report = stg_violations(_stg(tables))
        head = [] if connected else ["disconnected"]
        assert report[:len(head)] == head
        witnesses = [tuple(map(int, bad_pair.fullmatch(line).groups()))
                     for line in report[len(head):]]
        assert [(i, j) for i, j, _ in witnesses] == list(rejected)
        for i, j, u in witnesses:
            assert any(u in comp for comp in rejected[(i, j)])


def test_five_quotient_check_on_each_quotient_and_near_misses():
    for qi, qj in FIVE_QUOTIENTS:
        assert commute_defect(qi, qj) is None
    # a 4-cycle with one semi-edge pair instead of an edge, a 3-path, a
    # 6-cycle: one component each, which the table rejects; vertex 0 is
    # the least vertex where the colours fail to commute
    for mi, mj in (((1, 0, 2, 3), (3, 2, 1, 0)), ((1, 0, 2), (0, 2, 1)),
                   ((1, 0, 3, 2, 5, 4), (5, 2, 1, 4, 3, 0))):
        assert _oracle_violations((mi, mi, mj))[1] == {(0, 2): [list(range(len(mi)))]}
        assert commute_defect(mi, mj) == 0
        assert non_commuting([(mi, mi, mj)]) == [(0, 0, 2, 0)]


def test_canonical_code_on_random_tuples_against_all_relabellings():
    rng = random.Random(6)
    checked = 0
    while checked < 400:
        k = rng.randint(1, 6)
        tables = [_random_involution(rng, k) for _ in range(rng.randint(1, 4))]
        t = _stg(tables)
        if len(_oracle_groups(tables, k)) > 1:
            with pytest.raises(ValueError):
                canonical_code(t)
            continue
        perm = rng.sample(range(k), k)
        moved = [[0] * k for _ in tables]
        for m, m2 in zip(tables, moved):
            for u in range(k):
                m2[perm[u]] = perm[m[u]]
        assert canonical_code(t) == canonical_code(_stg(moved)) == min_code(t.slots)
        checked += 1


@pytest.mark.parametrize("n_colours,k", [(3, 4), (4, 3), (4, 4), (5, 3)])
def test_enumerator_pair_pruning_against_brute_force(n_colours, k):
    # every tuple of involution tables, filtered by the explicit table and
    # connectivity, gives the enumerator's classes
    expected = set()
    for tables in product(involutions(k), repeat=n_colours):
        if _oracle_violations(tables) == (True, {}):
            expected.add(canonical_code(_stg(tables)))
    assert [canonical_code(t) for t in enumerate_stg(n_colours, k)] == sorted(expected)


def test_orbit_partition_matches_orbit_loop():
    for label in ("cube", "prism:5", "pyramid:4", "torus44:2,1", "hemicube"):
        a = aut_group(construction(label))
        elements = [a.element(t) for t in a.targets]
        # the loop the shared helper replaced: label each new orbit in turn
        orbit_of = np.full(a.orbit_of.size, -1)
        count = 0
        for f in range(a.orbit_of.size):
            if orbit_of[f] < 0:
                orbit_of[[int(el[f]) for el in elements]] = count
                count += 1
        assert np.array_equal(a.orbit_of, orbit_of), label
        assert a.orbit_count == count


def test_orbit_partition_checks_free_action(monkeypatch):
    # a bogus "automorphism" swapping flags 0 and 1 gives a group of order
    # 2 with 47 orbits on the 48 flags of the cube
    def one_swap(g, target):
        if target != 1:
            return None
        img = np.arange(g.flag_count, dtype=np.int32)
        img[[0, 1]] = [1, 0]
        return img

    monkeypatch.setattr(symmetry, "_extend", one_swap)
    with pytest.raises(InternalCheckError):
        aut_group(cube())
    assert oriented.InternalCheckError is InternalCheckError


def test_oriented_isomorphism_under_relabelling():
    rng = np.random.default_rng(5)
    for g in (torus44(1, 2), cube()):
        d = oriented_digraph(g, orientation(g))
        perm = rng.permutation(d.flag_count).astype(np.int32)
        inv = np.argsort(perm).astype(np.int32)
        # relabel black flag b as perm[b]
        moved = FlagGraph(perm[d.adj[:, inv]])
        img = are_isomorphic(d, moved)
        assert img is not None
        rot = d.rank - 2
        assert np.array_equal(img[d.adj[rot]], moved.adj[rot][img])
        assert all(np.array_equal(img[d.adj[i]], moved.adj[i][img])
                   for i in range(d.rank - 2))


def test_cli_closure_order_matches_closure(capsys):
    small = [label for label in CORPUS if construction(label).flag_count <= 300]
    assert len(small) > 30
    for label in small:
        assert main(["analyze", label, "--json", "--generators"]) == 0
        report = json.loads(capsys.readouterr().out)
        g = construction(label)
        a = aut_group(g)
        gens = reduce_generators(realize_generators(a, quotient(a)))
        assert report["generators"]["closure_order"] == len(
            closure(gens.automorphisms, g.flag_count)), label


@pytest.mark.parametrize("flag,value", [("--vertices", "0"), ("--colors", "0")])
def test_cli_enumerate_rejects_sizes_below_one(flag, value, capsys):
    argv = {"--colors": "3", "--vertices": "3", flag: value}
    assert main(["enumerate"] + [x for kv in argv.items() for x in kv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_corrupted_orbits_exit_internal(monkeypatch, capsys):
    import maniplex.cli as cli

    def corrupted(g):
        a = aut_group(g)
        orbit_of = a.orbit_of.copy()
        # move one neighbour of the base flag into another orbit
        f = int(g.adj[1, 0])
        orbit_of[f] = (orbit_of[f] + 1) % a.orbit_count
        return AutGroup(a.graph, a.generators, a.targets, orbit_of, a.reps)

    monkeypatch.setattr(cli, "aut_group", corrupted)
    assert main(["analyze", "prism:3", "--json"]) == 4
    assert capsys.readouterr().err.startswith("internal check failed:")


def test_cli_generators_of_a_proper_subgroup_exit_internal(monkeypatch, capsys):
    import maniplex.cli as cli

    def drop_last(s):
        s = reduce_generators(s)
        return GeneratorSet(s.words[:-1], s.automorphisms[:-1])

    g = cube()
    a = aut_group(g)
    fewer = drop_last(realize_generators(a, quotient(a)))
    assert not generates_full_group(fewer, a)
    monkeypatch.setattr(cli, "reduce_generators", drop_last)
    for form in ([], ["--json"]):
        assert main(["analyze", "cube", "--generators", *form]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("internal check failed:")
        assert captured.out == ""
