"""The value types: construction, equality, hashing, repr, immutability,
copy and pickle, each pinned to what the frozen dataclasses they replace did."""

import copy
import inspect
import pickle
import pkgutil
from importlib import import_module

import numpy as np
import pytest

import maniplex
from maniplex.constructions import MapSpec, polygon
from maniplex.flag_graph import Violation
from maniplex.oriented import OrientedSTG, OtherOriented, Rotary, TwoOrbitOriented
from maniplex.stg import (FourOrbitFamily, OtherClass, Regular, SymmetryTypeGraph, ThreeOrbitJ,
                          ThreeOrbitJJ1, TwoOrbit, quotient, stg_violations)
from maniplex.symmetry import AutGroup, aut_group
from maniplex.walkgen import GeneratorSet, realize_generators

# (value, its repr, a value of the same type with other fields, and a value
# of another type with equal fields)
FROZEN = [
    (Violation("fixed point", (0,), 3), "Violation(kind='fixed point', colours=(0,), flag=3)",
     Violation("fixed point", (0,), 4), ("fixed point", (0,), 3)),
    (MapSpec(3, ((0, 1, 2), (0, 2, 1))),
     "MapSpec(vertex_count=3, faces=((0, 1, 2), (0, 2, 1)))",
     MapSpec(4, ((0, 1, 2), (0, 2, 1))), (3, ((0, 1, 2), (0, 2, 1)))),
    (Regular(), "Regular()", OtherClass(1), Rotary()),
    (TwoOrbit(frozenset({0, 2})), "TwoOrbit(semi_colours=frozenset({0, 2}))",
     TwoOrbit(frozenset({0})), TwoOrbitOriented(frozenset({0, 2}))),
    (ThreeOrbitJ(1), "ThreeOrbitJ(j=1)", ThreeOrbitJ(2), ThreeOrbitJJ1(1)),
    (ThreeOrbitJJ1(0), "ThreeOrbitJJ1(j=0)", ThreeOrbitJJ1(1), ThreeOrbitJ(0)),
    (FourOrbitFamily(profile=frozenset({1}), splits=((1, (1, 3)),), semi_colours=frozenset()),
     "FourOrbitFamily(profile=frozenset({1}), splits=((1, (1, 3)),), semi_colours=frozenset())",
     FourOrbitFamily(frozenset({1}), ((1, (2, 2)),), frozenset()),
     (frozenset({1}), ((1, (1, 3)),), frozenset())),
    (OtherClass(5), "OtherClass(vertex_count=5)", OtherClass(6), OtherOriented(5)),
    (OrientedSTG(tables=[[1, 0, 2]], dart=[2, 0, 1]),
     "OrientedSTG(tables=array([[1, 0, 2]], dtype=int32), dart=array([2, 0, 1], dtype=int32))",
     OrientedSTG([[1, 0, 2]], [1, 2, 0]), SymmetryTypeGraph([[1, 0, 2]])),
    (Rotary(), "Rotary()", OtherOriented(1), Regular()),
    (TwoOrbitOriented(frozenset({1})), "TwoOrbitOriented(semi_colours=frozenset({1}))",
     TwoOrbitOriented(frozenset()), TwoOrbit(frozenset({1}))),
    (OtherOriented(3), "OtherOriented(vertex_count=3)", OtherOriented(4), OtherClass(3)),
    (SymmetryTypeGraph([[1, 0], [0, 1]]),
     "SymmetryTypeGraph(tables=array([[1, 0],\n       [0, 1]], dtype=int32))",
     SymmetryTypeGraph([[1, 0], [1, 0]]), OrientedSTG([[1, 0], [0, 1]], [0, 1])),
]
IDS = [type(value).__name__ for value, *_ in FROZEN]
FIELDS = {"Violation": ("kind", "colours", "flag"), "MapSpec": ("vertex_count", "faces"),
          "TwoOrbit": ("semi_colours",), "ThreeOrbitJ": ("j",), "ThreeOrbitJJ1": ("j",),
          "FourOrbitFamily": ("profile", "splits", "semi_colours"),
          "OtherClass": ("vertex_count",), "OrientedSTG": ("tables", "dart"),
          "TwoOrbitOriented": ("semi_colours",), "OtherOriented": ("vertex_count",),
          "SymmetryTypeGraph": ("tables",)}


@pytest.mark.parametrize("value, text, other, twin", FROZEN, ids=IDS)
def test_repr_equality_and_hash(value, text, other, twin):
    assert repr(value) == text
    same = eval(text, {"array": np.array, "int32": np.int32, **vars(maniplex.stg),
                       **vars(maniplex.oriented), **vars(maniplex.constructions),
                       **vars(maniplex.flag_graph)})
    assert same == value and not same != value and hash(same) == hash(value)
    assert same is not value
    assert value != other and not value == other
    assert value != twin and twin != value


@pytest.mark.parametrize("value, text, other, twin", FROZEN, ids=IDS)
def test_fields_cannot_be_set_or_deleted(value, text, other, twin):
    for name in FIELDS.get(type(value).__name__, ()):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name, None))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


@pytest.mark.parametrize("value, text, other, twin", FROZEN, ids=IDS)
def test_copies_and_pickles_are_equal(value, text, other, twin):
    for twin_copy in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
        assert type(twin_copy) is type(value)
        assert twin_copy == value and hash(twin_copy) == hash(value)
        assert repr(twin_copy) == text


def test_construction_by_keyword_and_position():
    assert Violation(kind="disconnected", colours=(), flag=5) == Violation("disconnected", (), 5)
    assert Violation("disconnected", (), flag=5) == Violation("disconnected", (), 5)
    assert MapSpec(faces=((0, 1, 2),), vertex_count=3) == MapSpec(3, ((0, 1, 2),))
    assert TwoOrbit(semi_colours=frozenset({1})) == TwoOrbit(frozenset({1}))
    assert OtherOriented(vertex_count=4) == OtherOriented(4)
    assert OrientedSTG(dart=[0], tables=[[0]]) == OrientedSTG([[0]], [0])
    assert SymmetryTypeGraph(tables=[[0]]) == SymmetryTypeGraph([[0]])
    for bad in [lambda: Violation("x", ()), lambda: Violation("x", (), 1, 2),
                lambda: Violation("x", (), 1, flag=2), lambda: Violation("x", (), 1, other=2),
                lambda: Regular(1), lambda: ThreeOrbitJ(), lambda: ThreeOrbitJ(k=1),
                lambda: OrientedSTG([[0]])]:
        with pytest.raises(TypeError):
            bad()


def test_a_copied_symmetry_type_graph_is_checked_again_alike():
    t = quotient(aut_group(polygon(4)))
    assert stg_violations(t) == []
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert twin == t and stg_violations(twin) == [] and not twin.tables.flags.writeable


def test_groups_and_generator_sets():
    g = polygon(3)
    a = aut_group(g)
    s = realize_generators(a, quotient(a))
    assert repr(a) == (
        "AutGroup(graph=FlagGraph(rank=2, flags=6), generators=[array([1, 0, 5, 4, 3, 2], "
        "dtype=int32), array([5, 4, 3, 2, 1, 0], dtype=int32)], targets=array([0, 1, 2, 3, "
        "4, 5], dtype=int32), orbit_of=array([0, 0, 0, 0, 0, 0], dtype=int32), reps=array([0], "
        "dtype=int32))")
    assert repr(s) == ("GeneratorSet(words=[(0,), (1,)], automorphisms=[array([1, 0, 5, 4, 3, "
                       "2], dtype=int32), array([5, 4, 3, 2, 1, 0], dtype=int32)])")
    keywords = dict(graph=g, generators=a.generators, targets=a.targets, orbit_of=a.orbit_of,
                    reps=a.reps)
    assert AutGroup(**keywords) == a == AutGroup(*keywords.values()) == copy.copy(a)
    assert GeneratorSet(s.words, s.automorphisms) == s == copy.copy(s)
    assert GeneratorSet(words=s.words[:1], automorphisms=s.automorphisms) != s
    assert a != s and s != (s.words, s.automorphisms)
    for value in (a, s):
        with pytest.raises(TypeError):
            hash(value)
    for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is AutGroup and twin.graph == g
        for name in ("targets", "orbit_of", "reps"):
            assert np.array_equal(getattr(twin, name), getattr(a, name))
        assert quotient(twin) == quotient(a) and twin.order == a.order
    twin = pickle.loads(pickle.dumps(s))
    assert twin.words == s.words
    assert all(map(np.array_equal, twin.automorphisms, s.automorphisms))


def test_census_check_is_the_only_dataclass():
    found = set()
    for info in pkgutil.iter_modules(maniplex.__path__):
        module = import_module(f"maniplex.{info.name}")
        found |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if inspect.isclass(obj) and obj.__module__ == module.__name__
                  and hasattr(obj, "__dataclass_fields__")}
    assert found == {"enumeration.CensusCheck"}
