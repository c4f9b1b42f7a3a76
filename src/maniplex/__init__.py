"""Flag graphs of maniplexes and polytopes, their symmetry type graphs,
oriented variants, and exhaustive type enumeration."""

from .constructions import (MapSpec, construction, cube, cuboctahedron, hemicube,
                            hypercube, map_from_faces, octahedron, polygon, prism,
                            pyramid, simplex, tetrahedron, torus44)
from .enumeration import enumerate_stg, is_fully_transitive, verify_census
from .flag_graph import FlagGraph, Violation, validate
from .oriented import (OrientedSTG, aut_plus, classify_oriented, is_chiral_a_la_conway,
                       orientation, oriented_digraph, oriented_stg)
from .stg import SEMI, SymmetryTypeGraph, classify, quotient, transitivity_profile
from .symmetry import AutGroup, aut_group
from .walkgen import GeneratorSet, realize_generators, reduce_generators, spanning_tree

__all__ = [name for name in dir() if not name.startswith("_")]
