"""Flag graphs of maniplexes and polytopes, their symmetry type graphs,
oriented variants, and exhaustive type enumeration."""

from .constructions import (MapSpec, construction, cube, cuboctahedron, hemicube,
                            hypercube, map_from_faces, octahedron, polygon, prism,
                            pyramid, simplex, tetrahedron, torus44)
from .enumeration import (canonical_code, enumerate_oriented_stg3, enumerate_stg,
                          is_fully_transitive, verify_census)
from .flag_graph import (FacePartition, FlagGraph, Violation, face_maniplex,
                         i_faces, recolour_dual, validate)
from .oriented import (Orientation, OrientedSTG, aut_plus, classify_oriented,
                       is_chiral_a_la_conway, orientation, oriented_digraph, oriented_stg)
from .stg import (SEMI, SymmetryTypeGraph, classify, is_i_face_transitive,
                  quotient, transitivity_profile, verify_face_projection)
from .symmetry import AutGroup, are_isomorphic, aut_group, extend_automorphism
from .walkgen import (GeneratorSet, generating_walks, realize_generators,
                      reduce_generators, spanning_tree)

__all__ = [name for name in dir() if not name.startswith("_")]
