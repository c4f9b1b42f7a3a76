"""Slow reference computations and random inputs for the tests.

The oracles materialise whole groups, so they are for small inputs only.
"""

from __future__ import annotations

import random

import numpy as np

from maniplex.flag_graph import FlagGraph, validate
from maniplex.oriented import orientation
from maniplex.symmetry import extend_automorphism, identity


def trial_extension_elements(g: FlagGraph) -> list[np.ndarray]:
    """Every automorphism, by trial extension of flag 0 to every flag."""
    out = []
    for target in range(g.flag_count):
        el = extend_automorphism(g, 0, target)
        if el is not None:
            out.append(el)
    return out


def orbit_partition(elements: list[np.ndarray]) -> np.ndarray:
    """Orbit ids numbered in order of least flag: the elementwise minimum
    over the images of a flag is the least flag of its orbit."""
    least = elements[0].copy()
    for el in elements[1:]:
        np.minimum(least, el, out=least)
    return np.unique(least, return_inverse=True)[1].reshape(-1)


def closure(generators, flag_count: int) -> list[np.ndarray]:
    """Subgroup generated by the given image tables (breadth-first products)."""
    ident = identity(flag_count)
    seen = {ident.tobytes(): ident}
    frontier = [ident]
    gens = [np.asarray(p, dtype=np.int32) for p in generators]
    while frontier:
        nxt = []
        for el in frontier:
            for p in gens:
                prod = el[p]
                key = prod.tobytes()
                if key not in seen:
                    seen[key] = prod
                    nxt.append(prod)
        frontier = nxt
    return list(seen.values())


def random_map(rng: random.Random, base_edges: int, sheets: int, orientable: bool) -> FlagGraph:
    """A random rank-3 map with a free Z_sheets symmetry.

    Flag (c, j, a, b) = c * 4 * base_edges + 4 * j + 2 * a + b sits on
    sheet c, edge j, end a, side b; r0 flips a and r2 flips b.  r1 pairs
    flags of different edges at random (black with white, by the parity
    of a + b, when ``orientable``) and lifts each pair across the sheets
    with a random sheet shift, so shifting sheets is an automorphism.
    """
    base = 4 * base_edges
    sheet, beta = np.divmod(np.arange(base * sheets), base)
    r0 = sheet * base + (beta ^ 2)
    r2 = sheet * base + (beta ^ 1)
    while True:
        if orientable:
            black = [f for f in range(base) if (f ^ (f >> 1)) & 1 == 0]
            white = [f for f in range(base) if (f ^ (f >> 1)) & 1 == 1]
            rng.shuffle(white)
            pairs = list(zip(black, white))
        else:
            order = list(range(base))
            rng.shuffle(order)
            pairs = list(zip(order[::2], order[1::2]))
        r1 = np.empty(base * sheets, dtype=np.int64)
        for p, q in pairs:
            shift = rng.randrange(sheets)
            for c in range(sheets):
                d = (c + shift) % sheets
                r1[c * base + p] = d * base + q
                r1[d * base + q] = c * base + p
        g = FlagGraph([r0, r1, r2])
        if not validate(g) and (orientation(g) is not None) == orientable:
            return g


def relabel(g: FlagGraph, rng: random.Random) -> FlagGraph:
    """The same flag graph under a random renumbering of its flags."""
    perm = np.array(rng.sample(range(g.flag_count), g.flag_count))
    adj = np.empty_like(g.adj)
    adj[:, perm] = perm[g.adj]
    return FlagGraph(adj)
