"""Reference computations made apart from the maniplex package.

Nothing here imports maniplex.  The benchmark checks the program's
reports against these: closed forms for |Aut|, an orbit search under
reported generators, a symmetry type graph (STG) check, a brute-force
canonical form, and an exhaustive STG count.  Run as a script it
recomputes the recorded census counts the README lists:

    python3 perfbench/oracle.py --colors 5 --vertices 4
"""

from __future__ import annotations

import argparse
import math
from itertools import permutations

import numpy as np

SEMI = -1

# The paper's census (arXiv 1303.6802), as a function of the colour count n.
PAPER_COUNTS = {
    "k=1 types": lambda n: 1,
    "k=2 types": lambda n: 2 ** n - 1,
    "k=3 types": lambda n: 2 * n - 3,
    "k=4 fully-transitive types": lambda n: 20 if n == 4 else None,
    "k=3 fully-transitive types": lambda n: 0,
    "k=5 fully-transitive types": lambda n: 0 if n == 4 else None,
    "oriented 3-vertex types": lambda n: {4: 6, 5: 9, 6: 10}.get(n, 2 * n - 3),
    "oriented 3-vertex, three loops": lambda n: 2 * n - 7,
    "oriented 3-vertex, single loop": lambda n: 2,
}

# Numbers of STG classes at grid points the paper does not tabulate,
# recomputed by `python3 perfbench/oracle.py --colors N --vertices K`.
ORACLE_COUNTS = {(5, 4): 278, (6, 4): 954, (3, 5): 13, (4, 5): 33}


def closed_form_aut_order(label: str) -> int:
    """|Aut| of the regular constructions used by the analyze workloads."""
    name, _, args = label.partition(":")
    params = [int(p) for p in args.split(",")]
    if name == "hypercube":
        return 2 ** params[0] * math.factorial(params[0])
    if name == "simplex":
        return math.factorial(params[0] + 1)
    if name == "torus44" and (params[1] == 0 or params[0] == params[1]):
        return 8 * (params[0] ** 2 + params[1] ** 2)
    raise ValueError(f"no closed form for {label}")


def parse_cycles(text: str, size: int) -> np.ndarray:
    """Permutation table from cycle notation such as '(0 3)(1 2)'."""
    perm = np.arange(size, dtype=np.int64)
    for chunk in text.replace(")", "").split("(")[1:]:
        cycle = [int(tok) for tok in chunk.split()]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
    if np.unique(perm).size != size:
        raise ValueError("cycle string is not a permutation")
    return perm


def commutes_with_graph(perm: np.ndarray, adj: np.ndarray) -> bool:
    """True when perm preserves every colour: perm(r_i f) = r_i perm(f)."""
    return all(np.array_equal(perm[row], row[perm]) for row in adj)


def orbit_size(perms, start: int = 0) -> int:
    """Size of the orbit of ``start`` under the group the perms generate."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for f in frontier:
            for p in perms:
                g = int(p[f])
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return len(seen)


def bfs_depth(adj: np.ndarray, start: int = 0) -> int:
    """Number of breadth-first levels below ``start``."""
    seen = np.zeros(adj.shape[1], dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    depth = 0
    while True:
        reached = np.unique(adj[:, frontier])
        frontier = reached[~seen[reached]]
        if frontier.size == 0:
            return depth
        seen[frontier] = True
        depth += 1


def flag_graph_problems(adj: np.ndarray) -> list[str]:
    """Maniplex axioms: fixed-point-free involutions, distinct, commuting
    at colour distance >= 2, and connected."""
    rank, count = adj.shape
    ident = np.arange(count)
    out = []
    for i in range(rank):
        if np.any(adj[i] == ident) or not np.array_equal(adj[i][adj[i]], ident):
            out.append(f"r{i} is not a fixed-point-free involution")
        for j in range(i + 1, rank):
            if np.any(adj[i] == adj[j]):
                out.append(f"r{i} and r{j} overlap")
            if j >= i + 2 and not np.array_equal(adj[i][adj[j]], adj[j][adj[i]]):
                out.append(f"r{i} and r{j} do not commute")
    if orbit_size(adj) != count:
        out.append("disconnected")
    return out


def bipartite(adj: np.ndarray) -> bool:
    side = np.full(adj.shape[1], -1)
    side[0] = 0
    stack = [0]
    while stack:
        f = stack.pop()
        for row in adj:
            g = int(row[f])
            if side[g] < 0:
                side[g] = 1 - side[f]
                stack.append(g)
            elif side[g] == side[f]:
                return False
    return True


def stg_problems(slots) -> list[str]:
    """STG check: each colour is an involution on the vertices (a fixed
    point is a semi-edge), involutions at colour distance >= 2 commute
    (which is the five-quotient condition), and the graph is connected."""
    k = len(slots)
    rank = len(slots[0]) if k else 0
    moves = []
    for i in range(rank):
        m = []
        for u in range(k):
            if len(slots[u]) != rank:
                return [f"vertex {u} has {len(slots[u])} slots"]
            s = slots[u][i]
            if s != SEMI and not 0 <= s < k:
                return [f"slot ({u}, {i}) out of range"]
            m.append(u if s == SEMI else s)
        moves.append(m)
    out = []
    for i, m in enumerate(moves):
        if any(m[u] == u and slots[u][i] != SEMI for u in range(k)):
            out.append(f"colour {i} has a loop")
        if any(m[m[u]] != u for u in range(k)):
            out.append(f"colour {i} is not symmetric")
    if out:
        return out
    for i in range(rank):
        for j in range(i + 2, rank):
            if any(moves[i][moves[j][u]] != moves[j][moves[i][u]] for u in range(k)):
                out.append(f"colours {i} and {j} break the five-quotient condition")
    if orbit_size(moves) != k:
        out.append("disconnected")
    return out


def canonical_form(slots) -> tuple:
    """Least relabelled slot table over all k! vertex relabellings."""
    k = len(slots)
    best = None
    for perm in permutations(range(k)):
        inverse = [0] * k
        for old, new in enumerate(perm):
            inverse[new] = old
        code = tuple(tuple(SEMI if s == SEMI else perm[s] for s in slots[inverse[new]])
                     for new in range(k))
        if best is None or code < best:
            best = code
    return best


def _involutions(k: int) -> list[tuple[int, ...]]:
    out = []

    def grow(m: list[int]) -> None:
        if -1 not in m:
            out.append(tuple(m))
            return
        v = m.index(-1)
        for w in range(v, k):
            if m[w] == -1:
                m[v], m[w] = w, v
                grow(m)
                m[v] = m[w] = -1

    grow([-1] * k)
    return out


def count_classes(n_colours: int, k: int) -> int:
    """Number of admissible connected STGs on k vertices with n colours, up
    to vertex relabelling, by Burnside's lemma over labelled tuples of
    involutions: classes = sum over tuples of |stabiliser| / k!."""
    invs = _involutions(k)
    perms = list(permutations(range(k)))
    stabiliser_total = 0
    chosen: list[tuple[int, ...]] = []

    def place(colour: int) -> None:
        nonlocal stabiliser_total
        if colour == n_colours:
            if orbit_size(chosen) != k:
                return
            for p in perms:
                if all(p[m[u]] == m[p[u]] for m in chosen for u in range(k)):
                    stabiliser_total += 1
            return
        for m in invs:
            if all(all(c[m[u]] == m[c[u]] for u in range(k)) for c in chosen[:colour - 1]):
                chosen.append(m)
                place(colour + 1)
                chosen.pop()

    place(0)
    classes, rest = divmod(stabiliser_total, math.factorial(k))
    if rest:
        raise AssertionError("Burnside sum is not a multiple of k!")
    return classes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--colors", type=int, required=True)
    parser.add_argument("--vertices", type=int, required=True)
    args = parser.parse_args()
    print(count_classes(args.colors, args.vertices))


if __name__ == "__main__":
    main()
