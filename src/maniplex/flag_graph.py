"""Edge-coloured flag graphs.

A rank-n flag graph carries n perfect matchings r_0, ..., r_{n-1} on a
common set of flags, one matching per colour.  Matchings of colours i and
j commute whenever |i - j| >= 2, which makes every (i, j) 2-factor a
disjoint union of 4-cycles.  Maps, maniplexes and the flag structures of
abstract polytopes all live in this representation.

The same object, n involutions on k points, is also a symmetry type
graph and every candidate the census enumerator tries.  The routines
below work on that shared form: a *partner table* ``m`` per colour,
where ``m[u]`` is u's neighbour and ``m[u] == u`` is a semi-edge.
``component_labels`` is the one routine that finds components, and
``stack_labels`` and ``non_commuting`` take a whole stack of tuples, an
array (tuples, colours, points), in one pass.  Flag 0 is the only root:
a flag graph builds its breadth-first tree from flag 0 on first use and
keeps it with each flag's depth; the trial extension replays it, and
connectivity, ``validate``'s disconnection witness and the orientation
(the depth parities) read the depths.  The tree is built a level at a
time, with no sort.  Tables are int32: at most ``MAX_FLAGS`` flags.
"""

from __future__ import annotations

import math

import numpy as np


CHUNK = 1 << 16  # bytes of the largest array of one pass over a stack of tuples
MAX_FLAGS = 2**31 - 1  # the largest count int32 tables index


def check_flag_count(count: int | None, exponent: int | None = None) -> None:
    """ValueError when int32 tables cannot index ``count`` flags.  From
    10^30 flags on the message shows only the decimal ``exponent``, which
    a caller may give in place of the count, as None."""
    if count is None or count > MAX_FLAGS:
        exact = count is not None and count < 10**30
        shown = f"{count:,}" if exact else f"about 10^{exponent or int(math.log10(count))}"
        raise ValueError(f"{shown} flags exceed the limit of {MAX_FLAGS:,} (flag tables are int32)")


class InternalCheckError(AssertionError):
    """A cross-checked identity failed; indicates a bug, not bad input."""


def component_labels(tables, count: int) -> np.ndarray:
    """The least point of each point's component along the tables, as
    int32: ``_hook`` from every point its own root.  The tables permute
    ``count`` points, each joined to its image; see ``_hook`` on inverses."""
    return _hook(tables, np.arange(count)).astype(np.int32)


def _hook(tables, label: np.ndarray) -> np.ndarray:
    """The least point of each component of the permutations ``tables``
    joined with the trees of ``label``, a forest of intp pointers, each
    to a root no larger than its point.  Hooking and pointer jumping
    (Shiloach and Vishkin, J. Algorithms 3, 1982): each round hooks every
    root to the least label next to its tree, ``low`` holding each
    point's least label one step along a table (a ``take`` per table),
    then jumps pointers until each points at a root.  Pointers only
    decrease, and a tree that permutations map into itself is a union of
    components, so a round that changes nothing leaves their least points.
    A root looks forward only: the rounds are logarithmic in number only
    when each table's inverse, an involution's being itself, is a table."""
    while True:
        low, root = label, label.copy()
        for m in tables:
            low = np.minimum(low, label.take(m))
        np.minimum.at(root, label, low)
        while not np.array_equal(nxt := root.take(root), root):
            root = nxt
        if np.array_equal(root, label):
            return label
        label = root


def stack_labels(stack: np.ndarray) -> np.ndarray:
    """The component labels of each tuple of partner tables in a stack
    (tuples, colours, points), on the tuple's own points: one
    ``component_labels`` call on the disjoint union of the tuples."""
    n, colours, k = stack.shape
    start = np.arange(0, n * k, k, dtype=np.int32)[:, None]
    union = np.add(stack.transpose(1, 0, 2), start, order="C").reshape(colours, -1)
    return component_labels(union, n * k).reshape(n, k) - start


def non_commuting(stack) -> list[tuple[int, int, int, int]]:
    """``(t, i, j, u)`` for each tuple t of a stack (tuples, colours,
    points) and colour pair i + 2 <= j whose tables do not commute, u the
    least vertex where ``m_i[m_j[u]] != m_j[m_i[u]]``; ordered by i, t, j.

    Commutation is the admissibility rule of colours at distance >= 2:
    on involutions, the components of the (i, j) 2-factor are quotients
    of an alternating 4-cycle exactly where the two commute.  Table i is
    compared with all the tables i + 2.. on the tuples' disjoint union.
    """
    n, colours, k = np.shape(stack)
    m = np.transpose(stack, (1, 0, 2))  # a lone tuple, as validate's, is read in place
    m = (m + np.arange(0, n * k, k, dtype=np.int32)[:, None] if n > 1 else m).reshape(colours, -1)
    out = []
    for i in range(colours - 2):
        bad = (m[i][m[i + 2:]] != m[i + 2:, m[i]]).reshape(colours - i - 2, n, k)
        if bad.any():
            t, d = np.nonzero(bad.any(axis=2).T)
            out += zip(t.tolist(), [i] * len(t), (d + i + 2).tolist(),
                       bad.argmax(axis=2)[d, t].tolist())
    return out


def _key(value):
    """A field as records compare and hash it: an array by dtype, shape and
    bytes, a list (unhashable) or tuple item by item, anything else itself."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if type(value) in (list, tuple):
        return type(value)(map(_key, value))
    return value


class Record:
    """A value whose fields are its class's ``__slots__`` not starting with
    ``_``, the rest caches that a copy builds again: built from the fields by
    position or keyword, equal and hashed by type and each field's ``_key``,
    shown, copied and pickled by them.  Setting an attribute raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")

    def __init__(self, *args, **kwargs) -> None:
        if len(args) > len(self._fields) or kwargs.keys() != set(self._fields[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        for name, value in [*zip(self._fields, args), *kwargs.items()]:
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot set {name!r}: a {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        same = type(other) is type(self)
        return _key(self.__reduce__()[1]) == _key(other.__reduce__()[1]) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(_key(self.__reduce__()[1]))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Violation(Record):
    """One failed structural invariant, with a witness flag."""

    __slots__ = ("kind", "colours", "flag")

    def __str__(self) -> str:
        if len(self.colours) == 2:
            return f"{self.kind} ({self.colours[0]},{self.colours[1]}), flag {self.flag}"
        if len(self.colours) == 1:
            return f"{self.kind}, colour {self.colours[0]}, flag {self.flag}"
        return f"{self.kind}, flag {self.flag}"


class FlagGraph(Record):
    """Edge-coloured graph given by per-colour flag permutations; equal tables, equal graphs.

    ``adj[i][f]``, read-only int32, is the flag joined to ``f`` by the edge of
    colour ``i``.  Construction only enforces shape (tables rectangular, images
    in range, at most ``MAX_FLAGS`` flags); ``validate`` checks the rest.
    """

    __slots__ = ("adj", "_tree")  # _tree: bfs_levels' (levels, depths), once built

    def __init__(self, adj) -> None:
        if not (isinstance(adj, np.ndarray) and adj.dtype.kind in "iu"):
            try:  # an integer array is range-checked in its own dtype
                adj = np.asarray(adj, dtype=np.int64)
            except OverflowError as exc:  # a Python int beyond int64
                raise ValueError("flag image out of range") from exc
        if adj.ndim != 2:
            raise ValueError("adjacency must be a rank x flag_count table")
        rank, count = adj.shape
        if rank < 1:
            raise ValueError("at least one colour is required")
        if count < 2:
            raise ValueError("at least two flags are required")
        check_flag_count(count)
        if adj.min() < 0 or adj.max() >= count:
            raise ValueError("flag image out of range")
        # C order: bfs_levels would copy an F-order table at every level
        (adj := adj.astype(np.int32, order="C")).setflags(write=False)
        super().__init__(adj)
        object.__setattr__(self, "_tree", None)

    @property
    def rank(self) -> int:
        return self.adj.shape[0]

    @property
    def flag_count(self) -> int:
        return self.adj.shape[1]

    def __repr__(self) -> str:
        return f"FlagGraph(rank={self.rank}, flags={self.flag_count})"

    def act(self, flag: int, word) -> int:
        """Apply a word of colours to a flag, leftmost colour first."""
        for c in word:
            flag = int(self.adj[c, flag])
        return flag

    def bfs_levels(self):
        """Breadth-first tree from flag 0 as per-level arrays, cached with
        each flag's depth in it (see ``depths``).

        Each level is a triple ``(flags, parents, colours)`` meaning flag
        ``flags[t]`` was first reached from ``parents[t]`` along colour
        ``colours[t]``.  A level's new candidates scatter their positions
        (colour * |frontier| + t) into one index array, and a flag keeps
        the one it reads back: no sort, and its parent is any of the
        candidates that reached it.
        """
        if self._tree is not None:
            return self._tree[0]
        depth = np.full(self.flag_count, -1, dtype=np.int32)
        depth[0] = 0
        slot = np.empty(self.flag_count, dtype=np.intp)
        frontier = np.zeros(1, dtype=np.int32)
        levels = []
        while frontier.size:  # take and put: the cheapest gathers and scatters
            cand = self.adj.take(frontier, axis=1).ravel()
            pos = np.flatnonzero(depth.take(cand) < 0)
            cand = cand.take(pos)
            slot.put(cand, pos)
            kept = slot.take(cand) == pos
            colours, at = np.divmod(pos[kept], frontier.size)
            levels.append((cand[kept], frontier.take(at), colours))
            frontier = levels[-1][0]
            depth.put(frontier, len(levels))
        levels.pop()  # the empty level that ends the search
        depth.setflags(write=False)
        object.__setattr__(self, "_tree", (levels, depth))
        return levels

    def depths(self) -> np.ndarray:
        """Each flag's depth in the tree from flag 0, -1 where the tree
        does not reach it; a tree edge joins depths d and d + 1."""
        self.bfs_levels()
        return self._tree[1]

    def is_connected(self) -> bool:
        return bool(self.depths().min() >= 0)


def validate(g: FlagGraph) -> list[Violation]:
    """Check all maniplex invariants; return one violation per failure.

    The report is total: every violated invariant appears, each with its
    least witness flag.  An empty report means ``g`` is a maniplex flag
    graph.
    """
    out: list[Violation] = []
    ident = np.arange(g.flag_count, dtype=np.int32)
    for i in range(g.rank):
        t = g.adj[i]
        fixed = np.nonzero(t == ident)[0]
        if fixed.size:
            out.append(Violation("fixed point", (i,), int(fixed[0])))
        broken = np.nonzero(t[t] != ident)[0]
        if broken.size:
            out.append(Violation("not an involution", (i,), int(broken[0])))
    for i in range(g.rank):
        for j in range(i + 1, g.rank):
            clash = np.nonzero(g.adj[i] == g.adj[j])[0]
            if clash.size:
                out.append(Violation("overlapping matchings", (i, j), int(clash[0])))
    if not g.is_connected():
        out.append(Violation("disconnected", (), int(np.argmin(g.depths()))))
    out += [Violation("commuting condition", (i, j), u)
            for _, i, j, u in non_commuting(g.adj[None])]
    return out
