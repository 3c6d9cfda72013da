"""Brute-force triangle counter used as ground truth, and PlainGraph.

This module is deliberately independent of the contraction machinery:
adjacency is rebuilt here from the raw edge list, so a bug in the fast
path cannot hide inside shared code.  Only count_naive builds it, so the
count path, which reads only the edge list, never pays for it.

A PlainGraph keeps its canonical edge list in two arrays of C ints, us
and vs, one entry per edge: 8 bytes an edge, where a tuple of two int
objects per edge took about 100.  Its edges property reads them back as
pairs (u, v), a fresh iterator on each read, so a caller that walks the
edges twice reads the property twice.  An edge list that is already
canonical, such as the arrays parse_graph fills from a written file or
a generator builds, passes one plain loop over its pairs and skips the
set and the sort.  The arrays cap vertex ids, and so n, at
MAX_N.

Everything is a pure function of its inputs and safe to call
concurrently.
"""

from __future__ import annotations

from array import array
from operator import index, itemgetter

# the largest C int: an id the edge arrays can hold, and so the largest n
MAX_N = 2 ** 31 - 1


def check_max_n(n):
    """Raise ValueError if n vertices are more than a PlainGraph holds."""
    if n > MAX_N:
        raise ValueError(f"graph declares n = {n} vertices, more than "
                         f"the {MAX_N} an edge array can hold")


class PlainGraph:
    """Simple undirected graph: vertices 1..n plus a normalized edge list.

    edges is an iterable of pairs (u, v), or the pair of endpoint arrays
    (us, vs) that parse_graph fills, which must be two array('i') of
    equal length.  Pairs are symmetrized and deduplicated.  Self-loops,
    endpoints outside 1..n, n above MAX_N, and an n or an endpoint that
    is not an int are rejected with ValueError.  The graph keeps the
    edges sorted, u < v in each, in the arrays us and vs, which callers
    must not change.  Canonical arrays are kept as given, and canonical
    pairs are converted without a sort; _is_canonical tells them apart
    in one loop.
    """

    __slots__ = ("n", "us", "vs")

    def __init__(self, n, edges=()):
        if not isinstance(n, int):
            raise ValueError(f"graph needs an int vertex count, got {n!r}")
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        check_max_n(n)
        if type(edges) is tuple and len(edges) == 2 and type(edges[0]) is array:
            us, vs = edges
            if not (type(vs) is array and us.typecode == vs.typecode == "i"
                    and len(us) == len(vs)):
                raise ValueError("edge columns must be two array('i') of equal length")
            columns = edges if _is_canonical(n, zip(us, vs)) else _normalized(n, zip(us, vs))
        else:
            pairs = edges if type(edges) in (list, tuple) else tuple(edges)
            try:
                columns = (_columns(pairs) if _is_canonical(n, pairs)
                           else _normalized(n, pairs))
            except TypeError:
                # an endpoint that is not an int, such as a float, fails a
                # comparison or the C int arrays
                edge = _non_int_edge(pairs)
                if edge is None:
                    raise
                raise ValueError(f"edge ({edge[0]!r}, {edge[1]!r}) has an "
                                 "endpoint that is not an int") from None
        self.n = n
        self.us, self.vs = columns

    @property
    def edges(self):
        """The edges as pairs (u, v) in canonical order, a fresh iterator
        on each read."""
        return zip(self.us, self.vs)

    @property
    def m(self):
        return len(self.us)

    def __eq__(self, other):
        if not isinstance(other, PlainGraph):
            return NotImplemented
        return self.n == other.n and self.us == other.us and self.vs == other.vs

    def __hash__(self):
        return hash((self.n, self.us.tobytes(), self.vs.tobytes()))

    def __repr__(self):
        return f"PlainGraph(n={self.n}, m={self.m})"


def _is_canonical(n, pairs) -> bool:
    """True when the pairs (u, v) have 0 < u < v <= n and strictly
    increase: by u, and by v where the us tie."""
    # (0, n) sorts below every canonical pair, and a pair (0, v) fails the
    # tie test, since no v has n < v <= n
    last_u, last_v = 0, n
    for u, v in pairs:
        if u == last_u:
            if not last_v < v <= n:
                return False
        elif not last_u < u < v <= n:
            return False
        last_u, last_v = u, v
    return True


def _columns(pairs):
    """The endpoint arrays (us, vs) of canonical pairs."""
    return array("i", map(itemgetter(0), pairs)), array("i", map(itemgetter(1), pairs))


def _normalized(n, pairs):
    """The endpoint arrays of any pairs, normalized to canonical order;
    a self-loop or an endpoint outside 1..n raises ValueError."""
    normalized = set()
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) leaves the vertex range 1..{n}")
        normalized.add((u, v) if u < v else (v, u))
    return _columns(sorted(normalized))


def _non_int_edge(pairs):
    """The first pair (u, v) of pairs with an endpoint that cannot index
    a list, as an int can and a float cannot, or None."""
    for u, v in pairs:
        try:
            index(u), index(v)
        except TypeError:
            return u, v
    return None


def count_naive(g: PlainGraph) -> int:
    """Exact triangle count by intersecting sorted neighbor lists per edge."""
    adjacency = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for neighbors in adjacency:
        neighbors.sort()
    total = 0
    for u, v in g.edges:
        a, b = adjacency[u], adjacency[v]
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            if a[i] < b[j]:
                i += 1
            elif a[i] > b[j]:
                j += 1
            else:
                total += 1
                i += 1
                j += 1
    # every triangle was seen once per incident edge
    return total // 3

