"""Brute-force triangle counter used as ground truth, and PlainGraph.

This module is deliberately independent of the contraction machinery:
adjacency is rebuilt here from the raw edge list, so a bug in the fast
path cannot hide inside shared code.  Only count_naive builds it, so the
count path, which reads only the edge list, never pays for it.

A PlainGraph keeps its canonical edge list in two arrays, us and vs,
one entry per edge, of the narrowest C type that holds every id 1..n:
id_typecode(n) is the one rule, and every builder of edge arrays takes
its typecode from it.  That is 2 bytes an edge up to 255 vertices, 4
up to 65,535 and 8 up to MAX_N, where a tuple of two int objects per
edge took about 100.  Since the typecode is a function of n, equal
graphs hold equal arrays and hash alike.  The edges property reads the
arrays back as pairs (u, v), a fresh iterator on each read, so a caller
that walks the edges twice reads the property twice.  An edge list that
is already canonical, such as the arrays parse_graph fills from a
written file or a generator builds, passes one plain loop over its
pairs and skips the set and the sort.  The widest type, a C int, caps
vertex ids, and so n, at MAX_N.

This module owns the edge rule, which PlainGraph and
Trigraph.from_graph both apply: edge_refusal is its one statement and
the one place its three messages are written.  An edge is refused for
an endpoint that is not an int (one that cannot index a list, as a
float cannot), then for a self-loop, then for an endpoint outside
1..n, so both constructors give one answer for each bad edge: the
first edge of the list that breaks the rule names the error.

Everything is a pure function of its inputs and safe to call
concurrently.
"""

from __future__ import annotations

from array import array
from operator import index, itemgetter

# the largest C int: an id the widest edge arrays can hold, and so the
# largest n
MAX_N = 2 ** 31 - 1


def id_typecode(n):
    """The array typecode of a graph on vertices 1..n: the narrowest of
    "B", "H" and "i" (1, 2 and 4 bytes) whose range holds n."""
    return "B" if n <= 0xFF else "H" if n <= 0xFFFF else "i"


def not_an_int(u, v):
    """ValueError("vertex X is not an int") for the first of u and v that
    cannot index a list, as an int id can and a float cannot, or None
    when both can."""
    for x in (u, v):
        try:
            index(x)
        except TypeError:
            return ValueError(f"vertex {x!r} is not an int")
    return None


def edge_refusal(n, u, v):
    """The ValueError that refuses the edge (u, v) on vertices 1..n, or
    None: the edge rule, whose tests run in this order.  An endpoint that
    is not an int comes first, then a self-loop, then an endpoint outside
    1..n.  PlainGraph and Trigraph.from_graph test edges inline and call
    this only to build the error."""
    if not_an_int(u, v):
        return ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
    if u == v:
        return ValueError(f"self-loop at vertex {u}")
    if not (1 <= u <= n and 1 <= v <= n):
        return ValueError(f"edge ({u}, {v}) leaves the vertex range 1..{n}")
    return None


def check_max_n(n):
    """Raise ValueError if n vertices are more than a PlainGraph holds."""
    if n > MAX_N:
        raise ValueError(f"graph declares n = {n} vertices, more than "
                         f"the {MAX_N} an edge array can hold")


class PlainGraph:
    """Simple undirected graph: vertices 1..n plus a normalized edge list.

    edges is an iterable of pairs (u, v), or the pair of endpoint arrays
    (us, vs) that parse_graph fills, which must be two arrays of
    typecode id_typecode(n) and equal length.  Pairs are symmetrized and
    deduplicated.  The first edge the edge rule refuses (see
    edge_refusal), n above MAX_N, and an n that is not an int are
    rejected with ValueError.  The graph keeps the edges sorted, u < v in
    each, in the arrays us and vs, which callers must not change.
    Canonical arrays are kept as given, and canonical pairs are
    converted without a sort; _is_canonical tells them apart in one
    loop.
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
            code = id_typecode(n)
            if not (type(vs) is array and us.typecode == vs.typecode == code
                    and len(us) == len(vs)):
                raise ValueError(f"edge columns must be two array('{code}') of equal length")
            columns = edges if _is_canonical(n, zip(us, vs)) else _normalized(n, zip(us, vs))
        else:
            pairs = edges if type(edges) in (list, tuple) else tuple(edges)
            try:
                columns = (_columns(n, pairs) if _is_canonical(n, pairs)
                           else _normalized(n, pairs))
            except (TypeError, ValueError):
                # an endpoint that is not an int, such as a float, can pass
                # the tests and fail only a comparison or the edge arrays,
                # or a later pair's test: the first pair the edge rule
                # refuses names the error, as in Trigraph.from_graph
                exc = next(filter(None, (edge_refusal(n, u, v) for u, v in pairs)), None)
                if exc is None:
                    raise
                raise exc from None
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


def _columns(n, pairs):
    """The endpoint arrays (us, vs) of canonical pairs on vertices 1..n."""
    code = id_typecode(n)
    return array(code, map(itemgetter(0), pairs)), array(code, map(itemgetter(1), pairs))


def _normalized(n, pairs):
    """The endpoint arrays of any pairs, normalized to canonical order;
    an edge the edge rule refuses raises its ValueError."""
    normalized = set()
    for u, v in pairs:
        if u == v or not (1 <= u <= n and 1 <= v <= n):
            raise edge_refusal(n, u, v)
        normalized.add((u, v) if u < v else (v, u))
    return _columns(n, sorted(normalized))


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

