"""Brute-force triangle counter used as ground truth.

This module is deliberately independent of the contraction machinery:
adjacency is rebuilt here from the raw edge list, so a bug in the fast
path cannot hide inside shared code.  Only count_naive builds it, so the
count path, which reads only the edge list, never pays for it.
Everything is a pure function of its inputs and safe to call
concurrently.
"""

from __future__ import annotations


class PlainGraph:
    """Simple undirected graph: vertices 1..n plus a normalized edge list.

    Input pairs are symmetrized and deduplicated.  Self-loops and
    endpoints outside 1..n are rejected.  An edge list that is already
    canonical, tuples (u, v) with 1 <= u < v <= n in strictly increasing
    order, as parse_graph reads from a written file, is kept as it is.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n, edges=()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        edges = tuple(edges)
        if not _is_canonical(n, edges):
            normalized = set()
            for u, v in edges:
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ValueError(f"edge ({u}, {v}) leaves the vertex range 1..{n}")
                normalized.add((u, v) if u < v else (v, u))
            edges = tuple(sorted(normalized))
        self.n = n
        self.edges = edges

    @property
    def m(self):
        return len(self.edges)

    def __eq__(self, other):
        if not isinstance(other, PlainGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"PlainGraph(n={self.n}, m={self.m})"


def _is_canonical(n, edges) -> bool:
    """True when edges are tuples (u, v), 1 <= u < v <= n, strictly increasing."""
    prev = (0, 0)
    for edge in edges:
        if type(edge) is not tuple:
            return False
        u, v = edge
        if not (prev < edge and 0 < u < v <= n):
            return False
        prev = edge
    return True


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

