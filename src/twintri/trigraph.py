"""Mutable trigraph: a graph carrying two disjoint edge sets, black and red.

Contracting two vertices u and v replaces them by a fresh vertex w.  A
third vertex x keeps a black edge to w only if it was black-adjacent to
both u and v, keeps no edge if it was adjacent to neither, and gets a
red edge otherwise.  Black edges therefore always stand for "all pairs
across the two merged vertex groups are original edges", absent edges
for "no pair is", and red edges for the mixed leftovers.

Each vertex holds two hash maps: its black neighbours (mapped to None)
and its red neighbours, each mapped to the red edge's cross-edge count,
the number of original edges between the two groups.  With the group
sizes kept alongside, a contraction patches every neighbour in O(1) and
computes the new red weights itself.  The structure is single-writer:
queries may run concurrently between contractions, but mutation is not
thread safe.
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType


class EdgeColor(Enum):
    NONE = 0
    BLACK = 1
    RED = 2


NONE = EdgeColor.NONE
BLACK = EdgeColor.BLACK
RED = EdgeColor.RED

# Shared by every vertex with no neighbour of a colour and by every dead
# vertex, so only vertices that have edges pay for a map.  Read-only, so
# a stray write raises instead of giving all those vertices an edge.
EMPTY = MappingProxyType({})


class Trigraph:
    """Trigraph over vertex ids 1..2n-1, where n is the original vertex count.

    Original vertices are 1..n; the vertex created by the k-th contraction
    (counting from 1) gets id n+k.  size[v] is the number of original
    vertices merged into v, 0 for dead and not yet created ids, so
    liveness checks stay O(1) and ids stay stable.
    """

    def __init__(self, n_original: int):
        if n_original < 1:
            raise ValueError("vertex count must be at least 1")
        ids = 2 * n_original  # ids run 1 .. 2n-1
        self.n_original = n_original
        self.black_adj: list = [EMPTY] * ids
        self.red_adj: list = [EMPTY] * ids
        self.size = [0] + [1] * n_original + [0] * (n_original - 1)
        self._next_id = n_original + 1
        # histogram of red degrees, so the maximum is O(1) amortized
        self._red_hist = [0] * (ids + 1)
        self._red_hist[0] = n_original
        self._max_red = 0
        self.update_work = 0  # adjacency entries scanned plus neighbor maps patched

    @classmethod
    def from_graph(cls, edges, n: int) -> "Trigraph":
        """Build a red-free trigraph from an undirected edge list.

        Repeated and mirrored pairs collapse into one edge; self-loops
        and endpoints outside 1..n are rejected.  Construction is O(n+m).
        """
        g = cls(n)
        adj = g.black_adj
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) leaves the vertex range 1..{n}")
            au = adj[u]
            if au is EMPTY:
                adj[u] = au = {}
            au[v] = None
            av = adj[v]
            if av is EMPTY:
                adj[v] = av = {}
            av[u] = None
        return g

    # -- queries ---------------------------------------------------------

    def live_vertices(self) -> list[int]:
        size = self.size
        return [v for v in range(1, self._next_id) if size[v]]

    def _require_live(self, v):
        size = self.size
        if not (0 < v < len(size) and size[v]):
            raise ValueError(f"vertex {v} is not live")

    def edge_color(self, u: int, v: int) -> EdgeColor:
        """Color of the pair {u, v}: black, red, or none."""
        self._require_live(u)
        self._require_live(v)
        if u == v:
            raise ValueError("self-pairs have no color")
        if v in self.black_adj[u]:
            return BLACK
        if v in self.red_adj[u]:
            return RED
        return NONE

    def max_red_degree(self) -> int:
        hist = self._red_hist
        while self._max_red > 0 and hist[self._max_red] == 0:
            self._max_red -= 1
        return self._max_red

    def black_edges(self):
        for u in self.live_vertices():
            for x in sorted(x for x in self.black_adj[u] if x > u):
                yield u, x

    def red_edges(self):
        for u in self.live_vertices():
            for x in sorted(x for x in self.red_adj[u] if x > u):
                yield u, x

    # -- contraction -----------------------------------------------------

    def merge_neighborhoods(self, u: int, v: int):
        """Check the step (u, v) and classify every vertex adjacent to u
        or v by its pair of colors.

        This is the one place a step is checked.  A vertex is live when
        0 < id < the next id to be assigned and its group is not empty;
        any other id, dead, not yet created or out of range, raises
        ValueError("vertex X is not live"), and u == v raises too.

        Returns (black, red): black lists the vertices black-adjacent to
        both u and v; red lists (x, color_ux, color_vx) for the vertices
        that would end up red-adjacent to the contraction of u and v.
        u and v themselves are skipped.  The trigraph is not modified.
        """
        size = self.size
        next_id = self._next_id
        if not (0 < u < next_id and size[u]):
            raise ValueError(f"vertex {u} is not live")
        if not (0 < v < next_id and size[v]):
            raise ValueError(f"vertex {v} is not live")
        if u == v:
            raise ValueError("cannot contract a vertex with itself")
        bu, ru = self.black_adj[u], self.red_adj[u]
        bv, rv = self.black_adj[v], self.red_adj[v]
        black = []
        red = []
        for x in bu:
            if x in bv:
                black.append(x)
            elif x != v:
                red.append((x, BLACK, RED if x in rv else NONE))
        for x in ru:
            if x != v:
                red.append((x, RED, BLACK if x in bv else RED if x in rv else NONE))
        for x in bv:
            if x != u and x not in bu and x not in ru:
                red.append((x, NONE, BLACK))
        for x in rv:
            if x != u and x not in bu and x not in ru:
                red.append((x, NONE, RED))
        return black, red

    def contract(self, u: int, v: int, merged=None) -> int:
        """Contract live vertices u and v into a fresh vertex, returning its id.

        The new id w is the next one the numbering scheme assigns
        (n_original + contractions performed + 1).  merged, when given,
        must be the output of merge_neighborhoods(u, v), which has
        checked the step; this lets a caller that already ran the merge
        avoid a second scan.  Without it the merge runs here, so an
        invalid step raises its ValueError before anything changes.  The
        red edge {w, x} weighs size[u]*size[x] for a black {u, x}, the
        weight of a red {u, x}, and nothing for an absent one, plus the
        same for v.

        A red-free step, one whose merge has no red entries while neither
        u nor v has a red edge, touches no red map: it only retires two
        red-degree-0 vertices for one, so the histogram loses one count
        at 0 and the maximum red degree stays put.
        """
        if merged is None:
            merged = self.merge_neighborhoods(u, v)
        w = self._next_id
        size = self.size
        black, red = merged
        black_adj, red_adj = self.black_adj, self.red_adj
        ru, rv = red_adj[u], red_adj[v]
        work = len(black_adj[u]) + len(black_adj[v]) + len(black)
        for x in black:
            bx = black_adj[x]
            del bx[u], bx[v]
            bx[w] = None
        su, sv = size[u], size[v]
        hist = self._red_hist
        if red or ru or rv:
            work += len(ru) + len(rv) + len(red)
            red_w = {}
            for x, cu, cv in red:
                rx = red_adj[x]
                old = len(rx)
                weight = 0
                if cu is BLACK:
                    del black_adj[x][u]
                    weight = su * size[x]
                elif cu is RED:
                    weight = rx.pop(u)
                if cv is BLACK:
                    del black_adj[x][v]
                    weight += sv * size[x]
                elif cv is RED:
                    weight += rx.pop(v)
                if rx is EMPTY:
                    red_adj[x] = rx = {}
                rx[w] = red_w[x] = weight
                new = len(rx)
                if new != old:
                    hist[old] -= 1
                    hist[new] += 1
                    if new > self._max_red:
                        self._max_red = new
            hist[len(ru)] -= 1
            hist[len(rv)] -= 1
            red_deg_w = len(red_w)
            hist[red_deg_w] += 1
            if red_deg_w > self._max_red:
                self._max_red = red_deg_w
            if red_w:
                red_adj[w] = red_w
        else:
            hist[0] -= 1
        self.update_work += work
        black_adj[u] = red_adj[u] = black_adj[v] = red_adj[v] = EMPTY
        size[w] = su + sv
        size[u] = size[v] = 0
        if black:
            black_adj[w] = dict.fromkeys(black)
        self._next_id += 1
        return w
