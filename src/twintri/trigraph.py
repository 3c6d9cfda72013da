"""Mutable trigraph: a graph carrying two disjoint edge sets, black and red.

Contracting two vertices u and v replaces them by a fresh vertex w.  A
third vertex x keeps a black edge to w only if it was black-adjacent to
both u and v, keeps no edge if it was adjacent to neither, and gets a
red edge otherwise.  Black edges therefore always stand for "all pairs
across the two merged vertex groups are original edges", absent edges
for "no pair is", and red edges for the mixed leftovers.

Vertices are named by ids, but inside the trigraph every live vertex is
named by its representative, one original vertex of its group, and one
list, rep, maps ids to representatives: an id is live while its entry
is set.  Each representative holds two hash maps keyed by
representatives: its black neighbours (mapped to None) and its red
neighbours, each mapped to the red edge's cross-edge count, the number
of original edges between the two groups.  With the group sizes kept
alongside, a contraction computes the new red weights itself.

A contraction keeps the representative with the larger black map, u's on
a tie, as the name of w, and merges the other one away.  Only the merged
side's black neighbours are rewritten, one deletion each; the kept
side's neighbours already name w, and w needs no map of its own.

update_work charges a step |B(u)| + |B(v)| + |common black neighbours|,
plus |R(u)| + |R(v)| + |red neighbours of w| when a red edge is
involved: the cost of scanning both maps and renaming both ends in
every neighbour.  The work actually done is less: one C-level
comparison or symmetric difference of the two black maps, one deletion
per black neighbour of the merged side, and the red entries.  The
counter keeps its definition so that it stays comparable across
versions and bounds what is done.  red_work keeps the red part on its
own; it is the same on a graph and on its complement, whose red edges
are the same.

The structure is single-writer: queries may run concurrently between
contractions, but mutation is not thread safe.
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

# Stands in for the map of every vertex that starts with no neighbour of
# a colour and of every merged-away representative, so only vertices
# that have edges pay for a map.  Read-only, so a stray write raises
# instead of giving all those vertices an edge.
EMPTY = MappingProxyType({})


class Trigraph:
    """Trigraph over vertex ids 1..2n-1, where n is the original vertex count.

    Original vertices are 1..n; the vertex created by the k-th contraction
    (counting from 1) gets id n+k.  Ids are the interface; the state is
    indexed by representative, an original vertex 1..n:

        black_adj[r], red_adj[r]   r's maps, keyed by representative
        size[r]                    original vertices in r's group, 0 once
                                   r is merged away
        rep[id]                    the representative of id's group, 0
                                   once id is consumed or not yet created

    An id is live when 0 < id < the next id and rep[id] is set, so an id
    whose group lives on under a newer id is dead, and liveness checks
    are one lookup.  Nothing maps a representative back to its id; a
    message that names one inverts rep.
    """

    def __init__(self, n_original: int):
        if n_original < 1:
            raise ValueError("vertex count must be at least 1")
        n = n_original
        self.n_original = n
        self.black_adj: list = [EMPTY] * (n + 1)
        self.red_adj: list = [EMPTY] * (n + 1)
        self.size = [0] + [1] * n
        # ids run 1 .. 2n-1; ids not yet created map to 0
        self.rep = list(range(n + 1)) + [0] * (n - 1)
        self._next_id = n + 1
        # histogram of red degrees, so the maximum is O(1) amortized
        self._red_hist = [0] * (n + 1)
        self._red_hist[0] = n
        self._max_red = 0
        self.update_work = 0  # see the module docstring
        self.red_work = 0  # the red part of update_work

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

    def _rep_of_live(self, v):
        """v's representative; ValueError unless v is live."""
        if not (0 < v < self._next_id and self.rep[v]):
            raise ValueError(f"vertex {v} is not live")
        return self.rep[v]

    def edge_color(self, u: int, v: int) -> EdgeColor:
        """Color of the pair {u, v}: black, red, or none."""
        ru = self._rep_of_live(u)
        rv = self._rep_of_live(v)
        if u == v:
            raise ValueError("self-pairs have no color")
        if rv in self.black_adj[ru]:
            return BLACK
        if rv in self.red_adj[ru]:
            return RED
        return NONE

    def max_red_degree(self) -> int:
        hist = self._red_hist
        while self._max_red > 0 and hist[self._max_red] == 0:
            self._max_red -= 1
        return self._max_red

    # -- contraction -----------------------------------------------------

    def merge_neighborhoods(self, u: int, v: int):
        """Check the step (u, v), pick the representative that will name
        the merged group, and classify every vertex adjacent to u or v by
        its pair of colors.

        This is the one place a step is checked.  An id is live as the
        class docstring says; any other id, dead, not yet created or out
        of range, raises ValueError("vertex X is not live"), and u == v
        raises too.

        Returns (s, l, red), all named by representative.  s is the
        representative that stays, the one of u or v with the larger
        black map, u's on a tie, and l the one merged away.  red lists
        (x, color_sx, color_lx) for the vertices that would end up
        red-adjacent to the contraction, s and l skipped.  The vertices
        black to both sides stay black to w and need no entry.  The
        trigraph is not modified.
        """
        rep = self.rep
        next_id = self._next_id
        if not (0 < u < next_id and rep[u]):
            raise ValueError(f"vertex {u} is not live")
        if not (0 < v < next_id and rep[v]):
            raise ValueError(f"vertex {v} is not live")
        if u == v:
            raise ValueError("cannot contract a vertex with itself")
        s, l = rep[u], rep[v]
        black_adj = self.black_adj
        bs, bl = black_adj[s], black_adj[l]
        if len(bl) > len(bs):
            s, l, bs, bl = l, s, bl, bs
        rs, rl = self.red_adj[s], self.red_adj[l]
        if bs == bl and not (rs or rl):
            # non-adjacent twins, the usual width-0 step: black maps map
            # every key to None, so equal maps have equal neighbours
            return s, l, ()
        # neighbours black to exactly one side, in C: one set, no second
        # one for bl, which the symmetric difference reads as a dict
        one_side = set(bs)
        one_side.symmetric_difference_update(bl)
        one_side.discard(s)
        one_side.discard(l)
        red = []
        for x in one_side:
            if x in bs:
                red.append((x, BLACK, RED if x in rl else NONE))
            else:
                red.append((x, RED if x in rs else NONE, BLACK))
        for x in rs:
            if x != l and x not in bl:
                red.append((x, RED, RED if x in rl else NONE))
        for x in rl:
            if x != s and x not in bs and x not in rs:
                red.append((x, NONE, RED))
        return s, l, red

    def contract(self, u: int, v: int, merged=None) -> int:
        """Contract live vertices u and v into a fresh vertex, returning its id.

        The new id w is the next one the numbering scheme assigns
        (n_original + contractions performed + 1).  merged, when given,
        must be the output of merge_neighborhoods(u, v), which has
        checked the step; this lets a caller that already ran the merge
        avoid a second scan.  Without it the merge runs here, so an
        invalid step raises its ValueError before anything changes.

        w takes over the representative s that merge_neighborhoods kept,
        with s's maps, and rep reads 0 for u and v.  Each black neighbour
        of the merged-away l loses its entry for l, and each vertex that
        turns red to w loses its black entry for s.  The red edge {w, x}
        weighs size[s]*size[x] for a black {s, x}, the weight of a red
        {s, x}, and nothing for an absent one, plus the same for l.

        A red-free step touches no red map: it only retires two
        red-degree-0 vertices for one, so the histogram loses one count
        at 0 and the maximum red degree stays put.
        """
        if merged is None:
            merged = self.merge_neighborhoods(u, v)
        s, l, red = merged
        w = self._next_id
        size, black_adj, red_adj = self.size, self.black_adj, self.red_adj
        bs, bl = black_adj[s], black_adj[l]
        rs, rl = red_adj[s], red_adj[l]
        work = len(bs) + len(bl)
        if l in bs:
            del bs[l], bl[s]
        for x in bl:
            del black_adj[x][l]
        ss, sl = size[s], size[l]
        hist = self._red_hist
        if red or rs or rl:
            red_work = len(rs) + len(rl) + len(red)
            work += red_work
            self.red_work += red_work
            black_to_s = len(bs)
            red_w = {}
            for x, cs, cl in red:
                rx = red_adj[x]
                old = len(rx)
                weight = 0
                if cs is BLACK:
                    del black_adj[x][s], bs[x]
                    weight = ss * size[x]
                elif cs is RED:
                    weight = rx.pop(s)
                # a black {l, x} went with l's map above
                if cl is BLACK:
                    weight += sl * size[x]
                elif cl is RED:
                    weight += rx.pop(l)
                if rx is EMPTY:
                    red_adj[x] = rx = {}
                rx[s] = red_w[x] = weight
                new = len(rx)
                if new != old:
                    hist[old] -= 1
                    hist[new] += 1
                    if new > self._max_red:
                        self._max_red = new
            hist[len(rs)] -= 1
            hist[len(rl)] -= 1
            red_deg_w = len(red_w)
            hist[red_deg_w] += 1
            if red_deg_w > self._max_red:
                self._max_red = red_deg_w
            red_adj[s] = red_w if red_w else EMPTY
            if len(bs) < black_to_s:
                # deletions never shrink a dict, so w's map is rebuilt to
                # fit once some of its entries turned red
                black_adj[s] = dict.fromkeys(bs) if bs else EMPTY
        else:
            hist[0] -= 1
        # bs now holds the common black neighbours
        self.update_work += work + len(bs)
        black_adj[l] = red_adj[l] = EMPTY
        size[s] = ss + sl
        size[l] = 0
        self.rep[u] = self.rep[v] = 0
        self.rep[w] = s
        self._next_id = w + 1
        return w
