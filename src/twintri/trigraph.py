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
of original edges between the two groups.  Beside them each
representative keeps its group's size and inner-edge count, the
original edges with both ends in the group, so a contraction computes
w's red weights and inner edges itself: the paper's three numbers per
live group.  Each vertex id is one int object, the one rep holds, and
every map key is that object, so a half-dense graph's trigraph takes
about 86 bytes an edge.

A contraction keeps the representative with the larger black map, u's on
a tie, as the name of w, and merges the other one away.  Only the merged
side's black neighbours are rewritten, one deletion each; the kept
side's neighbours already name w, and w needs no map of its own.  Every
contraction runs in one loop, Trigraph.run, which checks every step and
applies twin steps inline.  Two vertices are twins when neither has a
red edge and their black maps are equal, once the pair's own edge is
set aside if they are adjacent; at width 0, in a cograph, every step
is one.  Only the other steps reach merge_neighborhoods and run's count
hook: an adjacent twin step closes just the triangles with an edge
inside either group, and run adds them to its running total t itself.
run is the one writer of the sizes, the inner-edge counts and the red
weights.

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

Trigraph.from_graph applies the edge rule oracle owns: it tests each
edge inline and builds a refusal with oracle.edge_refusal, so it and
PlainGraph refuse the same edge with the same message.  A Trigraph
takes its vertex count under oracle.check_vertex_count, as PlainGraph
does.

The structure is single-writer: queries may run concurrently between
contractions, but mutation is not thread safe.
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType

from .oracle import check_vertex_count, edge_refusal, not_an_int


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


class InternalInvariantError(RuntimeError):
    """A bookkeeping invariant broke; the counting state is unusable."""


def red_weight(g: "Trigraph", a, b) -> int:
    """Cross-edge count of the red edge between representatives a and b,
    read from g's red map; a missing one is named by the ids of a and b."""
    try:
        return g.red_adj[a][b]
    except KeyError:
        name = {r: v for v, r in enumerate(g.rep) if r}  # merged away: 0
        raise InternalInvariantError("no cross-edge count for red edge "
                                     f"{{{name.get(a, 0)}, {name.get(b, 0)}}}") from None


class Trigraph:
    """Trigraph over vertex ids 1..2n-1, where n is the original vertex count.

    Original vertices are 1..n; the vertex created by the k-th contraction
    (counting from 1) gets id n+k.  Ids are the interface; the state is
    indexed by representative, an original vertex 1..n:

        black_adj[r], red_adj[r]   r's maps, keyed by representative
        size[r]                    original vertices in r's group, 0 once
                                   r is merged away
        inner[r]                   original edges with both ends in r's
                                   group, 0 once r is merged away
        rep[id]                    the representative of id's group, 0
                                   once id is consumed or not yet created

    An id is live when 0 < id < the next id and rep[id] is set, so an id
    whose group lives on under a newer id is dead, and liveness checks
    are one lookup.  Nothing maps a representative back to its id; a
    message that names one inverts rep.
    """

    def __init__(self, n_original: int):
        check_vertex_count(n_original)
        n = n_original
        self.n_original = n
        self.black_adj: list = [EMPTY] * (n + 1)
        self.red_adj: list = [EMPTY] * (n + 1)
        self.size = [0] + [1] * n
        self.inner = [0] * (n + 1)
        # ids run 1 .. 2n-1; ids not yet created map to 0
        self.rep = list(range(n + 1)) + [0] * (n - 1)
        self._next_id = n + 1
        # histogram of red degrees, so run keeps the maximum exact
        self._red_hist = [0] * (n + 1)
        self._red_hist[0] = n
        self._max_red = 0
        self.update_work = 0  # see the module docstring
        self.red_work = 0  # the red part of update_work
        self.t = 0  # run's running total; see run

    @classmethod
    def from_graph(cls, edges, n: int) -> "Trigraph":
        """Build a red-free trigraph from an undirected edge list.

        Repeated and mirrored pairs collapse into one edge; the first
        edge the edge rule refuses raises its ValueError, the one
        oracle.edge_refusal builds, so PlainGraph gives the same answer
        for the same edges.  Construction is O(n+m).

        Each map key is the int object rep holds for that vertex, not the
        one the edge brought, which would cost 32 more bytes a key: the
        2m keys share the n id objects, and a half-dense graph's maps take
        about 86 bytes an edge.  Every later key is read from a key or
        from rep, so it shares them too.
        """
        g = cls(n)
        adj, rep = g.black_adj, g.rep
        u = v = 0  # ints, so a TypeError before the first edge is re-raised
        try:
            for u, v in edges:
                if u == v or not (1 <= u <= n and 1 <= v <= n):
                    raise edge_refusal(n, u, v)
                au = adj[u]
                if au is EMPTY:
                    adj[u] = au = {}
                au[rep[v]] = None
                av = adj[v]
                if av is EMPTY:
                    adj[v] = av = {}
                av[rep[u]] = None
        except TypeError:
            # an endpoint that is not an int fails a comparison, as a str
            # does, or the list index, as a float in range does
            if not_an_int(u, v) is None:
                raise
            raise edge_refusal(n, u, v) from None
        return g

    # -- queries ---------------------------------------------------------

    def edge_color(self, u: int, v: int) -> EdgeColor:
        """Color of the pair {u, v}: black, red, or none.  An id that is
        not live raises ValueError, u's first, as run does, and so does
        an id that is not an int."""
        rep = self.rep
        try:
            for x in (u, v):
                if not (0 < x < self._next_id and rep[x]):
                    raise ValueError(f"vertex {x} is not live")
        except TypeError:
            # a float fails the index and a str the comparison
            exc = not_an_int(u, v)
            if exc is None:
                raise
            raise exc from None
        if u == v:
            raise ValueError("self-pairs have no color")
        ru, rv = rep[u], rep[v]
        if rv in self.black_adj[ru]:
            return BLACK
        return RED if rv in self.red_adj[ru] else NONE

    # -- contraction -----------------------------------------------------

    def merge_neighborhoods(self, s: int, l: int):
        """Classify every vertex adjacent to the live, distinct
        representatives s and l by its pair of colors: the one
        classifier, which run calls for every checked step but twin
        steps, adjacent or not.

        Returns (s, l, red), all named by representative.  s is the one
        of the two with the larger black map, the first on a tie, which
        stays and names the merged group, and l the one merged away.  red
        lists (x, color_sx, color_lx, w_sx, w_lx) for the vertices that
        would end up red-adjacent to the contraction, s and l skipped:
        w_sx is size[s]*size[x], the weight of the red edge or 0 as {s, x}
        is black, red or absent, and w_lx the same for l.  The vertices
        black to both sides stay black to w and need no entry.  The
        trigraph is not modified.
        """
        black_adj, size = self.black_adj, self.size
        bs, bl = black_adj[s], black_adj[l]
        if len(bl) > len(bs):
            s, l, bs, bl = l, s, bl, bs
        rs, rl = self.red_adj[s], self.red_adj[l]
        ss, sl = size[s], size[l]
        # neighbours black to exactly one side, in C: one set, no second
        # one for bl, which the symmetric difference reads as a dict
        one_side = set(bs)
        one_side.symmetric_difference_update(bl)
        one_side.discard(s)
        one_side.discard(l)
        red = []
        # a red weight is never 0, so a weight of 0 reads as no edge
        for x in one_side:
            if x in bs:
                wl = rl.get(x, 0)
                red.append((x, BLACK, RED if wl else NONE, ss * size[x], wl))
            else:
                ws = rs.get(x, 0)
                red.append((x, RED if ws else NONE, BLACK, ws, sl * size[x]))
        for x, ws in rs.items():
            if x != l and x not in bl:
                wl = rl.get(x, 0)
                red.append((x, RED, RED if wl else NONE, ws, wl))
        for x, wl in rl.items():
            if x != s and x not in bs and x not in rs:
                red.append((x, NONE, RED, 0, wl))
        return s, l, red

    def run(self, pairs, bound=None, count=None, after=None, refused=None):
        """Contract each pair (u, v) of pairs in order: the one contraction
        loop, which replay, count_side and contract drive, and the one
        place a step is checked.  An id is live as the class docstring
        says; any other id, dead, not yet created or out of range, raises
        ValueError("vertex X is not live"), u's first, and u == v raises
        too; an id that is not an int, such as a float, raises
        ValueError("vertex X is not an int").  refused(step, u, v, exc),
        when given, replaces either error.

        A twin step, whose two sides have no red edge and equal black
        maps once the pair's own edge is set aside, is applied inline,
        with s = rep[u]: it retires l's black entries and two
        red-degree-0 vertices for one.  When its ends are adjacent it
        also adds the triangles with an edge inside either group,
        size[s]*inner[l] + size[l]*inner[s], to the running total t,
        drops the pair's edge, adds the size product to w's inner edges
        and charges update_work 3k + 2 for k common black neighbours, as
        the general path would.  Every other step has a red edge at s or
        l, or a vertex black to just one of them, which turns red to w,
        so it is classified by merge_neighborhoods and always updates
        the red maps and the red-degree histogram.  Then w takes over s
        with its maps, rep reads 0 for u and v, each black neighbour of
        l drops l, and each vertex x turning red to w drops its entries
        for s and l.  The red edge {w, x} weighs w_sx + w_lx, the two
        weights x's red entry carries.  w's size is the sum of s's and
        l's, and its inner edges are theirs plus the edges of the pair
        {s, l}: the size product if it is black, its weight if it is red
        at either end (one missing at s raises InternalInvariantError),
        none otherwise.

        count(merged) runs before each classified step, on the
        unmodified trigraph, with merge_neighborhoods' result, and what it
        returns is added to t.  after(step) runs after each step.  The
        next id, the counters, t and the maximum red degree are written
        back before after runs and before the loop returns or raises; t,
        like the counters, runs on from the trigraph's last run.
        Returns (width, sum_sq, over, t): the largest red degree after
        any step, the sum of its squares, the first step above bound
        (None if none is or bound is None) and the running total.
        """
        rep, size, inner, hist = self.rep, self.size, self.inner, self._red_hist
        black_adj, red_adj = self.black_adj, self.red_adj
        first = w = self._next_id
        top = self._max_red
        update_work, red_total, t = self.update_work, self.red_work, self.t
        width = sum_sq = 0
        over = None
        u = v = 0  # ints, so a TypeError before the first pair is re-raised
        try:
            for u, v in pairs:
                s = rep[u] if 0 < u < w else 0
                l = rep[v] if 0 < v < w else 0
                if not (s and l and s != l):
                    exc = ValueError("cannot contract a vertex with itself" if s and l
                                     else f"vertex {v if s else u} is not live")
                    raise exc if refused is None else refused(w - first, u, v, exc)
                bs, bl = black_adj[s], black_adj[l]
                # black maps map every key to None: equal maps, equal neighbours
                if bs == bl:
                    twin = not red_adj[s] and not red_adj[l]
                elif l in bs and len(bs) == len(bl) and not red_adj[s] and not red_adj[l]:
                    # adjacent: twins if the maps are equal without the
                    # pair's own edge, which comes back only if they are not
                    del bs[l], bl[s]
                    twin = bs == bl
                    if twin:
                        # the triangles with an edge inside either group
                        t += size[s] * inner[l] + size[l] * inner[s]
                        inner[s] += size[s] * size[l]
                        update_work += 2
                    else:
                        bs[l] = bl[s] = None
                else:
                    twin = False
                if twin:
                    for x in bl:
                        del black_adj[x][l]
                    update_work += 3 * len(bs)
                    hist[0] -= 1
                else:
                    merged = self.merge_neighborhoods(s, l)
                    if count is not None:
                        t += count(merged)
                    s, l, red = merged
                    bs, bl = black_adj[s], black_adj[l]
                    rs, rl = red_adj[s], red_adj[l]
                    work = len(bs) + len(bl)
                    if l in bs:
                        inner[s] += size[s] * size[l]
                        del bs[l], bl[s]
                    elif l in rs or s in rl:
                        # a weight missing at s is diagnosed, not read as
                        # no edge
                        inner[s] += red_weight(self, s, l)
                    for x in bl:
                        del black_adj[x][l]
                    red_work = len(rs) + len(rl) + len(red)
                    work += red_work
                    red_total += red_work
                    black_to_s = len(bs)
                    red_w = {}
                    for x, cs, cl, ws, wl in red:
                        rx = red_adj[x]
                        old = len(rx)
                        if cs is BLACK:
                            del black_adj[x][s], bs[x]
                        # l's map took a black {l, x}; rx[s] is overwritten
                        if cl is RED:
                            del rx[l]
                        if rx is EMPTY:
                            red_adj[x] = rx = {}
                        rx[s] = red_w[x] = ws + wl
                        new = len(rx)
                        if new != old:
                            hist[old] -= 1
                            hist[new] += 1
                    hist[len(rs)] -= 1
                    hist[len(rl)] -= 1
                    hist[len(red_w)] += 1
                    # a step raises no red degree but w's by more than one
                    top = max(top + 1, len(red_w))
                    while top and not hist[top]:
                        top -= 1
                    red_adj[s] = red_w if red_w else EMPTY
                    if len(bs) < black_to_s:
                        # deletions never shrink a dict, so w's map is
                        # rebuilt to fit once some entries turned red
                        black_adj[s] = dict.fromkeys(bs) if bs else EMPTY
                    # bs now holds the common black neighbours
                    update_work += work + len(bs)
                # no map outlives its step: l's, and s's where w's replaced it
                bs = bl = rs = rl = black_adj[l] = red_adj[l] = EMPTY
                size[s] += size[l]
                size[l] = 0
                if inner[l]:
                    inner[s] += inner[l]
                    inner[l] = 0
                rep[u] = rep[v] = 0
                rep[w] = s
                w += 1
                if top > width:
                    width = top
                    if over is None and bound is not None and top > bound:
                        over = w - first - 1
                sum_sq += top * top
                if after is not None:
                    self._next_id, self._max_red, self.t = w, top, t
                    self.update_work, self.red_work = update_work, red_total
                    after(w - first - 1)
        except TypeError:
            # an id that cannot index rep, such as a float, is refused
            # like a dead one; any other TypeError is not the pair's
            exc = not_an_int(u, v)
            if exc is None:
                raise
            raise (exc if refused is None else refused(w - first, u, v, exc)) from None
        finally:
            self._next_id, self._max_red, self.t = w, top, t
            self.update_work, self.red_work = update_work, red_total
        return width, sum_sq, over, t

    def contract(self, u: int, v: int) -> int:
        """One step of run: contract live vertices u and v into a fresh
        vertex and return its id, n_original + contractions so far + 1."""
        self.run(((u, v),))
        return self._next_id - 1
