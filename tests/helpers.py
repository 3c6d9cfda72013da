"""Shared test support: independent reimplementations used as oracles.

Colors, auxiliary counts and triangle configurations are recomputed from
first principles (edge lists and vertex partitions), so a bug in the
package cannot leak into its own check.  Four groups of code are not
independent on purpose: `count_on_side` runs the package's per-side
count on the side a test names (the complement built here, vertex
by vertex); `serialize`, `live_vertices`, `black_edges`, `red_edges`,
`max_red_degree`, `check_consistent` and `by_id` read a trigraph's own
state to print, list, audit or translate it, naming vertices by id through
`ids_of`, the inverse of the trigraph's one id map `rep` (the package
inverts it only to name vertices in messages);
`IdKeyedTrigraph`, `greedy_reference` and `count_step_reference` are
the package's earlier id-keyed contraction, greedy loop and per-step
pair loop; `cotree_graph_recursive` and `twin_sequence_recursive`
are the package's earlier recursive cotree walks; and
`written_shape_reference` is the readers' earlier whole-text shape
check; and `written_text_reference` is the writer's earlier one-%
format.  The last four groups are kept as the yardsticks their
rewrites must match.
`leaves_recursive` is the tests' own leaf lister: the package has none,
since each of its walks checks the leaves it meets.  `cotree_counts`
reads a cograph's vertex, edge and triangle counts off its cotree in
closed form, with no graph built at all.
"""

import itertools
import random
import re
import types
from array import array

from twintri.counting import COMPLEMENT, GRAPH, Counters, count_side
from twintri.generate import Cotree, cograph, gnp, greedy_sequence, twin_sequence
from twintri.oracle import PlainGraph, check_vertex_count, count_naive, id_typecode
from twintri.sequence import ContractionSequence
from twintri.trigraph import BLACK, EMPTY, NONE, RED, Trigraph, red_weight


def sequence_of(n, pairs):
    """The ContractionSequence of the pairs (u, v), their ids laid flat."""
    return ContractionSequence(n, tuple(itertools.chain.from_iterable(pairs)))


def unchecked_sequence(n, pairs):
    """A sequence-shaped object that skips ContractionSequence's checks,
    for feeding ids it refuses (0, negatives) to replay and counting."""
    pairs = tuple(pairs)
    return types.SimpleNamespace(n=n, pairs=pairs,
                                 ends=tuple(itertools.chain.from_iterable(pairs)))


def random_sequence(n, rng):
    """Uniformly random contraction order, no width control at all."""
    live = list(range(1, n + 1))
    pairs = []
    for j in range(n - 1):
        u, v = rng.sample(live, 2)
        pairs.append((u, v))
        live.remove(u)
        live.remove(v)
        live.append(n + 1 + j)
    return sequence_of(n, pairs)


def halving_sequence(n):
    """Fold the ids pairwise, level by level: each level contracts its
    first two ids, its next two and so on, and the next level lists the
    new ids, then the odd id out, if any."""
    level, pairs = list(range(1, n + 1)), []
    while len(level) > 1:
        folded = []
        for u, v in zip(level[0::2], level[1::2]):
            pairs.append((u, v))
            folded.append(n + len(pairs))
        level = folded + level[2 * len(folded):]
    return sequence_of(n, pairs)


def loop_cases(seed):
    """(graph, sequence) pairs for comparing a whole run of the contraction
    loop with step-by-step drivers: gnp graphs of at most 40 vertices at
    several densities, each under a random and under the greedy sequence,
    and cographs, sparse and dense, under their twin sequences."""
    rng = random.Random(seed)
    for trial in range(24):
        n = rng.randint(2, 40)
        graph = gnp(n, (0.1, 0.3, 0.5, 0.8)[trial % 4], seed=seed + trial)
        yield graph, random_sequence(n, rng)
        yield graph, greedy_sequence(graph)[0]
    for trial in range(6):
        graph, cotree = cograph(40, seed=seed + trial, block_size=(None, 8)[trial % 2])
        yield graph, twin_sequence(cotree, graph.n)


def complement(graph):
    """graph's complement, built vertex by vertex: u's higher non-neighbours
    are the gaps between its higher neighbours, which the canonical edge
    arrays list in order.  counting's complement bisects the arrays and
    takes set differences instead, so this one still checks it."""
    n = graph.n
    higher = [[] for _ in range(n + 1)]
    for u, v in zip(graph.us, graph.vs):
        higher[u].append(v)
    us, vs = array(id_typecode(n)), array(id_typecode(n))
    for u in range(1, n + 1):
        row, last = [], u
        for v in higher[u] + [n + 1]:
            row += range(last + 1, v)
            last = v
        vs.fromlist(row)
        us.fromlist([u] * len(row))
    return PlainGraph(n, (us, vs))


def count_on_side(graph, seq, side=GRAPH, mode="fast", step_callback=None):
    """count_triangles' per-side routine on the trigraph of graph (GRAPH)
    or of its complement, built here vertex by vertex (COMPLEMENT).  The
    count is that side's own, and checked mode checks it against the
    oracle on that side.  count_triangles itself takes the graph side
    only while at most half of the pairs are edges."""
    if side == COMPLEMENT:
        graph = complement(graph)
    reference = (graph.m, count_naive(graph)) if mode == "checked" else None
    return count_side(Trigraph.from_graph(graph.edges, graph.n), seq, side,
                      reference, step_callback)


def key(a, b):
    return (a, b) if a < b else (b, a)


def brute_triangles(n, edges):
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in set(map(lambda e: key(*e), edges)):
        adj[u].add(v)
        adj[v].add(u)
    out = []
    for x, y, z in itertools.combinations(range(1, n + 1), 3):
        if y in adj[x] and z in adj[x] and z in adj[y]:
            out.append((x, y, z))
    return out


# -- trigraph diagnostics --------------------------------------------------


def serialize(g):
    """Canonical text form of a trigraph; equal trigraphs serialize identically.

    Lists the live vertices, their group sizes in the same order, the
    black edges and the red edges with their cross-edge counts
    ("r u v weight"), so trigraphs that differ only in sizes or red
    weights differ in text too.
    """
    live = live_vertices(g)
    lines = ["live " + " ".join(map(str, live)),
             "size " + " ".join(str(g.size[g.rep[v]]) for v in live)]
    for u, v in black_edges(g):
        lines.append(f"b {u} {v}")
    for u, v in red_edges(g):
        lines.append(f"r {u} {v} {g.red_adj[g.rep[u]][g.rep[v]]}")
    return "\n".join(lines) + "\n"


def ids_of(g):
    """{representative: id} over g's live vertices, in increasing id
    order: the inverse of g.rep."""
    return {r: v for v, r in enumerate(g.rep) if r}


def live_vertices(g):
    """g's live ids, in increasing order."""
    return list(ids_of(g).values())


def _edges(g, maps):
    name = ids_of(g)
    for r, u in name.items():
        for x in sorted(x for x in (name.get(y, 0) for y in maps[r]) if x > u):
            yield u, x


def black_edges(g):
    """Black edges as id pairs (u, x), u < x, in increasing order."""
    return _edges(g, g.black_adj)


def red_edges(g):
    """Red edges as id pairs (u, x), u < x, in increasing order."""
    return _edges(g, g.red_adj)


def max_red_degree(g):
    """The largest red degree of a live vertex of Trigraph g, as its
    contraction loop keeps it."""
    return g._max_red


def check_consistent(g):
    """Raise AssertionError if any structural invariant of g is broken.

    Messages name live vertices by id and merged-away representatives
    by their own number."""
    size, rep = g.size, g.rep
    assert not any(rep[g._next_id:]), "an id not yet created has a representative"
    id_of = {}
    for v, r in enumerate(rep):
        if r:
            assert 1 <= r <= g.n_original, f"vertex {v} has representative {r}"
            assert r not in id_of, f"vertices {id_of[r]} and {v} share representative {r}"
            id_of[r] = v
    for r in range(1, g.n_original + 1):
        if r not in id_of:
            assert g.black_adj[r] is EMPTY and g.red_adj[r] is EMPTY, \
                f"dead vertex {r} holds its own map"
            assert not size[r], f"dead vertex {r} holds a group"
            assert not g.inner[r], f"dead vertex {r} holds inner edges"
    for r, v in id_of.items():
        b, red = g.black_adj[r], g.red_adj[r]
        assert size[r], f"live vertex {v} has an empty group"
        assert g.inner[r] <= size[r] * (size[r] - 1) // 2, \
            f"live vertex {v} holds {g.inner[r]} inner edges in a group of {size[r]}"
        assert not (b.keys() & red.keys()), f"pair both black and red at {v}"
        for x in b:
            assert x in id_of, f"edge from {v} to dead vertex {x}"
            assert x != r, f"self-loop at {v}"
            assert r in g.black_adj[x], f"asymmetric black edge {v},{id_of[x]}"
        for x, weight in red.items():
            assert x in id_of, f"edge from {v} to dead vertex {x}"
            assert x != r, f"self-loop at {v}"
            assert g.red_adj[x].get(r) == weight, f"asymmetric red edge {v},{id_of[x]}"
            assert 0 < weight < size[r] * size[x], \
                (f"red edge {v},{id_of[x]} weighs {weight} "
                 f"for groups of {size[r]} and {size[x]}")
    live = list(id_of.values())
    # ids n+1 .. _next_id-1 were created, each by one contraction
    assert len(live) == 2 * g.n_original + 1 - g._next_id, "live count desync"
    assert sum(size) == g.n_original, "group sizes do not sum to n"
    degrees = sorted(len(g.red_adj[g.rep[v]]) for v in live)
    hist_degrees = []
    for d, cnt in enumerate(g._red_hist):
        hist_degrees.extend([d] * cnt)
    assert degrees == sorted(hist_degrees), "red degree histogram desync"
    assert max_red_degree(g) == (max(degrees) if degrees else 0)


# -- id-keyed contraction reference -----------------------------------------


class IdKeyedTrigraph:
    """The id-keyed trigraph that representatives replaced, its merge and
    contraction kept word for word as the yardstick.

    Every vertex, original or created, holds its own maps under its own
    id, and a contraction renames both ends in every neighbour's map and
    builds fresh maps for the new vertex.
    """

    def __init__(self, n_original: int):
        check_vertex_count(n_original)
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
    def from_graph(cls, edges, n: int) -> "IdKeyedTrigraph":
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

    def max_red_degree(self) -> int:
        hist = self._red_hist
        while self._max_red > 0 and hist[self._max_red] == 0:
            self._max_red -= 1
        return self._max_red

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


def by_id(g):
    """{id: (size, black ids, {red id: weight})} over g's live vertices.

    Reads a representative Trigraph through its inverted rep map, or an
    IdKeyedTrigraph as it is, so the two can be compared."""
    if isinstance(g, IdKeyedTrigraph):
        return {v: (g.size[v], set(g.black_adj[v]), dict(g.red_adj[v]))
                for v in range(1, g._next_id) if g.size[v]}
    id_of = ids_of(g)
    return {v: (g.size[r], {id_of[x] for x in g.black_adj[r]},
                {id_of[x]: weight for x, weight in g.red_adj[r].items()})
            for r, v in id_of.items()}


# -- pairwise contraction rule --------------------------------------------


def merged_color(cu, cv):
    """Color of the pair (new vertex, x) given x's colors toward u and v."""
    if cu == "b" and cv == "b":
        return "b"
    if cu is None and cv is None:
        return None
    return "r"


def apply_contraction(colors, live, u, v, w):
    """Evaluate the contraction rule pair by pair on a plain color dict."""
    new = {}
    for (a, b), c in colors.items():
        if u not in (a, b) and v not in (a, b):
            new[(a, b)] = c
    for x in live:
        if x in (u, v):
            continue
        c = merged_color(colors.get(key(u, x)), colors.get(key(v, x)))
        if c is not None:
            new[key(w, x)] = c
    return (live - {u, v}) | {w}, new


# -- triangle configuration schedule ---------------------------------------

ABSORBING = {"one_black", "all_red", "split_red", "inside"}


def triangle_case(tri, group_of, pair_color):
    groups = {group_of[a] for a in tri}
    if len(groups) == 1:
        return "inside"
    if len(groups) == 2:
        x, y = groups
        c = pair_color(x, y)
        assert c is not None, "triangle spans groups with no edge"
        return "split_black" if c == "b" else "split_red"
    x, y, z = groups
    cs = [pair_color(x, y), pair_color(y, z), pair_color(x, z)]
    assert None not in cs, "triangle spans a group pair with no edge"
    blacks = cs.count("b")
    return {3: "three_black", 2: "two_black", 1: "one_black", 0: "all_red"}[blacks]


def absorbed_schedule(n, edges, pairs):
    """Per step, the set of original triangles first entering an absorbing
    configuration.  Colors are recomputed from the original adjacency and
    the current partition at every step, independent of the library."""
    triangles = brute_triangles(n, edges)
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in set(map(lambda e: key(*e), edges)):
        adj[u].add(v)
        adj[v].add(u)
    members = {v: frozenset([v]) for v in range(1, n + 1)}
    group_of = {v: v for v in range(1, n + 1)}

    def pair_color(x, y):
        gx, gy = members[x], members[y]
        crossing = sum(1 for a in gx for b in gy if b in adj[a])
        if crossing == 0:
            return None
        if crossing == len(gx) * len(gy):
            return "b"
        return "r"

    state = {tri: triangle_case(tri, group_of, pair_color) for tri in triangles}
    assert all(c == "three_black" for c in state.values())
    schedule = []
    seen = set()
    for step, (u, v) in enumerate(pairs):
        w = n + 1 + step
        members[w] = members.pop(u) | members.pop(v)
        for a in members[w]:
            group_of[a] = w
        newly = set()
        for tri in triangles:
            c = triangle_case(tri, group_of, pair_color)
            if state[tri] in ABSORBING:
                assert c in ABSORBING, "triangle left an absorbing configuration"
            elif c in ABSORBING:
                assert tri not in seen
                newly.add(tri)
                seen.add(tri)
            state[tri] = c
        schedule.append(frozenset(newly))
    assert seen == set(triangles)
    return schedule


# -- reference counting pipeline -------------------------------------------


def reference_count(n, edges, pairs, variant="fixed"):
    """Slow, dictionary-based reimplementation of the counting algorithm.

    Besides the correct behavior ("fixed"), three deliberate mutants are
    available; the targeted instances below are built so that each mutant
    gives a wrong count on at least one of them, which proves the
    instance really drives the branch the mutant damages:
      "ordered-pairs"       visits red-neighbor pairs in both orders, so
                            symmetric products are counted twice
      "dropped-orientation" visits pairs once but never counts the
                            black-to-x/red-to-y orientation, and misreads
                            a cross count that black pairs do not have
      "partial-cross"       gates the both-red cross merge on the wrong
                            pair, leaving those counts unset (read as 0)
    """
    colors = {key(u, v): "b" for u, v in set(map(lambda e: key(*e), edges))}
    live = set(range(1, n + 1))
    size = {x: 1 for x in live}
    inner = {x: 0 for x in live}
    cross = {}

    def cget(a, b):
        return cross.get(key(a, b), 0)

    t = 0
    for step, (u, v) in enumerate(pairs):
        w = n + 1 + step

        def col(a, b):
            return colors.get(key(a, b))

        cuv = col(u, v)
        reds, blacks = [], []
        for x in sorted(live - {u, v}):
            cu, cv = col(u, x), col(v, x)
            if cu == "b" and cv == "b":
                blacks.append(x)
            elif cu or cv:
                reds.append(x)
        if cuv == "b":
            t += size[u] * inner[v] + size[v] * inner[u]
        for x in reds:
            cu, cv = col(u, x), col(v, x)
            if cu == "b":
                t += size[u] * inner[x] + size[x] * inner[u]
                if cuv == "b" and cv == "r":
                    t += cget(v, x) * size[u]
            elif cv == "b":
                t += size[v] * inner[x] + size[x] * inner[v]
                if cuv == "b" and cu == "r":
                    t += cget(u, x) * size[v]
        for x in reds:
            cu, cv = col(u, x), col(v, x)
            for y in blacks:
                if col(x, y) == "r":
                    if cu == "b":
                        t += cget(x, y) * size[u]
                    elif cv == "b":
                        t += cget(x, y) * size[v]
        def mutant_pair_lines(x, y):
            got = 0
            cux, cvx = col(u, x), col(v, x)
            cuy, cvy = col(u, y), col(v, y)
            cxy = col(x, y)
            if cxy == "b":
                if cux == "b" and cuy == "b":
                    got += size[u] * size[x] * size[y]
                elif cvx == "b" and cvy == "b":
                    got += size[v] * size[x] * size[y]
                if cux == "r" and cuy == "b":
                    got += cget(u, x) * size[y]
                elif cvx == "r" and cvy == "b":
                    got += cget(v, x) * size[y]
                if cux == "b" and cux == "r":  # contradiction: never fires
                    got += cget(u, x) * size[x]
                elif cvx == "b" and cvy == "r":
                    got += cget(v, x) * size[x]  # black pairs carry no count
            elif cxy == "r":
                if cux == "b" and cuy == "b":
                    got += cget(x, y) * size[u]
                elif cvx == "b" and cvy == "b":
                    got += cget(x, y) * size[v]
            return got

        def pair_lines(x, y):
            got = 0
            cux, cvx = col(u, x), col(v, x)
            cuy, cvy = col(u, y), col(v, y)
            cxy = col(x, y)
            if cxy == "b":
                if cux == "b" and cuy == "b":
                    got += size[u] * size[x] * size[y]
                if cvx == "b" and cvy == "b":
                    got += size[v] * size[x] * size[y]
                if cux == "r" and cuy == "b":
                    got += cget(u, x) * size[y]
                if cux == "b" and cuy == "r":
                    got += cget(u, y) * size[x]
                if cvx == "r" and cvy == "b":
                    got += cget(v, x) * size[y]
                if cvx == "b" and cvy == "r":
                    got += cget(v, y) * size[x]
            elif cxy == "r":
                if cux == "b" and cuy == "b":
                    got += cget(x, y) * size[u]
                if cvx == "b" and cvy == "b":
                    got += cget(x, y) * size[v]
            return got

        if variant == "ordered-pairs":
            for x in reds:
                for y in reds:
                    if y != x:
                        t += mutant_pair_lines(x, y)
        elif variant == "dropped-orientation":
            for i, x in enumerate(reds):
                for y in reds[i + 1:]:
                    t += mutant_pair_lines(x, y)
        else:
            for i, x in enumerate(reds):
                for y in reds[i + 1:]:
                    t += pair_lines(x, y)
        # auxiliary updates
        nu, nv = size[u], size[v]
        if cuv == "b":
            between = nu * nv
        elif cuv == "r":
            between = cget(u, v)
        else:
            between = 0
        new_inner = inner[u] + inner[v] + between
        new_entries = {}
        for x in reds:
            cu, cv = col(u, x), col(v, x)
            if cu == "b" and cv is None:
                val = nu * size[x]
            elif cu is None and cv == "b":
                val = nv * size[x]
            elif cu == "r" and cv is None:
                val = cget(u, x)
            elif cu is None and cv == "r":
                val = cget(v, x)
            elif cu == "r" and cv == "b":
                val = cget(u, x) + nv * size[x]
            elif cu == "b" and cv == "r":
                val = cget(v, x) + nu * size[x]
            else:  # red to both
                if variant == "partial-cross":
                    # mutant looks at the wrong pair before merging
                    val = cget(u, x) + cget(v, x) if cuv == "r" else None
                else:
                    val = cget(u, x) + cget(v, x)
            if val is not None:
                new_entries[key(w, x)] = val
        for x in list(live):
            cross.pop(key(u, x), None)
            cross.pop(key(v, x), None)
        del size[u], size[v], inner[u], inner[v]
        size[w] = nu + nv
        inner[w] = new_inner
        cross.update(new_entries)
        live, colors = apply_contraction(colors, live, u, v, w)
    return t


# -- handcrafted instances, one per subtle counting branch -----------------

# the sole triangle is counted at the pair of red neighbors {3, 5} where
# the merged corner is black to 3 and red to 5; only the mixed-orientation
# lines of the unordered pair visit cover it
CASE_MIXED_ORIENTATION = dict(
    n=5,
    edges=[(2, 5), (1, 3), (2, 3), (3, 5)],
    pairs=[(1, 2), (4, 6), (7, 3), (8, 5)],
    triangles=1,
)

# same graph with the second contraction written in the other order, so
# the mirrored lines of the subcase fire as well
CASE_MIXED_ORIENTATION_FLIPPED = dict(
    n=5,
    edges=[(2, 5), (1, 3), (2, 3), (3, 5)],
    pairs=[(1, 2), (6, 4), (7, 3), (8, 5)],
    triangles=1,
)

# both u and v red to the same vertex: the merged cross count must be the
# sum of both sides, and two triangles are counted from it later
CASE_CROSS_BOTH_RED = dict(
    n=6,
    edges=[(1, 3), (3, 4), (1, 4), (1, 5), (2, 4), (2, 5),
           (1, 6), (2, 6), (3, 6), (4, 6), (5, 6)],
    pairs=[(1, 2), (4, 5), (7, 8), (6, 9), (10, 3)],
    triangles=7,
)

# a black pair of red neighbors seen from one corner: ordered pair visits
# would count the product twice
CASE_SYMMETRIC_BLACK_PAIR = dict(
    n=4,
    edges=[(1, 3), (1, 4), (3, 4)],
    pairs=[(1, 2), (5, 3), (6, 4)],
    triangles=1,
)

# a red pair of red neighbors: ordered visits would double the cross count
CASE_SYMMETRIC_RED_PAIR = dict(
    n=5,
    edges=[(3, 4), (1, 3), (1, 4), (1, 5)],
    pairs=[(4, 5), (1, 2), (7, 3), (8, 6)],
    triangles=1,
)

# instance -> the mutant it must kill
TARGETED_INSTANCES = {
    "mixed-orientation": (CASE_MIXED_ORIENTATION, "dropped-orientation"),
    "mixed-orientation-flipped": (CASE_MIXED_ORIENTATION_FLIPPED, "dropped-orientation"),
    "cross-both-red": (CASE_CROSS_BOTH_RED, "partial-cross"),
    "symmetric-black-pair": (CASE_SYMMETRIC_BLACK_PAIR, "ordered-pairs"),
    "symmetric-red-pair": (CASE_SYMMETRIC_RED_PAIR, "ordered-pairs"),
}


# -- written-shape reference -----------------------------------------------


def written_shape_reference(text, header, mark):
    """The whole-text check that `graphio.read_slices`' per-slice checks
    replaced: header's match when text is a first line matching the
    pattern header, then only lines "<mark><a> <b>" of ASCII digits, each
    ending in a newline; else None.

    Kept word for word, so the rewrite can be held to admitting the same
    texts: it searches, from the header's newline, for a newline not
    followed by a written line or the end of the text.
    """
    first = re.match(header + "\n", text)
    unwritten = re.compile(f"\\n(?!{mark}[0-9]+ [0-9]+\\n|\\Z)")
    if first is None or unwritten.search(text, first.end() - 1) is not None:
        return None
    return first


# -- written-text reference ------------------------------------------------


def written_text_reference(header, mark, ends):
    """The one-% writer that `graphio.format_records`' slices replaced:
    the line header, then one line "<mark><a> <b>" for each two ints of
    ends, all from one % format over a tuple of every id.  Kept word for
    word, so the rewrite can be held to writing the same bytes."""
    ends = tuple(ends)
    return f"{header}\n" + f"{mark}%d %d\n" * (len(ends) // 2) % ends


def graph_text_reference(g):
    """g's written text from the one-% writer."""
    return written_text_reference(f"p {g.n} {g.m}", "e ",
                                  itertools.chain.from_iterable(zip(g.us, g.vs)))


def sequence_text_reference(seq):
    """seq's written text from the one-% writer."""
    return written_text_reference(f"s {seq.n}", "", seq.ends)


# -- greedy sequence reference ---------------------------------------------


def greedy_reference(graph):
    """The pair-by-pair greedy loop that `greedy_sequence` replaced.

    Kept word for word, popcounts and all, so the rewrite can be held to
    the same output: the pair minimizing (worst red degree, red-edge
    total, ids) at every step.  Returns (sequence, witnessed width).
    """
    n = graph.n
    if n == 1:
        return ContractionSequence(1, ()), 0
    # slot i (0-based) holds a live vertex; masks index slots
    black = [0] * n
    red = [0] * n
    for u, v in graph.edges:
        black[u - 1] |= 1 << (v - 1)
        black[v - 1] |= 1 << (u - 1)
    ids = list(range(1, n + 1))
    live = list(range(n))
    red_deg = [0] * n
    red_total = 0
    next_id = n + 1
    pairs = []
    width = 0

    while len(live) > 1:
        live.sort(key=lambda s: ids[s])
        by_degree = sorted(live, key=lambda s: (-red_deg[s], ids[s]))
        best_key = None
        best = None
        for ai in range(len(live)):
            a = live[ai]
            ba, ra = black[a], red[a]
            bit_a = 1 << a
            for bi in range(ai + 1, len(live)):
                b = live[bi]
                bb_mask = ba & black[b]
                union = (ba | ra | black[b] | red[b]) & ~bit_a & ~(1 << b)
                rr_mask = union & ~bb_mask
                wdeg = bin(rr_mask).count("1")
                if best_key is not None and wdeg > best_key[0]:
                    continue
                worst = wdeg
                affected = union
                rb = red[b]
                good = True
                while affected:
                    low = affected & -affected
                    affected ^= low
                    x = low.bit_length() - 1
                    deg = red_deg[x]
                    if ra & low:
                        deg -= 1
                    if rb & low:
                        deg -= 1
                    if rr_mask & low:
                        deg += 1
                    if deg > worst:
                        worst = deg
                        if best_key is not None and worst > best_key[0]:
                            good = False
                            break
                if not good:
                    continue
                excluded = union | bit_a | (1 << b)
                for x in by_degree:
                    if not (excluded >> x) & 1:
                        if red_deg[x] > worst:
                            worst = red_deg[x]
                        break
                new_total = (red_total - red_deg[a] - red_deg[b]
                             + ((ra >> b) & 1) + wdeg)
                key = (worst, new_total, ids[a], ids[b])
                if best_key is None or key < best_key:
                    best_key = key
                    best = (a, b, bb_mask, rr_mask, union)
        a, b, bb_mask, rr_mask, union = best
        pairs.append((min(ids[a], ids[b]), max(ids[a], ids[b])))
        # fold b into slot a; every red edge at a or b disappears and the
        # product's red edges (rr_mask) take their place
        bit_a, bit_b = 1 << a, 1 << b
        wdeg = bin(rr_mask).count("1")
        red_total += wdeg - red_deg[a] - red_deg[b] + ((red[a] >> b) & 1)
        scan = union
        while scan:
            low = scan & -scan
            scan ^= low
            x = low.bit_length() - 1
            black[x] &= ~(bit_a | bit_b)
            red[x] &= ~(bit_a | bit_b)
            if rr_mask & low:
                red[x] |= bit_a
            else:
                black[x] |= bit_a
            red_deg[x] = bin(red[x]).count("1")
        black[a] = bb_mask
        red[a] = rr_mask
        red_deg[a] = wdeg
        black[b] = 0
        red[b] = 0
        red_deg[b] = 0
        ids[a] = next_id
        next_id += 1
        live.remove(b)
        step_width = max(red_deg[s] for s in live)
        if step_width > width:
            width = step_width
    return sequence_of(n, pairs), width


# -- counting step reference -------------------------------------------------


def count_step_reference(g: Trigraph, merged, counters: Counters) -> int:
    """The pair-by-pair `counting._count_step` that the per-side
    dict-key intersections replaced, kept word for word as the yardstick
    but for reading the two sides from merged and the inner-edge counts
    from g.inner, which the contraction folds itself.  It skips the two
    weights each red entry carries and reads every weight itself, so it
    stays a yardstick for them too.

    Triangles that first reach an absorbing configuration as u and v
    contract into w.

    Runs on the still-unmodified trigraph; merged is the step's
    g.merge_neighborhoods(g.rep[u], g.rep[v]), called once the step's
    ids are known to be live and distinct.  It names the sides by
    representative, u the one that names w and v the one merged away,
    and its red entries (x, color_ux, color_vx, w_ux, w_vx) are the red
    neighbors of w.  The contraction then sets w's group size, inner edges and red
    weights itself.  The increment has four parts:
    triangles with an edge inside u or v when {u, v} is black (they end
    inside w); triangles that collapse onto a single red edge {w, x};
    wedges x-y with x red and y black at w; and pairs of red neighbors
    of w, each visited once, with the asymmetric subcases evaluated in
    both orientations in that one visit.
    """
    u, v, red_entries = merged
    size, inner, black_adj, red_adj = g.size, g.inner, g.black_adj, g.red_adj
    su, sv = size[u], size[v]
    iu, iv = inner[u], inner[v]
    uv_black = v in black_adj[u]
    inc = 0
    if uv_black:
        inc += su * iv + sv * iu
    # one update per red edge the contraction weighs; the one for w's
    # inner edges is charged by count_side's loop, as for the shipped step
    counters.aux_updates += len(red_entries)
    if not red_entries:
        return inc
    counters.one_neighbor_calls += len(red_entries)
    black_set = black_adj[u].keys() & black_adj[v].keys()
    for x, cu, cv, _, _ in red_entries:
        rx = red_adj[x]
        counters.red_wedge_visits += len(rx)
        if cu is BLACK:
            inc += su * inner[x] + size[x] * iu
            if uv_black and cv is RED:
                inc += red_weight(g, v, x) * su
            corner = su
        elif cv is BLACK:
            inc += sv * inner[x] + size[x] * iv
            if uv_black and cu is RED:
                inc += red_weight(g, u, x) * sv
            corner = sv
        else:
            continue
        # the corner in u (or v) sees x and y in black, {x, y} is red
        inc += corner * sum(exy for y, exy in rx.items() if y in black_set)
    k = len(red_entries)
    counters.two_neighbor_pair_visits += k * (k - 1) // 2
    for i in range(k):
        x, cux, cvx, _, _ = red_entries[i]
        bx, rx = black_adj[x], red_adj[x]
        for j in range(i + 1, k):
            y, cuy, cvy, _, _ = red_entries[j]
            if y in bx:
                if cux is BLACK and cuy is BLACK:
                    inc += su * size[x] * size[y]
                if cvx is BLACK and cvy is BLACK:
                    inc += sv * size[x] * size[y]
                if cux is RED and cuy is BLACK:
                    inc += red_weight(g, u, x) * size[y]
                if cux is BLACK and cuy is RED:
                    inc += red_weight(g, u, y) * size[x]
                if cvx is RED and cvy is BLACK:
                    inc += red_weight(g, v, x) * size[y]
                if cvx is BLACK and cvy is RED:
                    inc += red_weight(g, v, y) * size[x]
            elif y in rx:
                if cux is BLACK and cuy is BLACK:
                    inc += rx[y] * su
                if cvx is BLACK and cvy is BLACK:
                    inc += rx[y] * sv
    return inc


# -- recursive cotree walks --------------------------------------------------


def leaves_recursive(node):
    """The leaves of a cotree, left to right, by plain recursion."""
    if node.kind == "leaf":
        return [node.vertex]
    out = []
    for child in node.children:
        out.extend(leaves_recursive(child))
    return out


def cotree_graph_recursive(root, n):
    """The recursive `cotree_graph` the iterative fold replaced."""
    if sorted(leaves_recursive(root)) != list(range(1, n + 1)):
        raise ValueError("cotree leaves must be exactly 1..n")
    edges = []

    def walk(node):
        if node.kind == "leaf":
            return [node.vertex]
        mine = []
        for child in node.children:
            verts = walk(child)
            if node.kind == "join":
                for a in mine:
                    for b in verts:
                        edges.append((a, b))
            mine.extend(verts)
        return mine

    walk(root)
    return PlainGraph(n, edges)


def twin_sequence_recursive(root, n):
    """The recursive `twin_sequence` the iterative fold replaced."""
    if sorted(leaves_recursive(root)) != list(range(1, n + 1)):
        raise ValueError("cotree leaves must be exactly 1..n")
    pairs = []
    next_id = n + 1

    def reduce(node):
        nonlocal next_id
        if node.kind == "leaf":
            return node.vertex
        rep = reduce(node.children[0])
        for child in node.children[1:]:
            other = reduce(child)
            pairs.append((rep, other) if rep < other else (other, rep))
            rep = next_id
            next_id += 1
        return rep

    reduce(root)
    return sequence_of(n, pairs)


def cotree_counts(root):
    """(n, m, t), the vertices, edges and triangles of the cograph a
    cotree describes, in closed form.  A union adds its children's
    counts; joining A to B gives m = m_A + m_B + n_A*n_B and
    t = t_A + t_B + m_A*n_B + m_B*n_A, and a join of more children joins
    them one at a time.  One walk with its own stack lists the nodes
    parents first, so the reversed list meets every child before its
    parent, and a cotree of any depth is fine."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    counts = {}
    for node in reversed(order):
        n, m, t = (1, 0, 0) if node.kind == "leaf" else (0, 0, 0)
        for cn, cm, ct in map(counts.get, map(id, node.children)):
            if node.kind == "join":
                n, m, t = n + cn, m + cm + n * cn, t + ct + m * cn + cm * n
            else:
                n, m, t = n + cn, m + cm, t + ct
        counts[id(node)] = n, m, t
    return counts[id(root)]


def caterpillar(n, kind_of):
    """Cotree of depth n-1: leaf 1 at the bottom, and level k (k = 2..n)
    combines everything below it with leaf k by kind_of(k)."""
    node = Cotree("leaf", vertex=1)
    for k in range(2, n + 1):
        node = Cotree(kind_of(k), children=(node, Cotree("leaf", vertex=k)))
    return node


def banded(n, b, seed=0):
    """Each pair {i, j} with 0 < j - i <= b is an edge with probability 0.5.

    Under chain_sequence the red degree stays within b: the folded group
    reaches only the next b vertices.
    """
    rng = random.Random(seed)
    return PlainGraph(n, [(i, j) for i in range(1, n + 1)
                          for j in range(i + 1, min(i + b, n) + 1)
                          if rng.random() < 0.5])
