"""Triangle counting driven by a contraction sequence.

The count runs in O(d^2*n + m) for a sequence of width d.  While the
trigraph shrinks, it keeps three numbers per live vertex or red edge,
all indexed by the vertex's representative r (see trigraph):

    g.size[r]         original vertices merged into r's group
    g.inner[r]        original edges with both ends in r's group
    g.red_adj[r][y]   original edges between the two groups, the weight
                      of the red edge {r, y} (black pairs are complete
                      bipartite, absent pairs are empty, so neither needs
                      a count)

The trigraph's contraction loop keeps all three up to date, and the
running total too; counting only reads them and keeps the counters.

A fixed original triangle occupies one of seven configurations relative
to the live vertices: its corners sit in three, two, or one group, with
black or red edges between the groups.  Four of those configurations can
never revert to the others once entered; the running total t counts each
triangle exactly once, at the contraction step where it first enters one
of the absorbing configurations.  Counting happens before the step's
mutation, so all colors consulted are those of the current trigraph,
while the new vertex's neighborhoods come from the merge preview, whose
red entries carry their weights to either side.  Only the steps the
trigraph classifies reach counting.  A twin step (see trigraph) joins
two vertices with no red edge and the same other black neighbours.  If
they are not adjacent it closes no triangle, and the loop just folds
their inner-edge counts.  If they are, it closes just the triangles
with an edge inside either group, which the loop adds to the running
total itself, as it adds what counting returns for every other step.
aux_updates charges each step one update for w's inner edges, plus one
per red edge it weighs, so it is one_neighbor_calls plus the steps done.

A count runs on the sparser side of the input.  Once more than half of
the C(n, 2) pairs are edges, 4m > n(n - 1), it replays the sequence on
the complement G' instead, and Goodman's identity (1959),

    t(G) = C(n, 3) - 1/2 * sum over vertices of d(n - 1 - d) - t(G'),

with the degrees d of G' (the sum is the same for G), turns t(G') into
t(G).  The sequence has the same width on both sides: black and absent
pairs swap, and red pairs stay red.  So do the failing step of a bound
and every counter but graph_update_work, which counts black entries.
Building G' costs O(n^2), but n^2 < 4m + n on that side, so the bound
stays O(d^2*n + m), while the trigraph holds min(m, C(n, 2) - m) edges.

graph_update_work is reported for G's own trigraph on either side, so it
equals what a replay of G leaves in update_work.  With L live vertices,
each of the L - 1 others is black to a step's vertex on exactly one side
or red on both, and each of the L - 2 others is black to both of them on
exactly one side or ends red to the new vertex.  So a step charges
3L - 4 plus its red part (see trigraph) on the two sides together, and
over the n - 1 steps G's total is (3n - 2)(n - 1)/2 plus red_work minus
the complement's update_work.

Runs keep all state in local objects; independent counts on distinct
inputs may execute concurrently.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from math import comb
from operator import mul

from .oracle import count_naive
from .sequence import ContractionSequence, SequenceError, check_n
# red_weight stays importable from here, where the tests' helpers take it
from .trigraph import BLACK, RED, InternalInvariantError, Trigraph, red_weight  # noqa: F401


# checked mode costs O(n^3) per step, so it is refused above this n
CHECKED_LIMIT = 64
# the sides a count can run on; see the module docstring
GRAPH, COMPLEMENT = "graph", "complement"


@dataclass
class Counters:
    """Instrumentation: unit-cost operations per counting run.

    two_neighbor_pair_visits and red_wedge_visits count the pairs of red
    neighbors and the red wedges a step accounts for, the paper's unit
    costs: k*(k-1)/2 for a step whose new vertex has k red neighbors,
    and the sum of those neighbors' red degrees.  Both are computed from
    k and the red degrees, not counted as loop iterations.  aux_updates
    is one_neighbor_calls plus the steps done; see the module docstring.
    """

    contractions: int = 0
    aux_updates: int = 0
    one_neighbor_calls: int = 0
    two_neighbor_pair_visits: int = 0
    red_wedge_visits: int = 0
    graph_update_work: int = 0


@dataclass
class CountResult:
    triangles: int
    width: int
    steps: int
    counters: Counters
    sum_red_degree_sq: int  # sum over steps of (max red degree after the step)^2
    side: str  # GRAPH or COMPLEMENT, the side the sequence was replayed on


# -- the per-step routine -----------------------------------------------


def _count_step(g: Trigraph, merged, counters: Counters) -> int:
    """Triangles that first reach an absorbing configuration as the step
    merged contracts two vertices into w.

    Reads the still-unmodified trigraph and writes only counters; merged
    is the step's g.merge_neighborhoods, which g.run calls for every
    step but a twin step, and g.run adds the result to its running total.
    It names the two sides by representative: u, the one that will name
    w, and v, the one merged away.  Its red entries (x, color_ux,
    color_vx, w_ux, w_vx) are the k red neighbors of w with their edges
    to u and to v.  The count is symmetric in u and v.  The contraction
    then sets w's group size, inner edges and red weights itself.  The
    increment counts triangles with an edge inside u or v when {u, v} is
    black (they end inside w), triangles that collapse onto a single red
    edge {w, x}, and triangles with a corner in u (or v) and the other
    two in distinct neighbors of w.

    The last kind is summed per side over dict-key intersections, not
    pair by pair.  On the u side, with e(a, b) the weight of the red
    edge {a, b} and B(y), R(y) the black and red maps of y, let c map
    each red neighbor x of w that is black to u to size[u]*size[x] and
    each one red to u to 2*e(u, x), its w_ux and 2*w_ux; let m map the
    red neighbors black to u to 1 and common black neighbors to 2.  Then

        2 * (u side) = sum over red neighbors y of w black to u of
                       size[y] * sum(c[x] for x in B(y) & c)
                       + size[u] * sum(e(y, z) * m[z] for z in R(y) & m)

    and the v side is the same with size[v] and e(v, .).  A pair of red
    neighbors black to u is reached from both ends, a pair with one end
    red to u from its black end at weight 2, and a wedge through a
    common black neighbor once at weight 2, so the sum is even.  A side
    with no red neighbor black to it has no term and builds no m, and
    B(y) & c is empty when c holds y alone.  Each intersection walks its
    smaller operand in C, so for red degree d a step costs O(k*(k + d))
    C-level operations, not k*(k-1)/2 interpreted pair visits.
    """
    u, v, red_entries = merged
    if not red_entries:
        # {u, v} is not black: a black pair with no red entry is an
        # adjacent twin step, which g.run counts itself
        return 0
    size, inner, black_adj, red_adj = g.size, g.inner, g.black_adj, g.red_adj
    su, sv = size[u], size[v]
    iu, iv = inner[u], inner[v]
    uv_black = v in black_adj[u]
    inc = su * iv + sv * iu if uv_black else 0
    k = len(red_entries)
    counters.one_neighbor_calls += k
    counters.two_neighbor_pair_visits += k * (k - 1) // 2
    # the docstring's c map for each side, and the red neighbors of w
    # black to u (to v) that the per-side sums run over
    c_u, c_v = {}, {}
    black_to_u, black_to_v = [], []
    wedges = 0
    for x, cu, cv, wu, wv in red_entries:
        wedges += len(red_adj[x])
        if cu is BLACK:
            inc += su * inner[x] + size[x] * iu
            if uv_black:
                inc += wv * su
            c_u[x] = wu
            black_to_u.append(x)
        elif cu is RED:
            c_u[x] = 2 * wu
        if cv is BLACK:
            inc += sv * inner[x] + size[x] * iv
            if uv_black:
                inc += wu * sv
            c_v[x] = wv
            black_to_v.append(x)
        elif cv is RED:
            c_v[x] = 2 * wv
    counters.red_wedge_visits += wedges
    twice = 0  # the pair and wedge terms, each reached twice
    common = None  # m's common black neighbours, once a side needs them
    for corner, c, ys in ((su, c_u, black_to_u), (sv, c_v, black_to_v)):
        if not ys:
            continue
        if common is None:
            common = dict.fromkeys(black_adj[u].keys() & black_adj[v].keys(), 2)
        m = common.copy()
        for y in ys:
            m[y] = 1
        c_keys, m_keys = c.keys(), m.keys()
        # c holds each y, so with one key B(y) & c is empty
        pair_terms = len(c) > 1
        for y in ys:
            if pair_terms:
                hits = black_adj[y].keys() & c_keys
                if hits:
                    twice += size[y] * sum(map(c.__getitem__, hits))
            ry = red_adj[y]
            hits = ry.keys() & m_keys
            if hits:
                twice += corner * sum(map(mul, map(ry.__getitem__, hits),
                                          map(m.__getitem__, hits)))
    return inc + twice // 2


# -- whole-run driver ----------------------------------------------------


def check_conservation(g: Trigraph, m: int):
    """Raise unless g's counts still account for every vertex and m edges.

    Every red weight must be symmetric and lie strictly between 0 and the
    product of the group sizes: a red pair hides at least one original
    edge and at least one non-edge.  Messages name vertices by id, and a
    representative merged away as 0.
    """
    n, size, inner = g.n_original, g.size, g.inner
    if len(inner) != n + 1 or any(inner[r] for r in range(n + 1) if not size[r]):
        raise InternalInvariantError("aux entries out of sync with live vertices")
    total = sum(size)
    if total != n:
        raise InternalInvariantError(f"group sizes sum to {total}, expected {n}")
    mass = sum(inner)
    name = {r: v for v, r in enumerate(g.rep) if r}  # in id order
    for x, vx in name.items():
        for y in g.black_adj[x]:
            if y > x:
                mass += size[x] * size[y]
        for y, weight in g.red_adj[x].items():
            vy = name.get(y, 0)
            if g.red_adj[y].get(x) != weight:
                raise InternalInvariantError(
                    f"red edge {{{vx}, {vy}}} weighs {weight} at "
                    f"{vx} but {g.red_adj[y].get(x)} at {vy}")
            if not 0 < weight < size[x] * size[y]:
                raise InternalInvariantError(
                    f"red edge {{{vx}, {vy}}} weighs {weight} between "
                    f"groups of {size[x]} and {size[y]}")
            if y > x:
                mass += weight
    if mass != m:
        raise InternalInvariantError(f"edge mass {mass} != m = {m}")


def evaluate_invariant(g: Trigraph, t: int, triangle_count: int) -> bool:
    """Check the running-total identity on the current trigraph.

    The triangle total of the original graph must equal t plus the
    triangles still pending in non-absorbing configurations: all-black
    group triangles, black-black-red wedges weighted by the red side's
    cross count, and black edges weighted by the inner edges of their
    endpoints.  Brute-force enumeration; intended for small inputs.
    """
    size, inner, black_adj = g.size, g.inner, g.black_adj
    pending = 0
    for x in (r for r, sx in enumerate(size) if sx):
        bx = black_adj[x]
        for y in bx:
            if y > x:
                # all-black triangles, x < y < z exactly once
                by = black_adj[y]
                for z in bx:
                    if z > y and z in by:
                        pending += size[x] * size[y] * size[z]
                pending += size[x] * inner[y] + inner[x] * size[y]
        for z, exz in g.red_adj[x].items():
            if z > x:
                bz = black_adj[z]
                for y in bx:
                    if y in bz:
                        pending += exz * size[y]
    return triangle_count == t + pending


def _complement_edges(n: int, us, vs):
    """The complement's edges, read off a canonical edge list held as the
    endpoint arrays us and vs: us is sorted, so each vertex u's higher
    neighbours are the run of vs where us holds u, found by bisection."""
    start = 0
    for u in range(1, n):
        end = bisect_right(us, u, start)
        if end - start < n - u:
            higher = set(range(u + 1, n + 1))
            higher.difference_update(vs[start:end])
            yield from zip(repeat(u), higher)
        start = end


def side_trigraph(graph) -> tuple[str, Trigraph]:
    """The side a count of graph, a PlainGraph, runs on, and that side's
    red-free trigraph: COMPLEMENT when 4m > n(n - 1), else GRAPH.

    The width a sequence reaches and the step where it first passes a
    bound are the same on both sides, so width and verify use it too.
    """
    n = graph.n
    if 4 * graph.m <= n * (n - 1):
        return GRAPH, Trigraph.from_graph(graph.edges, n)
    return COMPLEMENT, Trigraph.from_graph(_complement_edges(n, graph.us, graph.vs), n)


def count_side(g: Trigraph, seq: ContractionSequence, side: str,
               reference=None, step_callback=None) -> CountResult:
    """Count the triangles of the graph g was built from, g red-free and
    not yet contracted, by replaying seq on it; the count is g.run's
    running total, and the result names side as the side it ran on.

    reference, when given, is (edges, triangles) of that graph, and the
    conservation identities and the running-total invariant are checked
    against it before the first contraction and after every one
    (checked mode, O(n^3) a step).  step_callback(step, g, counters),
    when given, runs after each applied contraction, with the running
    total in g.t and aux_updates up to date.  Both run in g.run's
    after-hook, the one place a count reads its state between steps.
    """
    n = g.n_original
    check_n(seq, n)
    counters = Counters()

    if reference is not None:
        m, reference_count = reference

        def check(where):
            check_conservation(g, m)
            if not evaluate_invariant(g, g.t, reference_count):
                raise InternalInvariantError(f"invariant fails {where}")

        check("before any contraction")

    after = None  # fast mode makes no call between steps
    if reference is not None or step_callback is not None:
        def after(step):
            counters.aux_updates = counters.one_neighbor_calls + step + 1
            if reference is not None:
                u, v = seq.ends[2 * step:2 * step + 2]
                check(f"after step {step} ({u},{v})->{n + 1 + step}")
            if step_callback is not None:
                step_callback(step, g, counters)

    def count(merged):
        return _count_step(g, merged, counters)

    width, sum_d_sq, _, t = g.run(seq.pairs, count=count, after=after,
                                  refused=SequenceError.refused)
    counters.contractions = seq.n - 1
    counters.aux_updates = counters.one_neighbor_calls + counters.contractions
    counters.graph_update_work = g.update_work
    return CountResult(
        triangles=t,
        width=width,
        steps=seq.n - 1,
        counters=counters,
        sum_red_degree_sq=sum_d_sq,
        side=side,
    )


def count_triangles(graph, seq: ContractionSequence, mode: str = "fast",
                    checked_limit: int = CHECKED_LIMIT, step_callback=None) -> CountResult:
    """Count the triangles of graph, a PlainGraph, by replaying its
    contraction sequence on the side side_trigraph picks.

    In "checked" mode the conservation identities and the running-total
    invariant are verified before the first contraction and after every
    one, which costs O(n^3) per step and is therefore gated to
    n <= checked_limit; the reference triangle count is taken from the
    brute-force oracle, through Goodman's identity on the complement
    side, where the corrected count must equal the oracle's too.  Both
    sides run through count_side; step_callback is count_side's, and
    sees the side that runs, its g.t counting the complement's
    triangles on that side.
    """
    if mode not in ("fast", "checked"):
        raise ValueError(f"unknown mode {mode!r}")
    n = graph.n
    check_n(seq, n)  # before the oracle and the trigraph are built
    reference = None
    if mode == "checked":
        if n > checked_limit:
            raise ValueError(
                f"checked mode is gated to {checked_limit} vertices, got {n}")
        reference = graph.m, count_naive(graph)
    side, g = side_trigraph(graph)
    if side == COMPLEMENT:
        # Goodman's identity, with the complement's degrees read before
        # any step changes its maps; the reference takes them from the graph
        rest = comb(n, 3) - sum(d * (n - 1 - d) for d in map(len, g.black_adj)) // 2
        if reference is not None:
            m, naive = reference
            degree = Counter(chain(graph.us, graph.vs))
            reference = (comb(n, 2) - m, comb(n, 3) - naive
                         - sum(d * (n - 1 - d) for d in degree.values()) // 2)
    result = count_side(g, seq, side, reference, step_callback)
    if side == GRAPH:
        return result
    result.triangles = rest - result.triangles
    if reference is not None and result.triangles != naive:
        raise InternalInvariantError(
            f"the complement's count corrects to {result.triangles}, "
            f"the oracle counts {naive}")
    # G's own trigraph's work, by the identity in the module docstring
    result.counters.graph_update_work = ((3 * n - 2) * (n - 1) // 2
                                         + g.red_work - g.update_work)
    return result
