"""Triangle counting driven by a contraction sequence.

The count runs in O(d^2*n + m) for a sequence of width d.  While the
trigraph shrinks, three numbers are maintained per live vertex or red
edge:

    g.size[x]         original vertices merged into x
    inner_edges[x]    original edges with both ends merged into x
    g.red_adj[x][y]   original edges between the two groups, the weight
                      of the red edge {x, y} (black pairs are complete
                      bipartite, absent pairs are empty, so neither needs
                      a count)

The trigraph keeps the group sizes and the red weights up to date as it
contracts; counting keeps only the inner-edge counts.

A fixed original triangle occupies one of seven configurations relative
to the live vertices: its corners sit in three, two, or one group, with
black or red edges between the groups.  Four of those configurations can
never revert to the others once entered; the running total t counts each
triangle exactly once, at the contraction step where it first enters one
of the absorbing configurations.  Counting happens before the step's
mutation, so all colors consulted are those of the current trigraph,
while the new vertex's neighborhoods come from the merge preview.

Runs keep all state in local objects; independent counts on distinct
inputs may execute concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .sequence import ContractionSequence, SequenceError, replay
from .trigraph import BLACK, NONE, RED, Trigraph


class InternalInvariantError(RuntimeError):
    """A bookkeeping invariant broke; the counting state is unusable."""


def red_weight(g: Trigraph, a, b) -> int:
    """Cross-edge count of the red edge {a, b}, read from g's red map."""
    try:
        return g.red_adj[a][b]
    except KeyError:
        raise InternalInvariantError(
            f"no cross-edge count for red edge {{{a}, {b}}}") from None


@dataclass
class AuxValues:
    """Per-group counts maintained alongside the shrinking trigraph."""

    inner_edges: dict

    @classmethod
    def initial(cls, n: int) -> "AuxValues":
        return cls(inner_edges={v: 0 for v in range(1, n + 1)})


@dataclass
class Counters:
    """Instrumentation: unit-cost operations per counting run."""

    contractions: int = 0
    aux_updates: int = 0
    one_neighbor_calls: int = 0
    two_neighbor_pair_visits: int = 0
    red_wedge_visits: int = 0
    graph_update_work: int = 0


@dataclass
class CountState:
    t: int = 0
    counters: Counters = field(default_factory=Counters)


@dataclass
class CountResult:
    triangles: int
    width: int
    steps: int
    counters: Counters
    sum_red_degree_sq: int  # sum over steps of (max red degree after the step)^2


class TriangleCase(Enum):
    """Configuration of one original triangle relative to the live groups."""

    THREE_BLACK = "three groups, all edges black"
    TWO_BLACK = "three groups, two black one red"
    ONE_BLACK = "three groups, one black two red"
    ALL_RED = "three groups, all edges red"
    SPLIT_BLACK = "two groups joined by a black edge"
    SPLIT_RED = "two groups joined by a red edge"
    INSIDE = "one group"


ABSORBED_CASES = frozenset(
    {TriangleCase.ONE_BLACK, TriangleCase.ALL_RED,
     TriangleCase.SPLIT_RED, TriangleCase.INSIDE}
)


def classify_triangle(g: Trigraph, group_of, tri) -> TriangleCase:
    """Place an original triangle in one of the seven configurations.

    group_of maps original vertices to live vertices of g.  Raises if the
    colors contradict the triangle's existence, which would mean the
    trigraph itself is corrupt.
    """
    a, b, c = tri
    groups = {group_of[a], group_of[b], group_of[c]}
    if len(groups) == 1:
        return TriangleCase.INSIDE
    if len(groups) == 2:
        x, y = groups
        color = g.edge_color(x, y)
        if color is BLACK:
            return TriangleCase.SPLIT_BLACK
        if color is RED:
            return TriangleCase.SPLIT_RED
        raise InternalInvariantError(
            f"triangle {tri} spans groups {x},{y} with no edge between them")
    x, y, z = groups
    colors = [g.edge_color(x, y), g.edge_color(y, z), g.edge_color(x, z)]
    if NONE in colors:
        raise InternalInvariantError(
            f"triangle {tri} spans a group pair with no edge")
    blacks = colors.count(BLACK)
    return {
        3: TriangleCase.THREE_BLACK,
        2: TriangleCase.TWO_BLACK,
        1: TriangleCase.ONE_BLACK,
        0: TriangleCase.ALL_RED,
    }[blacks]


# -- per-step procedures -------------------------------------------------


def update_auxiliary_values(g: Trigraph, aux: AuxValues, u, v, w,
                            uv_color=None):
    """Fold u's and v's inner-edge counts into w's, using the current colors.

    Must run before the contraction mutates g, which then sets w's group
    size and the cross-edge counts of w's red edges itself.
    """
    if uv_color is None:
        uv_color = g.edge_color(u, v)
    if uv_color is BLACK:
        between = g.size[u] * g.size[v]
    elif uv_color is RED:
        between = red_weight(g, u, v)
    else:
        between = 0
    inner = aux.inner_edges
    inner[w] = inner.pop(u) + inner.pop(v) + between


def count_black_edge_collapse(g: Trigraph, aux: AuxValues, u, v) -> int:
    """Triangles with an edge inside one endpoint of the black pair {u, v}.

    They sit entirely inside the merged group afterwards.  Caller
    guarantees {u, v} is black.
    """
    return (g.size[u] * aux.inner_edges[v]
            + g.size[v] * aux.inner_edges[u])


def tri_count_one_neighbor(g: Trigraph, aux: AuxValues, u, v, w, x,
                           cu=None, cv=None, uv_color=None) -> int:
    """Triangles that collapse onto the single red edge {w, x}.

    x is a red neighbor of w in the contracted trigraph; colors refer to
    the current one.  Two shapes arrive here: triangles living inside the
    two ends of a black edge from u (or v) to x, and triangles with one
    corner in each of u, v, x when {u, v} is black and the third side red.
    """
    if cu is None:
        cu = g.edge_color(u, x)
    if cv is None:
        cv = g.edge_color(v, x)
    if uv_color is None:
        uv_color = g.edge_color(u, v)
    size = g.size
    inner = aux.inner_edges
    inc = 0
    if cu is BLACK:
        inc += size[u] * inner[x] + size[x] * inner[u]
        if uv_color is BLACK and cv is RED:
            inc += red_weight(g, v, x) * size[u]
    elif cv is BLACK:
        inc += size[v] * inner[x] + size[x] * inner[v]
        if uv_color is BLACK and cu is RED:
            inc += red_weight(g, u, x) * size[v]
    return inc


def tri_count_two_neighbors(g: Trigraph, aux: AuxValues, u, v, w,
                            red_entries=None, black_neighbors=None,
                            counters=None) -> int:
    """Triangles that end up spanning w and two other groups.

    Handles every triangle whose configuration gains a second or third
    red side at this contraction: one corner in u or v, the others in two
    groups x, y that are both neighbors of w afterwards.  Red-neighbor
    pairs are visited unordered, once; the asymmetric subcases are
    evaluated in both orientations within that single visit, which keeps
    the pair budget at d^2 per step without losing a configuration.
    """
    if red_entries is None or black_neighbors is None:
        black_list, red_entries = g.merge_neighborhoods(u, v)
        black_neighbors = black_list
    size = g.size
    red_adj, black_adj = g.red_adj, g.black_adj
    inc = 0
    black_set = set(black_neighbors)
    # wedge shapes: x red at w, y black at w, {x, y} red in the current
    # trigraph; the corner in u (or v) must see both groups in black
    for x, cu, cv in red_entries:
        for y, exy in red_adj[x].items():
            if counters is not None:
                counters.red_wedge_visits += 1
            if y == u or y == v:
                continue
            if y in black_set:
                if cu is BLACK:
                    inc += exy * size[u]
                elif cv is BLACK:
                    inc += exy * size[v]
    # pairs of red neighbors of w
    for i in range(len(red_entries)):
        x, cux, cvx = red_entries[i]
        bx, rx = black_adj[x], red_adj[x]
        for j in range(i + 1, len(red_entries)):
            y, cuy, cvy = red_entries[j]
            if counters is not None:
                counters.two_neighbor_pair_visits += 1
            if y in bx:
                if cux is BLACK and cuy is BLACK:
                    inc += size[u] * size[x] * size[y]
                if cvx is BLACK and cvy is BLACK:
                    inc += size[v] * size[x] * size[y]
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
                    inc += rx[y] * size[u]
                if cvx is BLACK and cvy is BLACK:
                    inc += rx[y] * size[v]
    return inc


# -- whole-run driver ----------------------------------------------------


def check_conservation(g: Trigraph, aux: AuxValues, n: int, m: int):
    """Raise unless the counts still account for every vertex and edge.

    Every red weight must be symmetric and lie strictly between 0 and the
    product of the group sizes: a red pair hides at least one original
    edge and at least one non-edge.
    """
    live = g.live_vertices()
    if set(aux.inner_edges) != set(live):
        raise InternalInvariantError("aux entries out of sync with live vertices")
    size = g.size
    total = sum(size)
    if total != n:
        raise InternalInvariantError(f"group sizes sum to {total}, expected {n}")
    mass = sum(aux.inner_edges.values())
    for x in live:
        for y in g.black_adj[x]:
            if y > x:
                mass += size[x] * size[y]
        for y, weight in g.red_adj[x].items():
            if g.red_adj[y].get(x) != weight:
                raise InternalInvariantError(
                    f"red edge {{{x}, {y}}} weighs {weight} at {x} "
                    f"but {g.red_adj[y].get(x)} at {y}")
            if not 0 < weight < size[x] * size[y]:
                raise InternalInvariantError(
                    f"red edge {{{x}, {y}}} weighs {weight} between groups "
                    f"of {size[x]} and {size[y]}")
            if y > x:
                mass += weight
    if mass != m:
        raise InternalInvariantError(f"edge mass {mass} != m = {m}")


def evaluate_invariant(g: Trigraph, aux: AuxValues, t: int,
                       triangle_count: int) -> bool:
    """Check the running-total identity on the current trigraph.

    The triangle total of the original graph must equal t plus the
    triangles still pending in non-absorbing configurations: all-black
    group triangles, black-black-red wedges weighted by the red side's
    cross count, and black edges weighted by the inner edges of their
    endpoints.  Brute-force enumeration; intended for small inputs.
    """
    size = g.size
    inner = aux.inner_edges
    pending = 0
    black_edges = list(g.black_edges())
    for x, y in black_edges:
        # all-black triangles, x < y < z exactly once
        by = g.black_adj[y]
        for z in g.black_adj[x]:
            if z > y and z in by:
                pending += size[x] * size[y] * size[z]
    for x, z in g.red_edges():
        exz = red_weight(g, x, z)
        bz = g.black_adj[z]
        for y in g.black_adj[x]:
            if y in bz:
                pending += exz * size[y]
    for x, y in black_edges:
        pending += size[x] * inner[y] + inner[x] * size[y]
    return triangle_count == t + pending


def count_triangles(graph, seq: ContractionSequence, mode: str = "fast",
                    checked_limit: int = 64, reference_count=None,
                    step_callback=None) -> CountResult:
    """Count the triangles of graph by replaying its contraction sequence.

    graph provides n, m and an edge list (a PlainGraph works).  In
    "checked" mode the conservation identities and the running-total
    invariant are verified after every contraction, which costs O(n^3)
    per step and is therefore gated to n <= checked_limit; the reference
    triangle count is taken from the brute-force oracle unless supplied.
    step_callback(step, g, aux, state), when given, runs after each
    applied contraction.
    """
    if mode not in ("fast", "checked"):
        raise ValueError(f"unknown mode {mode!r}")
    if seq.n != graph.n:
        raise SequenceError(
            f"sequence is for {seq.n} vertices, graph has {graph.n}")
    checked = mode == "checked"
    if checked:
        if graph.n > checked_limit:
            raise ValueError(
                f"checked mode is gated to {checked_limit} vertices, got {graph.n}")
        if reference_count is None:
            from .oracle import count_naive

            reference_count = count_naive(graph)
    n, m = graph.n, graph.m
    g = Trigraph.from_graph(graph.edges, n)
    aux = AuxValues.initial(n)
    state = CountState()
    sum_d_sq = 0

    if checked:
        check_conservation(g, aux, n, m)
        if not evaluate_invariant(g, aux, state.t, reference_count):
            raise InternalInvariantError("invariant fails before any contraction")

    def before(step, g, u, v, w, merged):
        black_list, red_entries = merged
        uv_color = g.edge_color(u, v)
        if uv_color is BLACK:
            state.t += count_black_edge_collapse(g, aux, u, v)
        if red_entries:
            state.counters.one_neighbor_calls += len(red_entries)
            for x, cu, cv in red_entries:
                state.t += tri_count_one_neighbor(
                    g, aux, u, v, w, x, cu=cu, cv=cv, uv_color=uv_color)
            state.t += tri_count_two_neighbors(
                g, aux, u, v, w, red_entries, black_list, state.counters)
        update_auxiliary_values(g, aux, u, v, w, uv_color=uv_color)
        # one update for w's inner edges, one per red edge the contraction weighs
        state.counters.aux_updates += 1 + len(red_entries)

    def after(step, g, u, v, w):
        nonlocal sum_d_sq
        d = g.max_red_degree()
        sum_d_sq += d * d
        if checked:
            check_conservation(g, aux, n, m)
            if not evaluate_invariant(g, aux, state.t, reference_count):
                raise InternalInvariantError(
                    f"invariant fails after step {step} ({u},{v})->{w}")
        if step_callback is not None:
            step_callback(step, g, aux, state)

    report = replay(g, seq, observer=before, after=after)
    if not report.valid:
        raise SequenceError(
            f"sequence references a dead vertex at step {report.failing_step}")
    state.counters.contractions = len(seq.pairs)
    state.counters.graph_update_work = g.update_work
    return CountResult(
        triangles=state.t,
        width=report.width,
        steps=len(seq.pairs),
        counters=state.counters,
        sum_red_degree_sq=sum_d_sq,
    )
