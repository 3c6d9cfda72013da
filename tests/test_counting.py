import collections
import dataclasses
import itertools
import math
import random
import statistics
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twintri import counting
from twintri.counting import (
    COMPLEMENT,
    Counters,
    GRAPH,
    InternalInvariantError,
    check_conservation,
    count_side,
    count_triangles,
    evaluate_invariant,
    side_trigraph,
)
from twintri.generate import (
    chain_sequence,
    cograph,
    complete,
    cotree_graph,
    cycle,
    gnp,
    greedy_sequence,
    grid,
    path,
    petersen,
    star,
    twin_sequence,
)
from twintri.graphio import parse_graph
from twintri.oracle import PlainGraph, count_naive
from twintri.sequence import ContractionSequence, SequenceError, replay
from twintri.trigraph import BLACK, EMPTY, NONE, RED, Trigraph, red_weight

import helpers


def _red_weights(g):
    """{(x, y): weight} over the red edges, x < y; checks both ends agree."""
    weights = {}
    for x, y in helpers.red_edges(g):
        rx, ry = g.rep[x], g.rep[y]
        assert g.red_adj[rx][ry] == g.red_adj[ry][rx]
        weights[(x, y)] = g.red_adj[rx][ry]
    return weights


# -- per-step bookkeeping, through count_triangles ---------------------------

# name -> (n, edges, pairs, {step: (sizes, inner-edge counts, red weights)}):
# after the listed steps, the given group sizes and inner-edge counts and
# the complete map of red weights must hold
STEP_CASES = {
    # the contracted path edge moves inside, the other turns red
    "aux-update-path": (3, [(1, 2), (2, 3)], [(1, 2), (4, 3)],
                        {0: ({4: 2}, {4: 1}, {(3, 4): 1})}),
    # the contracted black edge moves inside, 3 stays black to the product
    "aux-update-triangle": (3, [(1, 2), (2, 3), (1, 3)], [(1, 2), (4, 3)],
                            {0: ({4: 2}, {4: 1}, {})}),
    "aux-update-disjoint-edges": (4, [(1, 2), (3, 4)], [(1, 3), (5, 2), (6, 4)],
                                  {0: ({5: 2}, {5: 0}, {(2, 5): 1, (4, 5): 1})}),
    # 4 = {2, 3} holds one inner edge and is black to 1: collapsing {1, 4}
    # absorbs the triangle
    "black-edge-collapse": (3, [(1, 2), (2, 3), (1, 3)], [(2, 3), (1, 4)],
                            {0: ({1: 1, 4: 2}, {1: 0, 4: 1}, {})}),
    # x = 5 holds one inner edge and u = 1 sees it in black
    "one-neighbor-split-black-edge": (4, [(3, 4), (1, 3), (1, 4)],
                                      [(3, 4), (1, 2), (6, 5)],
                                      {0: ({5: 2}, {5: 1}, {})}),
    "one-neighbor-nothing-black": (4, [(3, 4)], [(3, 4), (1, 2), (6, 5)],
                                   {0: ({5: 2}, {5: 1}, {})}),
    # u = 1 black to x = 7, v = 8 red to it with two hidden edges, {u, v}
    # black: the wedge adds those two edges to the inner-edge term
    "one-neighbor-with-red-side-of-black-pair": (
        6, [(3, 4), (2, 3), (5, 4), (1, 3), (1, 4), (1, 2), (1, 5)],
        [(3, 4), (2, 5), (1, 8), (9, 7), (10, 6)],
        {1: ({7: 2, 8: 2}, {7: 1, 8: 0}, {(7, 8): 2})}),
    "two-neighbors-no-red-neighbors": (3, [(1, 2), (2, 3), (1, 3)],
                                       [(1, 2), (3, 4)], {}),
}
TARGETED_STATES = {
    # u and v each red to 3: the merged weight is the sum of both sides
    "cross-both-red": {2: ({9: 4}, {9: 4}, {(3, 9): 2})},
    "symmetric-black-pair": {0: ({5: 2}, {5: 0}, {(3, 5): 1, (4, 5): 1})},
    "symmetric-red-pair": {0: ({6: 2}, {6: 0}, {(3, 6): 1})},
}
STEP_CASES.update({
    name: (inst["n"], inst["edges"], inst["pairs"], TARGETED_STATES.get(name, {}))
    for name, (inst, _) in helpers.TARGETED_INSTANCES.items()})


def _check_steps(n, edges, pairs, states):
    """Count on the graph's own side; each step must add exactly the
    triangles an independent replay sees entering an absorbing
    configuration at that step, and the listed states must hold."""
    graph = PlainGraph(n, edges)
    schedule = helpers.absorbed_schedule(n, edges, pairs)
    increments = []
    # the representatives before the step; the step clears its ends' entries
    before = list(Trigraph(n).rep)

    def on_step(step, g, counters):
        increments.append(g.t - sum(increments))
        # one end's representative names the new vertex, the other's is
        # merged away and holds nothing, and neither end is live
        ends = {before[end] for end in pairs[step]}
        (gone,) = ends - {g.rep[n + 1 + step]}
        assert all(g.rep[end] == 0 for end in pairs[step])
        assert gone not in g.rep
        assert g.size[gone] == g.inner[gone] == 0
        assert g.black_adj[gone] is g.red_adj[gone] is EMPTY
        before[:] = g.rep
        if step in states:
            sizes, inner_edges, red = states[step]
            assert {x: g.size[g.rep[x]] for x in sizes} == sizes
            assert {x: g.inner[g.rep[x]] for x in inner_edges} == inner_edges
            assert _red_weights(g) == red

    result = helpers.count_on_side(graph, helpers.sequence_of(n, pairs),
                                   step_callback=on_step)
    assert increments == [len(s) for s in schedule]
    assert result.triangles == count_naive(graph)


@pytest.mark.parametrize("name", STEP_CASES)
def test_step_increments_match_schedule(name):
    # each pair is also run as (v, u), which swaps the roles of the two
    # ends and so drives the v-side terms of every configuration
    n, edges, pairs, states = STEP_CASES[name]
    _check_steps(n, edges, pairs, states)
    _check_steps(n, edges, [(v, u) for u, v in pairs], states)


def _stepwise_counters(graph, seq):
    """(t, counters) after every step of a test-side driver that runs
    merge_neighborhoods, count_step_reference and contract one step at a
    time, charging each step's update of w's inner edges itself."""
    g = Trigraph.from_graph(graph.edges, graph.n)
    counters = Counters()
    t = 0
    record = []
    for u, v in seq.pairs:
        merged = g.merge_neighborhoods(g.rep[u], g.rep[v])
        t += helpers.count_step_reference(g, merged, counters)
        counters.aux_updates += 1
        g.contract(u, v)
        record.append((t, dataclasses.asdict(counters)))
    return record


def test_step_callback_sees_the_counters_of_a_stepwise_driver():
    # the loop applies twin steps inline and counts only the others, yet
    # after every step the callback must see what a driver that counts
    # every step sees
    graph = gnp(30, 0.3, seed=4)
    cases = [(graph, greedy_sequence(graph)[0])]
    cases += [(PlainGraph(n, edges), helpers.sequence_of(n, pairs))
              for n, edges, pairs, _ in STEP_CASES.values()]
    for graph, seq in cases:
        seen = []
        helpers.count_on_side(graph, seq, step_callback=lambda step, g, counters:
                              seen.append((g.t, dataclasses.asdict(counters))))
        assert seen == _stepwise_counters(graph, seq)


def test_count_does_not_depend_on_merge_order(monkeypatch):
    # merge_neighborhoods promises no order for its red entries, so the
    # count must come out the same with them reversed
    merge = Trigraph.merge_neighborhoods

    def reversed_merge(g, u, v):
        s, l, red = merge(g, u, v)
        return s, l, red[::-1]

    monkeypatch.setattr(Trigraph, "merge_neighborhoods", reversed_merge)
    for name, (n, edges, pairs, states) in STEP_CASES.items():
        _check_steps(n, edges, pairs, states)
    rng = random.Random(12)
    for trial in range(60):
        n = rng.randint(3, 20)
        graph = gnp(n, rng.choice([0.3, 0.5, 0.8]), seed=trial + 1200)
        seq = helpers.random_sequence(n, rng)
        assert count_triangles(graph, seq).triangles == count_naive(graph)


def _path3_after_first_step():
    """Path 1-2-3 with 1 and 2 contracted: 4 holds one inner edge and is
    red to 3 with weight 1.  2 has the larger black map, so 2 names 4."""
    g = Trigraph.from_graph(path(3).edges, 3)
    g.contract(1, 2)
    assert g.rep[4] == 2
    assert g.inner == [0, 0, 1, 0]
    return g


def test_missing_cross_entry_is_diagnosed():
    g = _path3_after_first_step()
    del g.red_adj[3][2]
    with pytest.raises(InternalInvariantError, match=r"\{3, 4\}"):
        red_weight(g, 3, 2)
    with pytest.raises(InternalInvariantError, match="weighs 1 at 4 but None at 3"):
        check_conservation(g, 2)

    # a step contracting the pair gets it named, not read as no edge, by a
    # count and by the contraction loop alone, which folds the pair's
    # weight into w's inner edges itself
    def drop(g, step):
        if step == 0:
            del g.red_adj[3][g.rep[4]]

    pairs = ((1, 2), (3, 4))
    with pytest.raises(InternalInvariantError) as counted:
        count_triangles(path(3), helpers.sequence_of(3, pairs),
                        step_callback=lambda step, g, counters: drop(g, step))
    g = Trigraph.from_graph(path(3).edges, 3)
    with pytest.raises(InternalInvariantError) as alone:
        g.run(pairs, after=lambda step: drop(g, step))
    assert str(counted.value) == str(alone.value) \
        == "no cross-edge count for red edge {3, 4}"


def test_red_entry_for_a_merged_away_vertex_is_diagnosed():
    # 1 was merged away, so no id names it: messages name it 0, and the
    # error stays an InternalInvariantError, not a lookup failure
    g = _path3_after_first_step()
    g.red_adj[3][1] = 1
    with pytest.raises(InternalInvariantError,
                       match=r"^red edge \{3, 0\} weighs 1 at 3 but None at 0$"):
        check_conservation(g, 2)
    with pytest.raises(InternalInvariantError,
                       match=r"^no cross-edge count for red edge \{0, 3\}$"):
        red_weight(g, 1, 3)


def test_conservation_rejects_bad_weights():
    g = _path3_after_first_step()
    check_conservation(g, 2)
    g.red_adj[3][2] = g.red_adj[2][3] = 2  # groups of 1 and 2: black, not red
    with pytest.raises(InternalInvariantError, match="weighs 2 between groups of 1 and 2"):
        check_conservation(g, 2)
    g.red_adj[3][2] = g.red_adj[2][3] = 1
    g.inner[2] = 0
    with pytest.raises(InternalInvariantError, match="edge mass 1 != m = 2"):
        check_conservation(g, 2)


def test_collapse_counts_all_k4_triangles():
    graph, _ = complete(4)
    seq = ContractionSequence(4, (1, 2, 3, 4, 5, 6))
    increments = []
    last = [0]

    def on_step(step, g, counters):
        increments.append(g.t - last[0])
        last[0] = g.t

    result = helpers.count_on_side(graph, seq, step_callback=on_step)
    assert result.triangles == 4
    # the final merge of two pairs (sizes 2, inner edges 1 each) counts 2+2
    assert increments == [0, 0, 4]


# -- whole runs ------------------------------------------------------------


def test_count_k4_any_twin_sequence():
    graph, cotree = complete(4)
    assert count_triangles(graph, twin_sequence(cotree, 4)).triangles == 4


def test_count_c5_is_zero():
    graph = cycle(5)
    seq, _ = greedy_sequence(graph)
    assert count_triangles(graph, seq, mode="checked").triangles == 0


def test_count_petersen_is_zero():
    graph = petersen()
    seq, _ = greedy_sequence(graph)
    assert count_triangles(graph, seq).triangles == 0


def test_count_complete_graphs():
    for n in range(3, 13):
        graph, cotree = complete(n)
        got = count_triangles(graph, twin_sequence(cotree, n), mode="checked")
        assert got.triangles == math.comb(n, 3)
        assert got.width == 0


def test_rejects_wrong_sequence():
    graph = path(4)
    with pytest.raises(SequenceError):
        count_triangles(graph, ContractionSequence(3, (1, 2, 4, 3)))
    with pytest.raises(SequenceError):
        count_triangles(graph, ContractionSequence(4, (1, 2, 1, 3, 5, 4)))
    # a sequence for another n is refused before anything is built: a
    # trigraph on a million vertices, or the oracle's adjacency, would
    # take about 100 MiB
    graph = PlainGraph(10 ** 6)
    for mode in ("fast", "checked"):
        tracemalloc.start()
        try:
            with pytest.raises(SequenceError,
                               match="^sequence is for 3 vertices, graph has 1000000$"):
                count_triangles(graph, ContractionSequence(3, (1, 2, 3, 4)),
                                mode=mode, checked_limit=graph.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def test_dead_vertex_error_names_step_and_pair():
    graph = path(4)
    for pairs, message in [
        (((1, 2), (1, 3), (5, 4)), "step 1 contracts (1, 3) but vertex 1 is not live"),
        (((1, 2), (3, 2), (5, 4)), "step 1 contracts (3, 2) but vertex 2 is not live"),
        (((1, 2), (3, 6), (5, 4)), "step 1 contracts (3, 6) but vertex 6 is not live"),
        (((1, 6), (2, 3), (5, 4)), "step 0 contracts (1, 6) but vertex 6 is not live"),
    ]:
        with pytest.raises(SequenceError) as err:
            count_triangles(graph, helpers.sequence_of(4, pairs))
        assert str(err.value) == message
    # ContractionSequence refuses ids below 1, equal pairs and ids past
    # 2n - 1, so they can only arrive through an object that skips its checks
    for pairs, message in [
        (((0, 2), (3, 4), (5, 6)), "step 0 contracts (0, 2) but vertex 0 is not live"),
        (((1, 2), (3, -1), (5, 6)), "step 1 contracts (3, -1) but vertex -1 is not live"),
        (((1, 2), (3, 4), (5, -2)), "step 2 contracts (5, -2) but vertex -2 is not live"),
        (((1, 2), (3, 3), (5, 4)),
         "step 1 contracts (3, 3) but cannot contract a vertex with itself"),
        (((1, 2), (3, 100), (5, 4)), "step 1 contracts (3, 100) but vertex 100 is not live"),
    ]:
        with pytest.raises(SequenceError) as err:
            count_triangles(graph, helpers.unchecked_sequence(4, pairs))
        assert str(err.value) == message


def test_refused_step_deep_in_a_long_run_leaves_the_loop_written_back():
    # step 500 names a vertex that step 10 consumed; count_side and replay
    # run the same loop, so both refuse it with one message and leave the
    # trigraph, its counters and next id as they were after step 499
    # (figures taken before the loop kept them in locals)
    graph = gnp(1000, 0.01, seed=3)
    pairs = list(helpers.random_sequence(1000, random.Random(4)).pairs)
    pairs[500] = (pairs[10][0], pairs[500][1])
    seq = helpers.sequence_of(1000, pairs)
    for run in (lambda g: count_side(g, seq, GRAPH), lambda g: replay(g, seq, 3)):
        g = Trigraph.from_graph(graph.edges, graph.n)
        with pytest.raises(SequenceError) as err:
            run(g)
        assert str(err.value) == "step 500 contracts (379, 212) but vertex 379 is not live"
        assert (g.update_work, g.red_work, g._next_id, helpers.max_red_degree(g)) \
            == (26994, 22209, 1501, 91)
        helpers.check_consistent(g)


def test_counters_pinned_on_benchmark_graph():
    # the benchmark's seed-1 gnp-greedy input; the figures are those of
    # the per-procedure counting code the single per-step routine replaced
    graph = gnp(200, 0.1, seed=1)
    seq, _ = greedy_sequence(graph)
    result = count_triangles(graph, seq)
    c = result.counters
    assert (result.triangles, result.width) == (count_naive(graph), 39)
    assert (c.aux_updates, c.one_neighbor_calls, c.two_neighbor_pair_visits,
            c.red_wedge_visits, c.graph_update_work, result.sum_red_degree_sq) \
        == (5809, 5610, 83618, 123190, 13998, 174553)


def _twin_or_random_sequence(graph, rng):
    """A sequence whose steps are, at random, a pair of false twins with
    no red edge, when the trigraph still has one, or any live pair; the
    first kind is red-free, the second mostly is not."""
    g = Trigraph.from_graph(graph.edges, graph.n)
    pairs = []
    for _ in range(graph.n - 1):
        live = helpers.live_vertices(g)
        pair = None
        if rng.random() < 0.5:
            groups = {}
            for x in live:
                r = g.rep[x]
                if not g.red_adj[r]:
                    groups.setdefault(frozenset(g.black_adj[r]), []).append(x)
            twins = [group for group in groups.values() if len(group) > 1]
            if twins:
                pair = tuple(rng.sample(rng.choice(twins), 2))
        if pair is None:
            pair = tuple(rng.sample(live, 2))
        g.contract(*pair)
        pairs.append(pair)
    return helpers.sequence_of(graph.n, pairs)


def _red_free_cases():
    star_graph, star_tree = star(300)
    co_graph, co_tree = cograph(300, seed=0, block_size=8)
    yield "star", star_graph, twin_sequence(star_tree, star_graph.n)
    yield "cograph", co_graph, twin_sequence(co_tree, co_graph.n)
    for seed in range(4):
        graph, _ = cograph(48, seed=seed, block_size=8)
        yield f"mixed-{seed}", graph, _twin_or_random_sequence(graph, random.Random(seed))


# (graph_update_work, aux_updates, width, red-free steps) of each case,
# taken before contract had a separate red-free path
RED_FREE_PINS = {
    "star": (899, 300, 0, 300),
    "cograph": (844, 299, 0, 299),
    "mixed-0": (450, 233, 11, 12),
    "mixed-1": (553, 266, 12, 8),
    "mixed-2": (370, 201, 11, 10),
    "mixed-3": (285, 156, 10, 18),
}


RED_FREE_CASES = list(_red_free_cases())


@pytest.mark.parametrize("name, graph, seq", RED_FREE_CASES,
                         ids=[case[0] for case in RED_FREE_CASES])
def test_red_free_steps_keep_the_trigraph_and_counters(name, graph, seq):
    g = Trigraph.from_graph(graph.edges, graph.n)
    width = red_free = 0
    for u, v in seq.pairs:
        s, l, red = g.merge_neighborhoods(g.rep[u], g.rep[v])
        red_free += not (red or g.red_adj[s] or g.red_adj[l])
        g.contract(u, v)
        helpers.check_consistent(g)
        width = max(width, helpers.max_red_degree(g))
    result = helpers.count_on_side(graph, seq)
    assert result.triangles == count_naive(graph)
    assert (result.counters.graph_update_work, result.width) == (g.update_work, width)
    # whichever side count_triangles takes, it reports the graph side's counters
    assert count_triangles(graph, seq).counters == result.counters
    assert (g.update_work, result.counters.aux_updates, width, red_free) \
        == RED_FREE_PINS[name]


def _twin_steps(graph, seq):
    """Whether each step of seq on graph is a twin step, no red edge at
    either end and equal black maps once the pair's own edge is set
    aside, and how many steps were not although their ends were
    adjacent, red-free and of equal black degree."""
    g = Trigraph.from_graph(graph.edges, graph.n)
    twins, near = [], 0
    for u, v in seq.pairs:
        s, l = g.rep[u], g.rep[v]
        bs, bl = g.black_adj[s].keys() - {l}, g.black_adj[l].keys() - {s}
        red_free = not (g.red_adj[s] or g.red_adj[l])
        twins.append(red_free and bs == bl)
        near += red_free and l in g.black_adj[s] and len(bs) == len(bl) and bs != bl
        g.contract(u, v)
    return twins, near


def _adjacent_or_random_sequence(graph, rng):
    """A sequence whose steps are, at random, an adjacent pair with no
    red edge and black maps of equal size, when the trigraph still has
    one, twins or not, or any live pair."""
    g = Trigraph.from_graph(graph.edges, graph.n)
    pairs = []
    for _ in range(graph.n - 1):
        live = helpers.live_vertices(g)
        pair = None
        if rng.random() < 0.5:
            by_rep = {g.rep[x]: x for x in live}
            near = [(x, by_rep[y]) for x in live for y in g.black_adj[g.rep[x]]
                    if not (g.red_adj[g.rep[x]] or g.red_adj[y])
                    and len(g.black_adj[g.rep[x]]) == len(g.black_adj[y])]
            if near:
                pair = rng.choice(near)
        if pair is None:
            pair = tuple(rng.sample(live, 2))
        g.contract(*pair)
        pairs.append(pair)
    return helpers.sequence_of(graph.n, pairs)


def _check_red_entries(g, merged):
    """Each red entry (x, cs, cl, ws, wl) of merged carries x's original
    edges to either side, read off g: the size product for a black pair,
    the red weight at that side for a red one, 0 for none; and together
    they weigh a red edge of the merged group.  Returns the pairs of
    colors met."""
    s, l, red = merged
    size = g.size
    for x, cs, cl, ws, wl in red:
        for a, color, weight in ((s, cs, ws), (l, cl, wl)):
            if x in g.black_adj[a]:
                assert (color, weight) == (BLACK, size[a] * size[x])
            elif x in g.red_adj[a]:
                assert (color, weight) == (RED, g.red_adj[a][x])
            else:
                assert (color, weight) == (NONE, 0)
        assert 0 < ws + wl < (size[s] + size[l]) * size[x]
    return [(cs, cl) for _, cs, cl, _, _ in red]


def test_only_twin_steps_skip_the_classifier(monkeypatch):
    # an adjacent pair whose black maps have equal sizes but differ,
    # once their own edge is set aside, must take the general path: C4's
    # first fold, a cycle's chain folds, {3, 4} in K_{3,3} plus the edge
    # {1, 2} (whose {1, 2} is a twin pair), and gnp runs under random and
    # greedy sequences on the graph and on its complement.  Every red
    # entry the classifier returns must carry its two weights
    rng = random.Random(29)
    k33 = PlainGraph(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)] + [(1, 2)])
    cases = [(PlainGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
              helpers.sequence_of(4, [(1, 2), (3, 5), (4, 6)])),
             (cycle(9), chain_sequence(9)),
             (k33, helpers.sequence_of(6, [(3, 4), (1, 2), (5, 6), (7, 8), (9, 10)])),
             (k33, helpers.sequence_of(6, [(1, 2), (3, 4), (5, 7), (6, 9), (8, 10)])),
             (cycle(12), helpers.random_sequence(12, rng))]
    for trial in range(40):
        n = rng.randint(4, 16)
        graph = gnp(n, (0.3, 0.5, 0.7)[trial % 3], seed=trial + 2900)
        seqs = (helpers.random_sequence(n, rng), _adjacent_or_random_sequence(graph, rng),
                greedy_sequence(graph)[0])
        cases += [(side, seq) for side in (graph, helpers.complement(graph)) for seq in seqs]
    merge = Trigraph.merge_neighborhoods
    total_near = total_twins = 0
    colors = collections.Counter()
    for case, (graph, seq) in enumerate(cases):
        twins, near = _twin_steps(graph, seq)
        expected = _stepwise_counters(graph, seq)
        calls, calls_after, seen = [], [0], []

        def recording(g, s, l):
            calls.append((s, l))
            merged = merge(g, s, l)
            colors.update(_check_red_entries(g, merged))
            return merged

        def on_step(step, g, counters):
            helpers.check_consistent(g)
            calls_after.append(len(calls))
            seen.append((g.t, dataclasses.asdict(counters)))

        with monkeypatch.context() as patch:
            patch.setattr(Trigraph, "merge_neighborhoods", recording)
            result = helpers.count_on_side(graph, seq, step_callback=on_step)
        # each step classifies its pair once, unless it is a twin step
        assert [b - a for a, b in zip(calls_after, calls_after[1:])] \
            == [not twin for twin in twins], case
        assert seen == expected, case
        assert result.triangles == count_naive(graph)
        total_near += near
        total_twins += sum(twins)
        if case < 3:
            assert near, case
        elif case == 3:
            assert twins[0]  # {1, 2}: adjacent twins
    # the seeded cases reach 49 such steps and 131 twin steps, and every
    # pair of colors a red entry can have, the rarest 130 times
    assert total_near >= 40 and total_twins >= 100
    assert len(colors) == 7 and min(colors.values()) >= 100


def test_cograph_aux_work_grows_linearly():
    # width-0 runs do a fixed amount of aux work per vertex, whatever n
    ratios = []
    for n in (1000, 2000, 4000):
        graph, cotree = cograph(n, seed=0, block_size=8)
        result = count_triangles(graph, twin_sequence(cotree, n))
        assert result.triangles == count_naive(graph)
        assert result.width == 0
        assert result.counters.graph_update_work <= 8 * graph.m
        ratios.append(result.counters.aux_updates / n)
    assert max(ratios) <= 1.1 * min(ratios)


def test_greedy_width_rises_with_density_up_to_half():
    medians = [statistics.median(greedy_sequence(gnp(24, p, seed=s))[1]
                                 for s in range(7))
               for p in (0.1, 0.3, 0.5)]
    assert medians[0] <= medians[1] <= medians[2]
    assert medians[0] < medians[2]


def test_checked_mode_gate():
    graph = path(70)
    seq = chain_sequence(70)
    with pytest.raises(ValueError):
        count_triangles(graph, seq, mode="checked")
    assert count_triangles(graph, seq, mode="checked", checked_limit=70).triangles == 0


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        count_triangles(path(2), ContractionSequence(2, (1, 2)), mode="slow")


# -- invariants ------------------------------------------------------------


def test_invariant_at_start_reduces_to_black_triangles():
    graph = gnp(10, 0.5, seed=2)
    g = Trigraph.from_graph(graph.edges, 10)
    oracle = count_naive(graph)
    assert evaluate_invariant(g, 0, oracle)
    assert not evaluate_invariant(g, 0, oracle + 1)


def test_invariant_at_end_equals_total():
    graph = gnp(9, 0.6, seed=4)
    seq, _ = greedy_sequence(graph)
    result = count_triangles(graph, seq, mode="checked")
    assert result.triangles == count_naive(graph)


def test_checked_mode_covers_k4_steps():
    graph, cotree = complete(4)
    assert count_triangles(graph, twin_sequence(cotree, 4),
                           mode="checked").triangles == 4


def test_conservation_on_random_runs():
    rng = random.Random(31)
    for trial in range(40):
        n = rng.randint(2, 16)
        graph = gnp(n, rng.choice([0.2, 0.5, 0.7]), seed=trial)
        seq, _ = greedy_sequence(graph)
        m = graph.m

        def check(step, g, counters):
            check_conservation(g, m)

        helpers.count_on_side(graph, seq, step_callback=check)


@pytest.mark.parametrize("n, p, seed, side", [(1000, 0.01, 3, GRAPH),
                                              (300, 0.9, 5, COMPLEMENT)])
def test_whole_runs_fold_every_edge_into_the_last_group(n, p, seed, side):
    # no oracle: a count and a replay of a random sequence both leave the
    # side's whole edge count inside the one live group, and 0 elsewhere
    graph = gnp(n, p, seed=seed)
    seq = helpers.random_sequence(n, random.Random(seed))
    folded = []
    for run in (lambda g: count_side(g, seq, side), lambda g: replay(g, seq)):
        ran_on, g = side_trigraph(graph)
        assert ran_on == side
        m = sum(map(len, g.black_adj)) // 2
        run(g)
        last = g.rep[2 * n - 1]
        assert g.inner[last] == m
        assert not any(g.inner[:last] + g.inner[last + 1:])
        folded.append(g.inner)
    assert folded[0] == folded[1]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(0, 10 ** 6),
       st.sampled_from([0.1, 0.3, 0.5, 0.8]))
def test_red_weights_match_brute_force_cross_counts(n, seed, p):
    # after every step, each live pair's color, each red weight, each group
    # size and each inner-edge count against the original edges of the groups
    graph = gnp(n, p, seed=seed)
    seq, _ = greedy_sequence(graph)
    adj = {v: set() for v in range(1, n + 1)}
    for a, b in graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    members = {v: [v] for v in range(1, n + 1)}

    def on_step(step, g, counters):
        u, v = seq.ends[2 * step:2 * step + 2]
        members[n + 1 + step] = members.pop(u) + members.pop(v)
        assert sorted(members) == helpers.live_vertices(g)
        rep = g.rep
        for x, group in members.items():
            assert g.size[rep[x]] == len(group)
            assert 2 * g.inner[rep[x]] == sum(len(adj[a].intersection(group))
                                            for a in group)
        for x, y in itertools.combinations(sorted(members), 2):
            crossing = sum(len(adj[a].intersection(members[y])) for a in members[x])
            rx, ry = rep[x], rep[y]
            if crossing == 0:
                assert ry not in g.black_adj[rx] and ry not in g.red_adj[rx]
            elif crossing == g.size[rx] * g.size[ry]:
                assert ry in g.black_adj[rx] and ry not in g.red_adj[rx]
            else:
                assert g.red_adj[rx][ry] == g.red_adj[ry][rx] == crossing, (step, x, y)

    helpers.count_on_side(graph, seq, step_callback=on_step)


def test_per_step_counter_budgets():
    # per contraction: one-neighbor calls stay within the new max red
    # degree, pair visits within its square, wedge scans within the
    # product of the degrees before and after
    rng = random.Random(55)
    for trial in range(20):
        n = rng.randint(5, 20)
        graph = gnp(n, rng.choice([0.3, 0.6]), seed=trial + 200)
        seq, _ = greedy_sequence(graph)
        prev = [0, 0, 0]
        degree_before = [0]

        def on_step(step, g, c):
            d_after = helpers.max_red_degree(g)
            one = c.one_neighbor_calls - prev[0]
            pairs = c.two_neighbor_pair_visits - prev[1]
            wedge = c.red_wedge_visits - prev[2]
            assert one <= d_after
            assert pairs <= d_after * d_after
            assert wedge <= d_after * degree_before[0]
            prev[:] = [c.one_neighbor_calls, c.two_neighbor_pair_visits,
                       c.red_wedge_visits]
            degree_before[0] = d_after

        count_triangles(graph, seq, step_callback=on_step)


def test_t_never_decreases():
    rng = random.Random(17)
    for trial in range(25):
        n = rng.randint(3, 14)
        graph = gnp(n, rng.choice([0.3, 0.6]), seed=trial)
        seq, _ = greedy_sequence(graph)
        trace = []
        count_triangles(graph, seq,
                        step_callback=lambda s, g, counters: trace.append(g.t))
        assert trace == sorted(trace)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 24), st.integers(0, 10 ** 6),
       st.sampled_from([0.15, 0.35, 0.6, 0.85]))
def test_counter_matches_oracle(n, seed, p):
    graph = gnp(n, p, seed=seed)
    seq, _ = greedy_sequence(graph)
    assert count_triangles(graph, seq).triangles == count_naive(graph)


def test_arbitrary_sequences_match_oracle():
    # generated sequences keep the width low; random orders push it toward
    # n and hit the dense-red regime
    rng = random.Random(8080)
    for trial in range(200):
        n = rng.randint(2, 36)
        graph = gnp(n, rng.random(), seed=trial + 700)
        seq = helpers.random_sequence(n, rng)
        assert count_triangles(graph, seq).triangles == count_naive(graph)


def _totals_and_result(graph, seq):
    """The running total after every step, and the final result."""
    totals = []
    result = count_triangles(
        graph, seq,
        step_callback=lambda step, g, counters: totals.append(g.t))
    return totals, result


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.sampled_from((0.1, 0.3, 0.5, 0.8)),
       st.integers(0, 10 ** 6), st.booleans())
def test_count_step_matches_pair_loop_reference(n, p, seed, greedy):
    # random orders reach red degrees near n, greedy ones stay low
    graph = gnp(n, p, seed=seed)
    if greedy:
        seq = greedy_sequence(graph)[0]
    else:
        seq = helpers.random_sequence(n, random.Random(seed))
    shipped = _totals_and_result(graph, seq)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "_count_step", helpers.count_step_reference)
        reference = _totals_and_result(graph, seq)
    assert shipped == reference


def test_fast_run_matches_a_run_with_a_step_callback():
    # fast mode runs the loop without an after-hook; every field of the
    # result must match a run that stops after each step for a callback
    for graph, seq in helpers.loop_cases(2400):
        assert count_triangles(graph, seq) \
            == count_triangles(graph, seq, step_callback=lambda *state: None)


def test_arbitrary_sequences_survive_checked_mode():
    rng = random.Random(9090)
    for trial in range(80):
        n = rng.randint(2, 12)
        graph = gnp(n, rng.random(), seed=trial + 800)
        seq = helpers.random_sequence(n, rng)
        result = count_triangles(graph, seq, mode="checked")
        assert result.triangles == count_naive(graph)


def test_pair_order_within_step_does_not_matter():
    rng = random.Random(66)
    for trial in range(40):
        n = rng.randint(3, 16)
        graph = gnp(n, 0.5, seed=trial + 900)
        seq, _ = greedy_sequence(graph)
        flipped = helpers.sequence_of(n, ((v, u) for u, v in seq.pairs))
        assert (count_triangles(graph, seq).triangles
                == count_triangles(graph, flipped).triangles
                == count_naive(graph))


def test_counter_matches_reference_pipeline():
    rng = random.Random(77)
    for trial in range(100):
        n = rng.randint(3, 11)
        graph = gnp(n, rng.choice([0.2, 0.4, 0.7]), seed=trial + 500)
        seq, _ = greedy_sequence(graph)
        lib = count_triangles(graph, seq).triangles
        ref = helpers.reference_count(n, list(graph.edges), list(seq.pairs))
        assert lib == ref == count_naive(graph)


# -- complement, no oracle -------------------------------------------------


def _assert_complement_pair(graph, seq):
    """The same sequence has the same width on G and its complement (red
    pairs stay red when black and absent swap), and t(G) + t(complement)
    = C(n,3) - 1/2 sum d(n-1-d) (Goodman 1959)."""
    n = graph.n
    degree = [0] * (n + 1)
    for u, v in graph.edges:
        degree[u] += 1
        degree[v] += 1
    mixed = sum(d * (n - 1 - d) for d in degree[1:])
    assert mixed % 2 == 0
    ours = helpers.count_on_side(graph, seq)
    theirs = helpers.count_on_side(graph, seq, COMPLEMENT)
    assert ours.width == theirs.width
    assert ours.triangles + theirs.triangles == math.comb(n, 3) - mixed // 2
    return ours.width


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 150), st.integers(0, 10 ** 6),
       st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9]))
def test_complement_keeps_width_and_goodman_sum_gnp(n, seed, p):
    graph = gnp(n, p, seed=seed)
    _assert_complement_pair(graph, greedy_sequence(graph)[0])


def test_complement_keeps_width_and_goodman_sum_cograph():
    # the complement has about half a million edges; no brute force runs
    graph, cotree = cograph(1000, seed=1, block_size=8)
    _assert_complement_pair(graph, twin_sequence(cotree, 1000))


def test_complement_keeps_width_and_goodman_sum_banded():
    # the red path on dense input: the complement has about 490k edges
    # and every step of the chain leaves red edges behind
    assert _assert_complement_pair(helpers.banded(1000, 10), chain_sequence(1000)) == 10


# -- the side a count runs on ----------------------------------------------


def _side_by_rule(graph):
    n = graph.n
    return COMPLEMENT if 4 * graph.m > n * (n - 1) else GRAPH


def _assert_sides_agree(graph, seq, mode="fast"):
    """Each side counts its own graph exactly, at the same width and with
    the same counters but graph_update_work; count_triangles takes the
    side the rule names and reports the oracle's count with the graph
    side's width and counters."""
    ours = helpers.count_on_side(graph, seq, mode=mode)
    theirs = helpers.count_on_side(graph, seq, COMPLEMENT, mode=mode)
    assert ours.triangles == count_naive(graph)
    assert theirs.triangles == count_naive(helpers.complement(graph))
    assert (ours.width, ours.sum_red_degree_sq) == (theirs.width, theirs.sum_red_degree_sq)
    assert (dataclasses.replace(ours.counters, graph_update_work=0)
            == dataclasses.replace(theirs.counters, graph_update_work=0))
    result = count_triangles(graph, seq, mode=mode)
    assert result.side == _side_by_rule(graph)
    assert (result.triangles, result.width, result.sum_red_degree_sq, result.counters) \
        == (ours.triangles, ours.width, ours.sum_red_degree_sq, ours.counters)


@pytest.mark.parametrize("mode", ["fast", "checked"])
def test_sides_agree_on_every_graph_up_to_five_vertices(mode):
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            graph = PlainGraph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            _assert_sides_agree(graph, greedy_sequence(graph)[0], mode)


@pytest.mark.parametrize("mode", ["fast", "checked"])
def test_sides_agree_on_dense_gnp(mode):
    # greedy sequences keep the width low, random orders push it toward n
    rng = random.Random(4242)
    dense = 0
    for trial in range(40):
        n = 6 + trial * 54 // 39  # 6..60
        graph = gnp(n, (0.65, 0.8, 0.95)[trial % 3], seed=trial + 4200)
        dense += _side_by_rule(graph) == COMPLEMENT
        seq = (greedy_sequence(graph)[0] if trial % 2
               else helpers.random_sequence(n, rng))
        _assert_sides_agree(graph, seq, mode)
    assert dense == 39  # one draw at n = 10 came out sparse


@pytest.mark.parametrize("n, m, side", [
    (1, 0, GRAPH), (2, 0, GRAPH), (2, 1, COMPLEMENT),
    # C(n, 2)/2 - 1, C(n, 2)/2 and C(n, 2)/2 + 1 edges
    (4, 2, GRAPH), (4, 3, GRAPH), (4, 4, COMPLEMENT),
    (5, 4, GRAPH), (5, 5, GRAPH), (5, 6, COMPLEMENT),
    (8, 13, GRAPH), (8, 14, GRAPH), (8, 15, COMPLEMENT),
])
def test_the_complement_is_taken_above_half_the_pairs(n, m, side):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    graph = PlainGraph(n, random.Random(m).sample(pairs, m))
    assert side_trigraph(graph)[0] == side
    result = count_triangles(graph, chain_sequence(n), mode="checked")
    assert (result.side, result.triangles) == (side, count_naive(graph))


def test_conservation_rejects_out_of_sync_group_counts():
    g = _path3_after_first_step()
    g.inner[1] = 1  # 1 was merged away, so it holds no inner edges
    with pytest.raises(InternalInvariantError,
                       match=r"^aux entries out of sync with live vertices$"):
        check_conservation(g, 2)
    g = _path3_after_first_step()
    g.inner.append(0)  # one entry per original vertex, and one unused
    with pytest.raises(InternalInvariantError,
                       match=r"^aux entries out of sync with live vertices$"):
        check_conservation(g, 2)
    g = _path3_after_first_step()
    g.size[3] = 2
    with pytest.raises(InternalInvariantError,
                       match=r"^group sizes sum to 4, expected 3$"):
        check_conservation(g, 2)


def test_checked_mode_names_the_step_whose_count_is_wrong(monkeypatch):
    # a per-step count one too high at its second call must fail the
    # running-total check right after that step, which the message names
    count_step = counting._count_step
    calls = []

    def off_by_one(g, merged, counters):
        calls.append(merged)
        return count_step(g, merged, counters) + (len(calls) == 2)

    monkeypatch.setattr(counting, "_count_step", off_by_one)
    graph = path(5)  # 4m <= n(n - 1): the count runs on the graph side
    with pytest.raises(InternalInvariantError) as err:
        count_triangles(graph, chain_sequence(5), mode="checked")
    assert str(err.value) == "invariant fails after step 1 (3,6)->7"
    assert len(calls) == 2


def test_checked_mode_catches_a_wrong_complement(monkeypatch):
    # one complement edge swapped for an edge of the graph keeps the edge
    # count, so conservation alone cannot see it; the oracle's reference can
    graph = gnp(12, 0.8, seed=3)
    seq = greedy_sequence(graph)[0]
    build = counting._complement_edges

    def swapped(n, us, vs):
        pairs = build(n, us, vs)
        next(pairs)
        yield us[0], vs[0]
        yield from pairs

    monkeypatch.setattr(counting, "_complement_edges", swapped)
    assert count_triangles(graph, seq).triangles != count_naive(graph)
    with pytest.raises(InternalInvariantError, match="invariant fails"):
        count_triangles(graph, seq, mode="checked")


def test_checked_mode_catches_a_complement_with_other_degrees(monkeypatch):
    # the star on 6 vertices has the 5 edges and 0 triangles of the path
    # that G complements, so every step's checks pass; only its degrees
    # differ, and Goodman's identity then corrects to a count the oracle
    # refuses after the last step
    graph = helpers.complement(path(6))
    assert (graph.m, count_naive(graph)) == (10, 4)
    monkeypatch.setattr(counting, "_complement_edges",
                        lambda n, us, vs: ((1, v) for v in range(2, n + 1)))
    with pytest.raises(InternalInvariantError, match=r"^the complement's count "
                                                     r"corrects to 10, the oracle counts 4$"):
        count_triangles(graph, chain_sequence(6), mode="checked")


# -- closed forms on cotrees ---------------------------------------------


def test_cotree_closed_form_matches_the_oracle():
    rng = random.Random(26)
    cases = [(rng.randint(1, 60), rng.random(), rng.choice([None, 2, 8]))
             for _ in range(30)]
    cases += [(300, join_prob, 40) for join_prob in (0.1, 0.5, 0.9)]
    for seed, (n, join_prob, block_size) in enumerate(cases):
        graph, root = cograph(n, seed, join_prob, block_size)
        assert helpers.cotree_counts(root) == (n, graph.m, count_naive(graph))
    # joins of more than two children, and a deep cotree
    for root, n in [(complete(60)[1], 60), (star(59)[1], 60),
                    (helpers.caterpillar(120, lambda k: ("union", "join")[k % 2]), 120)]:
        graph = cotree_graph(root, n)
        assert helpers.cotree_counts(root) == (n, graph.m, count_naive(graph))
    # deeper than the recursion limit would allow a recursive walk: K_3000
    assert helpers.cotree_counts(helpers.caterpillar(3000, lambda k: "join")) \
        == (3000, math.comb(3000, 2), math.comb(3000, 3))


def _with_twin_sequence(built):
    graph, root = built
    return graph, twin_sequence(root, graph.n)


# each fixed family's construction fixes its triangle count, so it is
# checked where the oracle is too slow to reach: K_1000 is on the
# complement side, and the grid reaches width 30 under the chain fold
FIXED_FAMILY_CASES = {
    "path": (lambda: (path(20000), chain_sequence(20000)), 0),
    "cycle": (lambda: (cycle(20000), chain_sequence(20000)), 0),
    "triangle": (lambda: (cycle(3), chain_sequence(3)), 1),
    "star": (lambda: _with_twin_sequence(star(80000)), 0),
    "complete": (lambda: _with_twin_sequence(complete(1000)), math.comb(1000, 3)),
    "grid": (lambda: (grid(30, 30), chain_sequence(900)), 0),
    "petersen": (lambda: (petersen(), greedy_sequence(petersen())[0]), 0),
}


@pytest.mark.parametrize("build, triangles", FIXED_FAMILY_CASES.values(),
                         ids=FIXED_FAMILY_CASES)
def test_fixed_families_count_their_closed_form(build, triangles):
    graph, seq = build()
    assert count_triangles(graph, seq).triangles == triangles


# the complement of a block cograph at n = 2000 holds about two million
# edges, and building and counting it takes about 3 s a case, so the
# complement side runs at n = 1000 only
CLOSED_FORM_CASES = [(n, join_prob, side) for n in (1000, 2000)
                     for join_prob in (0.1, 0.5, 0.9)
                     for side in (GRAPH, COMPLEMENT) if side == GRAPH or n == 1000]


@pytest.mark.parametrize("n, join_prob, side", CLOSED_FORM_CASES)
def test_block_cographs_count_their_closed_form_under_halving(n, join_prob, side):
    # the halving sequence takes block cographs to widths 4 to 11, so the
    # pair and wedge terms of the count meet red edges at every level;
    # twin sequences stay at width 0 and chain sequences reach too few
    graph, root = cograph(n, seed=n + int(10 * join_prob), join_prob=join_prob,
                          block_size=8)
    nodes, edges, triangles = helpers.cotree_counts(root)
    assert (nodes, edges) == (n, graph.m)
    seq = helpers.halving_sequence(n)
    result = helpers.count_on_side(graph, seq, side)
    assert result.width >= 4
    if side == GRAPH:
        assert result.triangles == triangles
        assert count_triangles(graph, seq).triangles == triangles
    else:
        # Goodman's identity: the complement's triangles from G's
        degree = collections.Counter(itertools.chain(graph.us, graph.vs))
        assert result.triangles == (math.comb(n, 3) - triangles
                                    - sum(d * (n - 1 - d) for d in degree.values()) // 2)


# cographs under their twin sequences, at width 0: block cographs at every
# join probability, a half-dense one, K_300 (all of whose steps fold
# adjacent twins on G's own trigraph) and a star (whose last step does)
WIDTH_0_CASES = {f"block-{join_prob}": (lambda join_prob=join_prob: cograph(
    1000, seed=29, join_prob=join_prob, block_size=8)) for join_prob in (0.1, 0.5, 0.9)}
WIDTH_0_CASES.update({"half-dense": lambda: cograph(1000, seed=1),
                      "complete": lambda: complete(300),
                      "star": lambda: star(300)})


@pytest.mark.parametrize("build", WIDTH_0_CASES.values(), ids=WIDTH_0_CASES)
def test_width_0_steps_never_reach_the_classifier(monkeypatch, build):
    # every step of a cograph's twin sequence folds twins, adjacent or
    # not, which the contraction loop applies without classifying them
    graph, root = build()
    n, m, triangles = helpers.cotree_counts(root)
    seq = twin_sequence(root, n)
    degree = collections.Counter(itertools.chain(graph.us, graph.vs))
    sides = [(GRAPH, graph, m, triangles),
             (COMPLEMENT, helpers.complement(graph), math.comb(n, 2) - m,
              math.comb(n, 3) - triangles
              - sum(d * (n - 1 - d) for d in degree.values()) // 2)]

    def refuse(g, s, l):
        raise AssertionError(f"merge_neighborhoods ran on ({s}, {l})")

    monkeypatch.setattr(Trigraph, "merge_neighborhoods", refuse)
    assert count_triangles(graph, seq).triangles == triangles
    for side, h, edges, side_triangles in sides:
        assert h.m == edges
        result = count_side(Trigraph.from_graph(h.edges, n), seq, side)
        assert (result.triangles, result.width) == (side_triangles, 0)
        g = Trigraph.from_graph(h.edges, n)
        assert replay(g, seq).width == 0
        # the last group holds every vertex and every edge of its side
        last = g.rep[2 * n - 1]
        assert (g.size[last], g.inner[last]) == (n, edges)


def _refuse_adjacent_twins(monkeypatch):
    """Patch _count_step to fail on an adjacent twin step: no red entry
    and a black pair, which the contraction loop counts itself."""
    count_step = counting._count_step

    def refuse(g, merged, counters):
        u, v, red_entries = merged
        if not red_entries and v in g.black_adj[u]:
            raise AssertionError(f"_count_step ran on the adjacent twins ({u}, {v})")
        return count_step(g, merged, counters)

    monkeypatch.setattr(counting, "_count_step", refuse)


@pytest.mark.parametrize("build", WIDTH_0_CASES.values(), ids=WIDTH_0_CASES)
def test_adjacent_twin_steps_never_reach_the_count_step(monkeypatch, build):
    # the loop adds su*iv + sv*iu for each adjacent twin step itself; the
    # closed form checks that it adds the right amount.  K_300's count
    # runs on its edgeless complement, so G's own side is counted too
    graph, root = build()
    n, _, triangles = helpers.cotree_counts(root)
    seq = twin_sequence(root, n)
    _refuse_adjacent_twins(monkeypatch)
    assert count_triangles(graph, seq).triangles == triangles
    assert helpers.count_on_side(graph, seq, GRAPH).triangles == triangles


def test_adjacent_twin_steps_in_mixed_sequences_never_reach_the_count_step(monkeypatch):
    # above width 0 the hook still runs on every other step
    _refuse_adjacent_twins(monkeypatch)
    for graph, seq in helpers.loop_cases(3100):
        assert count_triangles(graph, seq).triangles == count_naive(graph)


def test_a_huge_sparse_graph_stays_on_the_graph_side():
    graph = parse_graph("p 1000000 1\ne 1 2\n")
    tracemalloc.start()
    try:
        side, g = side_trigraph(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the complement would hold about n^2/2 edges
    assert (side, g.black_adj[1], g.black_adj[3]) == (GRAPH, {2: None}, EMPTY)
    assert peak < 200 * graph.n


def test_a_half_dense_trigraph_keys_its_maps_on_one_int_per_vertex():
    # each key is the int object rep holds, so a map entry costs its dict
    # slot alone; with a fresh int per key the complement side took 88.0
    # bytes a graph edge and the graph side 135.6
    graph, _ = cograph(1000, seed=1)
    for build, side, limit in [(lambda: side_trigraph(graph), COMPLEMENT, 75),
                               (lambda: (GRAPH, Trigraph.from_graph(graph.edges, graph.n)),
                                GRAPH, 100)]:
        tracemalloc.start()
        try:
            built = build()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert built[0] == side
        assert held < limit * graph.m
        g = built[1]
        assert all(x is g.rep[x] for b in g.black_adj for x in b)
        del built, g


def test_k300_graph_side_counters_are_pinned():
    # the counters CI read from `twintri count --stats` on K_300 before
    # counts took the complement; count_triangles still reports them
    graph, cotree = complete(300)
    seq = twin_sequence(cotree, 300)
    ours = helpers.count_on_side(graph, seq)
    c = ours.counters
    assert (ours.triangles, ours.width, c.graph_update_work, c.aux_updates) \
        == (4455100, 0, 134251, 299)
    # the complement is edgeless, so its trigraph does no update work
    assert helpers.count_on_side(graph, seq, COMPLEMENT).counters.graph_update_work == 0
    result = count_triangles(graph, seq)
    assert (result.side, result.triangles, result.counters) == (COMPLEMENT, 4455100, c)


def test_sides_agree_on_the_complement_of_banded():
    # the paper's regime, dense at low width: about 1.12M edges, width 10;
    # count_triangles counts the banded graph and corrects by Goodman's
    # identity, the graph side walks the dense trigraph itself
    graph = helpers.complement(helpers.banded(1500, 10))
    seq = chain_sequence(1500)
    ours = helpers.count_on_side(graph, seq)
    result = count_triangles(graph, seq)
    assert result.side == COMPLEMENT
    assert (result.triangles, result.width, result.sum_red_degree_sq, result.counters) \
        == (ours.triangles, 10, ours.sum_red_degree_sq, ours.counters)


# -- attribution -----------------------------------------------------------


def _step_increments(graph, seq):
    increments = []
    last = [0]

    def on_step(step, g, counters):
        increments.append(g.t - last[0])
        last[0] = g.t

    result = helpers.count_on_side(graph, seq, step_callback=on_step)
    return result, increments


def test_each_triangle_counted_exactly_once():
    rng = random.Random(99)
    for trial in range(150):
        n = rng.randint(3, 7)
        graph = gnp(n, rng.choice([0.3, 0.5, 0.8]), seed=trial)
        seq, _ = greedy_sequence(graph)
        result, increments = _step_increments(graph, seq)
        schedule = helpers.absorbed_schedule(n, list(graph.edges), list(seq.pairs))
        assert increments == [len(s) for s in schedule], (trial, n)
        assert result.triangles == sum(len(s) for s in schedule) == count_naive(graph)



def _relabelled(graph, seq, perm):
    """graph and seq with original vertex x renamed perm[x - 1]; ids above
    n, the contracted vertices, keep their numbers."""
    n = graph.n

    def name(x):
        return perm[x - 1] if x <= n else x

    edges = [(name(u), name(v)) for u, v in graph.edges]
    return PlainGraph(n, edges), ContractionSequence(n, tuple(map(name, seq.ends)))


def _outcome_of_count(graph, seq):
    result = count_triangles(graph, seq)
    return result.triangles, result.width, result.sum_red_degree_sq, result.counters


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.sampled_from((0.1, 0.3, 0.5, 0.8)),
       st.integers(0, 10 ** 6), st.booleans(), st.randoms(use_true_random=False))
def test_relabelling_changes_no_count_or_counter(n, p, seed, greedy, rng):
    graph = gnp(n, p, seed=seed)
    seq = (greedy_sequence(graph)[0] if greedy
           else helpers.random_sequence(n, random.Random(seed)))
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    assert (_outcome_of_count(*_relabelled(graph, seq, perm))
            == _outcome_of_count(graph, seq))


def test_relabelling_a_cograph_changes_no_count_or_counter():
    graph, cotree = cograph(600, seed=5, block_size=8)
    seq = twin_sequence(cotree, graph.n)
    perm = list(range(1, graph.n + 1))
    random.Random(5).shuffle(perm)
    outcome = _outcome_of_count(graph, seq)
    assert outcome[1] == 0
    assert _outcome_of_count(*_relabelled(graph, seq, perm)) == outcome


@pytest.mark.parametrize("n, p, least_width", [(1000, 0.01, 100), (2000, 0.005, 150)])
def test_random_sequences_count_right_at_larger_n(n, p, least_width):
    # random orders reach widths near 130 and 200, far past what the
    # brute-force schedule checks can afford; the oracle and a relabelled
    # copy check the count there instead
    graph = gnp(n, p, seed=n)
    seq = helpers.random_sequence(n, random.Random(n))
    outcome = _outcome_of_count(graph, seq)
    assert outcome[1] >= least_width
    assert outcome[0] == count_naive(graph)
    perm = list(range(1, n + 1))
    random.Random(n + 1).shuffle(perm)
    assert _outcome_of_count(*_relabelled(graph, seq, perm)) == outcome


@pytest.mark.parametrize("n", [2000, 4000])
@pytest.mark.parametrize("b", [2, 5, 10])
def test_banded_counts_within_the_papers_bound(n, b):
    # the paper's O(d^2 n + m), checked on counters, not on the clock
    graph = helpers.banded(n, b, seed=n + b)
    result = count_triangles(graph, chain_sequence(n))
    c = result.counters
    assert result.width == b
    assert c.two_neighbor_pair_visits <= result.sum_red_degree_sq
    assert c.graph_update_work <= 8 * (b * n + graph.m)
    assert result.triangles == count_naive(graph)
