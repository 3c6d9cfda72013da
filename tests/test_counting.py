import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twintri.counting import (
    AuxValues,
    InternalInvariantError,
    TriangleCase,
    ABSORBED_CASES,
    check_conservation,
    classify_triangle,
    count_black_edge_collapse,
    count_triangles,
    evaluate_invariant,
    red_weight,
    tri_count_one_neighbor,
    tri_count_two_neighbors,
    update_auxiliary_values,
)
from twintri.generate import (
    chain_sequence,
    complete,
    cycle,
    gnp,
    greedy_sequence,
    path,
    petersen,
    twin_sequence,
)
from twintri.oracle import PlainGraph, count_naive
from twintri.sequence import ContractionSequence, SequenceError
from twintri.trigraph import EMPTY, RED, Trigraph

import helpers


def _aux_after(graph, pairs):
    """Build trigraph plus aux values and apply the given contractions."""
    g = Trigraph.from_graph(graph.edges, graph.n)
    aux = AuxValues.initial(graph.n)
    for step, (u, v) in enumerate(pairs):
        w = graph.n + 1 + step
        update_auxiliary_values(g, aux, u, v, w)
        g.contract(u, v, w)
    return g, aux


def _red_weights(g):
    """{(x, y): weight} over the red edges, x < y; checks both ends agree."""
    weights = {}
    for x, y in g.red_edges():
        assert g.red_adj[x][y] == g.red_adj[y][x]
        weights[(x, y)] = g.red_adj[x][y]
    return weights


# -- auxiliary value updates ----------------------------------------------


def test_aux_update_path():
    g, aux = _aux_after(path(3), [(1, 2)])
    assert g.size[4] == 2
    assert aux.inner_edges[4] == 1
    assert g.red_adj[4] == {3: 1} and g.red_adj[3] == {4: 1}
    assert _red_weights(g) == {(3, 4): 1}
    assert g.size[1] == g.size[2] == 0
    assert 1 not in aux.inner_edges and 2 not in aux.inner_edges
    assert g.red_adj[1] is g.red_adj[2] is EMPTY


def test_aux_update_triangle():
    g, aux = _aux_after(PlainGraph(3, [(1, 2), (2, 3), (1, 3)]), [(1, 2)])
    assert g.size[4] == 2
    assert aux.inner_edges[4] == 1  # the contracted black edge moves inside
    assert _red_weights(g) == {}
    assert g.red_adj[3] is g.red_adj[4] is EMPTY


def test_aux_update_disjoint_edges():
    g, aux = _aux_after(PlainGraph(4, [(1, 2), (3, 4)]), [(1, 3)])
    assert g.size[5] == 2
    assert aux.inner_edges[5] == 0
    assert g.red_adj[5] == {2: 1, 4: 1}
    assert g.red_adj[2] == {5: 1} and g.red_adj[4] == {5: 1}
    assert _red_weights(g) == {(2, 5): 1, (4, 5): 1}


def test_aux_update_merges_both_red_sides():
    # u and v each red to x: the merged count is the sum of both sides
    inst = helpers.CASE_CROSS_BOTH_RED
    g, aux = _aux_after(PlainGraph(inst["n"], inst["edges"]),
                        inst["pairs"][:3])
    assert g.red_adj[3][9] == g.red_adj[9][3] == 2


def test_missing_cross_entry_is_diagnosed():
    g, aux = _aux_after(path(3), [(1, 2)])
    del g.red_adj[3][4]
    with pytest.raises(InternalInvariantError, match=r"\{3, 4\}"):
        red_weight(g, 3, 4)
    # a step that saw {3, 4} red gets the pair named, not a KeyError
    with pytest.raises(InternalInvariantError, match=r"\{3, 4\}"):
        update_auxiliary_values(g, aux, 3, 4, 5, uv_color=RED)
    with pytest.raises(InternalInvariantError, match="weighs 1 at 4 but None at 3"):
        check_conservation(g, aux, 3, 2)


def test_conservation_rejects_bad_weights():
    g, aux = _aux_after(path(3), [(1, 2)])
    check_conservation(g, aux, 3, 2)
    g.red_adj[3][4] = g.red_adj[4][3] = 2  # groups of 1 and 2: black, not red
    with pytest.raises(InternalInvariantError, match="weighs 2 between groups of 1 and 2"):
        check_conservation(g, aux, 3, 2)
    g.red_adj[3][4] = g.red_adj[4][3] = 1
    aux.inner_edges[4] = 0
    with pytest.raises(InternalInvariantError, match="edge mass 1 != m = 2"):
        check_conservation(g, aux, 3, 2)


# -- counting procedures ---------------------------------------------------


def test_black_edge_collapse_values():
    # 1 alone, 4 = {2, 3} holding one inner edge, black to 1
    g, aux = _aux_after(PlainGraph(3, [(1, 2), (2, 3), (1, 3)]), [(2, 3)])
    assert (g.size[1], g.size[4], aux.inner_edges[1], aux.inner_edges[4]) == (1, 2, 0, 1)
    assert count_black_edge_collapse(g, aux, 1, 4) == 1
    g, aux = _aux_after(PlainGraph(2, [(1, 2)]), [])
    assert count_black_edge_collapse(g, aux, 1, 2) == 0


def test_collapse_counts_all_k4_triangles():
    graph, _ = complete(4)
    seq = ContractionSequence(4, ((1, 2), (3, 4), (5, 6)))
    increments = []
    last = [0]

    def on_step(step, g, aux, state):
        increments.append(state.t - last[0])
        last[0] = state.t

    result = count_triangles(graph, seq, step_callback=on_step)
    assert result.triangles == 4
    # the final merge of two pairs (sizes 2, inner edges 1 each) counts 2+2
    assert increments == [0, 0, 4]


def test_one_neighbor_split_black_edge():
    # x holds two originals and one inner edge; u sees it in black
    graph = PlainGraph(4, [(3, 4), (1, 3), (1, 4)])
    g, aux = _aux_after(graph, [(3, 4)])
    got = tri_count_one_neighbor(g, aux, 1, 2, 6, 5)
    assert got == g.size[1] * aux.inner_edges[5] == 1


def test_one_neighbor_nothing_black():
    graph = PlainGraph(4, [(3, 4)])
    g, aux = _aux_after(graph, [(3, 4)])
    assert tri_count_one_neighbor(g, aux, 1, 2, 6, 5) == 0


def test_one_neighbor_with_red_side_of_black_pair():
    # u black to x, v red to x with two hidden edges, u-v black:
    # the wedge contributes those two edges on top of the inner-edge term
    edges = [(3, 4), (2, 3), (5, 4), (1, 3), (1, 4), (1, 2), (1, 5)]
    g, aux = _aux_after(PlainGraph(6, edges), [(3, 4), (2, 5)])
    assert g.red_adj[7][8] == g.red_adj[8][7] == 2
    got = tri_count_one_neighbor(g, aux, 1, 8, 9, 7)
    base = g.size[1] * aux.inner_edges[7] + g.size[7] * aux.inner_edges[1]
    assert got == base + 2 and base == 1


def test_two_neighbors_no_red_neighbors():
    graph, _ = complete(3)
    g = Trigraph.from_graph(graph.edges, 3)
    aux = AuxValues.initial(3)
    assert tri_count_two_neighbors(g, aux, 1, 2, 4) == 0


def test_two_neighbors_black_pair_product():
    inst = helpers.CASE_SYMMETRIC_BLACK_PAIR
    g = Trigraph.from_graph(PlainGraph(inst["n"], inst["edges"]).edges, inst["n"])
    aux = AuxValues.initial(inst["n"])
    assert tri_count_two_neighbors(g, aux, 1, 2, 5) == 1


def test_two_neighbors_red_pair_cross():
    inst = helpers.CASE_SYMMETRIC_RED_PAIR
    g, aux = _aux_after(PlainGraph(inst["n"], inst["edges"]), inst["pairs"][:1])
    assert tri_count_two_neighbors(g, aux, 1, 2, 7) == 1


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
        count_triangles(graph, ContractionSequence(3, ((1, 2), (4, 3))))
    with pytest.raises(SequenceError):
        count_triangles(graph, ContractionSequence(4, ((1, 2), (1, 3), (5, 4))))


def test_checked_mode_gate():
    graph = path(70)
    seq = chain_sequence(70)
    with pytest.raises(ValueError):
        count_triangles(graph, seq, mode="checked")
    assert count_triangles(graph, seq, mode="checked", checked_limit=70).triangles == 0


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        count_triangles(path(2), ContractionSequence(2, ((1, 2),)), mode="slow")


# -- invariants ------------------------------------------------------------


def test_invariant_at_start_reduces_to_black_triangles():
    graph = gnp(10, 0.5, seed=2)
    g = Trigraph.from_graph(graph.edges, 10)
    aux = AuxValues.initial(10)
    oracle = count_naive(graph)
    assert evaluate_invariant(g, aux, 0, oracle)
    assert not evaluate_invariant(g, aux, 0, oracle + 1)


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

        def check(step, g, aux, state):
            check_conservation(g, aux, n, m)

        count_triangles(graph, seq, step_callback=check)


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

    def on_step(step, g, aux, state):
        u, v = seq.pairs[step]
        members[seq.new_id(step)] = members.pop(u) + members.pop(v)
        assert sorted(members) == g.live_vertices()
        for x, group in members.items():
            assert g.size[x] == len(group)
            assert 2 * aux.inner_edges[x] == sum(len(adj[a].intersection(group))
                                                 for a in group)
        for x, y in itertools.combinations(sorted(members), 2):
            crossing = sum(len(adj[a].intersection(members[y])) for a in members[x])
            if crossing == 0:
                assert y not in g.black_adj[x] and y not in g.red_adj[x]
            elif crossing == g.size[x] * g.size[y]:
                assert y in g.black_adj[x] and y not in g.red_adj[x]
            else:
                assert g.red_adj[x][y] == g.red_adj[y][x] == crossing, (step, x, y)

    count_triangles(graph, seq, step_callback=on_step)


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

        def on_step(step, g, aux, state):
            c = state.counters
            d_after = g.max_red_degree()
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
                        step_callback=lambda s, g, a, st_: trace.append(st_.t))
        assert trace == sorted(trace)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 24), st.integers(0, 10 ** 6),
       st.sampled_from([0.15, 0.35, 0.6, 0.85]))
def test_counter_matches_oracle(n, seed, p):
    graph = gnp(n, p, seed=seed)
    seq, _ = greedy_sequence(graph)
    assert count_triangles(graph, seq).triangles == count_naive(graph)


def _random_sequence(n, rng):
    """Uniformly random contraction order, no width control at all."""
    live = list(range(1, n + 1))
    pairs = []
    for j in range(n - 1):
        u, v = rng.sample(live, 2)
        pairs.append((u, v))
        live.remove(u)
        live.remove(v)
        live.append(n + 1 + j)
    return ContractionSequence(n, tuple(pairs))


def test_arbitrary_sequences_match_oracle():
    # generated sequences keep the width low; random orders push it toward
    # n and hit the dense-red regime
    rng = random.Random(8080)
    for trial in range(200):
        n = rng.randint(2, 36)
        graph = gnp(n, rng.random(), seed=trial + 700)
        seq = _random_sequence(n, rng)
        assert count_triangles(graph, seq).triangles == count_naive(graph)


def test_arbitrary_sequences_survive_checked_mode():
    rng = random.Random(9090)
    for trial in range(80):
        n = rng.randint(2, 12)
        graph = gnp(n, rng.random(), seed=trial + 800)
        seq = _random_sequence(n, rng)
        result = count_triangles(graph, seq, mode="checked")
        assert result.triangles == count_naive(graph)


def test_pair_order_within_step_does_not_matter():
    rng = random.Random(66)
    for trial in range(40):
        n = rng.randint(3, 16)
        graph = gnp(n, 0.5, seed=trial + 900)
        seq, _ = greedy_sequence(graph)
        flipped = ContractionSequence(n, tuple((v, u) for u, v in seq.pairs))
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


# -- attribution -----------------------------------------------------------


def _step_increments(graph, seq):
    increments = []
    last = [0]

    def on_step(step, g, aux, state):
        increments.append(state.t - last[0])
        last[0] = state.t

    result = count_triangles(graph, seq, step_callback=on_step)
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


def test_classify_triangle_matches_independent_rule():
    rng = random.Random(41)
    for trial in range(30):
        n = rng.randint(3, 7)
        graph = gnp(n, 0.6, seed=trial + 90)
        seq, _ = greedy_sequence(graph)
        triangles = helpers.brute_triangles(n, list(graph.edges))
        if not triangles:
            continue
        g = Trigraph.from_graph(graph.edges, n)
        group_of = {v: v for v in range(1, n + 1)}
        members = {v: [v] for v in range(1, n + 1)}
        name = {
            TriangleCase.THREE_BLACK: "three_black",
            TriangleCase.TWO_BLACK: "two_black",
            TriangleCase.ONE_BLACK: "one_black",
            TriangleCase.ALL_RED: "all_red",
            TriangleCase.SPLIT_BLACK: "split_black",
            TriangleCase.SPLIT_RED: "split_red",
            TriangleCase.INSIDE: "inside",
        }
        adj = {v: set() for v in range(1, n + 1)}
        for a, b in graph.edges:
            adj[a].add(b)
            adj[b].add(a)

        def pair_color(x, y):
            gx, gy = members[x], members[y]
            crossing = sum(1 for a in gx for b in gy if b in adj[a])
            if crossing == 0:
                return None
            if crossing == len(gx) * len(gy):
                return "b"
            return "r"

        for step, (u, v) in enumerate(seq.pairs):
            w = n + 1 + step
            g.contract(u, v, w)
            members[w] = members.pop(u) + members.pop(v)
            for a in members[w]:
                group_of[a] = w
            for tri in triangles:
                case = classify_triangle(g, group_of, tri)
                assert name[case] == helpers.triangle_case(tri, group_of, pair_color)
                assert (case in ABSORBED_CASES) == \
                    (name[case] in helpers.ABSORBING)
