"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Everything asserts exact values; the only tolerances
are the constant factors fixed in the complexity-counter criterion.
"""

import itertools
import math

from twintri.counting import check_conservation, count_triangles
from twintri.generate import (
    Cotree,
    chain_sequence,
    cograph,
    complete,
    cotree_graph,
    cycle,
    exact_sequence,
    gnp,
    greedy_sequence,
    grid,
    path,
    petersen,
    star,
    twin_sequence,
)
from twintri.oracle import PlainGraph, count_naive
from twintri.sequence import (
    ContractionSequence,
    format_sequence,
    parse_sequence,
    replay,
)
from twintri.trigraph import Trigraph

import helpers


def _fresh(graph):
    return Trigraph.from_graph(graph.edges, graph.n)


def _all_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield PlainGraph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def test_criterion_1_oracle_equivalence_exhaustive():
    checked = 0
    for n in range(1, 6):
        for graph in _all_graphs(n):
            seq, width = exact_sequence(graph)
            assert count_triangles(graph, seq).triangles == count_naive(graph)
            checked += 1
    assert checked == 1 + 2 + 8 + 64 + 1024
    print(f"\nACCEPTANCE 1 PASS: exhaustive oracle equivalence on {checked} "
          "graphs with up to 5 vertices (exact sequences)")


def test_criterion_2_oracle_equivalence_randomized():
    sizes = list(range(6, 61))
    densities = [0.1, 0.3, 0.5, 0.8]
    instances = 1000
    for i in range(instances):
        n = sizes[i % len(sizes)]
        p = densities[i % len(densities)]
        graph = gnp(n, p, seed=10_000 + i)
        seq, _ = greedy_sequence(graph)
        got = count_triangles(graph, seq).triangles
        want = count_naive(graph)
        assert got == want, f"instance {i}: n={n} p={p} {got} != {want}"
    print(f"\nACCEPTANCE 2 PASS: {instances} random instances, "
          "n in [6,60], p in {0.1,0.3,0.5,0.8}, exact agreement")


def test_criterion_3_loop_invariant_suite():
    # checked mode re-evaluates the running-total invariant after every
    # contraction and raises on the first violation
    runs = 0
    for n in range(1, 6):
        for graph in _all_graphs(n):
            seq, _ = greedy_sequence(graph)
            count_triangles(graph, seq, mode="checked")
            runs += 1
    for i in range(200):
        n = 6 + i % 7  # 6..12
        p = [0.2, 0.4, 0.6, 0.8][i % 4]
        graph = gnp(n, p, seed=20_000 + i)
        seq, _ = greedy_sequence(graph)
        count_triangles(graph, seq, mode="checked")
        runs += 1
    print(f"\nACCEPTANCE 3 PASS: invariant held after every contraction in "
          f"{runs} checked runs (all graphs n<=5 plus 200 random n<=12)")


def test_criterion_4_closed_form_families():
    for n in range(3, 201):
        graph, cotree = complete(n)
        result = count_triangles(graph, twin_sequence(cotree, n))
        assert result.triangles == math.comb(n, 3), n
        assert result.width == 0, n
    triangle_free = []
    for n in list(range(2, 31)) + [120, 250]:
        triangle_free.append((path(n), chain_sequence(n)))
    for n in list(range(4, 31)) + [120, 250]:
        triangle_free.append((cycle(n), chain_sequence(n)))
    for leaves in list(range(1, 21)) + [100]:
        graph, cotree = star(leaves)
        triangle_free.append((graph, twin_sequence(cotree, graph.n)))
    pet = petersen()
    triangle_free.append((pet, greedy_sequence(pet)[0]))
    for graph, seq in triangle_free:
        assert count_triangles(graph, seq).triangles == 0
    print("\nACCEPTANCE 4 PASS: K_n = C(n,3) for n in [3,200] at width 0; "
          f"{len(triangle_free)} triangle-free instances all count 0")


def test_criterion_5_complexity_counters():
    runs = []
    for n in (500, 1000, 2000):
        graph, cotree = cograph(n, seed=n, block_size=8)
        runs.append(("cograph", graph, twin_sequence(cotree, n)))
    edgeless = Cotree("union", children=tuple(
        Cotree("leaf", vertex=v) for v in range(1, 301)))
    runs.append(("cograph", cotree_graph(edgeless, 300), twin_sequence(edgeless, 300)))
    # one vertex black to all others: every step patches its neighbor map
    for leaves in (1000, 2000, 4000):
        graph, cotree = star(leaves)
        runs.append(("star", graph, twin_sequence(cotree, graph.n)))
    for n in (1000, 2000, 4000):
        _, blocks = cograph(n, seed=n + 1, block_size=8)
        hub = Cotree("join", children=(blocks, Cotree("leaf", vertex=n + 1)))
        runs.append(("hub", cotree_graph(hub, n + 1), twin_sequence(hub, n + 1)))
    for n in (200, 500):
        runs.append(("path", path(n), chain_sequence(n)))
        runs.append(("cycle", cycle(n), chain_sequence(n)))
    for dims in ((6, 7), (8, 8)):
        g = grid(*dims)
        runs.append(("grid", g, greedy_sequence(g)[0]))
    for seed in (1, 2):
        g = gnp(36, 0.15, seed=seed)
        runs.append(("gnp", g, greedy_sequence(g)[0]))
    for family, graph, seq in runs:
        result = count_triangles(graph, seq)
        assert result.triangles == count_naive(graph)
        c = result.counters
        d, n, m = result.width, graph.n, graph.m
        assert c.two_neighbor_pair_visits <= result.sum_red_degree_sq, family
        assert c.red_wedge_visits <= result.sum_red_degree_sq, family
        assert c.graph_update_work <= 8 * (d * n + m), (family, d, n, m)
        if family in ("cograph", "star", "hub"):
            assert d == 0
            assert c.aux_updates <= 4 * n, family
    print(f"\nACCEPTANCE 5 PASS: {len(runs)} instrumented runs satisfy "
          "pair visits <= sum d_k^2, update work <= 8(dn+m), "
          "and width-0 aux work <= 4n (cograph, star and hub)")


def test_criterion_6_conservation_invariants():
    steps = 0

    def make_checker(n, m):
        def check(step, g, inner, state):
            nonlocal steps
            check_conservation(g, inner, n, m)
            steps += 1
        return check

    # on the graph's own side, which count_triangles leaves for the
    # complement once more than half of the pairs are edges
    for i in range(2600):
        n = 12 + i % 17  # 12..28
        p = [0.15, 0.3, 0.5, 0.7][i % 4]
        graph = gnp(n, p, seed=30_000 + i)
        seq, _ = greedy_sequence(graph)
        helpers.count_on_side(graph, seq, step_callback=make_checker(n, graph.m))
    for i in range(1500):
        graph, cotree = cograph(24, seed=40_000 + i)
        seq = twin_sequence(cotree, 24)
        helpers.count_on_side(graph, seq, step_callback=make_checker(24, graph.m))
    for i in range(500):
        graph = path(40)
        helpers.count_on_side(graph, chain_sequence(40),
                              step_callback=make_checker(40, graph.m))
    assert steps >= 100_000
    print(f"\nACCEPTANCE 6 PASS: group-size and edge-mass conservation held "
          f"after all {steps} sampled contraction steps")


def test_criterion_7_sequence_tooling():
    samples = 0
    for i in range(500):
        n = 4 + i % 5  # 4..8
        p = [0.2, 0.4, 0.6, 0.8][i % 4]
        graph = gnp(n, p, seed=50_000 + i)
        exact_seq, exact_width = exact_sequence(graph)
        greedy_seq, greedy_width = greedy_sequence(graph)
        assert exact_width <= greedy_width, (i, n, p)
        assert replay(_fresh(graph), exact_seq, exact_width).valid
        assert replay(_fresh(graph), greedy_seq, greedy_width).valid
        for seq in (exact_seq, greedy_seq):
            text = format_sequence(seq)
            assert parse_sequence(text) == seq
            assert format_sequence(parse_sequence(text)) == text
        samples += 1
    print(f"\nACCEPTANCE 7 PASS: exact width <= greedy width on {samples} "
          "samples (n<=8); all emitted sequences verify at their reported "
          "width and round-trip byte-exactly")


def test_criterion_8_targeted_branch_instances():
    for name, (inst, mutant) in helpers.TARGETED_INSTANCES.items():
        n, edges, pairs = inst["n"], inst["edges"], inst["pairs"]
        graph = PlainGraph(n, edges)
        seq = ContractionSequence(n, tuple(pairs))
        expected = inst["triangles"]
        oracle = count_naive(graph)
        assert oracle == expected, name

        increments = []
        last = [0]

        def on_step(step, g, inner, state):
            increments.append(state.t - last[0])
            last[0] = state.t

        result = helpers.count_on_side(graph, seq, mode="checked",
                                       step_callback=on_step)
        assert result.triangles == expected, name
        assert count_triangles(graph, seq, mode="checked").triangles == expected, name

        # per-step attribution from an independent classification replay;
        # the schedule also proves each triangle is absorbed exactly once
        schedule = helpers.absorbed_schedule(n, edges, pairs)
        assert increments == [len(s) for s in schedule], name
        assert sum(len(s) for s in schedule) == expected, name

        # the paired mutant miscounts the same instance, so the instance
        # really drives the branch the mutant damages
        fixed = helpers.reference_count(n, edges, pairs, "fixed")
        broken = helpers.reference_count(n, edges, pairs, mutant)
        assert fixed == expected, name
        assert broken != expected, (name, broken)
    print(f"\nACCEPTANCE 8 PASS: {len(helpers.TARGETED_INSTANCES)} targeted "
          "instances count correctly with exact per-step attribution, and "
          "each kills its paired mutant")
