import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twintri.generate import (
    Cotree,
    chain_sequence,
    cograph,
    complete,
    cotree_graph,
    cycle,
    exact_sequence,
    generate_graph,
    gnp,
    greedy_sequence,
    grid,
    path,
    petersen,
    star,
    twin_sequence,
)
from twintri.counting import count_triangles
from twintri.graphio import format_graph
from twintri.oracle import PlainGraph, count_naive
from twintri.sequence import ContractionSequence, format_sequence, replay
from twintri.trigraph import Trigraph

import helpers


def _fresh(graph):
    return Trigraph.from_graph(graph.edges, graph.n)


# -- families ---------------------------------------------------------------


def test_complete_family():
    g, _ = complete(5)
    assert g.n == 5 and g.m == 10


def test_path_cycle_grid_star():
    assert path(4).m == 3
    assert cycle(6).m == 6
    g = grid(3, 4)
    assert g.n == 12 and g.m == 3 * 3 + 2 * 4
    s, _ = star(5)
    assert s.n == 6 and s.m == 5
    assert count_naive(petersen()) == 0 and petersen().m == 15


def test_gnp_deterministic():
    a = gnp(20, 0.3, seed=7)
    b = gnp(20, 0.3, seed=7)
    c = gnp(20, 0.3, seed=8)
    assert a == b
    assert a != c  # overwhelmingly likely and fixed by the seeds chosen


def test_generate_graph_dispatch():
    g, cot = generate_graph("cograph", seed=3, n=12)
    assert g.n == 12 and cot is not None
    g2, cot2 = generate_graph("path", n=5)
    assert g2.m == 4 and cot2 is None
    g3, _ = generate_graph("grid", rows=3, cols=4)
    assert (g3.n, g3.m) == (12, 17)
    with pytest.raises(KeyError):  # a grid takes no default size
        generate_graph("grid", n=4)
    with pytest.raises(ValueError):
        generate_graph("mystery", n=3)


def test_cotree_graph_matches_join_semantics():
    # edges are exactly the pairs whose lowest common ancestor is a join
    rng = random.Random(13)
    for trial in range(20):
        n = rng.randint(2, 10)
        g, root = cograph(n, seed=trial)

        def lca_kind(x, y, node):
            if node.kind == "leaf":
                return None
            for child in node.children:
                leaves = set(helpers.leaves_recursive(child))
                if x in leaves and y in leaves:
                    return lca_kind(x, y, child)
            return node.kind

        expected = set()
        for x, y in itertools.combinations(range(1, n + 1), 2):
            if lca_kind(x, y, root) == "join":
                expected.add((x, y))
        assert set(g.edges) == expected


def test_cotree_graph_rejects_bad_leaves():
    # both walks check the leaves they meet; cotree_graph checks before
    # it builds the graph, so a repeated joined leaf is not a self-loop
    bad = Cotree("union", children=(Cotree("leaf", vertex=1), Cotree("leaf", vertex=3)))
    twice = Cotree("join", children=(Cotree("leaf", vertex=1), Cotree("leaf", vertex=1)))
    for root in (bad, twice):
        with pytest.raises(ValueError, match="exactly 1..n"):
            cotree_graph(root, 2)
        with pytest.raises(ValueError, match="exactly 1..n"):
            twin_sequence(root, 2)


def test_cograph_block_variant_is_sparse():
    g, root = cograph(400, seed=1, block_size=8)
    assert g.m <= 400 * 8
    assert replay(_fresh(g), twin_sequence(root, g.n)).width == 0


# -- twin sequences ----------------------------------------------------------


def test_twin_sequence_triangle():
    g, root = complete(3)
    seq = twin_sequence(root, 3)
    assert len(seq.pairs) == 2
    assert replay(_fresh(g), seq).width == 0


def test_twin_sequence_disjoint_edges():
    root = Cotree("union", children=(
        Cotree("join", children=(Cotree("leaf", vertex=1), Cotree("leaf", vertex=2))),
        Cotree("join", children=(Cotree("leaf", vertex=3), Cotree("leaf", vertex=4))),
    ))
    g = cotree_graph(root, 4)
    assert g.edges == ((1, 2), (3, 4))
    report = replay(_fresh(g), twin_sequence(root, 4))
    assert report.valid and report.width == 0


def test_twin_sequence_large_random_cotree():
    g, root = cograph(40, seed=9)
    report = replay(_fresh(g), twin_sequence(root, 40))
    assert report.valid and report.width == 0


def test_cotree_walks_match_recursive_reference():
    # the iterative walks give the same graph text and sequence as
    # the recursive ones did, on binary, n-ary and block-union cotrees
    rng = random.Random(21)
    trees = []
    for seed in range(40):
        n = rng.randint(1, 60)
        _, root = cograph(n, seed=seed, join_prob=rng.random(),
                          block_size=rng.choice([None, 3, 8]))
        trees.append((n, root))
    for n in (1, 2, 7):
        trees.append((n, complete(n)[1]))
    for leaves in (1, 2, 9):
        trees.append((leaves + 1, star(leaves)[1]))
    _, blocks = cograph(50, seed=3, block_size=8)
    trees.append((51, Cotree("join", children=(blocks, Cotree("leaf", vertex=51)))))
    for n, root in trees:
        assert (format_graph(cotree_graph(root, n))
                == format_graph(helpers.cotree_graph_recursive(root, n)))
        assert twin_sequence(root, n) == helpers.twin_sequence_recursive(root, n)


def test_deep_cotrees_do_not_recurse():
    # a caterpillar is as deep as it has leaves; the recursive walks
    # raised RecursionError at 3000
    n = 5000
    alternating = helpers.caterpillar(n, lambda k: "join" if k % 2 else "union")
    # every level folds the product of the levels below with its own leaf
    assert twin_sequence(alternating, n) == chain_sequence(n)
    # its graph has about n^2/4 edges, so the graph is built from one that
    # joins at every 100th level only: such a leaf k is adjacent to 1..k-1
    joins = range(100, n + 1, 100)
    sparse = helpers.caterpillar(n, lambda k: "join" if k % 100 == 0 else "union")
    graph = cotree_graph(sparse, n)
    assert graph.m == sum(k - 1 for k in joins)
    # a triangle's highest corner is a join leaf over an edge below it
    triangles = sum(j - 1 for k in joins for j in joins if j < k)
    result = count_triangles(graph, twin_sequence(sparse, n))
    assert (result.triangles, result.width) == (triangles, 0)


# -- chain sequences ----------------------------------------------------------


def test_chain_sequence_widths():
    for n in (2, 5, 30):
        assert replay(_fresh(path(n)), chain_sequence(n)).width <= 1
    for n in (4, 9, 30):
        assert replay(_fresh(cycle(n)), chain_sequence(n)).width == 2


# -- greedy -------------------------------------------------------------------


def test_greedy_on_cographs_is_width_zero():
    for seed in range(10):
        g, _ = cograph(18, seed=seed)
        seq, width = greedy_sequence(g)
        assert width == 0
        report = replay(_fresh(g), seq)
        assert report.valid and report.width == 0


def test_greedy_complete_graph():
    g, _ = complete(9)
    seq, width = greedy_sequence(g)
    assert width == 0


def test_greedy_self_consistent_width():
    g = gnp(30, 0.5, seed=12)
    seq, width = greedy_sequence(g)
    report = replay(_fresh(g), seq, width)
    assert report.valid and report.width == width


def test_greedy_single_vertex():
    seq, width = greedy_sequence(PlainGraph(1, []))
    assert seq.pairs == () and width == 0


def test_greedy_deterministic():
    g = gnp(16, 0.4, seed=2)
    assert greedy_sequence(g) == greedy_sequence(g)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 0.8]),
       st.integers(0, 10**6))
def test_greedy_matches_reference_on_gnp(n, p, seed):
    g = gnp(n, p, seed=seed)
    assert greedy_sequence(g) == helpers.greedy_reference(g)


FIXED_GRAPHS = {
    "cograph-blocks": cograph(60, seed=4, block_size=8)[0],
    "K20": complete(20)[0],
    "grid6x7": grid(6, 7),
    "petersen": petersen(),
    "star": star(15)[0],
    "cycle": cycle(17),
    "path": path(20),
    "single": PlainGraph(1, []),
    "edgeless": PlainGraph(12, []),
}


@pytest.mark.parametrize("name", FIXED_GRAPHS)
def test_greedy_matches_reference_on_fixed_graphs(name):
    graph = FIXED_GRAPHS[name]
    assert greedy_sequence(graph) == helpers.greedy_reference(graph)


def test_greedy_pinned_on_benchmark_graph():
    """The benchmark's seed-1 gnp-greedy input keeps its exact sequence."""
    seq, width = greedy_sequence(gnp(200, 0.1, seed=1))
    assert width == 39
    digest = hashlib.sha256(format_sequence(seq).encode()).hexdigest()
    assert digest == "a985a977615a08b7847e43b1742cf323b364566314217cfdae8bb82eb2b93184"


# -- exact --------------------------------------------------------------------


def test_exact_known_widths():
    g4, _ = complete(4)
    assert exact_sequence(g4)[1] == 0
    assert exact_sequence(path(4))[1] == 1
    assert exact_sequence(cycle(5))[1] == 2
    assert exact_sequence(PlainGraph(1, [])) == (ContractionSequence(1, ()), 0)


def test_exact_refuses_large_graphs():
    with pytest.raises(ValueError):
        exact_sequence(gnp(10, 0.5, seed=0))
    # and the limit is adjustable
    seq, width = exact_sequence(path(4), max_n=4)
    assert width == 1


def test_exact_never_worse_than_greedy_small():
    pairs4 = list(itertools.combinations(range(1, 7), 2))
    rng = random.Random(3)
    for trial in range(40):
        edges = [e for e in pairs4 if rng.random() < 0.45]
        g = PlainGraph(6, edges)
        es, ew = exact_sequence(g)
        gs, gw = greedy_sequence(g)
        assert ew <= gw
        assert replay(_fresh(g), es, ew).valid


def test_exact_stable_across_runs():
    for bits in range(0, 64, 7):
        pairs = list(itertools.combinations(range(1, 5), 2))
        edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
        g = PlainGraph(4, edges)
        assert exact_sequence(g) == exact_sequence(g)


def test_exact_terminates_on_all_five_vertex_connected_graphs():
    pairs = list(itertools.combinations(range(1, 6), 2))
    seen = 0
    for bits in range(1024):
        edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
        g = PlainGraph(5, edges)
        # connectivity check by hand
        adj = {v: set() for v in range(1, 6)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        stack, seen_v = [1], {1}
        while stack:
            for x in adj[stack.pop()]:
                if x not in seen_v:
                    seen_v.add(x)
                    stack.append(x)
        if len(seen_v) < 5:
            continue
        seq, width = exact_sequence(g)
        assert replay(_fresh(g), seq, width).valid
        seen += 1
    assert seen > 0


def test_every_generated_sequence_verifies_its_width():
    rng = random.Random(21)
    for trial in range(20):
        g = gnp(rng.randint(2, 24), rng.choice([0.2, 0.5]), seed=trial)
        seq, width = greedy_sequence(g)
        assert replay(_fresh(g), seq, width).valid
    for seed in range(5):
        g, root = cograph(30, seed=seed)
        seq = twin_sequence(root, 30)
        assert replay(_fresh(g), seq, 0).valid


def test_deep_cotrees_compare_hash_and_print():
    # generated dataclass methods would walk the children and recurse
    a = helpers.caterpillar(5000, lambda k: "join" if k % 2 else "union")
    assert a == a and a != helpers.caterpillar(2, lambda k: "join")
    assert isinstance(hash(a), int) and repr(a).startswith("<")


def test_internal_cotree_node_needs_children():
    for kind in ("union", "join"):
        with pytest.raises(ValueError, match="no children"):
            Cotree(kind)
    with pytest.raises(ValueError, match="no children"):
        Cotree("union", children=(Cotree("leaf", vertex=1), Cotree("join"),
                                  Cotree("leaf", vertex=2)))
