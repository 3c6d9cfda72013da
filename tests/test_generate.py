import hashlib
import itertools
from array import array
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twintri import generate
from twintri.generate import (
    FAMILIES,
    GREEDY_MAX_N,
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
from twintri.oracle import PlainGraph, _is_canonical, count_naive, id_typecode
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


def _gnp_pairs(n, p, seed):
    """gnp's graph built from a list of pairs, as gnp once built it."""
    rng = random.Random(seed)
    return PlainGraph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                          if rng.random() < p])


def _grid_pairs(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return PlainGraph(rows * cols, edges)


def test_array_builders_match_their_pair_built_graphs(monkeypatch):
    # path, cycle, grid and gnp append to canonical edge arrays; each must
    # equal the graph its pairs built, gnp with the same rng draws
    cases = []
    for n in (1, 2, 3, 4, 17):
        cases.append((path(n), PlainGraph(n, [(v, v + 1) for v in range(1, n)])))
        if n >= 3:
            cases.append((cycle(n), PlainGraph(
                n, [(v, v + 1) for v in range(1, n)] + [(n, 1)])))
        for seed in (0, 1, 9):
            for p in (0.0, 0.1, 0.5, 1.0):
                cases.append((gnp(n, p, seed), _gnp_pairs(n, p, seed)))
    for rows, cols in ((1, 1), (1, 5), (5, 1), (2, 3), (7, 4)):
        cases.append((grid(rows, cols), _grid_pairs(rows, cols)))
    for seed in (1, 2):
        cases.append((gnp(120, 0.3, seed), _gnp_pairs(120, 0.3, seed)))
    for built, expected in cases:
        assert built == expected
    seen = _recording_plain_graph(monkeypatch)
    for build in (lambda: path(6), lambda: cycle(6), lambda: grid(3, 4),
                  lambda: gnp(30, 0.4, 2)):
        build()
        n, (us, vs) = seen.pop()
        assert type(us) is array and type(vs) is array and _is_canonical(n, zip(us, vs))
    # each builder hands over arrays of id_typecode(n), on both sides of
    # the 1-byte ids' 255 vertices and the 2-byte ids' 65,535
    grids = {255: (15, 17), 256: (16, 16), 65535: (255, 257), 65536: (256, 256)}
    for n, (rows, cols) in grids.items():
        seen.clear()
        made = [path(n), cycle(n), grid(1, n), grid(rows, cols), star(n - 1)[0]]
        if n < 1000:
            made += [gnp(n, 0.05, 3), complete(n)[0], cograph(n, seed=2)[0]]
        assert len(seen) == len(made)
        for graph, (seen_n, (us, vs)) in zip(made, seen):
            assert seen_n == graph.n == n
            assert us.typecode == vs.typecode == id_typecode(n)


def test_gnp_builds_no_pair_per_edge():
    # about 8 bytes an edge, where a list of pairs took about 100
    graph = gnp(400, 0.5, seed=1)
    tracemalloc.start()
    try:
        gnp(400, 0.5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * graph.m


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


# each FAMILIES row's parameters, and its builder called directly with
# them; a row with no case here fails the test below
FAMILY_CASES = {
    "gnp": ({"n": 20, "p": 0.3}, lambda: gnp(20, 0.3, seed=3)),
    "cograph": ({"n": 20, "block_size": 4}, lambda: cograph(20, 3, block_size=4)),
    "complete": ({"n": 5}, lambda: complete(5)),
    "path": ({"n": 5}, lambda: path(5)),
    "cycle": ({"n": 5}, lambda: cycle(5)),
    "grid": ({"rows": 3, "cols": 4}, lambda: grid(3, 4)),
    "star": ({"n": 4}, lambda: star(4)),
    "petersen": ({}, petersen),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_generate_graph_builds_each_row_as_its_builder(family):
    params, direct = FAMILY_CASES[family]
    expected = direct()
    graph, cotree = generate_graph(family, seed=3, **params)
    if isinstance(expected, PlainGraph):
        assert (graph, cotree) == (expected, None)
    else:
        assert graph == expected[0]
        assert twin_sequence(cotree, graph.n) == twin_sequence(expected[1], graph.n)
    # the benchmark passes seed and block_size to every family; a
    # parameter the family does not take is ignored
    extra = {"block_size": 4, "p": 0.3, "rows": 9}
    extra.update(params)
    assert generate_graph(family, seed=3, **extra)[0] == graph


def test_gnp_p_defaults_to_half():
    assert generate_graph("gnp", seed=3, n=20)[0] == gnp(20, 0.5, seed=3) == gnp(20, seed=3)


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
    # leaves past what n's 1-byte or 2-byte ids hold are refused alike
    wide = [(Cotree("join", children=(Cotree("leaf", vertex=1), Cotree("leaf", vertex=v))),
             n) for v, n in ((300, 2), (70000, 300))]
    for root, n in [(bad, 2), (twice, 2)] + wide:
        with pytest.raises(ValueError, match="exactly 1..n"):
            cotree_graph(root, n)
        with pytest.raises(ValueError, match="exactly 1..n"):
            twin_sequence(root, n)


def test_cograph_block_variant_is_sparse():
    g, root = cograph(400, seed=1, block_size=8)
    assert g.m <= 400 * 8
    assert replay(_fresh(g), twin_sequence(root, g.n)).width == 0


# -- twin sequences ----------------------------------------------------------


def test_twin_sequence_triangle():
    g, root = complete(3)
    seq = twin_sequence(root, 3)
    assert len(seq.ends) == 4
    assert replay(_fresh(g), seq).width == 0


def test_twin_sequence_disjoint_edges():
    root = Cotree("union", children=(
        Cotree("join", children=(Cotree("leaf", vertex=1), Cotree("leaf", vertex=2))),
        Cotree("join", children=(Cotree("leaf", vertex=3), Cotree("leaf", vertex=4))),
    ))
    g = cotree_graph(root, 4)
    assert tuple(g.edges) == ((1, 2), (3, 4))
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


def test_twin_sequence_puts_the_smaller_id_first_after_a_finished_child():
    # the finished union's representative, leaf 1, is below the join's
    # representative so far, leaf 2, so the fold swaps them; cotrees with
    # their leaves in order, as the package builds them, never do
    root = Cotree("join", children=(Cotree("leaf", 2),
                                    Cotree("union", children=(Cotree("leaf", 1),))))
    assert twin_sequence(root, 2).ends == (1, 2)
    assert twin_sequence(root, 2) == helpers.twin_sequence_recursive(root, 2)


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


def _recording_plain_graph(monkeypatch):
    """Patch the generators' PlainGraph with one that records its edges."""
    seen = []

    def record(n, edges=()):
        seen.append((n, edges))
        return PlainGraph(n, edges)

    monkeypatch.setattr(generate, "PlainGraph", record)
    return seen


def test_cotree_families_emit_canonical_arrays(monkeypatch):
    # every cotree the package builds has its leaves 1..n from left to
    # right, so cotree_graph hands PlainGraph canonical arrays
    seen = _recording_plain_graph(monkeypatch)
    made = []
    for seed in range(12):
        for join_prob in (0.1, 0.5, 0.9):
            for block_size in (None, 3, 8):
                made.append(cograph(40 + seed, seed, join_prob, block_size)[0])
    for n in (1, 2, 30):
        made.append(complete(n)[0])
        made.append(star(n)[0])
    for kind_of in (lambda k: "join", lambda k: "join" if k % 3 else "union"):
        n = 50
        made.append(cotree_graph(helpers.caterpillar(n, kind_of), n))
    assert len(seen) == len(made)
    for (n, edges), graph in zip(seen, made):
        us, vs = edges
        assert type(us) is array and type(vs) is array
        assert _is_canonical(n, zip(us, vs))
        assert (graph.us, graph.vs) == (us, vs)


def _relabelled(node, label):
    if node.kind == "leaf":
        return Cotree("leaf", label[node.vertex])
    return Cotree(node.kind, children=[_relabelled(c, label) for c in node.children])


def test_cotree_graph_sorts_other_leaf_orders(monkeypatch):
    # leaves out of order give arrays PlainGraph must set and sort; the
    # graph text is still the recursive walk's
    seen = _recording_plain_graph(monkeypatch)
    rng = random.Random(5)
    trees = [(3, Cotree("join", children=(
        Cotree("leaf", 3),
        Cotree("union", children=(Cotree("leaf", 1), Cotree("leaf", 2))))))]
    for seed in range(30):
        n = rng.randint(2, 40)
        _, root = cograph(n, seed, rng.random(), rng.choice([None, 4]))
        label = [0] + rng.sample(range(1, n + 1), n)
        trees.append((n, _relabelled(root, label)))
    seen.clear()
    for n, root in trees:
        assert (format_graph(cotree_graph(root, n))
                == format_graph(helpers.cotree_graph_recursive(root, n)))
    # the hand-built tree really took the fallback
    n, (us, vs) = seen[0]
    assert not _is_canonical(n, zip(us, vs))


def test_half_dense_cograph_is_byte_identical():
    # digests of the graph and sequence texts written before the edge
    # arrays were emitted in canonical order
    graph, root = cograph(3000, seed=1)
    assert graph.m == 2_157_071
    text = format_graph(graph)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "8cff5c6ead6585d9a22f1c56dae0a3f95e186a1b48aa86c49902bf8afc116756")
    seq = twin_sequence(root, 3000)
    text = format_sequence(seq)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "2148830453093e24805cc4a817f6a480641ac874829b1a291910f451988e7ef3")
    # the count CI reads from `twintri count`, here and in closed form
    assert helpers.cotree_counts(root) == (3000, 2_157_071, 867_638_339)
    result = count_triangles(graph, seq)
    assert (result.triangles, result.side, result.width) == (867_638_339, "graph", 0)


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
    assert seq.ends == () and width == 0


def test_greedy_deterministic():
    g = gnp(16, 0.4, seed=2)
    assert greedy_sequence(g) == greedy_sequence(g)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 0.8]),
       st.integers(0, 10**6))
def test_greedy_matches_reference_on_gnp(n, p, seed):
    g = gnp(n, p, seed=seed)
    assert greedy_sequence(g) == helpers.greedy_reference(g)


@settings(max_examples=15, deadline=None)
@given(st.integers(41, 120), st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 0.8]),
       st.integers(0, 10**6))
def test_greedy_matches_reference_on_larger_gnp(n, p, seed):
    # long enough runs that a row's floor can go stale over many steps
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


@pytest.mark.parametrize("make, width, digest", [
    (lambda: gnp(300, 0.05, seed=1), 38,
     "b8ac2fdb253411c46436db758f33efa6b4ea6b4869dfc0c64150eba7e0a052c0"),
    (lambda: gnp(150, 0.3, seed=1), 56,
     "68e2f88a0a32344be2f5b47f024daad44a2df4d3f8e33738e2dcf7db9e8f5095"),
    (lambda: grid(12, 12), 5,
     "15000eb0ddf8073052c048237129ee400d8170e2364a5947b3bc2cacb3b5891b"),
    # dense: red degrees, and so the levels scanned, reach 137
    (lambda: gnp(300, 0.5, seed=2), 137,
     "e6c05b0f58f976dce23925297d98ed3d439e5b12614e10c3def37665216e8025"),
], ids=["gnp300-0.05", "gnp150-0.3", "grid12x12", "gnp300-0.5"])
def test_greedy_pinned_on_larger_graphs(make, width, digest):
    """Sequences computed by earlier greedy loops: the first three by the
    full rescan that row floors replaced, the last by the per-vertex scan
    of worst degrees that level masks replaced."""
    seq, got = greedy_sequence(make())
    assert got == width
    assert hashlib.sha256(format_sequence(seq).encode()).hexdigest() == digest


def test_greedy_refuses_graphs_above_its_limit():
    # a huge p line with one edge is refused by n before any mask exists:
    # one mask of n bits alone would take 125 kB
    graph = PlainGraph(1_000_000, [(1, 2)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"limited to {GREEDY_MAX_N} vertices "
                                             r"\(n = 1000000\)"):
            greedy_sequence(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


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
    # but not past a ceiling: no million n-bit masks are built, and exact
    # runs no greedy pass whose limit could answer for it
    graph = PlainGraph(1_000_000, [(1, 2)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^exact search is limited to \d+ "
                                             r"vertices \(1000000 given\)$"):
            exact_sequence(graph, max_n=2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _every_order(n):
    """Every contraction sequence of n vertices, each pair in id order."""
    def extend(live, pairs):
        if len(live) == 1:
            yield helpers.sequence_of(n, pairs)
            return
        fresh = n + len(pairs) + 1  # above every live id, so live stays sorted
        for u, v in itertools.combinations(live, 2):
            rest = [x for x in live if x != u and x != v]
            yield from extend(rest + [fresh], pairs + [(u, v)])
    return list(extend(list(range(1, n + 1)), []))


def test_exact_width_is_the_minimum_over_every_order():
    orders = {n: _every_order(n) for n in range(1, 6)}
    assert [len(orders[n]) for n in range(1, 6)] == [1, 1, 3, 18, 180]
    graphs = []
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            graphs.append(PlainGraph(
                n, [e for i, e in enumerate(pairs) if bits >> i & 1]))
    rng = random.Random(20)
    pairs5 = list(itertools.combinations(range(1, 6), 2))
    for _ in range(200):
        density = rng.random()
        graphs.append(PlainGraph(5, [e for e in pairs5 if rng.random() < density]))
    for g in graphs:
        best = min(replay(_fresh(g), seq).width for seq in orders[g.n])
        assert exact_sequence(g)[1] == best, (g.n, g.edges)


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
    # a child that is not a node is refused at its parent, not met by the
    # walks as an AttributeError
    for kind in ("union", "join"):
        for child in (2, None, "leaf"):
            with pytest.raises(ValueError, match=rf"^{kind} node has a child that is "
                                                 rf"not a Cotree node$"):
                Cotree(kind, children=(Cotree("leaf", 1), child))


def test_cotree_keeps_its_children_as_a_tuple():
    # a generator of children is read once; the node must walk again
    root = Cotree("union", children=(Cotree("leaf", v) for v in (1, 2)))
    assert isinstance(root.children, tuple)
    assert cotree_graph(root, 2).m == 0
    assert cotree_graph(root, 2).m == 0
    assert twin_sequence(root, 2).ends == (1, 2)
    with pytest.raises(ValueError, match="join node has no children"):
        Cotree("join", children=iter(()))


def test_cotree_refuses_unknown_kinds():
    for kind in ("Join", "UNION", "", None, "quotient"):
        with pytest.raises(ValueError, match="kind"):
            Cotree(kind, children=(Cotree("leaf", 1), Cotree("leaf", 2)))


def test_cotree_leaf_needs_one_vertex_and_no_children():
    for vertex in (None, "1", 1.0, True, 0, -3, 2 ** 31):
        with pytest.raises(ValueError, match="leaf holds one int vertex"):
            Cotree("leaf", vertex)
    with pytest.raises(ValueError, match="leaf holds one int vertex"):
        Cotree("leaf", 1, children=(Cotree("leaf", 2),))


def test_internal_cotree_node_holds_no_vertex():
    for kind in ("union", "join"):
        with pytest.raises(ValueError, match=f"{kind} node holds a vertex"):
            Cotree(kind, 1, children=(Cotree("leaf", 1), Cotree("leaf", 2)))
