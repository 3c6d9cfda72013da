import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twintri import generate
from twintri.trigraph import BLACK, EMPTY, NONE, RED, EdgeColor, Trigraph

import helpers


def test_from_graph_triangle():
    g = Trigraph.from_graph([(1, 2), (2, 3), (1, 3)], 3)
    assert list(helpers.black_edges(g)) == [(1, 2), (1, 3), (2, 3)]
    assert list(helpers.red_edges(g)) == []
    assert helpers.live_vertices(g) == [1, 2, 3]


def test_from_graph_single_vertex():
    g = Trigraph.from_graph([], 1)
    assert helpers.live_vertices(g) == [1]
    assert list(helpers.black_edges(g)) == []


def test_from_graph_dedups_symmetric_pairs():
    g = Trigraph.from_graph([(1, 2), (2, 1)], 2)
    assert list(helpers.black_edges(g)) == [(1, 2)]


def test_from_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Trigraph.from_graph([(2, 2)], 3)


def test_from_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        Trigraph.from_graph([(1, 4)], 3)


def test_from_graph_names_an_edge_with_a_non_int_endpoint():
    for edges, named in [([(1.0, 2.0)], r"\(1\.0, 2\.0\)"),
                         ([(1, 2), (2, 3.0)], r"\(2, 3\.0\)")]:
        with pytest.raises(ValueError,
                           match=rf"^edge {named} has an endpoint that is not an int$"):
            Trigraph.from_graph(edges, 3)


def test_edge_color_triangle():
    g = Trigraph.from_graph([(1, 2), (2, 3), (1, 3)], 3)
    assert g.edge_color(1, 2) is BLACK
    with pytest.raises(ValueError):
        g.edge_color(1, 1)


def test_edge_color_after_path_contraction():
    # 3 is adjacent to 2 but not 1, so the merged vertex sees it in red
    g = Trigraph.from_graph([(1, 2), (2, 3)], 3)
    g.contract(1, 2)
    assert g.edge_color(4, 3) is RED
    with pytest.raises(ValueError):
        g.edge_color(1, 3)  # 1 is dead


def test_contract_triangle_keeps_black():
    g = Trigraph.from_graph([(1, 2), (2, 3), (1, 3)], 3)
    g.contract(1, 2)
    assert g.edge_color(4, 3) is BLACK


def test_contract_path_endpoints_black():
    g = Trigraph.from_graph([(1, 2), (2, 3)], 3)
    g.contract(1, 3)
    assert g.edge_color(4, 2) is BLACK


def test_contract_rejects_dead_vertex():
    # n = 3: after one contraction 1 and 2 are dead, 4 is live, 5 is not
    # yet created, and 6 = 2n is past every id the trigraph hands out
    g = Trigraph.from_graph([(1, 2), (2, 3)], 3)
    g.contract(1, 2)
    for u, v, bad in [(1, 3, 1), (3, 2, 2), (0, 3, 0), (3, -1, -1), (5, 3, 5),
                      (3, 6, 6), (4, 99, 99)]:
        with pytest.raises(ValueError, match=rf"^vertex {bad} is not live$"):
            g.contract(u, v)
    with pytest.raises(ValueError, match="^cannot contract a vertex with itself$"):
        g.contract(3, 3)
    helpers.check_consistent(g)
    assert g.contract(3, 4) == 5
    # -1 would index the last vertex, 5 = 2n - 1, which is now live
    with pytest.raises(ValueError, match=r"^vertex -1 is not live$"):
        g.contract(-1, 5)


def test_run_names_a_non_int_id_and_passes_other_type_errors_on():
    g = Trigraph.from_graph([(1, 2), (2, 3)], 3)
    with pytest.raises(ValueError, match=r"^vertex 4\.5 is not an int$"):
        g.run(((1, 2), (4.5, 3)))
    helpers.check_consistent(g)
    assert helpers.live_vertices(g) == [3, 4]

    def hook(step):
        raise TypeError("the hook's own")

    # a TypeError on a pair of ints is not the pair's
    with pytest.raises(TypeError, match="^the hook's own$"):
        g.run(((3, 4),), after=hook)
    with pytest.raises(TypeError, match="cannot unpack"):
        Trigraph(3).run((5,))


def test_red_degrees():
    g = Trigraph.from_graph([(1, 2), (2, 3), (1, 3)], 3)
    assert helpers.max_red_degree(g) == 0
    p = Trigraph.from_graph([(1, 2), (2, 3)], 3)
    p.contract(1, 2)
    assert helpers.by_id(p)[4] == (2, set(), {3: 1})
    assert helpers.max_red_degree(p) == 1
    # 2 has the larger black map, so it names 4 and 1 is merged away
    assert p.rep[4] == 2 and p.red_adj[1] is EMPTY


def test_star_leaf_twins_stay_red_free():
    g = Trigraph.from_graph([(1, 2), (1, 3), (1, 4)], 4)
    g.contract(2, 3)
    assert helpers.max_red_degree(g) == 0
    assert g.edge_color(5, 1) is BLACK


def test_serialize_is_canonical():
    g1 = Trigraph.from_graph([(2, 3), (1, 2)], 3)
    g2 = Trigraph.from_graph([(1, 2), (3, 2)], 3)
    assert helpers.serialize(g1) == helpers.serialize(g2)
    g1.contract(1, 2)
    g2.contract(1, 2)
    assert helpers.serialize(g1) == helpers.serialize(g2)
    assert "r 3 4 1" in helpers.serialize(g1)


def test_serialize_shows_red_weights_and_sizes():
    # same colours, red weight 1 against 2
    g1 = Trigraph.from_graph([(1, 3)], 4)
    g2 = Trigraph.from_graph([(1, 3), (2, 4)], 4)
    for g in (g1, g2):
        g.contract(1, 2)
        g.contract(3, 4)
    assert list(helpers.red_edges(g1)) == list(helpers.red_edges(g2)) == [(5, 6)]
    assert helpers.serialize(g1) != helpers.serialize(g2)
    assert "r 5 6 1" in helpers.serialize(g1) and "r 5 6 2" in helpers.serialize(g2)
    # same live ids on an edgeless graph, group sizes 1, 3, 2 against 1, 2, 3
    g3, g4 = Trigraph(6), Trigraph(6)
    for g, steps in ((g3, [(1, 2), (7, 3), (4, 5)]), (g4, [(1, 2), (3, 4), (7, 5)])):
        for u, v in steps:
            g.contract(u, v)
    assert helpers.live_vertices(g3) == helpers.live_vertices(g4) == [6, 8, 9]
    assert helpers.serialize(g3) == "live 6 8 9\nsize 1 3 2\n"
    assert helpers.serialize(g4) == "live 6 8 9\nsize 1 2 3\n"


def _random_graph(rng, n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return [e for e in pairs if rng.random() < rng.choice([0.2, 0.5, 0.8])]


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_contraction_matches_pairwise_rule(n, rng):
    """Colors after every contraction must match the pair-by-pair rule
    evaluated by an independent implementation."""
    edges = _random_graph(rng, n)
    g = Trigraph.from_graph(edges, n)
    colors = {helpers.key(u, v): "b" for u, v in helpers.black_edges(g)}
    live = set(range(1, n + 1))
    tag = {BLACK: "b", RED: "r", NONE: None}
    while len(live) > 1:
        u, v = rng.sample(sorted(live), 2)
        w = g.contract(u, v)
        live, colors = helpers.apply_contraction(colors, live, u, v, w)
        helpers.check_consistent(g)
        assert helpers.live_vertices(g) == sorted(live)
        for a, b in itertools.combinations(sorted(live), 2):
            assert tag[g.edge_color(a, b)] == colors.get(helpers.key(a, b))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_exactly_one_color_per_pair(n, rng):
    edges = _random_graph(rng, n)
    g = Trigraph.from_graph(edges, n)
    while len(helpers.live_vertices(g)) > 1:
        live = helpers.live_vertices(g)
        for a, b in itertools.combinations(live, 2):
            # edge_color returning exactly one member is the partition claim;
            # also black and red never share a pair
            c = g.edge_color(a, b)
            assert isinstance(c, EdgeColor)
            in_black = g.rep[b] in g.black_adj[g.rep[a]]
            in_red = g.rep[b] in g.red_adj[g.rep[a]]
            assert not (in_black and in_red)
            assert (c is BLACK) == in_black
            assert (c is RED) == in_red
        u, v = rng.sample(live, 2)
        g.contract(u, v)


def test_vertex_count_decreases_to_one():
    rng = random.Random(7)
    for n in (2, 4, 6, 9):
        g = Trigraph.from_graph(_random_graph(rng, n), n)
        for k in range(n - 1):
            u, v = rng.sample(helpers.live_vertices(g), 2)
            g.contract(u, v)
            assert len(helpers.live_vertices(g)) == n - 1 - k
        assert len(helpers.live_vertices(g)) == 1


def test_isolated_vertices_share_the_empty_map():
    # disconnected input with isolated vertices is allowed
    g = Trigraph.from_graph([(1, 2)], 5)
    assert g.black_adj[3] is g.red_adj[3] is EMPTY
    g.contract(3, 4)
    assert g.black_adj[g.rep[6]] is g.red_adj[g.rep[6]] is EMPTY
    g.contract(6, 5)
    g.contract(1, 7)
    helpers.check_consistent(g)
    assert helpers.live_vertices(g) == [2, 8]
    assert helpers.by_id(g) == {2: (1, set(), {8: 1}), 8: (4, set(), {2: 1})}
    # 1 names 8; the isolated vertices 3, 4 and 5 were merged away
    assert all(g.black_adj[r] is g.red_adj[r] is EMPTY for r in (3, 4, 5))


def _set_red(g, x, y, weight):
    x, y = g.rep[x], g.rep[y]
    if g.red_adj[x] is EMPTY:
        g.red_adj[x] = {}
    g.red_adj[x][y] = weight


@pytest.mark.parametrize("mutate, message", [
    (lambda g: _set_red(g, 4, 5, 2), "asymmetric red edge 4,5"),
    (lambda g: g.black_adj[g.rep[5]].pop(2), "asymmetric black edge 2,5"),
    (lambda g: (_set_red(g, 4, 5, 2), _set_red(g, 5, 4, 2)),
     "red edge 4,5 weighs 2 for groups of 1 and 2"),
    (lambda g: (_set_red(g, 4, 5, 0), _set_red(g, 5, 4, 0)),
     "red edge 4,5 weighs 0 for groups of 1 and 2"),
    (lambda g: (_set_red(g, 2, 5, 1), _set_red(g, 5, 2, 1)),
     "pair both black and red at 2"),
    (lambda g: g.black_adj.__setitem__(1, {}), "dead vertex 1 holds its own map"),
])
def test_check_consistent_catches_each_broken_invariant(mutate, message):
    # path 1-2-3-4 after contracting 1 and 3: 5 = {1, 3} is black to 2
    # and red to 4 with one hidden edge; 3 names 5, 1 is merged away
    g = Trigraph.from_graph([(1, 2), (2, 3), (3, 4)], 4)
    g.contract(1, 3)
    helpers.check_consistent(g)
    assert helpers.by_id(g)[5] == (2, {2}, {4: 1}) and g.rep[5] == 3
    mutate(g)
    with pytest.raises(AssertionError, match=message):
        helpers.check_consistent(g)


def _equivalence_case(kind, n, seed):
    """(graph, sequence) of one kind: greedy and random orders on gnp, the
    twin sequences of a cograph, of K_n and of a star, whose hub merges
    last."""
    if kind == "complete":
        graph, cotree = generate.complete(n)
        return graph, generate.twin_sequence(cotree, n)
    if kind == "star":
        graph, cotree = generate.star(n - 1)
        return graph, generate.twin_sequence(cotree, n)
    if kind == "cograph":
        graph, cotree = generate.cograph(n, seed=seed, block_size=4)
        return graph, generate.twin_sequence(cotree, n)
    graph = generate.gnp(n, random.Random(seed).choice([0.2, 0.5, 0.8]), seed=seed)
    if kind == "greedy":
        return graph, generate.greedy_sequence(graph)[0]
    return graph, helpers.random_sequence(n, random.Random(seed))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["greedy", "random", "cograph", "complete", "star"]),
       st.integers(2, 30), st.integers(0, 10 ** 6))
def test_representatives_match_the_id_keyed_reference(kind, n, seed):
    # after every step the trigraph, read by id, equals the id-keyed
    # contraction's, and contracting (v, u) instead of (u, v) leaves the
    # same state, so which end's representative survives never shows
    graph, seq = _equivalence_case(kind, n, seed)
    reference = helpers.IdKeyedTrigraph.from_graph(graph.edges, n)
    g = Trigraph.from_graph(graph.edges, n)
    flipped = Trigraph.from_graph(graph.edges, n)
    for u, v in seq.pairs:
        w = reference.contract(u, v)
        assert g.contract(u, v) == flipped.contract(v, u) == w
        assert helpers.by_id(g) == helpers.by_id(flipped) == helpers.by_id(reference)
        assert (helpers.max_red_degree(g) == helpers.max_red_degree(flipped)
                == reference.max_red_degree())
        assert g.update_work == flipped.update_work == reference.update_work
        helpers.check_consistent(g)
        helpers.check_consistent(flipped)
