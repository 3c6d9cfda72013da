import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twintri.generate import cycle, complete, gnp, greedy_sequence, star, twin_sequence
from twintri.counting import count_triangles
from twintri.oracle import PlainGraph, count_naive
from twintri.sequence import ContractionSequence

import helpers


def test_known_counts():
    k3, _ = complete(3)
    assert count_naive(k3) == 1
    k5, _ = complete(5)
    assert count_naive(k5) == 10
    assert count_naive(cycle(6)) == 0


def test_plain_graph_normalizes():
    g = PlainGraph(3, [(2, 1), (1, 2), (2, 3)])
    assert g.edges == ((1, 2), (2, 3))
    assert count_naive(PlainGraph(3, g.edges + ((3, 1),))) == 1


def test_plain_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        PlainGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        PlainGraph(3, [(0, 2)])
    with pytest.raises(ValueError):
        PlainGraph(0, [])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 16), st.integers(0, 10 ** 6),
       st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]))
def test_two_variants_agree(n, seed, p):
    g = gnp(n, p, seed=seed)
    assert count_naive(g) == len(helpers.brute_triangles(n, g.edges))


def test_two_variants_agree_up_to_64():
    for n in (32, 64):
        g = gnp(n, 0.3, seed=n)
        assert count_naive(g) == len(helpers.brute_triangles(n, g.edges))


def test_cross_check_trivial_cases():
    assert count_triangles(PlainGraph(1, []), ContractionSequence(1, ())).triangles == 0
    graph, cotree = star(5)
    assert count_triangles(graph, twin_sequence(cotree, graph.n)).triangles \
        == count_naive(graph) == 0


def test_cross_check_random_graph():
    g = gnp(20, 0.3, seed=3)
    seq, _ = greedy_sequence(g)
    assert count_triangles(g, seq).triangles == count_naive(g)
