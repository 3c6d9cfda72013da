import math
import random
import time
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twintri.generate import (FAMILIES, chain_sequence, cograph, cycle, complete,
                               generate_graph, gnp, greedy_sequence, path, star,
                               twin_sequence)
from twintri.graphio import format_graph
from twintri.counting import count_triangles
from twintri.oracle import MAX_N, PlainGraph, count_naive, id_typecode
from twintri.sequence import ContractionSequence, format_sequence
from twintri.trigraph import Trigraph

import helpers


def test_known_counts():
    k3, _ = complete(3)
    assert count_naive(k3) == 1
    k5, _ = complete(5)
    assert count_naive(k5) == 10
    assert count_naive(cycle(6)) == 0


def test_plain_graph_normalizes():
    g = PlainGraph(3, [(2, 1), (1, 2), (2, 3)])
    assert tuple(g.edges) == ((1, 2), (2, 3))
    assert count_naive(PlainGraph(3, (*g.edges, (3, 1)))) == 1


def test_plain_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        PlainGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        PlainGraph(3, [(0, 2)])
    with pytest.raises(ValueError):
        PlainGraph(0, [])
    with pytest.raises(ValueError, match="n = 2147483648"):
        PlainGraph(2 ** 31, [])
    with pytest.raises(ValueError, match="leaves the vertex range"):
        PlainGraph(3, [(1, 2 ** 31)])
    # a pair of the wrong arity, first or after a canonical pair
    for bad in ((1, 2, 3), (1,)):
        for edges in ([bad], [(1, 2), bad]):
            with pytest.raises(ValueError):
                PlainGraph(3, edges)


_NOT_INTS = (True, False, 2.5, "3")
_NOT_NUMBERS = (True, False, "x", None)


def _vertex_count(entry, build, lowest=0):
    """A row for an entry that takes a vertex count: lowest is the
    largest int below the entry's bound."""
    return entry, build, "vertex count", "an int", _NOT_INTS, (lowest, MAX_N + 1)


# Every public entry that takes a vertex count: the lowest int it refuses
# is the family's own bound for star, cycle and grid, 0 elsewhere.  Then
# each builder argument that is a count or a probability.  Each row has
# the argument's name and kind, as its messages say them, the values of
# the wrong type and the values out of range
_COUNT_TAKERS = [
    _vertex_count("PlainGraph", lambda n: PlainGraph(n)),
    _vertex_count("ContractionSequence", lambda n: ContractionSequence(n, ())),
    _vertex_count("Trigraph", Trigraph),
    _vertex_count("Trigraph.from_graph", lambda n: Trigraph.from_graph([], n)),
    _vertex_count("chain_sequence", chain_sequence),
    _vertex_count("grid-rows", lambda n: generate_graph("grid", rows=n, cols=3)),
    _vertex_count("grid-cols", lambda n: generate_graph("grid", rows=3, cols=n)),
] + [_vertex_count(family, lambda n, family=family: generate_graph(family, n=n),
                   {"cycle": 2}.get(family, 0))
     for family, (_, required, _, _) in FAMILIES.items() if required == ("n",)] + [
    ("cograph-block_size", lambda b: cograph(20, block_size=b), "block_size", "an int",
     _NOT_INTS, (0, -1)),
    ("cograph-join_prob", lambda q: cograph(20, join_prob=q), "join_prob", "a number",
     _NOT_NUMBERS, (-0.5, 1.5, float("nan"))),
    ("gnp-p", lambda p: gnp(5, p=p), "p", "a number", _NOT_NUMBERS, (-0.5, 1.5, float("nan"))),
]


@pytest.mark.parametrize("build, name, kind, wrong_type, out_of_range",
                         [row[1:] for row in _COUNT_TAKERS],
                         ids=[row[0] for row in _COUNT_TAKERS])
def test_each_count_taker_refuses_a_bad_count_with_value_error(build, name, kind,
                                                               wrong_type, out_of_range):
    # oracle has one rule a kind of argument, a vertex count, a count or a
    # probability: a value of the wrong type is refused by name, and so is
    # one out of range, never with a TypeError and never by building
    # something
    for value in wrong_type:
        with pytest.raises(ValueError) as err:
            build(value)
        assert str(err.value) == f"{name} {value!r} is not {kind}"
    for value in out_of_range:
        with pytest.raises(ValueError):
            build(value)


def test_no_bool_count_reaches_a_writer():
    # a bool n would be written as "p True 0", which parse_graph refuses
    for write in (lambda: format_graph(PlainGraph(True)),
                  lambda: format_graph(path(True)),
                  lambda: format_sequence(ContractionSequence(True, ())),
                  lambda: format_sequence(chain_sequence(True))):
        with pytest.raises(ValueError, match="^vertex count True is not an int$"):
            write()


def test_plain_graph_refuses_a_non_int_count_or_endpoint():
    with pytest.raises(ValueError, match=r"^vertex count 3\.5 is not an int$"):
        PlainGraph(3.5, [(1, 2)])
    # a non-canonical list reaches the normalizing set, a canonical one
    # the edge arrays, and a str fails the first comparison
    for edges, named in [([(1.0, 2.0), (2, 3), (1, 3)], r"\(1\.0, 2\.0\)"),
                         ([(1, 2), (2.0, 3.0)], r"\(2\.0, 3\.0\)"),
                         ([(1, 2), ("2", 3)], r"\('2', 3\)")]:
        with pytest.raises(ValueError,
                           match=rf"^edge {named} has an endpoint that is not an int$"):
            PlainGraph(3, edges)


def test_both_constructors_give_one_answer_for_each_bad_edge():
    # oracle owns the edge rule: not an int first, then a self-loop, then
    # outside 1..n, for an edge alone, after (1, 2) and before it, and the
    # first bad edge of a list names the error
    table = {(0.5, 2): "edge (0.5, 2) has an endpoint that is not an int",
             (1.5, 1.5): "edge (1.5, 1.5) has an endpoint that is not an int",
             ("2", 3): "edge ('2', 3) has an endpoint that is not an int",
             (1, 5): "edge (1, 5) leaves the vertex range 1..3",
             (2, 2): "self-loop at vertex 2"}
    cases = [([bad], message) for bad, message in table.items()]
    cases += [([(1, 2), bad], message) for bad, message in table.items()]
    cases += [([bad, (1, 2)], message) for bad, message in table.items()]
    cases += [([(1, 1.5), (2, 2)], "edge (1, 1.5) has an endpoint that is not an int"),
              ([(2, 2), (1, 1.5)], "self-loop at vertex 2")]
    for edges, message in cases:
        for build in (lambda: PlainGraph(3, edges), lambda: Trigraph.from_graph(edges, 3)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message, edges


def test_id_typecode_is_the_narrowest_that_holds_n():
    for n, code in ((1, "B"), (255, "B"), (256, "H"), (65535, "H"), (65536, "i"),
                    (MAX_N, "i")):
        assert id_typecode(n) == code
        assert array(code, [n])[0] == n


def test_plain_graph_refuses_malformed_edge_columns():
    # columns of unequal length once passed as canonical, m = 3 over two
    # edges, and the count took the complement side and found a triangle;
    # columns of any typecode but n's own are refused too, so equal graphs
    # hold equal arrays
    code = id_typecode(3)
    for columns in ((array(code, [1, 1, 2]), array(code, [2, 3])),
                    (array(code, [1]), array(code, [2, 3])),
                    (array("l", [1, 1]), array("l", [2, 3])),
                    (array("d", [1.0]), array("d", [2.0])),
                    (array(code, [1, 1]), array("l", [2, 3])),
                    (array(code, [1, 1]), [2, 3]),
                    (array(code, [1, 1]), (2, 3)),
                    (array("i", [1, 1]), array("i", [2, 3])),
                    (array("H", [1, 1]), array("H", [2, 3]))):
        with pytest.raises(ValueError, match=r"^edge columns must be two "
                                             r"array\('B'\) of equal length$"):
            PlainGraph(3, columns)
    columns = array(code, [1, 1]), array(code, [2, 3])
    graph = PlainGraph(3, columns)
    assert graph.us is columns[0]
    assert (graph.m, count_naive(graph), count_triangles(
        graph, ContractionSequence(3, (1, 2, 3, 4))).triangles) == (2, 0, 0)


def _normalized(n, pairs):
    """The edge list PlainGraph must hold for pairs, by its definition, or
    ValueError for a self-loop or an endpoint outside 1..n."""
    edges = set()
    for u, v in pairs:
        if u == v or not (1 <= u <= n and 1 <= v <= n):
            return ValueError
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


# mostly ids of small graphs, sometimes the ends of the C int range
_ENDPOINTS = st.one_of(st.integers(1, 7), st.integers(-1, 8),
                       st.sampled_from((-2 ** 31, 2 ** 31 - 1)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 2, 5, 7, 2 ** 31 - 1)),
       st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS), max_size=8),
       st.sampled_from(("as drawn", "sorted", "canonical", "by second end")))
# each breaks one of the checks and passes the others
@example(5, [(1, 4), (2, 3)], "as drawn")  # canonical, not sorted by v
@example(5, [(2, 3), (1, 4)], "as drawn")  # sorted by v only
@example(5, [(0, 2), (1, 3)], "as drawn")  # the first id is 0
@example(5, [(1, 2), (-1, 3)], "as drawn")  # a negative id, sorted if unsigned
@example(5, [(1, 6)], "as drawn")  # past n
@example(5, [(3, 2)], "as drawn")  # u > v
@example(5, [(1, 3), (1, 2)], "as drawn")  # the us tie and v falls
@example(5, [(1, 2), (1, 2)], "as drawn")  # a repeated pair
@example(5, [(1, 2), (1, 6)], "as drawn")  # the us tie and v passes n
@example(5, [(1, 2), (1, 3)], "as drawn")  # canonical, the us tie
def test_edge_arrays_are_kept_only_when_canonical(n, pairs, shape):
    # the one loop over the pairs (range, then order by u and by v where
    # the us tie) must keep exactly the canonical lists, the arrays as
    # given; anything else is normalized or refused
    if shape == "sorted":
        pairs = sorted(pairs)
    elif shape in ("canonical", "by second end"):
        pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
        if shape == "by second end":
            pairs.sort(key=lambda edge: edge[::-1])
    want = _normalized(n, pairs)
    code = id_typecode(n)
    try:
        columns = array(code, [u for u, _ in pairs]), array(code, [v for _, v in pairs])
    except OverflowError:
        # an id n's typecode cannot hold lies outside 1..n, so it cannot
        # reach PlainGraph as a column; the pairs must still be refused
        assert want is ValueError
        columns = None
    for edges in (pairs,) if columns is None else (columns, pairs):
        if want is ValueError:
            with pytest.raises(ValueError):
                PlainGraph(n, edges)
        else:
            assert list(PlainGraph(n, edges).edges) == want
    if want == pairs:
        assert PlainGraph(n, columns).us is columns[0]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 16), st.integers(0, 10 ** 6),
       st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]), st.booleans(), st.booleans())
@example(n=16, seed=1, p=0.2, shuffle=True, hub=True)
@example(n=16, seed=2, p=0.9, shuffle=True, hub=False)
def test_two_variants_agree(n, seed, p, shuffle, hub):
    # ids shuffled, so the lowest corner of a triangle is anywhere in the
    # gnp order, and vertex n joined to every other vertex: a hub whose
    # id is the highest, which is no triangle's lowest corner
    ids = list(range(1, n + 1))
    if shuffle:
        random.Random(seed).shuffle(ids)
    edges = [(ids[u - 1], ids[v - 1]) for u, v in gnp(n, p, seed=seed).edges]
    if hub:
        edges += [(v, n) for v in range(1, n)]
    g = PlainGraph(n, edges)
    assert count_naive(g) == len(helpers.brute_triangles(n, g.edges))


def test_two_variants_agree_up_to_64():
    for n in (32, 64):
        g = gnp(n, 0.3, seed=n)
        assert count_naive(g) == len(helpers.brute_triangles(n, g.edges))


def test_a_star_whose_hub_has_the_highest_id_counts_fast():
    # every leaf's one higher neighbour is the hub, whose own list is
    # empty, so each edge costs one look; a count that walks the hub's
    # list for every leaf edge is quadratic, about 30 s at this size on
    # Python 3.11 where this one takes under 10 ms
    leaves = 20000
    n = leaves + 1
    code = id_typecode(n)
    g = PlainGraph(n, (array(code, range(1, n)), array(code, [n] * leaves)))
    start = time.perf_counter()
    assert count_naive(g) == 0
    assert time.perf_counter() - start < 1.0


def test_a_half_dense_cograph_counts_its_closed_form():
    graph, root = cograph(600, seed=1)
    assert 0.4 < graph.m / math.comb(600, 2) < 0.6
    assert helpers.cotree_counts(root) == (600, graph.m, count_naive(graph))


def test_cross_check_trivial_cases():
    assert count_triangles(PlainGraph(1, []), ContractionSequence(1, ())).triangles == 0
    graph, cotree = star(5)
    assert count_triangles(graph, twin_sequence(cotree, graph.n)).triangles \
        == count_naive(graph) == 0


def test_cross_check_random_graph():
    g = gnp(20, 0.3, seed=3)
    seq, _ = greedy_sequence(g)
    assert count_triangles(g, seq).triangles == count_naive(g)
