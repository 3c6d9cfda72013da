import random

import pytest

from twintri import sequence as sequence_module
from twintri.generate import (
    chain_sequence,
    cograph,
    complete,
    gnp,
    greedy_sequence,
    twin_sequence,
)
from twintri.graphio import SLICE_CHARS
from twintri.sequence import (
    ContractionSequence,
    SequenceError,
    SequenceFormatError,
    format_sequence,
    parse_sequence,
    replay,
)
from twintri.trigraph import Trigraph

import helpers


def _fresh(graph):
    return Trigraph.from_graph(graph.edges, graph.n)


def test_parse_basic():
    seq = parse_sequence("s 3\n1 2\n4 3\n")
    assert seq.n == 3
    assert seq.pairs == ((1, 2), (4, 3))


def test_parse_rejects_self_contraction():
    with pytest.raises(SequenceFormatError) as err:
        parse_sequence("s 2\n1 1\n")
    assert err.value.line == 2


def test_parse_rejects_wrong_pair_count():
    with pytest.raises(SequenceFormatError):
        parse_sequence("s 3\n1 2\n")
    with pytest.raises(SequenceFormatError):
        parse_sequence("s 2\n1 2\n3 4\n")


def test_parse_rejects_out_of_range_ids():
    with pytest.raises(SequenceFormatError) as err:
        parse_sequence("s 3\n1 2\n4 6\n")  # ids may only reach 2n-1 = 5
    assert err.value.line == 3


def test_parse_allows_comments_and_blanks():
    seq = parse_sequence("c twin fold\n\ns 3\nc first\n1 2\n4 3\n")
    assert seq.pairs == ((1, 2), (4, 3))


def test_format_round_trip_byte_exact():
    seq = ContractionSequence(4, ((2, 4), (1, 3), (5, 6)))
    text = format_sequence(seq)
    assert parse_sequence(text) == seq
    assert format_sequence(parse_sequence(text)) == text


def test_replay_triangle_twins():
    g = _fresh_complete(3)
    report = replay(g, parse_sequence("s 3\n1 2\n4 3\n"))
    assert report.valid and report.width == 0
    assert helpers.live_vertices(g) == [5]


def _fresh_complete(n):
    graph, _ = complete(n)
    return _fresh(graph)


def test_replay_path_chain_width_one():
    g = Trigraph.from_graph([(1, 2), (2, 3), (3, 4)], 4)
    report = replay(g, ContractionSequence(4, ((1, 2), (5, 3), (6, 4))))
    assert report.valid and report.width == 1


def test_replay_single_vertex():
    g = Trigraph.from_graph([], 1)
    report = replay(g, ContractionSequence(1, ()))
    assert report.valid and report.width == 0 and report.failing_step is None


def test_replay_reports_dead_reference():
    g = Trigraph.from_graph([(1, 2), (2, 3), (3, 4)], 4)
    with pytest.raises(SequenceError) as err:
        replay(g, ContractionSequence(4, ((1, 2), (1, 3), (5, 4))))
    assert str(err.value) == "step 1 contracts (1, 3) but vertex 1 is not live"


@pytest.mark.parametrize("pairs, step", [
    (((1, 6), (2, 3), (5, 4)), 0),  # not yet created: step 0 makes 5
    (((0, 2), (3, 4), (5, 6)), 0),
    (((1, 2), (3, -1), (5, 6)), 1),
    (((1, 2), (3, 4), (5, -2)), 2),  # -2 would index 6, live at step 2
    (((1, 2), (3, 3), (5, 4)), 1),
    (((1, 2), (3, 100), (5, 4)), 1),
])
def test_replay_reports_every_vertex_that_is_not_live(pairs, step):
    # ContractionSequence refuses ids below 1, so the sequence here skips
    # its checks; replay must still stop at the step with SequenceError,
    # not crash, and leave the trigraph consistent
    g = Trigraph.from_graph([(1, 2), (2, 3), (3, 4)], 4)
    u, v = pairs[step]
    with pytest.raises(SequenceError,
                       match=rf"^step {step} contracts \({u}, {v}\) but "):
        replay(g, helpers.unchecked_sequence(4, pairs))
    helpers.check_consistent(g)


def test_replay_refuses_a_negative_bound_before_any_step():
    graph, cotree = complete(5)
    g = _fresh(graph)
    with pytest.raises(ValueError, match="width bound -1"):
        replay(g, twin_sequence(cotree, 5), -1)
    assert helpers.live_vertices(g) == [1, 2, 3, 4, 5]
    assert replay(g, twin_sequence(cotree, 5), 0).valid


def test_replay_rejects_wrong_n():
    g = Trigraph.from_graph([(1, 2)], 2)
    with pytest.raises(SequenceError):
        replay(g, ContractionSequence(3, ((1, 2), (4, 3))))


def test_verify_width_path():
    seq = ContractionSequence(4, ((1, 2), (5, 3), (6, 4)))
    graph_edges = [(1, 2), (2, 3), (3, 4)]
    ok = replay(Trigraph.from_graph(graph_edges, 4), seq, 1)
    assert ok.valid and ok.width == 1
    bad = replay(Trigraph.from_graph(graph_edges, 4), seq, 0)
    assert not bad.valid and bad.failing_step == 0 and bad.width == 1


def test_verify_width_complete_twins_zero():
    for n in (2, 5, 9):
        graph, cotree = complete(n)
        seq = twin_sequence(cotree, n)
        report = replay(_fresh(graph), seq, 0)
        assert report.valid and report.width == 0


def test_replay_determinism():
    graph = gnp(18, 0.4, seed=11)
    seq, width = greedy_sequence(graph)
    runs = []
    for _ in range(2):
        g = _fresh(graph)
        report = replay(g, seq)
        runs.append((report.width, helpers.serialize(g)))
    assert runs[0] == runs[1]
    assert runs[0][0] == width


def test_prefix_width_is_monotone():
    # replay's width is the largest red degree after any step, and
    # replay with a bound fails at the first step whose degree passes it
    rng = random.Random(5)
    for trial in range(12):
        graph = gnp(rng.randint(4, 16), rng.choice([0.25, 0.5]), seed=trial)
        seq, _ = greedy_sequence(graph)
        g = _fresh(graph)
        degrees = []
        for u, v in seq.pairs:
            g.contract(u, v)
            degrees.append(g.max_red_degree())
        width = replay(_fresh(graph), seq).width
        assert width == max(degrees)
        for bound in range(width + 1):
            report = replay(_fresh(graph), seq, bound)
            first = next((i for i, d in enumerate(degrees) if d > bound), None)
            assert (report.valid, report.failing_step, report.width) \
                == (first is None, first, width)


def test_cograph_twin_sequences_have_width_zero():
    for seed in range(8):
        graph, cotree = cograph(24, seed=seed)
        seq = twin_sequence(cotree, graph.n)
        report = replay(_fresh(graph), seq)
        assert report.valid and report.width == 0


# -- the bulk path against the per-line parser --------------------------------


def _outcome(parse, text):
    try:
        return parse(text)
    except SequenceFormatError as err:
        return str(err), err.line


def _chain_with_leading_zero_last(n):
    """chain_sequence(n)'s text, its last pair written with a leading zero."""
    head, last = format_sequence(chain_sequence(n))[:-1].rsplit("\n", 1)
    return f"{head}\n0{last}\n"


@pytest.mark.parametrize("text", [
    "s 3\n1\n2 4 3\n",  # tokens line up in pairs, lines do not
    "s 3\r\n1 2\r\n4 3\r\n",
    "s 3\n1 2\n4 3",
    "c fold\ns 3\n\n1 2\nc next\n4 3\n",
    "s 3\n+1 2\n4 3\n",
    "s 03\n01 002\n4 3\n",
    "s 3\n1 2\n",
    "s 0\n",
    "s 1\n",
    "s 3\n1 2\n5 5\n",
    "s 3\n1 2\n4 6\n",
    # past CPython's int-string limit, the JSON scanner raises on the bulk path too
    pytest.param("s 3\n1 " + "9" * 5000 + "\n4 3\n", id="5000-digit-id"),
    "s 3\n1 2\n4 3\n",  # written text the bulk path keeps
    # where JSON's number grammar differs from int(): the scanner reads 0
    # and a 4000-digit int, which ContractionSequence refuses, and refuses
    # a leading zero that int() reads, here late in a long file
    "s 3\n0 2\n4 3\n",
    pytest.param("s 3\n1 " + "9" * 4000 + "\n4 3\n", id="4000-digit-id"),
    pytest.param(_chain_with_leading_zero_last(20000), id="chain-leading-zero-last"),
])
def test_bulk_path_agrees_with_per_line_parser(text):
    bulk = _outcome(parse_sequence, text)
    assert bulk == _outcome(sequence_module._parse_lines, text)
    if isinstance(bulk, ContractionSequence):
        assert all(type(x) is int for pair in bulk.pairs for x in pair)


def test_written_text_takes_the_bulk_path(monkeypatch):
    graph, cotree = cograph(20000, seed=2, block_size=8)
    seq = twin_sequence(cotree, graph.n)
    text = format_sequence(seq)
    assert len(text) > 2 * SLICE_CHARS

    def refuse(*args):
        raise AssertionError("fell back to the per-line parser")

    with monkeypatch.context() as patch:
        patch.setattr(sequence_module, "_parse_lines", refuse)
        assert parse_sequence(text) == seq
    # a bad pair on the last line: read in bulk, then named by line
    head, _ = text[:-1].rsplit("\n", 1)
    bad = f"{head}\n1 {2 * graph.n}\n"
    with pytest.raises(SequenceFormatError) as err:
        parse_sequence(bad)
    assert err.value.line == graph.n
    assert _outcome(parse_sequence, bad) == _outcome(sequence_module._parse_lines, bad)
