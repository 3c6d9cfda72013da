import random
import tracemalloc

import pytest

from twintri import sequence as sequence_module
from twintri.counting import count_triangles
from twintri.generate import (
    chain_sequence,
    cograph,
    complete,
    gnp,
    greedy_sequence,
    path,
    star,
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
    save_sequence,
)
from twintri.trigraph import Trigraph

import helpers


def _fresh(graph):
    return Trigraph.from_graph(graph.edges, graph.n)


def test_parse_basic():
    seq = parse_sequence("s 3\n1 2\n4 3\n")
    assert seq.n == 3
    assert seq.ends == (1, 2, 4, 3)
    assert list(seq.pairs) == [(1, 2), (4, 3)]


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
    assert seq.ends == (1, 2, 4, 3)


def test_format_round_trip_byte_exact():
    seq = ContractionSequence(4, (2, 4, 1, 3, 5, 6))
    text = format_sequence(seq)
    assert parse_sequence(text) == seq
    assert format_sequence(parse_sequence(text)) == text


def test_ids_lie_flat_and_pairs_reads_them_afresh():
    seq = ContractionSequence(3, (1, 2, 4, 3))
    assert list(seq.pairs) == list(seq.pairs) == [(1, 2), (4, 3)]
    parsed = parse_sequence("s 3\n1 2\n4 3\n")
    assert parsed == seq and hash(parsed) == hash(seq)
    assert parsed != ContractionSequence(3, (1, 2, 3, 4))
    graph, cotree = cograph(3000, seed=4, block_size=8)
    made = twin_sequence(cotree, graph.n)
    text = format_sequence(made)
    parsed = parse_sequence(text)
    assert parsed == made and hash(parsed) == hash(made)
    assert format_sequence(parsed) == text


def test_a_list_of_ids_is_kept_as_a_tuple():
    # a kept list left the sequence unhashable, and a change to it after
    # the checks got an id past them into the written file
    ends = [1, 2, 4, 3]
    seq = ContractionSequence(3, ends)
    ends[2] = 7
    assert seq.ends == (1, 2, 4, 3) and type(seq.ends) is tuple
    assert hash(seq) == hash(ContractionSequence(3, (1, 2, 4, 3)))
    assert format_sequence(seq) == "s 3\n1 2\n4 3\n"
    flat = (1, 2, 4, 3)
    assert ContractionSequence(3, flat).ends is flat


def test_an_odd_number_of_ids_is_refused():
    with pytest.raises(ValueError, match=r"^expected 2 pairs, got 1 and one id$"):
        ContractionSequence(3, (1, 2, 4))


def _kept_bytes_a_pair(make, pairs):
    """The bytes make()'s result holds a pair, by tracemalloc."""
    tracemalloc.start()
    try:
        made = make()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del made
    return kept / pairs


def test_a_sequence_keeps_its_ids_in_one_flat_tuple():
    # two int objects and two tuple slots a pair: about 72 bytes parsed,
    # and 48 from twin_sequence, whose leaf ids the cotree already holds;
    # a tuple per pair kept about 120 and 96
    graph, cotree = star(20000)
    text = format_sequence(twin_sequence(cotree, graph.n))
    assert _kept_bytes_a_pair(lambda: parse_sequence(text), graph.n - 1) < 80
    assert _kept_bytes_a_pair(lambda: twin_sequence(cotree, graph.n), graph.n - 1) < 60


# chain_sequence(DEEP_N) contracts (k + 2, DEEP_N + k) at step k > 0, so
# ends[2k] and ends[2k + 1] hold step k's pair
DEEP_N = 50_001
DEEP_TOP = 2 * DEEP_N - 1


@pytest.mark.parametrize("changes, message, line_message, line", [
    ({80001: 40002}, "self-contraction of vertex 40002",
     "self-contraction of vertex 40002", 40002),
    ({80001: DEEP_TOP + 1}, f"pair (40002, {DEEP_TOP + 1}) leaves the id range 1..{DEEP_TOP}",
     f"id outside 1..{DEEP_TOP}", 40002),
    ({80000: 0}, f"pair (0, {DEEP_N + 40000}) leaves the id range 1..{DEEP_TOP}",
     f"id outside 1..{DEEP_TOP}", 40002),
    # the first offending pair is named, and a pair's self-contraction
    # before its range
    ({80001: 40002, 60001: DEEP_TOP + 1},
     f"pair (30002, {DEEP_TOP + 1}) leaves the id range 1..{DEEP_TOP}",
     f"id outside 1..{DEEP_TOP}", 30002),
    ({80000: DEEP_TOP + 5, 80001: DEEP_TOP + 5}, f"self-contraction of vertex {DEEP_TOP + 5}",
     f"self-contraction of vertex {DEEP_TOP + 5}", 40002),
    ({-1: None, -2: None}, "expected 50000 pairs, got 49999",
     "expected 50000 pairs, got 49999", None),
], ids=["self", "range", "zero", "first-pair", "self-before-range", "count"])
def test_a_bad_pair_deep_in_a_long_sequence_is_named(changes, message, line_message, line):
    ends = list(chain_sequence(DEEP_N).ends)
    for at, value in sorted(changes.items()):
        if value is None:
            del ends[at]
        else:
            ends[at] = value
    with pytest.raises(ValueError) as err:
        ContractionSequence(DEEP_N, tuple(ends))
    assert str(err.value) == message
    text = f"s {DEEP_N}\n" + "%d %d\n" * (len(ends) // 2) % tuple(ends)
    expected = (line_message if line is None else f"line {line}: {line_message}", line)
    assert _outcome(parse_sequence, text) == _outcome(sequence_module._parse_lines, text) \
        == expected


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
    report = replay(g, ContractionSequence(4, (1, 2, 5, 3, 6, 4)))
    assert report.valid and report.width == 1


def test_replay_single_vertex():
    g = Trigraph.from_graph([], 1)
    report = replay(g, ContractionSequence(1, ()))
    assert report.valid and report.width == 0 and report.failing_step is None


def test_a_vertex_count_below_1_is_refused():
    # the readers refuse "s 0" and "p 0 0" with their own message, so only
    # a caller of the Python API meets this one, oracle.check_vertex_count's
    with pytest.raises(ValueError, match=r"^need n >= 1$"):
        ContractionSequence(0, ())
    with pytest.raises(ValueError, match=r"^need n >= 1$"):
        Trigraph(0)
    with pytest.raises(ValueError, match=r"^need n >= 1$"):
        chain_sequence(0)


def test_replay_reports_dead_reference():
    g = Trigraph.from_graph([(1, 2), (2, 3), (3, 4)], 4)
    with pytest.raises(SequenceError) as err:
        replay(g, ContractionSequence(4, (1, 2, 1, 3, 5, 4)))
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


def test_a_non_int_n_or_id_is_refused_by_name():
    with pytest.raises(ValueError, match=r"^vertex count 3\.0 is not an int$"):
        ContractionSequence(3.0, (1, 2, 4, 3))
    # an id no int compares with is refused when the sequence is made,
    # naming its pair, as edge_refusal names an edge
    for ends, pair in [(("1", 2, 4, 3), r"\('1', 2\)"),
                       ((1, 2, None, 3), r"\(None, 3\)")]:
        with pytest.raises(ValueError, match=rf"^pair {pair} has an id that is not an int$"):
            ContractionSequence(3, ends)
    # float ids pass the range checks; the contraction loop that replay
    # and count_triangles share names the step, the pair and the id
    graph = path(3)
    for ends, step, pair, bad in [((1.0, 2.0, 4.0, 3.0), 0, r"\(1\.0, 2\.0\)", "1.0"),
                                  ((1, 2, 3, 4.5), 1, r"\(3, 4\.5\)", "4.5")]:
        seq = ContractionSequence(3, ends)
        for run in (lambda: replay(_fresh(graph), seq),
                    lambda: count_triangles(graph, seq)):
            with pytest.raises(SequenceError, match=rf"^step {step} contracts {pair} "
                                                    rf"but vertex {bad} is not an int$"):
                run()


def test_a_non_int_id_is_refused_before_it_is_written(tmp_path):
    # %d would write 1.5 as 1, saving a sequence replay refuses as another
    # one that it accepts; the message is replay's, and no file is left
    graph = path(3)
    for ends in [(1.5, 2.0, 4.0, 3.0), (1, 2, 4, 3.0)]:
        seq = ContractionSequence(3, ends)
        with pytest.raises(SequenceError) as replayed:
            replay(_fresh(graph), seq)
        with pytest.raises(SequenceError) as written:
            format_sequence(seq)
        assert str(written.value) == str(replayed.value)
        with pytest.raises(SequenceError):
            save_sequence(seq, tmp_path / "s.seq")
        assert not (tmp_path / "s.seq").exists()
    assert str(written.value) == "step 1 contracts (4, 3.0) but vertex 3.0 is not an int"


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
        replay(g, ContractionSequence(3, (1, 2, 4, 3)))


def test_verify_width_path():
    seq = ContractionSequence(4, (1, 2, 5, 3, 6, 4))
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
            degrees.append(helpers.max_red_degree(g))
        width = replay(_fresh(graph), seq).width
        assert width == max(degrees)
        for bound in range(width + 1):
            report = replay(_fresh(graph), seq, bound)
            first = next((i for i, d in enumerate(degrees) if d > bound), None)
            assert (report.valid, report.failing_step, report.width) \
                == (first is None, first, width)


def test_replay_matches_single_contract_steps():
    # replay runs the whole sequence through one loop; a loop of single
    # contract calls must reach the same width, failing step and work
    for graph, seq in helpers.loop_cases(2500):
        stepwise = _fresh(graph)
        degrees = []
        for u, v in seq.pairs:
            stepwise.contract(u, v)
            degrees.append(helpers.max_red_degree(stepwise))
        width = max(degrees, default=0)
        for bound in sorted({0, max(0, width - 1), width}):
            g = _fresh(graph)
            report = replay(g, seq, bound)
            first = next((i for i, d in enumerate(degrees) if d > bound), None)
            assert (report.width, report.valid, report.failing_step,
                    g.update_work, g.red_work) \
                == (width, first is None, first, stepwise.update_work, stepwise.red_work)


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


def _chain_with_last_line(n, pair, end="\n"):
    """chain_sequence(n)'s text, its last pair (u, v) written as
    pair.format(u, v) and ended with end."""
    head, last = format_sequence(chain_sequence(n))[:-1].rsplit("\n", 1)
    return f"{head}\n{pair.format(*last.split())}{end}"


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
    pytest.param(_chain_with_last_line(20000, "0{} {}"), id="chain-leading-zero-last"),
    # the shape broken on the last line of a text of more than 3 slices
    pytest.param(_chain_with_last_line(20000, "{} {} 1"), id="chain-extra-token-last"),
    pytest.param(_chain_with_last_line(20000, "{}\t{}"), id="chain-tab-last"),
    pytest.param(_chain_with_last_line(20000, "{}  {}"), id="chain-empty-field-last"),
    pytest.param(_chain_with_last_line(20000, "{} {}", ""), id="chain-no-final-newline"),
    # a line end the reader makes "\n" before it checks the shape
    pytest.param(_chain_with_last_line(20000, "{} {}", "\r\n"), id="chain-crlf-last"),
])
def test_bulk_path_agrees_with_per_line_parser(text):
    bulk = _outcome(parse_sequence, text)
    assert bulk == _outcome(sequence_module._parse_lines, text)
    if isinstance(bulk, ContractionSequence):
        assert all(type(x) is int for x in bulk.ends)


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
