import functools
import itertools
import json
import os
import random
import struct
import sys
import tracemalloc
import types
from array import array

import pytest

from twintri import graphio, sequence
from twintri.counting import count_triangles
from twintri.generate import (FAMILIES, chain_sequence, cograph, complete,
                              generate_graph, path, twin_sequence)
from twintri.graphio import (GraphFormatError, format_graph, load_graph, parse_graph,
                             save_graph)
from twintri.oracle import MAX_N, PlainGraph, count_naive, id_typecode
from twintri.sequence import (SequenceFormatError, format_sequence, load_sequence,
                              parse_sequence, save_sequence)

import helpers


def test_parse_basic():
    g = parse_graph("c a triangle\np 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert g.n == 3
    assert tuple(g.edges) == ((1, 2), (1, 3), (2, 3))


def test_round_trip_is_byte_exact():
    g = PlainGraph(4, [(4, 2), (1, 2), (3, 1)])
    text = format_graph(g)
    assert parse_graph(text) == g
    assert format_graph(parse_graph(text)) == text


def test_parse_normalizes_duplicates():
    g = parse_graph("p 2 2\ne 1 2\ne 2 1\n")
    assert tuple(g.edges) == ((1, 2),)
    assert g.m == 1


def test_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("p 3 1\ne 3 3\n")
    assert err.value.line == 2

    with pytest.raises(GraphFormatError) as err:
        parse_graph("p 3 1\ne 1 4\n")
    assert err.value.line == 2

    with pytest.raises(GraphFormatError) as err:
        parse_graph("p 3 0\nq 1 2\n")
    assert err.value.line == 2


def test_edge_count_must_match():
    with pytest.raises(GraphFormatError):
        parse_graph("p 3 2\ne 1 2\n")


def test_missing_or_duplicate_header():
    with pytest.raises(GraphFormatError):
        parse_graph("e 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p 2 0\np 2 0\n")
    with pytest.raises(GraphFormatError):
        parse_graph("")


def test_single_vertex_graph():
    g = parse_graph("p 1 0\n")
    assert g.n == 1 and g.m == 0
    assert format_graph(g) == "p 1 0\n"


# -- the bulk path against the per-line parser --------------------------------


def _outcome(parse, text, error=GraphFormatError):
    try:
        return parse(text)
    except error as err:
        return str(err), err.line


def _both_paths(text):
    """parse_graph's and _parse_lines' result, or message and line."""
    return _outcome(parse_graph, text), _outcome(graphio._parse_lines, text)


@functools.cache
def _k400_text():
    return format_graph(complete(400)[0])


@functools.cache
def _k800_text():
    return format_graph(complete(800)[0])


# an endpoint past the 1-byte ids of n = 200, and past the 2-byte ids of
# n = 300
_NARROW_OVERFLOWS = ("p 200 1\ne 1 300\n", "p 300 1\ne 1 70000\n")


def _with_last_edge(text, edge, end="\n"):
    head, _ = text[:-1].rsplit("\n", 1)
    return f"{head}\ne {edge}{end}"


@pytest.mark.parametrize("text", [
    "p 4 2\ne 1\n2 e 3 4\n",  # tokens line up in threes, lines do not
    "p 3 2\r\ne 1 2\r\ne 2 3\r\n",
    "p 3 2\ne 1 2\ne 2 3",
    "c a path\np 3 2\n\ne 1 2\nc middle\ne 2 3\n",
    "p 3 1\ne +1 2\n",
    "p 03 01\ne 001 003\n",
    "p 3 2\ne 1 2\n",
    "p 3 1\ne 1 2\ne 2 3\n",
    "p 3 2\ne 1 2\ne 1 2\n",
    "p 3 3\ne 2 1\ne 1 2\ne 3 2\n",
    "p 0 0\n",
    "p 1 0\n",
    "p 3 1\ne 1 2 \n",
    "p 3 1\ne  1 2\n",
    "p 3 1\ne 1 ٢\n",
    # past CPython's int-string limit, the JSON scanner raises on the bulk path too
    pytest.param("p 3 1\ne 1 " + "9" * 5000 + "\n", id="5000-digit-endpoint"),
    pytest.param("p " + "9" * 5000 + " 1\ne 1 2\n", id="5000-digit-p-count"),
    "p 4 3\ne 1 2\ne 1 3\ne 2 4\n",  # written text the bulk path keeps
    # where JSON's number grammar differs from int(): the scanner reads 0
    # and a 4000-digit int, which PlainGraph's range check refuses, and
    # refuses a leading zero that int() reads, here late in a long file
    "p 3 1\ne 0 1\n",
    pytest.param("p 3 1\ne 1 " + "9" * 4000 + "\n", id="4000-digit-endpoint"),
    pytest.param(_with_last_edge(_k400_text(), "0399 400"), id="k400-leading-zero-last"),
    # a digit before the mark or inside it, which a check of the line's
    # other chars alone would let the scanner glue onto the id before it
    "p 30 2\ne 1 2\n0e 3 4\n",
    "p 30 2\ne 1 2\ne0 3 4\n",
    # the shape broken on the last line of a text of more than 8 slices
    pytest.param(_with_last_edge(_k400_text(), "399 400 1"), id="k400-extra-token-last"),
    pytest.param(_with_last_edge(_k400_text(), "399\t400"), id="k400-tab-last"),
    pytest.param(_with_last_edge(_k400_text(), "399  400"), id="k400-empty-field-last"),
    pytest.param(_with_last_edge(_k400_text(), "399 400", ""), id="k400-no-final-newline"),
    # a line end the reader makes "\n" before it checks the shape
    pytest.param(_with_last_edge(_k400_text(), "399 400", "\r\n"), id="k400-crlf-last"),
    # ints the scanner reads but the edge arrays' type cannot hold: past a
    # C int, or past the 1 or 2 bytes that n's ids take
    pytest.param("p 3 1\ne 1 2147483648\n", id="endpoint-2**31"),
    pytest.param(f"p 3 1\ne 1 {2 ** 63}\n", id="endpoint-2**63"),
    pytest.param("p 2147483647 1\ne 1 2147483648\n", id="endpoint-past-max-n"),
    pytest.param(_NARROW_OVERFLOWS[0], id="endpoint-past-1-byte"),
    pytest.param(_NARROW_OVERFLOWS[1], id="endpoint-past-2-bytes"),
])
def test_bulk_path_agrees_with_per_line_parser(text):
    bulk, lines = _both_paths(text)
    assert bulk == lines
    if isinstance(bulk, PlainGraph):
        assert all(type(x) is int for edge in bulk.edges for x in edge)


@pytest.mark.parametrize("text", _NARROW_OVERFLOWS)
def test_an_endpoint_past_the_narrow_type_is_named_by_line(text, monkeypatch):
    # the shaped text reaches pack_into, whose struct.error sends it to the
    # per-line parser, so both paths name line 2
    refused = []
    pack_into = struct.pack_into

    def spy(fmt, *args):
        try:
            return pack_into(fmt, *args)
        except struct.error:
            refused.append(fmt)
            raise

    monkeypatch.setattr(graphio.struct, "pack_into", spy)
    n = int(text.split()[1])
    message = f"line 2: endpoint outside 1..{n}"
    assert _both_paths(text) == ((message, 2), (message, 2))
    assert refused == [f"1{id_typecode(n)}"]


@pytest.mark.parametrize("edge, line, message", [
    ("400 400", 79801, "self-loop at vertex 400"),
    ("399 401", 79801, "endpoint outside 1..400"),
    ("399 70000", 79801, "endpoint outside 1..400"),  # past K_400's 2-byte ids
])
def test_bad_late_edge_in_written_text(edge, line, message):
    # the text has the written shape and spans many slices, so the bulk
    # path reads it all before the per-line parser names the line
    text = _with_last_edge(_k400_text(), edge)
    assert len(text) > 8 * graphio.SLICE_CHARS
    bulk, lines = _both_paths(text)
    assert bulk == lines == (f"line {line}: {message}", line)


def test_written_text_takes_the_bulk_path(monkeypatch):
    text = _k400_text()

    def refuse(*args):
        raise AssertionError("fell back to the per-line parser")

    monkeypatch.setattr(graphio, "_parse_lines", refuse)
    g = parse_graph(text)
    assert g == complete(400)[0]
    assert format_graph(g) == text


def test_round_trip_spanning_many_slices():
    text = _k400_text()
    assert len(text) > 8 * graphio.SLICE_CHARS
    g = parse_graph(text)
    assert (g.n, g.m) == (400, 400 * 399 // 2)
    assert g == graphio._parse_lines(text)
    assert format_graph(g) == text


def test_canonical_and_shuffled_edge_lists_agree():
    canonical = tuple(complete(60)[0].edges)
    mixed = [(v, u) if i % 3 else (u, v) for i, (u, v) in enumerate(canonical)]
    mixed += mixed[:50]  # duplicates
    random.Random(4).shuffle(mixed)
    a, b = PlainGraph(60, canonical), PlainGraph(60, mixed)
    assert a == b and hash(a) == hash(b)
    assert count_naive(a) == count_naive(b) == 60 * 59 * 58 // 6
    # sorted but repeated, and pairs that are lists: not kept as given
    repeated = PlainGraph(60, sorted(canonical + canonical[:50]))
    as_lists = PlainGraph(60, [list(edge) for edge in canonical])
    for g in (repeated, as_lists):
        assert g == a and hash(g) == hash(a) and tuple(g.edges) == canonical


def test_max_n_is_checked_on_the_p_line():
    for text in ("p 1000000000000 0\n", "c huge\np 1000000000000 0\n"):
        with pytest.raises(ValueError, match="n = 1000000000000") as err:
            parse_graph(text, max_n=10 ** 6)
        assert not isinstance(err.value, GraphFormatError)
    assert parse_graph("p 5 0\n", max_n=5).n == 5


def test_n_past_the_edge_arrays_is_refused_like_max_n():
    # the widest edge arrays hold C ints, so n stops at MAX_N = 2**31 - 1; the
    # refusal is max_n's kind, ValueError, not a parse error
    for text in ("p 2147483648 0\n", "p 2147483648 1\ne 1 2\n",
                 "c big\np 2147483648 1\ne 1 2147483648\n"):
        with pytest.raises(ValueError, match="n = 2147483648") as err:
            parse_graph(text, max_n=3 * 10 ** 9)
        assert not isinstance(err.value, GraphFormatError)
    assert parse_graph("p 2147483647 0\n").n == MAX_N


def test_an_over_size_written_header_is_refused_at_the_header(monkeypatch):
    # the size rule runs once, on the header: neither the bulk reader nor
    # the per-line parser sees a file past the limit, so the refusal costs
    # no scan of its text
    cases = [(format_graph(path(2_000_000)), 10 ** 6,
              "graph declares n = 2000000 vertices, more than max_n = 1000000"),
             ("p 2147483648 1\ne 1 2\n", 3 * 10 ** 9,
              "graph declares n = 2147483648 vertices, more than the "
              "2147483647 an edge array can hold")]

    def scanned(*args):
        raise AssertionError("the text was scanned")

    monkeypatch.setattr(graphio, "read_slices", scanned)
    monkeypatch.setattr(graphio, "_parse_lines", scanned)
    for text, max_n, message in cases:
        with pytest.raises(ValueError) as err:
            parse_graph(text, max_n=max_n)
        assert str(err.value) == message and type(err.value) is ValueError
    monkeypatch.undo()
    # a header int() cannot read still reaches the per-line parser
    with pytest.raises(GraphFormatError, match=r"^line 1: p line fields must be integers$"):
        parse_graph(f"p {'9' * 5000} 1\ne 1 2\n", max_n=10 ** 6)


def test_load_graph_refuses_an_over_size_header_before_reading_the_file(
        tmp_path, monkeypatch, capsys):
    # the header is peeked at in the file's first bytes, so a file past
    # the limit is refused, by load_graph and by the CLI, unread
    from twintri.cli import main
    file = tmp_path / "big.gr"
    message = "graph declares n = 2000000 vertices, more than max_n = 1000000"

    def unread(*args):
        raise AssertionError("the file was read")

    monkeypatch.setattr(graphio, "read_text", unread)
    for end in ("\n", "\r\n", "\r"):
        file.write_bytes(f"p 2000000 1{end}e 1 2{end}".encode())
        with pytest.raises(ValueError) as err:
            load_graph(file, 10 ** 6)
        assert str(err.value) == message and type(err.value) is ValueError
        assert main(["oracle", str(file)]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
    monkeypatch.undo()
    # a header int() cannot read still reaches the per-line parser
    file.write_text(f"p {'9' * 5000} 1\ne 1 2\n")
    with pytest.raises(GraphFormatError, match=r"^line 1: p line fields must be integers$"):
        load_graph(file, 10 ** 6)
    # an accepted file, longer than the bytes peeked at, loads as its text
    # parses, with either line end
    text = format_graph(complete(80)[0])
    assert len(text) > graphio.SLICE_CHARS
    for end in ("\n", "\r\n"):
        file.write_bytes(text.replace("\n", end).encode())
        assert load_graph(file, 10 ** 6) == parse_graph(text)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_graph_reads_a_pipe_once():
    # the header is peeked at, not read, so a file that can be read only
    # once, such as a pipe, still loads whole
    text = format_graph(complete(40)[0])
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, text.encode())
        os.close(write_end)
        assert load_graph(f"/dev/fd/{read_end}", 10 ** 6) == parse_graph(text)
    finally:
        os.close(read_end)


def _traced_peak(call):
    """call's result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_k400_holds_under_32_bytes_an_edge():
    # the edge list is two arrays of 2-byte ids at K_400, 4 bytes an edge;
    # one tuple and two ints an edge took about 100.  Pairs, as a caller
    # may pass them, go straight into the arrays, with no list of 2m ints
    # between
    graph, cotree = complete(400)
    text = format_graph(graph)
    seq = twin_sequence(cotree, graph.n)
    pairs = list(graph.edges)
    for path, bound in ((lambda: parse_graph(text), 32),
                        (lambda: count_triangles(parse_graph(text), seq), 32),
                        (lambda: PlainGraph(graph.n, pairs), 12)):
        assert _traced_peak(path)[1] < bound * graph.m


def test_reading_k400_holds_the_edge_arrays_and_one_small_slice():
    # the arrays take 2 itemsize bytes an edge, 4 at K_400's 2-byte ids;
    # past them the reader holds one slice in flight: its text, its JSON
    # list and that list's ints
    text = _k400_text()
    g, peak = _traced_peak(lambda: parse_graph(text))
    assert peak < 2 * g.us.itemsize * g.m + 0.4 * 2 ** 20


def test_edge_arrays_are_sized_once_with_no_slack():
    # the line count comes before the scan, so the arrays are made at
    # exactly m, where growing them slice by slice left spare capacity;
    # K_400's ids fit in 2 bytes
    g = parse_graph(_k400_text())
    assert g.us.typecode == g.vs.typecode == "H"
    empty = sys.getsizeof(array("H"))
    assert sys.getsizeof(g.us) == sys.getsizeof(g.vs) == empty + g.us.itemsize * g.m


# -- both file kinds: every per-line message, and line ends --------------------

GRAPH = (parse_graph, graphio._parse_lines, GraphFormatError, load_graph)
SEQUENCE = (parse_sequence, sequence._parse_lines, SequenceFormatError, load_sequence)


@pytest.mark.parametrize("kind, text, message", [
    (GRAPH, "p 3 3\ne 1 2\ne 2 3\n", "p line declares 3 edges, found 2"),
    (GRAPH, "p 3 1\ne 1 2\ne 2 3\n", "p line declares 1 edges, found 2"),
    (GRAPH, "p 3 1000000000\ne 1 2\ne 2 3\n", "p line declares 1000000000 edges, found 2"),
    (SEQUENCE, "s 4\n1 2\n5 3\n", "expected 3 pairs, got 2"),
    (SEQUENCE, "s 3\n1 2\n4 3\n5 1\n", "expected 2 pairs, got 3"),
    (SEQUENCE, "s 1000000000\n1 2\n", "expected 999999999 pairs, got 1"),
], ids=["p-above", "p-below", "p-billion", "s-above", "s-below", "s-billion"])
def test_a_count_at_odds_with_the_lines_never_reaches_the_scanner(kind, text, message,
                                                                 monkeypatch):
    # the shape check counts the lines, so a p or s line that disagrees
    # goes to the per-line parser before any slice is scanned, and
    # nothing is sized by the count it declares
    parse, parse_lines, error, _ = kind

    def loads(s):
        raise AssertionError("scanned a text whose count is wrong")

    monkeypatch.setattr(graphio, "json", types.SimpleNamespace(loads=loads))
    outcome, peak = _traced_peak(lambda: _outcome(parse, text, error))
    assert outcome == (message, None) == _outcome(parse_lines, text, error)
    assert peak < 2 ** 20


@pytest.mark.parametrize("kind", [GRAPH, SEQUENCE], ids=["graph", "sequence"])
@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_written_text_with_crlf_or_cr_ends_takes_the_bulk_path(kind, end, monkeypatch):
    parse, parse_lines, error, _ = kind
    if kind is GRAPH:
        expected, text = complete(800)[0], _k800_text()
    else:
        # blocks of 8 keep the cograph sparse, so the text costs no
        # half-dense graph to build
        text = _cograph_sequence_text(20000, 2, block_size=8)
        expected = parse_sequence(text)
    assert len(text) > 8 * graphio.SLICE_CHARS
    module = graphio if kind is GRAPH else sequence

    def refuse(*args):
        raise AssertionError("fell back to the per-line parser")

    with monkeypatch.context() as patch:
        patch.setattr(module, "_parse_lines", refuse)
        assert parse(text.replace("\n", end)) == expected
    # a pair at fault on the last line is read in bulk, then named by the
    # per-line parser in the text as given
    mark = "e " if kind is GRAPH else ""
    bad = (text[:-1].rsplit("\n", 1)[0] + f"\n{mark}9 9\n").replace("\n", end)
    assert _outcome(parse, bad, error) == _outcome(parse_lines, bad, error)
    assert _outcome(parse, bad, error)[1] == text.count("\n")


@pytest.mark.parametrize("kind, text, line, message", [
    (GRAPH, "p 2 0\np 2 0\n", 2, "duplicate p line"),
    (GRAPH, "p 3\n", 1, "expected 'p <n> <m>'"),
    (GRAPH, "p 3 x\n", 1, "p line fields must be integers"),
    (GRAPH, "p 0 0\n", 1, "vertex count must be at least 1"),
    (GRAPH, "p 3 -1\n", 1, "edge count cannot be negative"),
    (GRAPH, "c first\ne 1 2\np 3 1\n", 2, "e line before the p line"),
    (GRAPH, "p 3 1\ne 1\n", 2, "expected 'e <u> <v>'"),
    (GRAPH, "p 3 1\ne 1 x\n", 2, "edge endpoints must be integers"),
    (GRAPH, "p 3 1\ne 3 3\n", 2, "self-loop at vertex 3"),
    (GRAPH, "p 3 1\ne 1 4\n", 2, "endpoint outside 1..3"),
    (GRAPH, "p 3 0\nq 1 2\n", 2, "unknown record type 'q'"),
    (GRAPH, "c only a comment\n", None, "missing p line"),
    (GRAPH, "p 3 2\ne 1 2\n", None, "p line declares 2 edges, found 1"),
    (SEQUENCE, "s 2\ns 2\n1 2\n", 2, "duplicate s line"),
    (SEQUENCE, "s 2 3\n", 1, "expected 's <n>'"),
    (SEQUENCE, "s x\n", 1, "vertex count must be an integer"),
    (SEQUENCE, "s 0\n", 1, "vertex count must be at least 1"),
    (SEQUENCE, "c first\n1 2\ns 2\n", 2, "pair line before the s line"),
    (SEQUENCE, "s 3\n1 2 3\n", 2, "expected '<u> <v>'"),
    (SEQUENCE, "s 2\n1 x\n", 2, "pair entries must be integers"),
    (SEQUENCE, "s 2\n1 1\n", 2, "self-contraction of vertex 1"),
    (SEQUENCE, "s 3\n1 2\n4 6\n", 3, "id outside 1..5"),
    (SEQUENCE, "c only a comment\n", None, "missing s line"),
    (SEQUENCE, "s 3\n1 2\n", None, "expected 2 pairs, got 1"),
    # int() would read each of these as another id; only an optional "-"
    # and ASCII digits is a number
    (GRAPH, "p 3 1\ne 1 1_0\n", 2, "edge endpoints must be integers"),
    (GRAPH, "p 3 1\ne 1 \u0663\n", 2, "edge endpoints must be integers"),
    (GRAPH, "p 3 1\ne +1 3\n", 2, "edge endpoints must be integers"),
    (GRAPH, "p 3 1\ne --1 3\n", 2, "edge endpoints must be integers"),
    (GRAPH, "p +3 0\n", 1, "p line fields must be integers"),
    (GRAPH, "p 3 1_0\n", 1, "p line fields must be integers"),
    (GRAPH, "p 3 1\ne 1 " + "9" * 5000 + "\n", 2, "edge endpoints must be integers"),
    (GRAPH, "p 3 1\ne -1 3\n", 2, "endpoint outside 1..3"),
    (SEQUENCE, "s 3\n+4 0_3\n1 2\n", 2, "pair entries must be integers"),
    (SEQUENCE, "s 2\n1 \u0662\n", 2, "pair entries must be integers"),
    (SEQUENCE, "s \u0663\n", 1, "vertex count must be an integer"),
    (SEQUENCE, "s +3\n", 1, "vertex count must be an integer"),
    (SEQUENCE, "s 1_0\n", 1, "vertex count must be an integer"),
    (SEQUENCE, "s 2\n1 -2\n", 2, "id outside 1..3"),
    (SEQUENCE, "s -2\n", 1, "vertex count must be at least 1"),
])
def test_each_message_names_its_line(kind, text, line, message):
    parse, parse_lines, error, _ = kind
    with pytest.raises(error) as err:
        parse_lines(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")
    # written-shape text is read in bulk first; the outcome is the same
    assert _outcome(parse, text, error) == _outcome(parse_lines, text, error)


@pytest.mark.parametrize("kind, data, line, message", [
    (GRAPH, b"p 3 1\ne 1\xff 2\n", 2, "not UTF-8 text: byte 0xff at offset 9"),
    (SEQUENCE, b"s 3\n1 2\n4\xfe3\n", 3, "not UTF-8 text: byte 0xfe at offset 9"),
])
def test_undecodable_byte_names_its_line(kind, data, line, message, tmp_path):
    _, _, error, load = kind
    path = tmp_path / "file"
    path.write_bytes(data)
    with pytest.raises(error) as err:
        load(path)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("kind, comment, text, bad, line, message", [
    pytest.param(GRAPH, "c made by a tool{}page 2\n", "p 3 1\ne 1 2\n",
                 "p 3 1\ne 1 1\n", 3, "self-loop at vertex 1", id="graph"),
    pytest.param(SEQUENCE, "c note{}more\n", "s 3\n1 2\n4 3\n",
                 "s 3\n1 2\n5 5\n", 4, "self-contraction of vertex 5", id="sequence"),
])
@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                  "\u2028", "\u2029"], ids=ascii)
def test_lines_end_only_at_newlines_and_returns(kind, comment, text, bad, line,
                                                message, char, tmp_path):
    # str.splitlines would also end a line at char, cutting the comment in two
    parse, _, error, load = kind
    comment = comment.format(char)
    for end in ("\n", "\r\n", "\r"):
        assert parse((comment + text).replace("\n", end)) == parse(text)
        with pytest.raises(error) as err:
            parse((comment + bad).replace("\n", end))
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"
        # a byte that does not decode, on the line after the text
        path = tmp_path / "file"
        path.write_bytes((comment + text).replace("\n", end).encode() + b"\xff")
        with pytest.raises(error) as err:
            load(path)
        assert err.value.line == (comment + text).count("\n") + 1


# -- the per-slice checks against the whole-text regex they replaced ----------

MUTANT_CHARS = "\r\t e-+0٢\n"
FELL_BACK = object()


@functools.cache
def _cograph_sequence_text(n, seed, block_size=None):
    graph, cotree = cograph(n, seed=seed, block_size=block_size)
    return format_sequence(twin_sequence(cotree, graph.n))


def _mutants(text, start, count, rng):
    """count copies of text, each with one char of MUTANT_CHARS inserted
    or substituted, or one char deleted, in the first, a middle or the
    last of the slices read_slices cuts text[start:] into."""
    cuts = [start]
    while cuts[-1] < len(text):
        cuts.append(text.find("\n", cuts[-1] + graphio.SLICE_CHARS) + 1 or len(text))
    slices = len(cuts) - 1
    for _ in range(count):
        k = rng.choice((0, slices // 2, slices - 1))
        at = rng.randrange(cuts[k], cuts[k + 1])
        char = rng.choice(MUTANT_CHARS)
        edit = rng.randrange(3)  # 0 inserts, 1 substitutes, 2 deletes
        yield text[:at] + (char if edit < 2 else "") + text[at + min(edit, 1):]


@pytest.mark.parametrize("kind, text, header, mark", [
    pytest.param(GRAPH, format_graph(complete(40)[0]), "p ([0-9]+) ([0-9]+)", "e ",
                 id="K_40"),
    pytest.param(SEQUENCE, _cograph_sequence_text(600, 4), "s ([0-9]+)", "",
                 id="cograph-600"),
])
def test_slices_reach_the_scanner_exactly_when_the_regex_admits_them(
        kind, text, header, mark, monkeypatch):
    # slices of 200 chars cut each text into more than 20; at full size
    # each mutant would cost the regex and the per-line parser a whole
    # long file, and 10,000 of them take minutes
    monkeypatch.setattr(graphio, "SLICE_CHARS", 200)
    parse, parse_lines, error, _ = kind
    module = graphio if kind is GRAPH else sequence
    scanned, fell_back = [], []

    def loads(s):
        scanned.append(s)
        return json.loads(s)

    def fall_back(text, *args):
        fell_back.append(text)
        return FELL_BACK

    monkeypatch.setattr(graphio, "json", types.SimpleNamespace(loads=loads))
    monkeypatch.setattr(module, "_parse_lines", fall_back)
    start = helpers.written_shape_reference(text, header, mark).end()
    admitted = kept = 0
    for mutant in _mutants(text, start, 5000, random.Random(7)):
        scanned.clear()
        fell_back.clear()
        # a "\r" before a "\n", or in its place, is a line end the reader
        # normalises before it checks the shape
        shaped = helpers.written_shape_reference(
            graphio.newlines_only(mutant), header, mark) is not None
        outcome = _outcome(parse, mutant, error)
        assert bool(scanned) == shaped, repr(mutant)
        admitted += shaped
        if outcome is FELL_BACK:
            assert fell_back == [mutant]
        else:
            kept += 1
            assert outcome == _outcome(parse_lines, mutant, error)
    assert admitted > 500 and kept > 300


# -- the slice writer against the one-% writer it replaced ---------------------

W = graphio.WRITE_LINES
# each FAMILIES row at a size whose text spans more than two slices, but
# petersen's; a row with no case here fails the test below
WRITER_CASES = {
    "gnp": {"n": 100, "p": 0.5},
    "cograph": {"n": 150},
    "complete": {"n": 80},
    "path": {"n": 3000},
    "cycle": {"n": 3000},
    "grid": {"rows": 40, "cols": 40},
    "star": {"n": 3000},
    "petersen": {},
}


def _written_as_the_reference(graph, seq, tmp_path):
    text = helpers.graph_text_reference(graph)
    seq_text = helpers.sequence_text_reference(seq)
    assert format_graph(graph) == text
    assert format_sequence(seq) == seq_text
    save_graph(graph, tmp_path / "g")
    save_sequence(seq, tmp_path / "s")
    assert (tmp_path / "g").read_bytes() == text.encode()
    assert (tmp_path / "s").read_bytes() == seq_text.encode()


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_is_written_byte_for_byte_as_before(family, tmp_path):
    graph, cotree = generate_graph(family, seed=3, **WRITER_CASES[family])
    seq = chain_sequence(graph.n) if cotree is None else twin_sequence(cotree, graph.n)
    _written_as_the_reference(graph, seq, tmp_path)


@pytest.mark.parametrize("lines", [0, 1, W - 1, W, W + 1, 2 * W + 1])
def test_texts_at_each_slice_boundary_are_written_as_before(lines, tmp_path):
    # a graph of m = lines edges, and a sequence of lines pairs
    edges = itertools.islice(itertools.combinations(range(1, 81), 2), lines)
    _written_as_the_reference(PlainGraph(80, list(edges)), chain_sequence(lines + 1),
                              tmp_path)


def test_save_graph_holds_one_slice_not_the_text(tmp_path):
    # the one-% writer held K_400's whole text and a tuple of every id,
    # about 6 MiB; the slices add under 0.5 MiB to the interleaved ends
    graph = complete(400)[0]
    tracemalloc.start()
    try:
        save_graph(graph, tmp_path / "k400")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * graph.us.itemsize * graph.m + (1 << 19)
