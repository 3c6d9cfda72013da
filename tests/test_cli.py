import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twintri
from twintri.cli import main
from twintri.counting import count_triangles
from twintri.generate import complete, cycle, gnp, greedy_sequence, star, twin_sequence
from twintri.graphio import format_graph, load_graph
from twintri.oracle import PlainGraph, count_naive
from twintri.sequence import (ContractionSequence, SequenceError, format_sequence,
                              load_sequence, replay)
from twintri.trigraph import Trigraph


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def k4_files(tmp_path):
    graph, cotree = complete(4)
    gpath = _write(tmp_path, "k4.gr", format_graph(graph))
    spath = _write(tmp_path, "k4.seq", format_sequence(twin_sequence(cotree, 4)))
    return gpath, spath


def test_count_k4(k4_files, capsys):
    gpath, spath = k4_files
    assert main(["count", gpath, "--sequence", spath]) == 0
    assert capsys.readouterr().out == "triangles 4\n"


def test_count_checked_and_stats(tmp_path, capsys):
    graph = cycle(5)
    seq, width = greedy_sequence(graph)
    gpath = _write(tmp_path, "c5.gr", format_graph(graph))
    spath = _write(tmp_path, "c5.seq", format_sequence(seq))
    assert main(["count", gpath, "--sequence", spath, "--stats", "--checked"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "triangles 0"
    stats = dict(line.split() for line in out[1:])
    assert stats["side"] == "graph"  # 5 edges of 10 pairs
    assert stats["width"] == str(width)
    assert int(stats["contractions"]) == 4
    assert int(stats["graph_update_work"]) >= 0


def test_dense_graphs_count_through_the_complement(tmp_path, capsys):
    # width and verify replay the complement too, and must report what a
    # replay on the graph itself reports
    graph = gnp(30, 0.8, seed=5)
    seq, width = greedy_sequence(graph)
    gpath = _write(tmp_path, "dense.gr", format_graph(graph))
    spath = _write(tmp_path, "dense.seq", format_sequence(seq))
    assert main(["count", gpath, "--sequence", spath, "--stats"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [f"triangles {count_naive(graph)}", "side complement",
                       f"width {width}"]
    assert main(["width", gpath, "--sequence", spath]) == 0
    assert capsys.readouterr().out == f"width {width}\n"
    assert main(["verify", gpath, "--sequence", spath, "--max-width", str(width)]) == 0
    assert capsys.readouterr().out == f"valid width {width}\n"
    report = replay(Trigraph.from_graph(graph.edges, graph.n), seq, width - 1)
    u, v = seq.ends[2 * report.failing_step:2 * report.failing_step + 2]
    assert main(["verify", gpath, "--sequence", spath, "--max-width", str(width - 1)]) == 3
    assert capsys.readouterr().out == \
        f"invalid step {report.failing_step} ({u}, {v}) width {width}\n"


def test_count_single_vertex(tmp_path, capsys):
    gpath = _write(tmp_path, "k1.gr", "p 1 0\n")
    spath = _write(tmp_path, "k1.seq", "s 1\n")
    assert main(["count", gpath, "--sequence", spath]) == 0
    assert capsys.readouterr().out == "triangles 0\n"


def test_count_malformed_sequence_is_parse_error(tmp_path, capsys):
    gpath = _write(tmp_path, "p4.gr", format_graph(PlainGraph(4, [(1, 2), (2, 3), (3, 4)])))
    spath = _write(tmp_path, "bad.seq", "s 4\n1 2\n")
    assert main(["count", gpath, "--sequence", spath]) == 2


def test_count_wrong_n_is_semantic_error(tmp_path, capsys):
    gpath = _write(tmp_path, "p4.gr", format_graph(PlainGraph(4, [(1, 2), (2, 3), (3, 4)])))
    spath = _write(tmp_path, "n3.seq", "s 3\n1 2\n4 3\n")
    assert main(["count", gpath, "--sequence", spath]) == 3


def test_non_utf8_files_are_parse_errors(tmp_path, capsys):
    gpath = _write(tmp_path, "k1.gr", "p 1 0\n")
    spath = _write(tmp_path, "k1.seq", "s 1\n")
    bad_graph = tmp_path / "bad.gr"
    bad_graph.write_bytes(b"p 3 1\ne 1 \xff2\n")
    bad_seq = tmp_path / "bad.seq"
    bad_seq.write_bytes(b"s 3\n1 2\n4 \xfe3\n")
    assert main(["oracle", str(bad_graph)]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 2: not UTF-8")
    assert main(["count", gpath, "--sequence", str(bad_seq)]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 3: not UTF-8")
    assert main(["count", gpath, "--sequence", spath]) == 0


def test_count_missing_file_is_io_error(tmp_path):
    spath = _write(tmp_path, "x.seq", "s 1\n")
    assert main(["count", str(tmp_path / "nope.gr"), "--sequence", spath]) == 2


def test_checked_gate_via_cli(tmp_path):
    from twintri.generate import path, chain_sequence
    g = path(80)
    gpath = _write(tmp_path, "p80.gr", format_graph(g))
    spath = _write(tmp_path, "p80.seq", format_sequence(chain_sequence(80)))
    assert main(["count", gpath, "--sequence", spath, "--checked"]) == 3
    assert main(["count", gpath, "--sequence", spath, "--checked",
                 "--checked-limit", "80"]) == 0


def test_width_command(tmp_path, capsys):
    graph, cotree = complete(5)
    gpath = _write(tmp_path, "k5.gr", format_graph(graph))
    spath = _write(tmp_path, "k5.seq", format_sequence(twin_sequence(cotree, 5)))
    assert main(["width", gpath, "--sequence", spath]) == 0
    assert capsys.readouterr().out == "width 0\n"


def test_width_chain_path(tmp_path, capsys):
    from twintri.generate import path, chain_sequence
    gpath = _write(tmp_path, "p4.gr", format_graph(path(4)))
    spath = _write(tmp_path, "p4.seq", format_sequence(chain_sequence(4)))
    assert main(["width", gpath, "--sequence", spath]) == 0
    assert capsys.readouterr().out == "width 1\n"


def test_width_wrong_n_exits_3(tmp_path):
    gpath = _write(tmp_path, "p4.gr", format_graph(PlainGraph(4, [(1, 2)])))
    spath = _write(tmp_path, "n3.seq", "s 3\n1 2\n4 3\n")
    assert main(["width", gpath, "--sequence", spath]) == 3


def test_every_command_names_a_wrong_length_sequence_alike(tmp_path, capsys):
    # and refuses it before building anything of size n: a p line costs
    # nothing to read, but a trigraph or the oracle's adjacency on a
    # million vertices would take about 100 MiB
    spath = _write(tmp_path, "n2.seq", "s 2\n1 2\n")
    for n, text in [(3, format_graph(PlainGraph(3, [(1, 2), (2, 3)]))),
                    (10 ** 6, "p 1000000 0\n")]:
        gpath = _write(tmp_path, "g.gr", text)
        for command in (["count"], ["count", "--checked", "--checked-limit", str(n)],
                        ["width"], ["verify", "--max-width", "0"]):
            tracemalloc.start()
            try:
                assert main(command + [gpath, "--sequence", spath]) == 3
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert capsys.readouterr() == \
                ("", f"error: sequence is for 2 vertices, graph has {n}\n")
            assert peak < 2 ** 20


def test_verify_command(tmp_path, capsys):
    from twintri.generate import path, chain_sequence
    gpath = _write(tmp_path, "p4.gr", format_graph(path(4)))
    spath = _write(tmp_path, "p4.seq", format_sequence(chain_sequence(4)))
    assert main(["verify", gpath, "--sequence", spath, "--max-width", "1"]) == 0
    assert capsys.readouterr().out.startswith("valid")
    assert main(["verify", gpath, "--sequence", spath, "--max-width", "0"]) == 3
    assert capsys.readouterr().out == "invalid step 0 (1, 2) width 1\n"


def test_verify_refuses_a_negative_bound(tmp_path, capsys):
    # the repro: a width-0 sequence used to pass --max-width -1
    gpath, spath = str(tmp_path / "k.txt"), str(tmp_path / "k.seq")
    assert main(["gen", "graph", "--family", "complete", "--n", "5", "-o", gpath,
                 "--sequence-out", spath]) == 0
    assert main(["verify", gpath, "--sequence", spath, "--max-width", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "width bound -1" in captured.err
    assert main(["verify", gpath, "--sequence", spath, "--max-width", "0"]) == 0
    assert capsys.readouterr().out == "valid width 0\n"


def test_width_and_verify_name_the_failing_pair(tmp_path, capsys):
    # a refused step reads the same from every command, whatever the
    # bound; a real overshoot is the only "invalid step" verify prints
    from twintri.generate import path
    gpath = _write(tmp_path, "p4.gr", format_graph(path(4)))
    spath = _write(tmp_path, "dead.seq", "s 4\n1 2\n1 3\n5 4\n")
    refused = "error: step 1 contracts (1, 3) but vertex 1 is not live\n"
    for command, *flags in (("width",), ("verify", "--max-width", "0"),
                            ("verify", "--max-width", "3"), ("count",)):
        assert main([command, gpath, "--sequence", spath, *flags]) == 3
        assert capsys.readouterr() == ("", refused)
    over = _write(tmp_path, "over.seq", "s 4\n1 3\n5 2\n6 4\n")
    assert main(["verify", gpath, "--sequence", over, "--max-width", "0"]) == 3
    assert capsys.readouterr() == ("invalid step 0 (1, 3) width 1\n", "")


def test_checked_count_and_verify_name_a_failing_step_deep_in_the_sequence(
        tmp_path, capsys, monkeypatch):
    # both read step i's pair off the sequence's flat ids.  verify: a star
    # whose leaves fold as twins, then the first step of a path, whose red
    # edge fails bound 0 at step 39999
    leaves = 40000
    n = leaves + 5
    edges = [(1, v) for v in range(2, leaves + 2)]
    edges += [(leaves + 2, leaves + 3), (leaves + 3, leaves + 4), (leaves + 4, leaves + 5)]
    ends = [2, 3]
    for j in range(1, leaves - 1):
        ends += n + j, j + 3
    fold = n + leaves - 1  # the folded leaves
    ends += [leaves + 2, leaves + 3, fold + 1, leaves + 4, fold + 2, leaves + 5,
             1, fold, fold + 4, fold + 3]
    seq = ContractionSequence(n, tuple(ends))
    assert list(seq.pairs)[leaves - 1] == (leaves + 2, leaves + 3)
    gpath = _write(tmp_path, "late.gr", format_graph(PlainGraph(n, edges)))
    spath = _write(tmp_path, "late.seq", format_sequence(seq))
    assert main(["verify", gpath, "--sequence", spath, "--max-width", "0"]) == 3
    assert capsys.readouterr() == (f"invalid step {leaves - 1} ({leaves + 2}, "
                                   f"{leaves + 3}) width 1\n", "")
    # count --checked: the invariant is made to fail after step 50 of a
    # chain on a path of 60 vertices, which contracts (52, 110) into 111
    from twintri import counting
    from twintri.generate import chain_sequence, path
    checks = []

    def fails_after_step_50(*args):
        checks.append(args)  # the first check runs before any step
        return len(checks) != 52

    monkeypatch.setattr(counting, "evaluate_invariant", fails_after_step_50)
    gpath = _write(tmp_path, "p60.gr", format_graph(path(60)))
    spath = _write(tmp_path, "p60.seq", format_sequence(chain_sequence(60)))
    assert main(["count", gpath, "--sequence", spath, "--checked"]) == 4
    assert capsys.readouterr() == (
        "", "internal invariant violation: invariant fails after step 50 (52,110)->111\n")


@pytest.mark.parametrize("graph, side", [(cycle(6), "graph"),
                                          (complete(6)[0], "complement")])
def test_checked_count_names_a_failure_before_any_contraction(
        tmp_path, capsys, monkeypatch, graph, side):
    # the invariant is made to fail its first check, which runs on the
    # side's trigraph before the first step
    from twintri import counting
    seq = greedy_sequence(graph)[0]
    assert count_triangles(graph, seq).side == side
    invariant = counting.evaluate_invariant
    checks = []

    def fails_first(*args):
        checks.append(args)
        return len(checks) > 1 and invariant(*args)

    monkeypatch.setattr(counting, "evaluate_invariant", fails_first)
    with pytest.raises(counting.InternalInvariantError) as err:
        count_triangles(graph, seq, mode="checked")
    assert str(err.value) == "invariant fails before any contraction"
    assert len(checks) == 1
    checks.clear()
    gpath = _write(tmp_path, "g.gr", format_graph(graph))
    spath = _write(tmp_path, "g.seq", format_sequence(seq))
    assert main(["count", gpath, "--sequence", spath, "--checked"]) == 4
    assert capsys.readouterr() == (
        "", "internal invariant violation: invariant fails before any contraction\n")
    assert len(checks) == 1


@pytest.mark.parametrize("pairs, message", [
    # 2 names 6, so the id 2 is dead though its group lives on
    (((2, 3), (2, 4), (6, 5), (1, 7)), "step 1 contracts (2, 4) but vertex 2 is not live"),
    (((2, 3), (3, 4), (6, 5), (1, 7)), "step 1 contracts (3, 4) but vertex 3 is not live"),
    # the hub's map is the larger, so 1, the v side, names 6
    (((2, 1), (1, 3), (6, 4), (7, 5)), "step 1 contracts (1, 3) but vertex 1 is not live"),
])
def test_an_id_whose_group_lives_on_is_not_live(tmp_path, capsys, pairs, message):
    # star(4): hub 1, leaves 2..5
    graph, _ = star(4)
    seq = ContractionSequence(5, sum(pairs, ()))
    with pytest.raises(SequenceError) as err:
        count_triangles(graph, seq)
    assert str(err.value) == message
    with pytest.raises(SequenceError) as err:
        replay(Trigraph.from_graph(graph.edges, 5), seq)
    assert str(err.value) == message
    gpath = _write(tmp_path, "star.gr", format_graph(graph))
    spath = _write(tmp_path, "dead.seq", format_sequence(seq))
    assert main(["count", gpath, "--sequence", spath]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_oracle_command(k4_files, capsys):
    gpath, _ = k4_files
    assert main(["oracle", gpath]) == 0
    assert capsys.readouterr().out == "triangles 4\n"


def test_max_n_refuses_huge_headers(tmp_path, capsys):
    # the guard fires on the p line; without it the sequence file would
    # still fail (it lists no pairs), so nothing of size n is allocated
    gpath = _write(tmp_path, "huge.gr", "p 1000000000000 0\n")
    spath = _write(tmp_path, "huge.seq", "s 1000000000000\n")
    for argv in (["count", gpath, "--sequence", spath],
                 ["width", gpath, "--sequence", spath],
                 ["verify", gpath, "--sequence", spath, "--max-width", "0"]):
        assert main(argv) == 3
        assert "n = 1000000000000" in capsys.readouterr().err
    # a header number past CPython's int-string limit is a parse error of
    # line 1, not a size refusal
    gpath = _write(tmp_path, "long.gr", f"p {'9' * 5000} 1\ne 1 2\n")
    assert main(["oracle", gpath]) == 2
    assert capsys.readouterr().err == "parse error: line 1: p line fields must be integers\n"


def test_max_n_sets_the_limit(k4_files, capsys):
    gpath, spath = k4_files
    assert main(["count", gpath, "--sequence", spath, "--max-n", "4"]) == 0
    assert main(["oracle", gpath, "--max-n", "4"]) == 0
    capsys.readouterr()
    assert main(["oracle", gpath, "--max-n", "3"]) == 3
    assert "n = 4" in capsys.readouterr().err
    assert main(["width", gpath, "--sequence", spath, "--max-n", "3"]) == 3
    assert main(["gen", "seq", gpath, "--strategy", "greedy", "--max-n", "3"]) == 3


def test_n_past_the_edge_arrays_exits_3_naming_n(tmp_path, capsys):
    gpath = _write(tmp_path, "wide.gr", "p 2147483648 1\ne 1 2\n")
    assert main(["oracle", gpath, "--max-n", "3000000000"]) == 3
    err = capsys.readouterr().err
    assert "n = 2147483648" in err and "Traceback" not in err


# -- no file ends in a traceback --------------------------------------------

# what an edit puts into a file: numbers the written shape refuses or a C
# int cannot hold, digits int() reads but [0-9] does not, NUL, a BOM, CRLF
FUZZ_TOKENS = ("1e5", "-1", "1234567890", "12345678901234567890", "\u0663",
               "\uff13", "\0", "\ufeff", "\r\n", "\n", " ", "e", "p", "s", "0", "7")
_EDITS = st.lists(st.tuples(
    st.sampled_from(("delete", "insert", "replace")), st.integers(0, 10 ** 6),
    st.one_of(st.sampled_from(FUZZ_TOKENS), st.characters(codec="utf-8"))),
    min_size=1, max_size=4)


def _edited(text, edits):
    for kind, at, token in edits:
        i = at % (len(text) + 1)
        if kind == "delete":
            text = text[:i] + text[i + 1:]
        elif kind == "insert":
            text = text[:i] + token + text[i:]
        else:
            text = text[:i] + token + text[i + 1:]
    return text


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 10 ** 6),
       target=st.sampled_from(("graph", "sequence", "both")), edits=_EDITS)
def test_mutated_files_exit_cleanly(n, seed, target, edits):
    # every reading command exits 0, 2 or 3 on an edited written file; an
    # exception escaping main, or exit 4, fails the test
    graph = gnp(n, 0.5, seed=seed)
    texts = {"graph": format_graph(graph),
             "sequence": format_sequence(greedy_sequence(graph)[0])}
    for name in texts:
        if target in (name, "both"):
            texts[name] = _edited(texts[name], edits)
    with tempfile.TemporaryDirectory() as folder:
        gpath, spath = os.path.join(folder, "g.gr"), os.path.join(folder, "g.seq")
        for path, name in ((gpath, "graph"), (spath, "sequence")):
            with open(path, "wb") as handle:
                handle.write(texts[name].encode("utf-8"))
        for argv in (["count", gpath, "--sequence", spath],
                     ["width", gpath, "--sequence", spath],
                     ["verify", gpath, "--sequence", spath, "--max-width", "1"],
                     ["oracle", gpath]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = main(argv)
            assert status in (0, 2, 3), (argv[0], texts)


def test_gen_graph_deterministic(tmp_path):
    out1 = str(tmp_path / "a.gr")
    out2 = str(tmp_path / "b.gr")
    assert main(["gen", "graph", "--family", "gnp", "--n", "20", "--p", "0.3",
                 "--seed", "7", "-o", out1]) == 0
    assert main(["gen", "graph", "--family", "gnp", "--n", "20", "--p", "0.3",
                 "--seed", "7", "-o", out2]) == 0
    assert Path(out1).read_text() == Path(out2).read_text()


def test_gen_graph_grid_needs_dimensions(tmp_path, capsys):
    assert main(["gen", "graph", "--family", "grid", "-o", str(tmp_path / "g.gr")]) == 3
    assert main(["gen", "graph", "--family", "grid", "--rows", "3", "--cols", "4",
                 "-o", str(tmp_path / "g.gr")]) == 0
    assert load_graph(str(tmp_path / "g.gr")).n == 12


@pytest.mark.parametrize("family, flags, needs", [
    ("gnp", ["--p", "0.3", "--seed", "1"], "--n"),
    ("cograph", ["--block", "4"], "--n"),
    ("complete", [], "--n"),
    ("path", [], "--n"),
    ("cycle", [], "--n"),
    ("star", [], "--n"),
    ("grid", [], "--rows and --cols"),
    ("grid", ["--cols", "4"], "--rows and --cols"),
    ("petersen", [], None),
])
def test_gen_graph_names_its_missing_required_flags(tmp_path, monkeypatch, capsys,
                                                    family, flags, needs):
    monkeypatch.delenv("TWINTRI_SEED", raising=False)
    out = tmp_path / "g.gr"
    if needs is None:  # petersen requires nothing
        assert main(["gen", "graph", "--family", family, *flags, "-o", str(out)]) == 0
        assert load_graph(str(out)).n == 10
        return
    # refused before anything is written, to a file or to stdout
    for output in (["-o", str(out)], []):
        assert main(["gen", "graph", "--family", family, *flags, *output]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{family} needs {needs}\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_graph_cograph_with_sequence(tmp_path, capsys):
    gpath = str(tmp_path / "c.gr")
    spath = str(tmp_path / "c.seq")
    assert main(["gen", "graph", "--family", "cograph", "--n", "30",
                 "--seed", "2", "-o", gpath, "--sequence-out", spath]) == 0
    assert main(["count", gpath, "--sequence", spath, "--stats"]) == 0
    out = capsys.readouterr().out.splitlines()
    stats = dict(line.split() for line in out[1:])
    assert stats["width"] == "0"


def test_gen_graph_sequence_out_needs_cotree(tmp_path, capsys, monkeypatch):
    # refused from the family's FAMILIES row before the graph is built,
    # however large, and before anything is written, to a file or to stdout
    from twintri import generate

    def never_built(*args, **kwargs):
        raise AssertionError("a family with no cotree was built")

    for family, size in (("gnp", ["--n", "4000", "--p", "0.5"]),
                         ("grid", ["--rows", "2000", "--cols", "2000"])):
        _, required, optional, has_cotree = generate.FAMILIES[family]
        monkeypatch.setitem(generate.FAMILIES, family,
                            (never_built, required, optional, has_cotree))
        for output in (["-o", str(tmp_path / "x.gr")], []):
            assert main(["gen", "graph", "--family", family, *size, *output,
                         "--sequence-out", str(tmp_path / "x.seq")]) == 3
            assert capsys.readouterr() == (
                "", f"family {family} carries no cotree, cannot emit a width-0 sequence\n")
    assert list(tmp_path.iterdir()) == []


def test_gen_seq_strategies(tmp_path, capsys):
    graph = cycle(6)
    gpath = _write(tmp_path, "c6.gr", format_graph(graph))
    for strategy in ("greedy", "exact"):
        spath = str(tmp_path / f"{strategy}.seq")
        assert main(["gen", "seq", gpath, "--strategy", strategy, "-o", spath]) == 0
        err = capsys.readouterr().err
        assert err.startswith("width ")
        width = int(err.split()[1])
        seq = load_sequence(spath)
        report = replay(Trigraph.from_graph(graph.edges, graph.n), seq, width)
        assert report.valid


def test_gen_seq_twin_refused_for_plain_files(tmp_path):
    gpath = _write(tmp_path, "c6.gr", format_graph(cycle(6)))
    assert main(["gen", "seq", gpath, "--strategy", "twin"]) == 3


def test_gen_seq_greedy_refuses_huge_graphs(tmp_path, capsys):
    # under the default --max-n, yet greedy's first step would build a
    # mask of up to n bits for each slot, about 58 GiB in all
    gpath = _write(tmp_path, "huge.gr", "p 1000000 1\ne 1 2\n")
    spath = tmp_path / "huge.seq"
    assert main(["gen", "seq", gpath, "--strategy", "greedy", "-o", str(spath)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: greedy search is limited to 10000 vertices "
                            "(n = 1000000)\n")
    assert not spath.exists()


def test_gen_seq_exact_respects_limit(tmp_path, capsys):
    from twintri.generate import gnp
    gpath = _write(tmp_path, "big.gr", format_graph(gnp(12, 0.5, seed=1)))
    assert main(["gen", "seq", gpath, "--strategy", "exact"]) == 3
    # the message names what a CLI user can run, not a library function
    err = capsys.readouterr().err
    assert "limited to 9 vertices (12 given)" in err
    assert "use the greedy strategy instead" in err
    assert "greedy_sequence" not in err
    assert main(["gen", "seq", gpath, "--strategy", "exact",
                 "--exact-max-n", "12"]) == 0
    capsys.readouterr()
    # an --exact-max-n above n cannot lift exact's own ceiling, and exact
    # runs no greedy pass whose limit could answer for it
    gpath = _write(tmp_path, "huge.gr", "p 1000000 1\ne 1 2\n")
    spath = tmp_path / "huge.seq"
    assert main(["gen", "seq", gpath, "--strategy", "exact",
                 "--exact-max-n", "2000000", "-o", str(spath)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: exact search is limited to ")
    assert "greedy" not in captured.err
    assert not spath.exists()


def test_internal_invariant_maps_to_exit_4(k4_files, monkeypatch):
    import twintri.cli as cli
    from twintri.counting import InternalInvariantError

    gpath, spath = k4_files

    def boom(*args, **kwargs):
        raise InternalInvariantError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "count_triangles", boom)
    assert cli.main(["count", gpath, "--sequence", spath]) == 4


def test_env_var_supplies_default_seed(tmp_path, monkeypatch):
    out1, out2, out3 = (str(tmp_path / f"{i}.gr") for i in range(3))
    monkeypatch.setenv("TWINTRI_SEED", "5")
    assert main(["gen", "graph", "--family", "gnp", "--n", "15", "-o", out1]) == 0
    assert main(["gen", "graph", "--family", "gnp", "--n", "15", "-o", out2]) == 0
    monkeypatch.setenv("TWINTRI_SEED", "6")
    assert main(["gen", "graph", "--family", "gnp", "--n", "15", "-o", out3]) == 0
    assert Path(out1).read_text() == Path(out2).read_text()
    assert Path(out1).read_text() != Path(out3).read_text()


def test_bad_env_seed_is_refused(tmp_path, monkeypatch, capsys):
    out = tmp_path / "g.gr"
    monkeypatch.setenv("TWINTRI_SEED", "abc")
    assert main(["gen", "graph", "--family", "gnp", "--n", "12", "--p", "0.3",
                 "-o", str(out)]) == 3
    assert "TWINTRI_SEED='abc'" in capsys.readouterr().err
    assert not out.exists()
    # the seed is read before a missing --n is named
    assert main(["gen", "graph", "--family", "gnp", "-o", str(out)]) == 3
    assert capsys.readouterr().err == "error: TWINTRI_SEED='abc' is not an integer\n"
    assert not out.exists()
    # an explicit --seed never reads the variable
    assert main(["gen", "graph", "--family", "gnp", "--n", "12", "--p", "0.3",
                 "--seed", "0", "-o", str(out)]) == 0


def test_env_seed_is_read_only_by_seeded_families(tmp_path, monkeypatch):
    # petersen and complete ignore any seed, so a bad variable is not theirs
    monkeypatch.setenv("TWINTRI_SEED", "abc")
    assert main(["gen", "graph", "--family", "petersen",
                 "-o", str(tmp_path / "p.gr")]) == 0
    assert main(["gen", "graph", "--family", "complete", "--n", "4",
                 "-o", str(tmp_path / "k.gr")]) == 0
    assert main(["gen", "graph", "--family", "cograph", "--n", "4",
                 "-o", str(tmp_path / "c.gr")]) == 3


@pytest.mark.parametrize("family, flags, named", [
    ("petersen", ["--n", "50", "--p", "0.9", "--block", "3"], "--n"),
    ("petersen", ["--block", "3"], "--block"),
    ("complete", ["--n", "5", "--p", "0.9"], "--p"),
    ("gnp", ["--n", "5", "--block", "2"], "--block"),
    ("cograph", ["--n", "5", "--rows", "2"], "--rows"),
    ("path", ["--n", "5", "--cols", "2"], "--cols"),
    ("grid", ["--rows", "2", "--cols", "3", "--n", "6"], "--n"),
    ("complete", ["--n", "4", "--seed", "3"], "--seed"),
    ("star", ["--n", "4", "--seed", "3"], "--seed"),
    ("path", ["--n", "4", "--seed", "3"], "--seed"),
    ("cycle", ["--n", "4", "--seed", "3"], "--seed"),
    ("grid", ["--rows", "2", "--cols", "3", "--seed", "3"], "--seed"),
    ("petersen", ["--seed", "3"], "--seed"),
])
def test_gen_graph_refuses_flags_its_family_ignores(tmp_path, capsys,
                                                     family, flags, named):
    out = tmp_path / "g.gr"
    assert main(["gen", "graph", "--family", family, *flags, "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{named} does not apply to family {family}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("family, flags, message", [
    ("gnp", ["--n", "0"], "need n >= 1"),
    ("cograph", ["--n", "0"], "need n >= 1"),
    ("complete", ["--n", "0"], "need n >= 1"),
    ("path", ["--n", "0"], "need n >= 1"),
    ("cograph", ["--n", "5", "--block", "0"], "block_size must be positive"),
    ("star", ["--n", "0"], "need at least one leaf"),
    ("cycle", ["--n", "2"], "cycles need n >= 3"),
    ("grid", ["--rows", "0", "--cols", "3"], "grid needs positive dimensions"),
    ("gnp", ["--n", "5", "--p", "1.5"], "p must lie in [0, 1]"),
])
def test_gen_graph_passes_on_its_builders_refusals(tmp_path, monkeypatch, capsys,
                                                   family, flags, message):
    monkeypatch.delenv("TWINTRI_SEED", raising=False)
    # refused before anything is written, to a file or to stdout
    for output in (["-o", str(tmp_path / "g.gr")], []):
        assert main(["gen", "graph", "--family", family, *flags, *output]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


# Runs gen graph once per argument list under a 256 MiB address-space
# limit, and prints each exit status and stderr as a JSON line; a builder
# that started its loop on a huge n would end in MemoryError instead
_LIMITED_GEN = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from twintri.cli import main
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            status = main(["gen", "graph", *argv])
        except MemoryError:
            status = "MemoryError"
    print(json.dumps([status, err.getvalue()]))
"""


def test_gen_graph_refuses_a_vertex_count_past_the_edge_arrays_up_front(tmp_path):
    out = str(tmp_path / "g.gr")
    cases = [(["--family", "star", "--n", "2147483647"], 2 ** 31),
             (["--family", "gnp", "--n", "3000000000"], 3_000_000_000),
             (["--family", "grid", "--rows", "65536", "--cols", "32768"], 2 ** 31)]
    cases += [(["--family", family, "--n", str(2 ** 31)], 2 ** 31)
              for family in ("cograph", "complete", "path", "cycle")]
    result = subprocess.run(
        [sys.executable, "-c", _LIMITED_GEN,
         json.dumps([argv + ["-o", out] for argv, _ in cases])],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    assert [json.loads(line) for line in result.stdout.splitlines()] == \
        [[3, f"error: graph declares n = {n} vertices, more than the "
             "2147483647 an edge array can hold\n"] for _, n in cases]
    assert not os.path.exists(out)


# Runs the CLI on its arguments after the first, under an address-space
# limit of as many MiB as the first says
_LIMITED_CLI = """
import resource, sys
cap = int(sys.argv.pop(1)) << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from twintri.cli import main
sys.exit(main())
"""

# Each family's cap in MiB.  gnp keeps 8 bytes an edge, so under 256 MiB
# it draws random numbers for 6 to 8 s before it runs out; under 64 MiB it
# runs out in 0.9 to 1.4 s (Python 3.10 to 3.13), while each of those
# Pythons still starts and imports twintri under 24 MiB
OOM_CAP_MIB = {"complete": 256, "gnp": 64}


@pytest.mark.parametrize("flags", [["--family", "complete", "--n", "200000"],
                                   ["--family", "gnp", "--n", "200000", "--p", "0.5"]])
def test_running_out_of_memory_exits_3_without_a_traceback(tmp_path, flags):
    out = str(tmp_path / "g.gr")
    cap = OOM_CAP_MIB[flags[1]]
    result = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, str(cap), "gen", "graph", *flags, "-o", out],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert result.returncode == 3
    assert result.stderr == "error: ran out of memory\n"
    assert result.stdout == ""
    assert not os.path.exists(out)


def test_gen_graph_p_defaults_to_half(tmp_path):
    out1, out2 = tmp_path / "a.gr", tmp_path / "b.gr"
    assert main(["gen", "graph", "--family", "gnp", "--n", "20", "--seed", "3",
                 "-o", str(out1)]) == 0
    assert main(["gen", "graph", "--family", "gnp", "--n", "20", "--p", "0.5",
                 "--seed", "3", "-o", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def _pyproject_script(name):
    """The ``[project.scripts]`` entry ``name`` from the repository's pyproject.toml.

    Read by hand: tomllib needs Python 3.11 and the project supports 3.10,
    and importlib.metadata would read an installed copy, possibly a stale one.
    """
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    for line in section.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() == name:
            return value.strip().strip("\"'")
    raise KeyError(name)


def _child_env(unbuffered=False):
    """The environment of a child that imports the same twintri as this
    process, checkout or installed copy, with stdout block-buffered as
    it is under a shell pipe, or unbuffered as under `python -u`."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(twintri.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def test_console_script_runs():
    module, _, attrs = _pyproject_script("twintri").partition(":")
    target = importlib.import_module(module)
    for attr in attrs.split("."):
        target = getattr(target, attr)
    assert target is main

    result = subprocess.run([sys.executable, "-m", "twintri", "--help"],
                            capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0
    # the subcommand choices of the usage line; "count" alone also matches
    # help prose such as "count triangles of a graph"
    usage = result.stdout.split("\n\n")[0]
    choices = re.search(r"\{([^}]*)\}", usage)
    assert choices, usage
    assert set(choices.group(1).split(",")) == {"count", "width", "verify", "oracle", "gen"}


def test_a_reader_closed_before_the_first_write_exits_141(k4_files):
    # like `count ... --stats | head -0`: the output fits stdout's buffer,
    # so the pipe fails at the last flush
    gpath, spath = k4_files
    for unbuffered in (False, True):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "twintri", "count", gpath, "--sequence", spath, "--stats"],
                stdout=write_end, stderr=subprocess.PIPE, env=_child_env(unbuffered))
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (141, b""), f"unbuffered={unbuffered}"


def test_a_reader_that_stops_after_one_line_exits_141():
    # like `gen graph ... | head -1`: K_400's text, about 1 MB, is far
    # larger than a pipe's buffer, so the write outlives the reader.
    # Unbuffered, that write is cut short rather than refused, and the
    # rest of the text must still fail on the closed pipe
    for unbuffered in (False, True):
        with subprocess.Popen(
                [sys.executable, "-m", "twintri", "gen", "graph", "--family", "complete", "--n", "400"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=_child_env(unbuffered)) as child:
            assert child.stdout.readline() == b"p 400 79800\n"
            child.stdout.close()
            assert child.stderr.read() == b""
            assert child.wait() == 141, f"unbuffered={unbuffered}"
