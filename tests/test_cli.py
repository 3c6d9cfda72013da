import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    u, v = seq.pairs[report.failing_step]
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
    gpath = _write(tmp_path, "p3.gr", format_graph(PlainGraph(3, [(1, 2), (2, 3)])))
    spath = _write(tmp_path, "n2.seq", "s 2\n1 2\n")
    for command in (["count"], ["width"], ["verify", "--max-width", "0"]):
        assert main(command + [gpath, "--sequence", spath]) == 3
        assert capsys.readouterr() == \
            ("", "error: sequence is for 2 vertices, graph has 3\n")


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
    seq = ContractionSequence(5, pairs)
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


def test_max_n_sets_the_limit(k4_files, capsys):
    gpath, spath = k4_files
    assert main(["count", gpath, "--sequence", spath, "--max-n", "4"]) == 0
    assert main(["oracle", gpath, "--max-n", "4"]) == 0
    capsys.readouterr()
    assert main(["oracle", gpath, "--max-n", "3"]) == 3
    assert "n = 4" in capsys.readouterr().err
    assert main(["width", gpath, "--sequence", spath, "--max-n", "3"]) == 3
    assert main(["gen", "seq", gpath, "--strategy", "greedy", "--max-n", "3"]) == 3


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


def test_gen_graph_cograph_with_sequence(tmp_path, capsys):
    gpath = str(tmp_path / "c.gr")
    spath = str(tmp_path / "c.seq")
    assert main(["gen", "graph", "--family", "cograph", "--n", "30",
                 "--seed", "2", "-o", gpath, "--sequence-out", spath]) == 0
    assert main(["count", gpath, "--sequence", spath, "--stats"]) == 0
    out = capsys.readouterr().out.splitlines()
    stats = dict(line.split() for line in out[1:])
    assert stats["width"] == "0"


def test_gen_graph_sequence_out_needs_cotree(tmp_path, capsys):
    # refused before anything is written, to a file or to stdout
    for output in (["-o", str(tmp_path / "x.gr")], []):
        assert main(["gen", "graph", "--family", "gnp", "--n", "5", *output,
                     "--sequence-out", str(tmp_path / "x.seq")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "carries no cotree" in captured.err
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


def test_console_script_runs():
    module, _, attrs = _pyproject_script("twintri").partition(":")
    target = importlib.import_module(module)
    for attr in attrs.split("."):
        target = getattr(target, attr)
    assert target is main

    # the child imports the same twintri as this process, checkout or installed copy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(twintri.__file__).parents[1]), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "twintri", "--help"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    # the subcommand choices of the usage line; "count" alone also matches
    # help prose such as "count triangles of a graph"
    usage = result.stdout.split("\n\n")[0]
    choices = re.search(r"\{([^}]*)\}", usage)
    assert choices, usage
    assert set(choices.group(1).split(",")) == {"count", "width", "verify", "oracle", "gen"}

