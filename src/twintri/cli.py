"""Command line interface.

Exit codes: 0 success, 2 file parse error, 3 semantic error (bad or
failing sequences, unusable arguments, memory running out), 4 internal
invariant violation, 141 stdout closed by its reader (128 + SIGPIPE,
what a shell reports when SIGPIPE ends a C tool).
The TWINTRI_SEED environment variable supplies the default RNG seed of
the random graph families (gnp, cograph).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

from .counting import (CHECKED_LIMIT, InternalInvariantError, count_triangles,
                       side_trigraph)
from .generate import (
    EXACT_MAX_N,
    FAMILIES,
    exact_sequence,
    generate_graph,
    greedy_sequence,
    twin_sequence,
)
from .graphio import FormatError, graph_slices, load_graph, save_graph
from .oracle import count_naive
from .sequence import (
    check_n,
    load_sequence,
    replay,
    save_sequence,
    sequence_slices,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 128 + 13  # SIGPIPE
# Largest vertex count the reading commands accept by default.  A count
# allocates about 90 bytes per vertex before it reads an edge and the
# oracle about 64, so a tiny file with a huge p line would otherwise end
# in a memory blow-up instead of an error.
DEFAULT_MAX_N = 1_000_000


def _default_seed() -> int:
    raw = os.environ.get("TWINTRI_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TWINTRI_SEED={raw!r} is not an integer") from None


def _reader(parent, name: str, handler, help: str) -> argparse.ArgumentParser:
    """The subparser of a command that reads a graph file: graph is its
    first argument, so argparse names it first among the missing ones,
    and handler is called with the args and the graph loaded under
    --max-n, which _build_parser adds last to every reader."""
    reader = parent.add_parser(name, help=help)
    reader.add_argument("graph")
    reader.set_defaults(handler=lambda args: handler(args, load_graph(args.graph, args.max_n)))
    return reader


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twintri",
        description="Count triangles using a twin-width contraction sequence.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = _reader(sub, "count", _cmd_count, help="count triangles of a graph")
    p_count.add_argument("--sequence", required=True, help="contraction sequence file")
    p_count.add_argument("--stats", action="store_true",
                         help="print the instrumentation counters")
    p_count.add_argument("--checked", action="store_true",
                         help="verify the counting invariants after every step")
    p_count.add_argument("--checked-limit", type=int, default=CHECKED_LIMIT,
                         help=f"largest n allowed in checked mode (default {CHECKED_LIMIT})")

    p_width = _reader(sub, "width", _cmd_replay, help="width of a contraction sequence")
    p_width.add_argument("--sequence", required=True)
    p_width.set_defaults(max_width=None)

    p_verify = _reader(sub, "verify", _cmd_replay,
                       help="check a sequence against a width bound")
    p_verify.add_argument("--sequence", required=True)
    p_verify.add_argument("--max-width", type=int, required=True)

    p_oracle = _reader(sub, "oracle", _cmd_oracle, help="brute-force triangle count")

    p_gen = sub.add_parser("gen", help="generate graphs and sequences")
    gen_sub = p_gen.add_subparsers(dest="gen_command", required=True)

    p_graph = gen_sub.add_parser("graph", help="generate a graph file")
    p_graph.add_argument("--family", required=True, choices=FAMILIES)
    # each dest is the generate_graph parameter the flag sets; the family's
    # FAMILIES row says which it needs and which it takes
    flags = [
        p_graph.add_argument("--n", type=int,
                             help="vertex count (star: leaf count, so n + 1 vertices)"),
        p_graph.add_argument("--p", type=float, help="edge probability (gnp; default 0.5)"),
        p_graph.add_argument("--rows", type=int),
        p_graph.add_argument("--cols", type=int),
        p_graph.add_argument("--block", dest="block_size", metavar="BLOCK", type=int,
                             help="cograph block size"),
        p_graph.add_argument("--seed", type=int,
                             help="RNG seed (gnp, cograph; default TWINTRI_SEED or 0)")]
    p_graph.set_defaults(handler=_cmd_gen_graph,
                         flags={a.dest: a.option_strings[0] for a in flags})
    p_graph.add_argument("-o", "--output", help="graph file (stdout when absent)")
    p_graph.add_argument("--sequence-out",
                         help="also write the cotree's width-0 sequence here "
                              "(cotree-backed families only)")

    p_seq = _reader(gen_sub, "seq", _cmd_gen_seq, help="generate a contraction sequence")
    p_seq.add_argument("--strategy", required=True, choices=("exact", "greedy"))
    p_seq.add_argument("--exact-max-n", type=int, default=EXACT_MAX_N,
                       help="largest n the exact strategy searches "
                            f"(exit 3 above it; default {EXACT_MAX_N})")
    p_seq.add_argument("-o", "--output", help="sequence file (stdout when absent)")

    for reader in (p_count, p_width, p_verify, p_oracle, p_seq):
        reader.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                            help="refuse graphs whose p line declares more "
                                 f"vertices (exit 3; default {DEFAULT_MAX_N})")

    return parser


def _write_out(slices) -> None:
    """Write each str of slices to stdout whole, one at a time.  Under
    `python -u` stdout's bytes layer is a raw file whose write may take
    only part of the bytes, and the text layer drops the rest without a
    word; writing each slice's bytes in a loop makes the write after a
    short one raise BrokenPipeError instead."""
    sys.stdout.flush()
    for text in slices:
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[sys.stdout.buffer.write(data):]


def _cmd_count(args, graph) -> int:
    seq = load_sequence(args.sequence)
    mode = "checked" if args.checked else "fast"
    result = count_triangles(graph, seq, mode=mode, checked_limit=args.checked_limit)
    print(f"triangles {result.triangles}")
    if args.stats:
        print(f"side {result.side}")
        print(f"width {result.width}")
        print(f"steps {result.steps}")
        for name, value in asdict(result.counters).items():
            print(f"{name} {value}")
        print(f"sum_red_degree_sq {result.sum_red_degree_sq}")
    return EXIT_OK


def _cmd_replay(args, graph) -> int:
    """width and verify: replay the sequence on the side a count would
    use; width has no bound, so its max_width is None."""
    seq = load_sequence(args.sequence)
    check_n(seq, graph.n)
    report = replay(side_trigraph(graph)[1], seq, args.max_width)
    if args.max_width is None:
        print(f"width {report.width}")
        return EXIT_OK
    if report.valid:
        print(f"valid width {report.width}")
        return EXIT_OK
    u, v = seq.ends[2 * report.failing_step:2 * report.failing_step + 2]
    print(f"invalid step {report.failing_step} ({u}, {v}) width {report.width}")
    return EXIT_SEMANTIC


def _cmd_oracle(args, graph) -> int:
    print(f"triangles {count_naive(graph)}")
    return EXIT_OK


def _cmd_gen_graph(args) -> int:
    _, required, optional, has_cotree = FAMILIES[args.family]
    given = {name: getattr(args, name) for name in args.flags
             if getattr(args, name) is not None}
    for name in given:
        if name not in required + optional:
            print(f"{args.flags[name]} does not apply to family {args.family}",
                  file=sys.stderr)
            return EXIT_SEMANTIC
    if "seed" in optional and "seed" not in given:
        given["seed"] = _default_seed()
    if any(name not in given for name in required):
        print(f"{args.family} needs "
              + " and ".join(args.flags[name] for name in required), file=sys.stderr)
        return EXIT_SEMANTIC
    if args.sequence_out and not has_cotree:
        print(f"family {args.family} carries no cotree, cannot emit a "
              "width-0 sequence", file=sys.stderr)
        return EXIT_SEMANTIC
    graph, cotree = generate_graph(args.family, **given)
    if args.output:
        save_graph(graph, args.output)
    else:
        _write_out(graph_slices(graph))
    if args.sequence_out:
        save_sequence(twin_sequence(cotree, graph.n), args.sequence_out)
    return EXIT_OK


def _cmd_gen_seq(args, graph) -> int:
    if args.strategy == "exact":
        seq, width = exact_sequence(graph, max_n=args.exact_max_n)
    else:
        seq, width = greedy_sequence(graph)
    if args.output:
        save_sequence(seq, args.output)
    else:
        _write_out(sequence_slices(seq))
    print(f"width {width}", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        # a reader that closed stdout early fails this flush, not the one at exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the recipe in the signal module's docs: stdout goes to devnull, so
        # the flush at shutdown has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except MemoryError:
        # reported below, once the frames that held the memory are freed
        pass
    print("error: ran out of memory", file=sys.stderr)
    return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
