"""Command line interface.

Exit codes: 0 success, 2 file parse error, 3 semantic error (bad or
failing sequences, unusable arguments), 4 internal invariant violation.
The TWINTRI_SEED environment variable supplies the default RNG seed of
the random graph families (gnp, cograph).
"""

from __future__ import annotations

import argparse
import os
import sys

from .counting import (CHECKED_LIMIT, InternalInvariantError, count_triangles,
                       side_trigraph)
from .generate import (
    EXACT_MAX_N,
    GRAPH_FAMILIES,
    exact_sequence,
    generate_graph,
    greedy_sequence,
    twin_sequence,
)
from .graphio import GraphFormatError, format_graph, load_graph, save_graph
from .oracle import count_naive
from .sequence import (
    SequenceError,
    SequenceFormatError,
    format_sequence,
    load_sequence,
    replay,
    save_sequence,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_INTERNAL = 4
# Largest vertex count the reading commands accept by default.  A count
# allocates about 90 bytes per vertex before it reads an edge and the
# oracle about 64, so a tiny file with a huge p line would otherwise end
# in a memory blow-up instead of an error.
DEFAULT_MAX_N = 1_000_000


# The flags of `gen graph` each family reads; giving it any other one is
# refused rather than dropped.  Only the random families read a seed.
FAMILY_FLAGS = {"gnp": ("n", "p", "seed"), "cograph": ("n", "block", "seed"),
                "grid": ("rows", "cols"), "petersen": ()}
GEN_FLAGS = ("n", "p", "rows", "cols", "block", "seed")


def _default_seed() -> int:
    raw = os.environ.get("TWINTRI_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TWINTRI_SEED={raw!r} is not an integer") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twintri",
        description="Count triangles using a twin-width contraction sequence.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count triangles of a graph")
    p_count.add_argument("graph")
    p_count.add_argument("--sequence", required=True, help="contraction sequence file")
    p_count.add_argument("--stats", action="store_true",
                         help="print the instrumentation counters")
    p_count.add_argument("--checked", action="store_true",
                         help="verify the counting invariants after every step")
    p_count.add_argument("--checked-limit", type=int, default=CHECKED_LIMIT,
                         help=f"largest n allowed in checked mode (default {CHECKED_LIMIT})")

    p_width = sub.add_parser("width", help="width of a contraction sequence")
    p_width.add_argument("graph")
    p_width.add_argument("--sequence", required=True)

    p_verify = sub.add_parser("verify", help="check a sequence against a width bound")
    p_verify.add_argument("graph")
    p_verify.add_argument("--sequence", required=True)
    p_verify.add_argument("--max-width", type=int, required=True)

    p_oracle = sub.add_parser("oracle", help="brute-force triangle count")
    p_oracle.add_argument("graph")

    p_gen = sub.add_parser("gen", help="generate graphs and sequences")
    gen_sub = p_gen.add_subparsers(dest="gen_command", required=True)

    p_graph = gen_sub.add_parser("graph", help="generate a graph file")
    p_graph.add_argument("--family", required=True, choices=GRAPH_FAMILIES)
    p_graph.add_argument("--n", type=int)
    p_graph.add_argument("--p", type=float, help="edge probability (gnp; default 0.5)")
    p_graph.add_argument("--rows", type=int)
    p_graph.add_argument("--cols", type=int)
    p_graph.add_argument("--block", type=int, help="cograph block size")
    p_graph.add_argument("--seed", type=int,
                         help="RNG seed (gnp, cograph; default TWINTRI_SEED or 0)")
    p_graph.add_argument("-o", "--output", help="graph file (stdout when absent)")
    p_graph.add_argument("--sequence-out",
                         help="also write the cotree's width-0 sequence here "
                              "(cotree-backed families only)")

    p_seq = gen_sub.add_parser("seq", help="generate a contraction sequence")
    p_seq.add_argument("graph")
    p_seq.add_argument("--strategy", required=True, choices=("exact", "greedy", "twin"))
    p_seq.add_argument("--exact-max-n", type=int, default=EXACT_MAX_N,
                       help="largest n the exact strategy searches "
                            f"(exit 3 above it; default {EXACT_MAX_N})")
    p_seq.add_argument("-o", "--output", help="sequence file (stdout when absent)")

    for reader in (p_count, p_width, p_verify, p_oracle, p_seq):
        reader.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                            help="refuse graphs whose p line declares more "
                                 f"vertices (exit 3; default {DEFAULT_MAX_N})")

    return parser


def _cmd_count(args) -> int:
    graph = load_graph(args.graph, args.max_n)
    seq = load_sequence(args.sequence)
    mode = "checked" if args.checked else "fast"
    result = count_triangles(graph, seq, mode=mode, checked_limit=args.checked_limit)
    print(f"triangles {result.triangles}")
    if args.stats:
        print(f"side {result.side}")
        print(f"width {result.width}")
        print(f"steps {result.steps}")
        c = result.counters
        print(f"contractions {c.contractions}")
        print(f"aux_updates {c.aux_updates}")
        print(f"one_neighbor_calls {c.one_neighbor_calls}")
        print(f"two_neighbor_pair_visits {c.two_neighbor_pair_visits}")
        print(f"red_wedge_visits {c.red_wedge_visits}")
        print(f"graph_update_work {c.graph_update_work}")
        print(f"sum_red_degree_sq {result.sum_red_degree_sq}")
    return EXIT_OK


def _cmd_width(args) -> int:
    graph = load_graph(args.graph, args.max_n)
    seq = load_sequence(args.sequence)
    report = replay(side_trigraph(graph)[1], seq)
    print(f"width {report.width}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph = load_graph(args.graph, args.max_n)
    seq = load_sequence(args.sequence)
    report = replay(side_trigraph(graph)[1], seq, args.max_width)
    if report.valid:
        print(f"valid width {report.width}")
        return EXIT_OK
    u, v = seq.pairs[report.failing_step]
    print(f"invalid step {report.failing_step} ({u}, {v}) width {report.width}")
    return EXIT_SEMANTIC


def _cmd_oracle(args) -> int:
    graph = load_graph(args.graph, args.max_n)
    print(f"triangles {count_naive(graph)}")
    return EXIT_OK


def _cmd_gen_graph(args) -> int:
    used = FAMILY_FLAGS.get(args.family, ("n",))
    for flag in GEN_FLAGS:
        if getattr(args, flag) is not None and flag not in used:
            print(f"--{flag} does not apply to family {args.family}",
                  file=sys.stderr)
            return EXIT_SEMANTIC
    params = {}
    if "seed" in used:
        params["seed"] = args.seed if args.seed is not None else _default_seed()
    if args.family == "grid":
        if args.rows is None or args.cols is None:
            print("grid needs --rows and --cols", file=sys.stderr)
            return EXIT_SEMANTIC
        params["rows"], params["cols"] = args.rows, args.cols
    elif args.family != "petersen":
        if args.n is None:
            print(f"{args.family} needs --n", file=sys.stderr)
            return EXIT_SEMANTIC
        params["n"] = args.n
    if args.p is not None:
        params["p"] = args.p
    if args.block is not None:
        params["block_size"] = args.block
    graph, cotree = generate_graph(args.family, **params)
    if args.sequence_out and cotree is None:
        print(f"family {args.family} carries no cotree, cannot emit a "
              "width-0 sequence", file=sys.stderr)
        return EXIT_SEMANTIC
    if args.output:
        save_graph(graph, args.output)
    else:
        sys.stdout.write(format_graph(graph))
    if args.sequence_out:
        save_sequence(twin_sequence(cotree, graph.n), args.sequence_out)
    return EXIT_OK


def _cmd_gen_seq(args) -> int:
    graph = load_graph(args.graph, args.max_n)
    if args.strategy == "twin":
        print("the twin strategy needs the generating cotree; regenerate the "
              "graph with 'gen graph --sequence-out' or use greedy",
              file=sys.stderr)
        return EXIT_SEMANTIC
    if args.strategy == "exact":
        seq, width = exact_sequence(graph, max_n=args.exact_max_n)
    else:
        seq, width = greedy_sequence(graph)
    if args.output:
        save_sequence(seq, args.output)
    else:
        sys.stdout.write(format_sequence(seq))
    print(f"width {width}", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "width": _cmd_width,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
    }
    try:
        if args.command == "gen":
            if args.gen_command == "graph":
                return _cmd_gen_graph(args)
            return _cmd_gen_seq(args)
        return handlers[args.command](args)
    except (GraphFormatError, SequenceFormatError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (SequenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
