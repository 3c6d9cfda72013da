"""twintri benchmark: file-to-count and verify latency, split by module.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload cograph-sparse --seed 1 --seconds 10 --trace 0

One process makes one call at a time, back to back (a closed loop with a
single client): twintri is a batch tool with no arrival process.  The
workload's graph and sequence are generated from --seed as texts, and
every timed call starts from those texts, as `twintri count` and
`twintri verify` do after reading their files.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, with times
scaled to a reference host speed (see calibrate.py); --trace 1 prints
its per-layer metrics, taken from a separate traced pass.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record (environment, raw
samples, spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibrate import kernel_seconds, scaled
from spans import Tracer, aggregated, children, duration, patched
from workloads import (WORKLOADS, Inputs, PinMismatch, Workload, check_pin,
                       describe, load_pins, set_up)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_REPEATS = 3  # setup_s is the median of this many fresh set-ups
MIN_SAMPLES = 3  # per end-to-end timing, even past --seconds
# shares of the measuring time; producing a twin sequence takes
# milliseconds, so seq_s needs less time for a steady median
WEIGHTS = {"count_s": 2.0, "verify_s": 2.0, "seq_s": 1.0}
# the kernel runs around each call for this share of the call's duration:
# half before (sized by the previous call), half after
KERNEL_SHARE = 0.05
TRACE_REPEATS = 3  # per-layer times are medians over this many traced passes
# Trigraph methods timed in aggregate inside count_triangles; what they
# leave of the call is counting.self_s
COUNTING_CHILDREN = ("from_graph", "merge_neighborhoods", "contract", "edge_color")


def declared_metrics(trace: bool) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Checker:
    """Runs calls, checks their results, and counts attempts and failures."""

    MAX_LOGGED = 5  # failures printed to stderr; all are counted

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, label: str, problem: str):
        self.failed += 1
        if self.failed <= self.MAX_LOGGED:
            print(f"perfbench: {label}: {problem}", file=sys.stderr)

    def run(self, label: str, call, check):
        """Time call(); a raise or a problem named by check(result) fails.

        Returns (seconds, result); result is None when call raised.
        """
        self.attempted += 1
        began = perf_counter()
        try:
            result = call()
        except Exception as exc:  # any raise is a failed operation, not a crash
            elapsed = perf_counter() - began
            self.fail(label, f"raised {exc!r}")
            return elapsed, None
        elapsed = perf_counter() - began
        problem = check(result)
        if problem:
            self.fail(label, problem)
        return elapsed, result


def operations(inputs: Inputs) -> dict:
    """The timed end-to-end calls, each with the check of its result."""
    tt = inputs.tt
    graph_text, seq_text = inputs.graph_text, inputs.sequence_text

    def count():
        return tt.count_triangles(tt.parse_graph(graph_text),
                                  tt.parse_sequence(seq_text), mode="fast")

    def check_count(result):
        if (result.triangles, result.width) != (inputs.triangles, inputs.width):
            return (f"count gave {result.triangles} triangles at width {result.width}, "
                    f"reference {inputs.triangles} at width {inputs.width}")

    def verify():
        graph = tt.parse_graph(graph_text)
        seq = tt.parse_sequence(seq_text)
        return tt.verify_width(tt.Trigraph.from_graph(graph.edges, graph.n),
                               seq, inputs.width)

    def check_verify(report):
        if not report.valid or report.width != inputs.width:
            return (f"verify gave valid={report.valid} width={report.width}, "
                    f"reference width {inputs.width}")

    def check_sequence(made):
        seq, width = made
        if width != inputs.width or tt.format_sequence(seq) != seq_text:
            return "the sequence differs from the one made in set-up"

    return {"count_s": (count, check_count),
            "verify_s": (verify, check_verify),
            "seq_s": (inputs.make_sequence, check_sequence)}


def timed_loop(ops: dict, seconds: float, checker: Checker) -> tuple[dict, dict]:
    """Interleave the operations for `seconds`.

    Returns ({name: [seconds per call]}, {name: [kernel seconds]}): the
    calibration kernel runs right before and after every call.  Each
    turn goes to the operation with the least wall time spent so far
    relative to its weight, after a round-robin start that gives each
    MIN_SAMPLES calls.
    """
    samples = {name: [] for name in ops}
    kernel = {name: [] for name in ops}
    spent = dict.fromkeys(ops, 0.0)
    start = perf_counter()
    while True:
        short = [name for name in ops if len(samples[name]) < MIN_SAMPLES]
        if not short and perf_counter() - start >= seconds:
            return samples, kernel
        if short:
            name = min(short, key=lambda n: len(samples[n]))
        else:
            name = min(spent, key=lambda n: spent[n] / WEIGHTS[n])
        turn = perf_counter()
        gc.collect()
        last = samples[name][-1] if samples[name] else 0.0
        before = kernel_seconds(KERNEL_SHARE / 2 * last)
        elapsed, _ = checker.run(name, *ops[name])
        kernel[name].append((before + kernel_seconds(KERNEL_SHARE / 2 * elapsed)) / 2)
        samples[name].append(elapsed)
        spent[name] += perf_counter() - turn


def peak_mib(op, checker: Checker) -> float:
    """tracemalloc peak over one call, in a pass of its own."""
    gc.collect()
    tracemalloc.start()
    try:
        checker.run("count_peak_mib", *op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def traced_repetition(tracer: Tracer, inputs: Inputs, naive: bool) -> dict:
    """One traced count path, one trigraph-only pass and, if asked, the
    plain-counter baseline; returns the layer numbers and the results."""
    tt = inputs.tt
    with tracer.span("count_path") as path:
        plain_graph = tracer.wrap("oracle.PlainGraph", tt.graphio.PlainGraph)
        with patched(tt.graphio, "PlainGraph", plain_graph), \
                tracer.span("graphio.parse_graph") as parse:
            graph = tt.parse_graph(inputs.graph_text)
        with tracer.span("sequence.parse_sequence") as seq_parse:
            seq = tt.parse_sequence(inputs.sequence_text)
        with tracer.span("counting.count_triangles") as call, \
                aggregated(tt.Trigraph, COUNTING_CHILDREN) as inner:
            result = tt.count_triangles(graph, seq, mode="fast")
        call["aggregated"] = inner
    with tracer.span("trigraph_path"):
        with tracer.span("trigraph.from_graph") as build:
            g = tt.Trigraph.from_graph(graph.edges, graph.n)
        with tracer.span("sequence.replay") as replay:
            report = tt.replay(g, seq)
    plaingraph_s = duration(children(tracer, parse)["oracle.PlainGraph"])
    row = {
        "path_s": duration(path),
        "graphio.parse_s": duration(parse) - plaingraph_s,
        "oracle.plaingraph_s": plaingraph_s,
        "sequence.parse_s": duration(seq_parse),
        "counting.call_s": duration(call),
        "counting.self_s": duration(call) - sum(t["seconds"] for t in inner.values()),
        "trigraph.edge_color_s": inner["edge_color"]["seconds"],
        "trigraph.merge_s": inner["merge_neighborhoods"]["seconds"],
        "trigraph.contract_s": inner["contract"]["seconds"],
        "trigraph.build_s": duration(build),
        "sequence.replay_s": duration(replay),
        "result": result,
        "report": report,
        "counts": {
            "trigraph.graph_update_work": g.update_work,
            "sequence.width": report.width,
            "counting.aux_updates": result.counters.aux_updates,
            "counting.one_neighbor_calls": result.counters.one_neighbor_calls,
            "counting.two_neighbor_pair_visits": result.counters.two_neighbor_pair_visits,
            "counting.red_wedge_visits": result.counters.red_wedge_visits,
            "counting.sum_red_degree_sq": result.sum_red_degree_sq,
            "trigraph.edge_color_calls": inner["edge_color"]["calls"],
        },
    }
    if naive:
        gc.collect()
        with tracer.span("baseline_path"):
            with tracer.span("oracle.count_naive") as naive_span:
                row["naive"] = tt.count_naive(graph)
            # untraced, so the ratio to count_naive carries no wrapper cost
            with tracer.span("counting.count_triangles") as bare:
                row["bare_result"] = tt.count_triangles(graph, seq, mode="fast")
        row["oracle.naive_s"] = duration(naive_span)
        row["bare_count_s"] = duration(bare)
    return row


def check_row(row: dict, inputs: Inputs) -> str | None:
    result, report = row["result"], row["report"]
    if (result.triangles, result.width) != (inputs.triangles, inputs.width):
        return (f"traced count gave {result.triangles} at width {result.width}, "
                f"reference {inputs.triangles} at width {inputs.width}")
    if not report.valid or report.width != inputs.width:
        return f"replay gave valid={report.valid} width={report.width}"
    if row["counts"]["trigraph.graph_update_work"] != result.counters.graph_update_work:
        return "replay and count_triangles disagree on graph_update_work"
    if "naive" in row and (row["naive"], row["bare_result"].triangles) != (
            inputs.triangles, inputs.triangles):
        return (f"baseline pass counted {row['naive']} (naive) and "
                f"{row['bare_result'].triangles}, reference {inputs.triangles}")
    return None


def tail(samples: list) -> tuple[float, int]:
    """(value, p): the highest whole percentile p with at least ten samples
    beyond it, by nearest rank; the median (p = 50) below 20 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    p = max(50, min(99, int(100 - 1000 / n)))
    rank = max(1, -(-p * n // 100))
    return ordered[rank - 1], p


def layer_metrics(workload: Workload, inputs: Inputs, count_op, count_samples: list,
                  checker: Checker, tracer: Tracer) -> dict:
    rows = []
    untraced = []  # count path right before each traced pass, for the overhead
    for _ in range(TRACE_REPEATS):
        gc.collect()
        untraced.append(checker.run("count_s", *count_op)[0])
        gc.collect()
        _, row = checker.run(
            "traced pass", lambda: traced_repetition(tracer, inputs, workload.naive_baseline),
            lambda r: check_row(r, inputs))
        if row is not None:
            rows.append(row)
    if not rows:
        raise RuntimeError("every traced pass raised")
    counts = rows[0]["counts"]
    for row in rows[1:]:
        if row["counts"] != counts:
            checker.fail("traced pass", "counters differ between identical passes")

    def med(key):
        return statistics.median(row[key] for row in rows)

    shape = describe(inputs.graph_text)
    work = counts["trigraph.graph_update_work"]
    bound = counts["sequence.width"] * shape["n"] + shape["m"]
    pair_visits = counts["counting.two_neighbor_pair_visits"]
    sum_d2 = counts["counting.sum_red_degree_sq"]
    tail_value, tail_pct = tail(count_samples)
    metrics = {name: med(name) for name in (
        "graphio.parse_s", "oracle.plaingraph_s", "sequence.parse_s",
        "trigraph.build_s", "sequence.replay_s", "counting.call_s",
        "counting.self_s", "trigraph.edge_color_s", "trigraph.merge_s",
        "trigraph.contract_s")}
    metrics.update(counts)
    metrics.update({
        "graphio.input_bytes": len(inputs.graph_text.encode()),
        "trigraph.work_per_bound": work / max(1, bound),
        "trigraph.ns_per_work": med("sequence.replay_s") / max(1, work) * 1e9,
        "counting.pair_visits_per_d2": pair_visits / sum_d2 if sum_d2 else 0.0,
        # 0 where the baseline is not run (complete-dense)
        "oracle.naive_s": med("oracle.naive_s") if workload.naive_baseline else 0.0,
        "counting.speedup_vs_naive": (med("oracle.naive_s") / med("bare_count_s")
                                      if workload.naive_baseline else 0.0),
        "count_s.tail": tail_value,
        "count_s.tail_pct": tail_pct,
        "count_s.samples": len(count_samples),
        "trace.overhead_frac": med("path_s") / statistics.median(untraced) - 1,
    })
    return metrics


@dataclass
class Report:
    metrics: dict
    attempted: int
    failed: int
    samples: dict = field(default_factory=dict)  # seconds per call, by metric
    kernel: dict = field(default_factory=dict)  # kernel seconds around each call
    spans: list = field(default_factory=list)


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        scale: str = "full", wrong_reference: bool = False) -> Report:
    """Set up, measure and check one workload; see the module docstring.

    scale "tiny" runs the self-test sizes and skips the input pin, which
    holds for the full sizes only.  wrong_reference adds one to the
    reference triangle count, so every count check must fail.
    """
    kernel_seconds()  # the first run in a process is slow; discard it
    setup_s = []
    setup_kernel = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = kernel_seconds(KERNEL_SHARE / 2 * (setup_s[-1] if setup_s else 0.0))
        began = perf_counter()
        inputs = set_up(workload, seed, scale)
        setup_s.append(perf_counter() - began)
        setup_kernel.append((before + kernel_seconds(KERNEL_SHARE / 2 * setup_s[-1])) / 2)
    if Path(inputs.tt.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported twintri from {inputs.tt.__file__}, not from {SRC}")
    if scale == "full":
        check_pin(workload, seed, inputs, load_pins())
    if wrong_reference:
        inputs.triangles += 1
    # the inputs live for the whole run; keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    try:
        checker = Checker()
        ops = operations(inputs)
        samples, kernel = timed_loop(ops, seconds, checker)
        samples["setup_s"] = setup_s
        kernel["setup_s"] = setup_kernel
        spans = []
        if trace:
            tracer = Tracer()
            metrics = layer_metrics(workload, inputs, ops["count_s"], samples["count_s"],
                                    checker, tracer)
            metrics["calib.kernel_s"] = statistics.median(
                [k for series in kernel.values() for k in series])
            spans = tracer.spans
        else:
            metrics = {name: scaled(samples[name], kernel[name])
                       for name in ("count_s", "verify_s", "seq_s", "setup_s")}
            metrics["count_peak_mib"] = peak_mib(ops["count_s"], checker)
    finally:
        gc.unfreeze()
    if trace:
        metrics["failed_frac"] = checker.failed / checker.attempted
    return Report(metrics, checker.attempted, checker.failed, samples, kernel, spans)


def summary(report: Report, units: dict) -> dict:
    """The result object printed as the last line of standard output."""
    return {"correct": report.failed == 0,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": {name: {"value": report.metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def git_commit(root: Path) -> str:
    """HEAD's commit id read from .git, or "unknown" outside a git clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "twintri").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "seed": seed,
            "commit": git_commit(ROOT),
            "source_sha256": digest.hexdigest()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twintri" / "__init__.py").is_file():
        print(f"perfbench: no twintri package under {SRC}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    units = declared_metrics(trace)
    try:
        report = run(WORKLOADS[args.workload], args.seed, args.seconds, trace)
    except PinMismatch as exc:
        print(f"perfbench: input pin check failed: {exc}", file=sys.stderr)
        return 3
    if set(report.metrics) != set(units):
        print("perfbench: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(report.metrics) ^ set(units))}", file=sys.stderr)
        return 4
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "environment": env,
                   "metrics": report.metrics, "samples": report.samples,
                   "kernel": report.kernel, "spans": report.spans},
                  handle, default=repr)
    print("environment " + json.dumps(env))
    for name, unit in units.items():
        print(f"{args.workload:15} {name:36} {report.metrics[name]:>16.6g} {unit}")
    raw = {name: statistics.median(series) for name, series in report.samples.items()}
    print("unscaled medians " + json.dumps(raw))
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps(summary(report, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
