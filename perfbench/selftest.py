"""Self-test of the benchmark at tiny sizes; takes seconds.

Run from the root of a repository checkout:

    python3 perfbench/selftest.py

Checks that every workload prints exactly the metric names BENCHMARK.json
declares in both modes, that a wrong reference shows up as failures, and
that the input pins hold and catch a changed graph.  Exits 1 on the
first broken check.
"""

from __future__ import annotations

import sys

import run
from workloads import (DEFAULT_SEED, WORKLOADS, PinMismatch, check_pin,
                       default_graph_text, import_fresh, load_pins, set_up)

SECONDS = 0.2


def expect(ok: bool, what: str):
    if not ok:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok  {what}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    for trace in (False, True):
        units = run.declared_metrics(trace)
        mode = "per-layer" if trace else "end-to-end"
        for workload in WORKLOADS.values():
            report = run.run(workload, 5, SECONDS, trace, scale="tiny")
            printed = run.summary(report, units)
            expect(set(report.metrics) == set(units) and printed["correct"]
                   and printed["failed"] == 0 and printed["attempted"] >= 1,
                   f"{workload.name}: {mode} metrics match BENCHMARK.json, no failures")

    for trace in (False, True):
        for workload in WORKLOADS.values():
            report = run.run(workload, 5, SECONDS, trace, scale="tiny",
                             wrong_reference=True)
            printed = run.summary(report, run.declared_metrics(trace))
            ok = report.failed > 0 and not printed["correct"]
            if trace:
                ok = ok and report.metrics["failed_frac"] > 0
            expect(ok, f"{workload.name}: a wrong reference fails "
                       f"({report.failed}/{report.attempted}, trace={int(trace)})")

    pins = load_pins()
    tt = import_fresh()
    for workload in WORKLOADS.values():
        inputs = set_up(workload, 5, scale="tiny")
        inputs.graph_text = default_graph_text(workload, tt)
        check_pin(workload, DEFAULT_SEED, inputs, pins)
        expect(True, f"{workload.name}: seed-{DEFAULT_SEED} graph matches its pin")
        inputs.graph_text = inputs.graph_text.replace("\ne ", "\nc edited\ne ", 1)
        try:
            check_pin(workload, DEFAULT_SEED, inputs, pins)
        except PinMismatch:
            caught = True
        else:
            caught = False
        expect(caught, f"{workload.name}: a changed graph text breaks the pin")
    return 0


if __name__ == "__main__":
    sys.exit(main())
