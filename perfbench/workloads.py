"""The benchmark's workloads: inputs made from a seed, and their references.

Every workload hands the timed code only texts (a graph file and a
sequence file, as `twintri count` reads them).  The reference answers
are computed in set-up along a path apart from the one being timed:
the brute-force oracle on the generator's own graph object, or a closed
form where the oracle would take tens of seconds.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path
from types import ModuleType
from typing import Callable

PINS_PATH = Path(__file__).with_name("pins.json")
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # generator family, as twintri.generate_graph names it
    full: dict  # generator parameters of the measured workload
    tiny: dict  # the same family at self-test size
    seeded: bool  # False: the generator ignores the seed (fixed graph)
    sequence: str  # "twin" (cotree, width 0) or "greedy"
    naive_baseline: bool  # time count_naive in the traced run


WORKLOADS = {w.name: w for w in (
    Workload("cograph-sparse", "cograph", {"n": 32000, "block_size": 8},
             {"n": 300, "block_size": 8}, True, "twin", True),
    # count_naive takes about 30 s on K_800, so its reference is C(n, 3)
    # and the plain-counter baseline is not run
    Workload("complete-dense", "complete", {"n": 800}, {"n": 30},
             False, "twin", False),
    Workload("star-hub", "star", {"n": 80000}, {"n": 300}, False, "twin", True),
    Workload("gnp-greedy", "gnp", {"n": 200, "p": 0.1}, {"n": 30, "p": 0.3},
             True, "greedy", True),
)}


@dataclass
class Inputs:
    """One workload instance as the timed passes see it."""

    tt: ModuleType  # the twintri package this set-up imported
    graph_text: str
    sequence_text: str
    make_sequence: Callable  # () -> (ContractionSequence, witnessed width)
    triangles: int  # reference count
    width: int  # reference width of the sequence


class PinMismatch(RuntimeError):
    """The default-seed graph no longer matches the one pinned in pins.json."""


def import_fresh() -> ModuleType:
    """Import twintri from scratch, so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "twintri" or m.startswith("twintri.")]:
        del sys.modules[name]
    return importlib.import_module("twintri")


def set_up(workload: Workload, seed: int, scale: str = "full") -> Inputs:
    """Import twintri, generate the input texts and compute the references."""
    tt = import_fresh()
    graph, cotree = tt.generate_graph(workload.family, seed=seed, **getattr(workload, scale))
    n = graph.n
    if workload.sequence == "twin":
        def make_sequence():
            return tt.twin_sequence(cotree, n), 0
    else:
        def make_sequence():
            return tt.greedy_sequence(graph)
    seq, width = make_sequence()
    if workload.family == "complete":
        triangles = comb(n, 3)
    else:
        triangles = tt.count_naive(graph)
    return Inputs(tt, tt.format_graph(graph), tt.format_sequence(seq),
                  make_sequence, triangles, width)


def describe(graph_text: str) -> dict:
    """n, m and sha256 of a graph text; its first line is 'p <n> <m>'."""
    _, n, m = graph_text.split("\n", 1)[0].split()
    return {"n": int(n), "m": int(m),
            "sha256": hashlib.sha256(graph_text.encode()).hexdigest()}


def load_pins(path: Path = PINS_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        pins = json.load(handle)
    if pins["default_seed"] != DEFAULT_SEED:
        raise PinMismatch(f"{path} pins seed {pins['default_seed']}, "
                          f"the workloads default to {DEFAULT_SEED}")
    return pins["workloads"]


def default_graph_text(workload: Workload, tt: ModuleType) -> str:
    graph, _ = tt.generate_graph(workload.family, seed=DEFAULT_SEED, **workload.full)
    return tt.format_graph(graph)


def check_pin(workload: Workload, seed: int, inputs: Inputs, pins: dict):
    """Raise PinMismatch unless the default-seed graph is the pinned one.

    A generator change would otherwise swap the workload silently.  The
    check regenerates the default-seed graph when the run uses another
    seed, so every full-size run makes it.
    """
    if workload.seeded and seed != DEFAULT_SEED:
        text = default_graph_text(workload, inputs.tt)
    else:
        text = inputs.graph_text
    got = describe(text)
    want = pins[workload.name]
    if got != want:
        raise PinMismatch(
            f"{workload.name}: the seed-{DEFAULT_SEED} graph has n={got['n']} "
            f"m={got['m']} sha256={got['sha256']}, pinned n={want['n']} "
            f"m={want['m']} sha256={want['sha256']}")
