"""Triangle counting on graphs equipped with a twin-width contraction sequence."""

from .counting import (
    Counters,
    CountResult,
    InternalInvariantError,
    count_triangles,
    evaluate_invariant,
)
from .generate import (
    Cotree,
    chain_sequence,
    cograph,
    complete,
    cycle,
    exact_sequence,
    generate_graph,
    gnp,
    greedy_sequence,
    grid,
    path,
    petersen,
    star,
    twin_sequence,
)
from .graphio import GraphFormatError, format_graph, load_graph, parse_graph, save_graph
from .oracle import PlainGraph, count_naive
from .sequence import (
    ContractionSequence,
    SequenceError,
    SequenceFormatError,
    SequenceReport,
    format_sequence,
    load_sequence,
    parse_sequence,
    replay,
    save_sequence,
    verify_width,
)
from .trigraph import EdgeColor, Trigraph

__version__ = "0.1.0"
