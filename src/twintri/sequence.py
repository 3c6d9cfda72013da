"""Contraction sequences: the pairs-only encoding, its file format, and replay.

A sequence for an n-vertex graph lists n-1 vertex pairs.  Replaying it
contracts each pair in order; the vertex created by step j (0-based) is
implicitly numbered n+1+j and is never written down.  The width of a
sequence is the largest red degree any intermediate trigraph attains.

File format, one record per line:

    c <free text>    comment, ignored
    s <n>            original vertex count, exactly once, first
    <u> <v>          one line per contraction, n-1 lines total

parse_sequence reads text shaped like format_sequence's output ("s <n>",
then only "<u> <v>" lines, single spaces, ASCII digits, every line
ending in a newline) in bulk, as parse_graph does: each slice of about
64 KiB becomes a JSON array read by the json C scanner, and
ContractionSequence checks the pairs.  The shape check stays in front of
the scanner, which alone would also read floats and negative numbers.
Any other text, and shaped text that fails anywhere on the bulk path, a
number the scanner refuses (a leading zero, more digits than CPython's
int-string limit) included, goes to the per-line parser, so every error
carries the same message and line number on either path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graphio import read_pairs, read_text
from .trigraph import Trigraph

# the shape format_sequence writes, checked as graphio checks a graph's
_WRITTEN_HEADER = re.compile(r"s ([0-9]+)\n")
_UNWRITTEN_LINE = re.compile(r"\n(?![0-9]+ [0-9]+\n|\Z)")


class SequenceFormatError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SequenceError(ValueError):
    """A syntactically fine sequence that cannot be applied as requested."""

    @classmethod
    def refused(cls, step, u, v, exc):
        """The error for a step the trigraph refused with exc."""
        return cls(f"step {step} contracts ({u}, {v}) but {exc}")


@dataclass(frozen=True)
class ContractionSequence:
    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sequence needs n >= 1")
        if len(self.pairs) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} pairs, got {len(self.pairs)}")
        top = 2 * self.n - 1
        for u, v in self.pairs:
            if u == v:
                raise ValueError(f"self-contraction of vertex {u}")
            if not (1 <= u <= top and 1 <= v <= top):
                raise ValueError(f"pair ({u}, {v}) leaves the id range 1..{top}")


@dataclass
class SequenceReport:
    """width is the whole sequence's; valid and failing_step refer to the
    bound only: failing_step is the first step whose trigraph exceeds it."""

    width: int
    valid: bool
    failing_step: int | None = None


def parse_sequence(text: str) -> ContractionSequence:
    """Parse a sequence file's text; see the module docstring."""
    header = _WRITTEN_HEADER.match(text)
    if header is not None and _UNWRITTEN_LINE.search(text, header.end() - 1) is None:
        try:
            pairs = read_pairs(text, header.end())
            return ContractionSequence(int(header[1]), tuple(pairs))
        except ValueError:
            pass  # the per-line parser names the line
    return _parse_lines(text)


def _parse_lines(text: str) -> ContractionSequence:
    """The per-line parser: any valid text, errors with line numbers."""
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "s":
            if n is not None:
                raise SequenceFormatError("duplicate s line", lineno)
            if len(fields) != 2:
                raise SequenceFormatError("expected 's <n>'", lineno)
            try:
                n = int(fields[1])
            except ValueError:
                raise SequenceFormatError("vertex count must be an integer", lineno)
            if n < 1:
                raise SequenceFormatError("vertex count must be at least 1", lineno)
        else:
            if n is None:
                raise SequenceFormatError("pair line before the s line", lineno)
            if len(fields) != 2:
                raise SequenceFormatError("expected '<u> <v>'", lineno)
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                raise SequenceFormatError("pair entries must be integers", lineno)
            if u == v:
                raise SequenceFormatError(f"self-contraction of vertex {u}", lineno)
            top = 2 * n - 1
            if not (1 <= u <= top and 1 <= v <= top):
                raise SequenceFormatError(f"id outside 1..{top}", lineno)
            pairs.append((u, v))
    if n is None:
        raise SequenceFormatError("missing s line")
    if len(pairs) != n - 1:
        raise SequenceFormatError(f"expected {n - 1} pairs, got {len(pairs)}")
    return ContractionSequence(n, tuple(pairs))


def format_sequence(seq: ContractionSequence) -> str:
    lines = [f"s {seq.n}"]
    for u, v in seq.pairs:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def load_sequence(path) -> ContractionSequence:
    return parse_sequence(read_text(path, SequenceFormatError))


def save_sequence(seq: ContractionSequence, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_sequence(seq))


def replay(g: Trigraph, seq: ContractionSequence, bound: int | None = None) -> SequenceReport:
    """Apply every contraction in order, tracking the largest red degree seen.

    g must be freshly built from the n-vertex graph the sequence targets.
    A step the trigraph refuses, one naming a vertex that is not live or
    the same vertex twice, raises SequenceError naming the step, the pair
    and the reason, as count_triangles does.  With a bound, the first step
    whose trigraph has a red degree above it fails the report, but the
    replay runs on, so width is the whole sequence's.  A negative bound
    raises ValueError before any step, since no trigraph can meet it.
    """
    if g.n_original != seq.n:
        raise SequenceError(
            f"sequence is for {seq.n} vertices, graph has {g.n_original}")
    if bound is not None and bound < 0:
        raise ValueError(f"width bound {bound} is negative; widths start at 0")
    contract, max_red_degree = g.contract, g.max_red_degree
    width = 0
    over = None
    for step, (u, v) in enumerate(seq.pairs):
        try:
            contract(u, v)
        except ValueError as exc:
            raise SequenceError.refused(step, u, v, exc) from None
        d = max_red_degree()
        if d > width:
            width = d
            if over is None and bound is not None and d > bound:
                over = step
    return SequenceReport(width, over is None, over)


def verify_width(g: Trigraph, seq: ContractionSequence, bound: int) -> SequenceReport:
    """Check that every intermediate trigraph keeps red degree <= bound.

    replay(g, seq, bound) under another name, kept for the benchmark's
    verify op; the package and its tests call replay.
    """
    return replay(g, seq, bound)
