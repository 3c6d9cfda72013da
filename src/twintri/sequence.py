"""Contraction sequences: the flat encoding, its file format, and replay.

A sequence for an n-vertex graph lists n-1 vertex pairs.  It keeps their
2(n-1) ids in one flat tuple of ints, u1 v1 u2 v2 ..., about 72 bytes a
pair, where a tuple per pair took about 120; its pairs property reads
them back as a fresh iterator of pairs on each read.  Replaying it
contracts each pair in order; the vertex created by step j (0-based) is
implicitly numbered n+1+j and is never written down.  The width of a
sequence is the largest red degree any intermediate trigraph attains.

File format, one record per line:

    c <free text>    comment, ignored
    s <n>            original vertex count, exactly once, first
    <u> <v>          one line per contraction, n-1 lines total

A sequence file is a graph file with another header and no record
prefix, so the rules of the written format live in graphio: the error
base, the header match, the checked bulk reader, the line iterator, the
writer and the UTF-8 reader.  This module keeps what is a sequence's
own: the s line's arity, the checks on each pair and their messages.

parse_sequence reads text shaped like format_sequence's output ("s <n>",
then only "<u> <v>" lines, single spaces, ASCII digits, every line
ending in a newline, "\\r\\n" and "\\r" made "\\n" first) in bulk, as
parse_graph does: every slice of about 16 KiB is checked and its lines
counted, an s line that disagrees with the count goes to the per-line
parser before any slice is scanned, and then each slice becomes a JSON
array read by the json C scanner, its ids go onto one flat list, and
ContractionSequence checks the pairs.  Any other text, and shaped text
that fails anywhere on the bulk path, a number the scanner refuses (a
leading zero, more digits than CPython's int-string limit) included,
goes as it was given to the per-line parser, so every error carries the
same message and line number on either path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import index
from .graphio import (FormatError, format_records, newlines_only, read_slices,
                      read_text, records, written_header)
from .oracle import not_an_int
from .trigraph import Trigraph


class SequenceFormatError(FormatError):
    """A sequence file that breaks its format."""


class SequenceError(ValueError):
    """A syntactically fine sequence that cannot be applied as requested."""

    @classmethod
    def refused(cls, step, u, v, exc):
        """The error for a step the trigraph refused with exc."""
        return cls(f"step {step} contracts ({u}, {v}) but {exc}")


@dataclass(frozen=True)
class ContractionSequence:
    """n and the ids of the n-1 pairs, one flat tuple u1 v1 u2 v2 ...

    Two int objects and two tuple slots a pair, about 72 bytes, where a
    tuple per pair took about 120.  Equal sequences compare and hash
    equal.  pairs reads the ids back as pairs (u, v), a fresh iterator
    on each read that reuses its result tuple while the caller drops
    each pair, so a walk allocates none.  The checks walk pairs once, in
    step order, so each message names the first pair at fault.
    """

    n: int
    ends: tuple[int, ...]

    def __post_init__(self):
        # a list of ids is copied, so a caller's later change cannot
        # reach past the checks; a tuple is kept as it is
        object.__setattr__(self, "ends", tuple(self.ends))
        if not isinstance(self.n, int):
            raise ValueError(f"sequence needs an int n, got {self.n!r}")
        if self.n < 1:
            raise ValueError("sequence needs n >= 1")
        if len(self.ends) != 2 * (self.n - 1):
            got = len(self.ends) // 2
            raise ValueError(f"expected {self.n - 1} pairs, got {got}"
                             + (" and one id" if len(self.ends) % 2 else ""))
        top = 2 * self.n - 1
        for u, v in self.pairs:
            if u == v:
                raise ValueError(f"self-contraction of vertex {u}")
            if not (1 <= u <= top and 1 <= v <= top):
                raise ValueError(f"pair ({u}, {v}) leaves the id range 1..{top}")

    @property
    def pairs(self):
        """The pairs (u, v) in step order, a fresh iterator on each read."""
        ends = iter(self.ends)
        return zip(ends, ends)


def check_n(seq: ContractionSequence, n: int):
    """Raise SequenceError unless seq is for an n-vertex graph."""
    if seq.n != n:
        raise SequenceError(f"sequence is for {seq.n} vertices, graph has {n}")


@dataclass
class SequenceReport:
    """width is the whole sequence's; valid and failing_step refer to the
    bound only: failing_step is the first step whose trigraph exceeds it."""

    width: int
    valid: bool
    failing_step: int | None = None


def parse_sequence(text: str) -> ContractionSequence:
    """Parse a sequence file's text; see the module docstring."""
    written = newlines_only(text)
    header = written_header(written, "s ([0-9]+)")
    if header is not None:
        try:
            n = int(header[1])
            lines, slices = read_slices(written, header.end())
            if lines == n - 1:
                ends = []
                for ids in slices:
                    ends += ids
                return ContractionSequence(n, tuple(ends))
        except ValueError:
            pass  # the per-line parser names the line
    return _parse_lines(text)


def _parse_lines(text: str) -> ContractionSequence:
    """The per-line parser: any valid text, errors with line numbers."""
    n = None
    ends = []
    for lineno, fields in records(text):
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
            ends += u, v
    if n is None:
        raise SequenceFormatError("missing s line")
    if len(ends) != 2 * (n - 1):
        raise SequenceFormatError(f"expected {n - 1} pairs, got {len(ends) // 2}")
    return ContractionSequence(n, tuple(ends))


def format_sequence(seq: ContractionSequence) -> str:
    """seq's written text.  An id that is not an int, which %d would write
    truncated, raises SequenceError naming the first step and pair that
    hold one, as replay does."""
    try:
        deque(map(index, seq.ends), 0)  # every id an int, checked in C
    except TypeError:
        for step, (u, v) in enumerate(seq.pairs):
            exc = not_an_int(u, v)
            if exc is not None:
                raise SequenceError.refused(step, u, v, exc) from None
    return format_records(f"s {seq.n}", "", seq.ends)


def load_sequence(path) -> ContractionSequence:
    return parse_sequence(read_text(path, SequenceFormatError))


def save_sequence(seq: ContractionSequence, path):
    text = format_sequence(seq)  # a refused id leaves no file
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def replay(g: Trigraph, seq: ContractionSequence, bound: int | None = None) -> SequenceReport:
    """Apply every contraction in order, tracking the largest red degree seen.

    g must be freshly built from the n-vertex graph the sequence targets.
    A step the trigraph refuses, one naming a vertex that is not live or
    the same vertex twice, raises SequenceError naming the step, the pair
    and the reason, as count_triangles does.  With a bound, the first step
    whose trigraph has a red degree above it fails the report, but the
    replay runs on, so width is the whole sequence's.  A negative bound
    raises ValueError before any step, since no trigraph can meet it.
    verify_width is another name for it.
    """
    check_n(seq, g.n_original)
    if bound is not None and bound < 0:
        raise ValueError(f"width bound {bound} is negative; widths start at 0")
    width, _, over, _ = g.run(seq.pairs, bound, refused=SequenceError.refused)
    return SequenceReport(width, over is None, over)


# the benchmark's verify op calls replay under this name
verify_width = replay
