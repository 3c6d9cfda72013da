"""Plain text graph files, and the rules both written file kinds share.

Format, one record per line:

    c <free text>       comment, ignored
    p <n> <m>           vertex and edge counts, exactly once, first
    e <u> <v>           one per edge, 1-based ids, m lines total

Written files are canonical: edges normalized to (low, high), duplicates
dropped, sorted.  parse(format(g)) reproduces g and format(parse(text))
reproduces canonical text byte for byte.

Graph files and sequence files (see sequence.py) are one format with a
different header and record prefix, and the rules they share live here:
the line-numbered error base FormatError, the header match
(written_header), the line-end rule (newlines_only: lines end at "\\n",
"\\r\\n" or "\\r" only), the checked bulk reader (read_slices), the line
iterator the per-line parsers walk (records: numbered from 1, blank and
comment lines skipped), the single-% writer (format_records) and the
UTF-8 reader (read_text).

parse_graph reads text shaped like format_graph's output (a first line
"p <n> <m>", then only "e <u> <v>" lines, single spaces, ASCII digits,
every line ending in a newline) in bulk.  Line ends are first made "\\n"
by the rule records follows, so a file saved with "\\r\\n" or "\\r" ends
is read in bulk too; text with no "\\r" is not copied.  read_slices
checks every slice of about 16 KiB, cut at newlines, and counts its
lines, so a p line that disagrees with the count goes to the per-line
parser before any slice is scanned.  Then it makes each slice a JSON
array of its endpoints for one json.loads, whose C scanner makes the
ints without a str per token.  The two arrays of C ints, the first and
the second endpoints, are made once at exactly m, bounded by the text,
and struct.pack_into writes each slice's ints into them in place, so
only one slice's int objects are alive at a time and the arrays have no
spare capacity.  PlainGraph keeps them as its edge list when one loop
over their pairs finds them canonical, as a written file's are.  The
check stays in front of the scanner, which would also read "1e5" (a
float) or "-1", or an id glued to a digit before the next mark.  Any
other text, and shaped text that fails anywhere on the bulk path (a
number the scanner refuses, such as a leading zero or one past
CPython's int-string limit, one too large for a C int, a wrong count, a
self-loop, an endpoint out of range), goes as it was given to the
per-line parser, so every error carries the same message and line
number on either path.

The size rule has one owner, _check_size: a p line above max_n, or
above oracle.MAX_N, is refused with ValueError.  parse_graph applies it
to a written header before read_slices, outside the bulk path's
fallback, so a file past the limit is refused before any slice is
checked or scanned and the per-line parser never splits it.  A header
whose numbers int() cannot read, past CPython's int-string limit, goes
to the per-line parser, which names line 1.  The edge rule is
oracle's, which PlainGraph applies.
"""

from __future__ import annotations

import json
import re
import struct
from array import array

from .oracle import PlainGraph, check_max_n, edge_refusal

SLICE_CHARS = 1 << 14
ZERO_DIGITS = bytes.maketrans(b"0123456789", b"0" * 10)
TOKENS = {"e ": str.maketrans({"\n": None, "e": None, " ": ","}),  # by mark
          "": str.maketrans({"\n": ",", " ": ","})}


class FormatError(ValueError):
    """A file that breaks its format; line is the 1-based line at fault,
    None when the fault is the file's as a whole."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphFormatError(FormatError):
    """A graph file that breaks its format."""


def written_header(text: str, header: str):
    """The match of the pattern header and a newline at the start of text,
    the first line of a written file, or None."""
    return re.match(header + "\n", text)


def parse_graph(text: str, max_n: int | None = None) -> PlainGraph:
    """Parse a graph file's text; see the module docstring.

    With max_n set, a p line declaring more vertices raises ValueError
    (not GraphFormatError: the file is well formed, only too large)
    before anything of size n is allocated, as does one above
    oracle.MAX_N.  A written header is checked before the text is
    scanned, so a refused file costs no more than its text.
    """
    written = newlines_only(text)
    header = written_header(written, "p ([0-9]+) ([0-9]+)")
    if header is not None:
        try:
            n, declared_m = int(header[1]), int(header[2])
        except ValueError:
            # past CPython's int-string limit: the per-line parser names line 1
            return _parse_lines(text, max_n)
        _check_size(n, max_n)
        try:
            lines, slices = read_slices(written, header.end(), "e ")
            if lines == declared_m:
                # sized once; pack_into writes each slice in place and
                # refuses to write past the end, so neither array grows
                us, vs = array("i", [0]) * lines, array("i", [0]) * lines
                at = 0
                for ids in slices:
                    k = len(ids) // 2
                    struct.pack_into(f"{k}i", us, 4 * at, *ids[0::2])
                    struct.pack_into(f"{k}i", vs, 4 * at, *ids[1::2])
                    at += k
                if at == declared_m:
                    return PlainGraph(n, (us, vs))
        except (ValueError, struct.error):
            # struct.error is a number a C int cannot hold; the per-line
            # parser names the line
            pass
    return _parse_lines(text, max_n)


def read_slices(text: str, start: int, mark: str = ""):
    """(lines, slices) for text[start:], written lines "<mark><a> <b>\\n":
    the number of lines, and an iterator of the ints of each slice of
    about SLICE_CHARS characters cut at a newline, a list [a, b, a, b,
    ...] per slice, so a caller that keeps only what it takes from each
    list holds one slice's int objects at a time.

    Unless every slice is written lines, ValueError comes before any
    return: with its digits made 0, a slice must start "<mark>0", end
    "0\\n" and hold "0\\n<mark>0" once for each line but the first, and
    with the 0s then deleted, "<mark> \\n" once per line.  So a caller
    knows the count before any slice is scanned, and can size what it
    fills by it.  One str.translate then turns each line break with its
    mark, and each space, into a comma; a number the JSON scanner
    refuses raises ValueError too.
    """
    cuts = [start]
    while cuts[-1] < len(text):
        cuts.append(text.find("\n", cuts[-1] + SLICE_CHARS) + 1 or len(text))
    line, first, joint = map(str.encode, (f"{mark} \n", f"{mark}0", f"0\n{mark}0"))
    total = 0
    for a, b in zip(cuts, cuts[1:]):
        shape = text[a:b].encode().translate(ZERO_DIGITS)
        skeleton = shape.translate(None, b"0")
        lines = skeleton.count(line)
        if (lines * len(line) != len(skeleton) or not shape.startswith(first)
                or not shape.endswith(b"0\n") or shape.count(joint) != lines - 1):
            raise ValueError("text breaks the written shape")
        total += lines
    return total, (json.loads(f"[{text[a + len(mark):b - 1].translate(TOKENS[mark])}]")
                   for a, b in zip(cuts, cuts[1:]))


def newlines_only(text: str) -> str:
    """text with each line end, "\\r\\n" or a lone "\\r", made "\\n";
    text itself when it holds no "\\r"."""
    if "\r" in text:
        return text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _lines(text: str) -> list[str]:
    """text's lines.  They end at "\\n", "\\r\\n" or "\\r" only:
    str.splitlines also ends them at a form feed, "\\x85" and other
    separators, so a comment holding one would split in two."""
    return newlines_only(text).split("\n")


def records(text: str):
    """(line number, fields) for each line of text that is neither blank
    nor a comment, numbered from 1."""
    for lineno, line in enumerate(_lines(text), start=1):
        fields = line.split()
        if fields and not fields[0].startswith("c"):
            yield lineno, fields


def _check_size(n: int, max_n: int | None):
    """Refuse a p line's n with ValueError: more than max_n, then more
    than a PlainGraph holds."""
    if max_n is not None and n > max_n:
        raise ValueError(f"graph declares n = {n} vertices, more than max_n = {max_n}")
    check_max_n(n)


def _parse_lines(text: str, max_n: int | None = None) -> PlainGraph:
    """The per-line parser: any valid text, errors with line numbers."""
    n = None
    declared_m = 0
    edges = []
    for lineno, fields in records(text):
        if fields[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate p line", lineno)
            if len(fields) != 3:
                raise GraphFormatError("expected 'p <n> <m>'", lineno)
            try:
                n, declared_m = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError("p line fields must be integers", lineno)
            if n < 1:
                raise GraphFormatError("vertex count must be at least 1", lineno)
            if declared_m < 0:
                raise GraphFormatError("edge count cannot be negative", lineno)
            _check_size(n, max_n)
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError("e line before the p line", lineno)
            if len(fields) != 3:
                raise GraphFormatError("expected 'e <u> <v>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError("edge endpoints must be integers", lineno)
            if u == v:
                # the edge rule's own message, with the line
                raise GraphFormatError(str(edge_refusal(n, u, v)), lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"endpoint outside 1..{n}", lineno)
            edges.append((u, v))
        else:
            raise GraphFormatError(f"unknown record type {fields[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing p line")
    if len(edges) != declared_m:
        raise GraphFormatError(f"p line declares {declared_m} edges, found {len(edges)}")
    return PlainGraph(n, edges)


def format_graph(g: PlainGraph) -> str:
    """g's written text, its endpoints interleaved in an array."""
    ends = array("i", [0]) * (2 * g.m)
    ends[0::2], ends[1::2] = g.us, g.vs
    return format_records(f"p {g.n} {g.m}", "e ", ends)


def format_records(header: str, mark: str, ends) -> str:
    """A written file: the line header, then one line "<mark><a> <b>" for
    each two ints of ends, from one % format, which formats each int in C."""
    ends = tuple(ends)
    return f"{header}\n" + f"{mark}%d %d\n" * (len(ends) // 2) % ends


def read_text(path, error) -> str:
    """A file's contents decoded as UTF-8; a byte that does not decode
    raises error naming its line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 text: byte 0x{data[exc.start]:02x} at offset "
                    f"{exc.start}", len(_lines(data[:exc.start].decode()))) from None


def load_graph(path, max_n: int | None = None) -> PlainGraph:
    return parse_graph(read_text(path, GraphFormatError), max_n)


def save_graph(g: PlainGraph, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_graph(g))
