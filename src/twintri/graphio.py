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
comment lines skipped), the number rule of the per-line parsers
(ascii_int: an optional "-" and ASCII digits), the slice writer
(format_records) and the UTF-8 reader (read_text).

The writer yields the header line, then one slice of WRITE_LINES lines
at a time, each from one % format over that slice's ids, which
formats each int in C.  So only one slice's ids are boxed and one
slice's text is alive at a time: save_graph and save_sequence write
each slice as it is made, and format_graph and format_sequence join
them.

parse_graph reads text shaped like format_graph's output (a first line
"p <n> <m>", then only "e <u> <v>" lines, single spaces, ASCII digits,
every line ending in a newline) in bulk.  Line ends are first made "\\n"
by the rule records follows, so a file saved with "\\r\\n" or "\\r" ends
is read in bulk too; text with no "\\r" is not copied.  read_slices
checks every slice of about 16 KiB, cut at newlines, and counts its
lines, so a p line that disagrees with the count goes to the per-line
parser before any slice is scanned.  Then it makes each slice a JSON
array of its endpoints for one json.loads, whose C scanner makes the
ints without a str per token.  The two edge arrays, the first and the
second endpoints, take the typecode oracle.id_typecode(n), the narrowest
C type that holds n.  They are made once at exactly m, bounded by the
text, and struct.pack_into writes each slice's ints into them in place,
so only one slice's int objects are alive at a time and the arrays have
no spare capacity.  PlainGraph keeps them as its edge list when one loop
over their pairs finds them canonical, as a written file's are.  The
check stays in front of the scanner, which would also read "1e5" (a
float) or "-1", or an id glued to a digit before the next mark.  Any
other text, and shaped text that fails anywhere on the bulk path (a
number the scanner refuses, such as a leading zero or one past
CPython's int-string limit, one too large for the arrays' type, a wrong
count, a self-loop, an endpoint out of range), goes as it was given to the
per-line parser, so every error carries the same message and line
number on either path.

The size rule has one owner, _check_size: a p line above max_n, or
above oracle.MAX_N, is refused with ValueError.  _sized_header applies
it to a written header.  load_graph calls it on the file's first
SLICE_CHARS bytes, peeked at in the read buffer, so a file past the
limit is refused before the rest is read; parse_graph calls it before
read_slices, outside the bulk path's fallback, so a text past the limit
is refused before any slice is checked or scanned and the per-line
parser never splits it.  A header whose numbers int() cannot read, past
CPython's int-string limit, goes to the per-line parser, which names
line 1.  The edge rule is oracle's, which PlainGraph applies.
"""

from __future__ import annotations

import json
import re
import struct
from array import array

from .oracle import PlainGraph, check_max_n, edge_refusal, id_typecode

SLICE_CHARS = 1 << 14
WRITE_LINES = 1 << 10  # lines of one slice the writer formats
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
    header = _sized_header(written, max_n)
    if header is not None:
        n, declared_m, start = header
        try:
            lines, slices = read_slices(written, start, "e ")
            if lines == declared_m:
                # sized once; pack_into writes each slice in place and
                # refuses to write past the end, so neither array grows
                code = id_typecode(n)
                us, vs = array(code, [0]) * lines, array(code, [0]) * lines
                at = 0
                for ids in slices:
                    k = len(ids) // 2
                    struct.pack_into(f"{k}{code}", us, us.itemsize * at, *ids[0::2])
                    struct.pack_into(f"{k}{code}", vs, vs.itemsize * at, *ids[1::2])
                    at += k
                if at == declared_m:
                    return PlainGraph(n, (us, vs))
        except (ValueError, struct.error):
            # struct.error is a number the arrays' type cannot hold; the
            # per-line parser names the line
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


def _sized_header(text: str, max_n: int | None):
    """(n, m, end) of the written header "p <n> <m>\\n" that starts text,
    once _check_size has passed n.  None when text starts with no written
    header, or with numbers past CPython's int-string limit, which the
    per-line parser names at line 1."""
    header = written_header(text, "p ([0-9]+) ([0-9]+)")
    if header is None:
        return None
    try:
        n, m = int(header[1]), int(header[2])
    except ValueError:
        return None
    _check_size(n, max_n)
    return n, m, header.end()


def ascii_int(field: str) -> int:
    """The int of a field that is an optional "-" and ASCII digits.
    Anything else raises ValueError, also what int() would read, such as
    "+1", "1_0" or a digit of another script, so a typo is refused, not
    read as another number."""
    digits = field[1:] if field[:1] == "-" else field
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {field!r}")
    return int(field)


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
                n, declared_m = ascii_int(fields[1]), ascii_int(fields[2])
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
                u, v = ascii_int(fields[1]), ascii_int(fields[2])
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


def graph_slices(g: PlainGraph):
    """g's written text as format_records' slices, its endpoints
    interleaved in one array."""
    ends = array(id_typecode(g.n), [0]) * (2 * g.m)
    ends[0::2], ends[1::2] = g.us, g.vs
    return format_records(f"p {g.n} {g.m}", "e ", ends)


def format_graph(g: PlainGraph) -> str:
    """g's written text."""
    return "".join(graph_slices(g))


def format_records(header: str, mark: str, ends):
    """A written file in slices: the line header, then one line
    "<mark><a> <b>" for each two ints of ends, WRITE_LINES lines to a
    slice, each from one % format, which formats each int in C.  So a
    slice's ints are boxed only while it is made."""
    yield f"{header}\n"
    line = f"{mark}%d %d\n"
    full, step = line * WRITE_LINES, 2 * WRITE_LINES
    for at in range(0, len(ends), step):
        part = tuple(ends[at:at + step])
        yield (full if len(part) == step else line * (len(part) // 2)) % part


def read_text(handle, error) -> str:
    """The rest of a binary file handle, decoded as UTF-8; a byte that
    does not decode raises error naming its line."""
    data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 text: byte 0x{data[exc.start]:02x} at offset "
                    f"{exc.start}", len(_lines(data[:exc.start].decode()))) from None


def load_graph(path, max_n: int | None = None) -> PlainGraph:
    """parse_graph of a file's text.  The size rule is first applied to a
    written header in the file's first SLICE_CHARS bytes, peeked at in
    the read buffer, so a file past the limit is refused unread."""
    with open(path, "rb", buffering=SLICE_CHARS) as handle:
        _sized_header(newlines_only(handle.peek().decode("utf-8", "replace")), max_n)
        text = read_text(handle, GraphFormatError)
    return parse_graph(text, max_n)


def save_graph(g: PlainGraph, path):
    """Write g's text to path one slice at a time."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(graph_slices(g))
