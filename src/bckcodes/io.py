"""Plain-text file formats and JSON reports used by the CLI.

Algebra files: first data line is the order n, followed by n rows of n
integers.  Orders, table entries and function values are ASCII decimal
integers.  Code files: one codeword of 0/1 characters per line.
Function files: one "label value" pair per line.  In all three, blank
lines and lines starting with '#' are skipped; duplicate codewords are
rejected, not deduplicated.  A code holds at most `MAX_ORDER` (1,024)
codewords of at most as many bits, and a function at most as many
labels: every consumer needs no more, and the readers stop at the
first entry past the bound instead of holding the whole input.

JSON reports carry a report_version tag and parse back with
`parse_report`.  `stream_report` is the one writer; the pieces it
yields for ``(kind, payload)`` join to exactly
``json.dumps({"report_version": 1, "kind": kind, **payload}, indent=2)``
plus a newline, for a payload whose keys are strings:

- A value that is an iterator is drawn lazily and stands for the list
  of what it yields, each item a flat row: a list or tuple of JSON
  scalars (ints, floats, bools, None, strings).  The rows are drawn
  and written 4,096 at a time, so at most one chunk's rows and text
  are held at once.  In a chunk whose cells are all exactly int, each
  row is filled into one %-template for its length.  In a chunk
  whose cells are all exactly str and hold only printable ASCII
  without a quote or a backslash, each cell is its text in quotes;
  in any other chunk each cell is written by `json.dumps`.
- Every other value is ``json.dumps(value, indent=2)`` with each line
  break indented two more spaces, which is exact at depth 1 because
  JSON escapes every newline inside a string.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator
from itertools import chain, islice

from .algebra import MAX_ORDER, CayleyAlgebra
from .codes import BlockCode
from .encode import BckFunction
from .errors import ParseError

REPORT_VERSION = 1


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _int(text: str) -> int:
    """``int(text)`` for ASCII text with no '_'; `ValueError` for any other text.

    ``int`` alone also takes other scripts' digits and '_' separators.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)


def parse_algebra(text: str) -> CayleyAlgebra:
    lines = list(_data_lines(text))
    if not lines:
        raise ParseError("no data lines in algebra input")
    lineno, head = lines[0]
    try:
        n = _int(head)
    except ValueError:
        raise ParseError(f"expected the order, got {head!r}", lineno) from None
    if n < 1:
        raise ParseError("order must be positive", lineno)
    if n > MAX_ORDER:
        raise ParseError(f"order {n} exceeds the bound {MAX_ORDER}", lineno)
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} table rows, found {len(lines) - 1}")
    cell = {str(v): v for v in range(n)}
    rows = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != n:
            raise ParseError(f"expected {n} entries, found {len(parts)}", lineno)
        try:
            row = tuple(map(cell.__getitem__, parts))
        except KeyError:  # "03", "-1", "x" and the like: int decides
            try:
                row = tuple(map(_int, parts))
            except ValueError:
                raise ParseError("table entries must be integers", lineno) from None
            if min(row) < 0 or max(row) >= n:
                raise ParseError(f"table entry outside 0..{n - 1}", lineno) from None
        rows.append(row)
    # n rows of n ints in 0..n-1, each checked above
    return CayleyAlgebra._trusted(tuple(rows))


def render_algebra(alg: CayleyAlgebra, header: str | None = None) -> str:
    out = []
    if header:
        out.append(f"# {header}")
    if alg.names is not None:
        out.append("# elements: " + " ".join(alg.names))
    out.append(str(alg.order))
    width = len(str(alg.order - 1))
    cells = [str(v).rjust(width) for v in range(alg.order)]
    out.extend(" ".join([cells[v] for v in row]) for row in alg.table)
    return "\n".join(out) + "\n"


def parse_code(text: str) -> BlockCode:
    values = []
    seen = set()
    length = None
    for lineno, line in _data_lines(text):
        if any(c not in "01" for c in line):
            raise ParseError(f"codeword may only contain 0 and 1: {line!r}", lineno)
        if length is None:
            length = len(line)
            if length > MAX_ORDER:
                raise ParseError(f"codeword length {length} exceeds the bound {MAX_ORDER}", lineno)
        elif len(line) != length:
            raise ParseError(
                f"codeword length {len(line)} differs from first length {length}",
                lineno,
            )
        if line in seen:
            raise ParseError(f"duplicate codeword {line}", lineno)
        if len(values) == MAX_ORDER:
            raise ParseError(f"more than {MAX_ORDER} codewords", lineno)
        seen.add(line)
        values.append(int(line, 2))
    if not values:
        raise ParseError("no codewords in code input")
    return BlockCode.of(values, length)


def render_code(code: BlockCode, header: str | None = None) -> str:
    out = []
    if header:
        out.append(f"# {header}")
    out.extend(code.strings())
    return "\n".join(out) + "\n"


def parse_function(text: str, alg: CayleyAlgebra) -> BckFunction:
    labels = []
    values = []
    seen = set()
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'label value'", lineno)
        label, value = parts
        try:
            v = _int(value)
        except ValueError:
            raise ParseError(f"value must be an integer, got {value!r}", lineno) from None
        if not 0 <= v < alg.order:
            raise ParseError(f"value {v} outside 0..{alg.order - 1}", lineno)
        if label in seen:
            raise ParseError(f"duplicate label {label!r}", lineno)
        if len(labels) == MAX_ORDER:
            raise ParseError(f"more than {MAX_ORDER} labels", lineno)
        seen.add(label)
        labels.append(label)
        values.append(v)
    if not labels:
        raise ParseError("no entries in function input")
    return BckFunction(tuple(labels), alg, tuple(values))


def render_report(kind: str, payload: dict) -> str:
    """The text of `stream_report`, joined."""
    return "".join(stream_report(kind, payload))


def stream_report(kind: str, payload: dict) -> Iterator[str]:
    """The JSON report of ``kind`` with the fields of ``payload``, in pieces.

    Iterator values are drawn a chunk of rows at a time; the contract
    is in the module docstring.
    """
    sep = "{\n  "
    for key, value in {"report_version": REPORT_VERSION, "kind": kind, **payload}.items():
        yield f"{sep}{json.dumps(key)}: "
        sep = ",\n  "
        if isinstance(value, Iterator):
            yield from _stream_rows(value)
        else:
            # JSON escapes every newline inside a string, so each "\n" is a line break
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


_ROWS_PER_CHUNK = 4096


def _stream_rows(rows: Iterator) -> Iterator[str]:
    """The list of ``rows`` at depth 1, drawn and written a chunk at a time."""
    sep = "[\n"
    while chunk := list(islice(rows, _ROWS_PER_CHUNK)):
        yield sep + _rows_text(chunk)
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


def _rows_text(rows: list) -> str:
    """Flat rows at depth 2, joined by ",\\n", from one template per row length."""
    cells = tuple(chain.from_iterable(rows))
    types = {*map(type, cells)}
    if types == {str} and _plain("".join(cells)):
        cells = tuple([f'"{c}"' for c in cells])
    elif types != {int}:  # str() writes JSON for an exact int only
        cells = tuple(map(json.dumps, cells))
    lengths = {*map(len, rows)}
    if len(lengths) == 1:  # verify's pairs: no template lookup per row
        template = ",\n".join([_row_template(*lengths)] * len(rows))
    else:
        template = ",\n".join(map(_row_template, map(len, rows)))
    return template % cells


def _plain(text: str) -> bool:
    """Whether `json.dumps` writes each string in ``text`` as itself in quotes:
    it escapes only the quote, the backslash and what is not printable ASCII."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


@functools.lru_cache
def _row_template(length: int) -> str:
    if not length:
        return "    []"
    return "    [\n      " + ",\n      ".join(["%s"] * length) + "\n    ]"


def parse_report(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON report: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("report must be a JSON object")
    if data.get("report_version") != REPORT_VERSION:
        raise ParseError(f"unsupported report_version {data.get('report_version')!r}")
    return data
