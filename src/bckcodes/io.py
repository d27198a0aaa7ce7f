"""Plain-text file formats and JSON reports used by the CLI.

Algebra files: first data line is the order n, followed by n rows of n
integers.  Code files: one codeword of 0/1 characters per line.
Function files: one "label value" pair per line.  In all three, blank
lines and lines starting with '#' are skipped; duplicate codewords are
rejected, not deduplicated.  JSON reports carry a report_version tag
and parse back with `parse_report`.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from .algebra import CayleyAlgebra
from .codes import BlockCode
from .encode import BckFunction
from .errors import ParseError

REPORT_VERSION = 1
MAX_ORDER = 1024  # pointwise_function_algebra(10), the largest table the package builds


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_algebra(text: str) -> CayleyAlgebra:
    lines = list(_data_lines(text))
    if not lines:
        raise ParseError("no data lines in algebra input")
    lineno, head = lines[0]
    try:
        n = int(head)
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
                row = tuple(map(int, parts))
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
            v = int(value)
        except ValueError:
            raise ParseError(f"value must be an integer, got {value!r}", lineno) from None
        if not 0 <= v < alg.order:
            raise ParseError(f"value {v} outside 0..{alg.order - 1}", lineno)
        if label in seen:
            raise ParseError(f"duplicate label {label!r}", lineno)
        seen.add(label)
        labels.append(label)
        values.append(v)
    if not labels:
        raise ParseError("no entries in function input")
    return BckFunction(tuple(labels), alg, tuple(values))


def render_report(kind: str, payload: dict) -> str:
    body = {"report_version": REPORT_VERSION, "kind": kind}
    body.update(payload)
    return json.dumps(body, indent=2) + "\n"


def stream_report(kind: str, payload: dict, key: str, items: Iterable) -> Iterator[str]:
    """The text of `render_report` with ``payload[key]`` drawn from items.

    Each item is a list or tuple of JSON scalars (ints, floats, bools,
    None, strings).  The pieces join to
    ``render_report(kind, {**payload, key: list(items)})``, with ``key``
    not in payload, but hold only one item at a time.  Each item is
    written as `json.dumps(..., indent=2)` would write it at that depth,
    without that encoder, which is pure Python once ``indent`` is set.
    """
    head = render_report(kind, {**payload, key: []})
    yield head[: -len("]\n}\n")]
    sep = "\n"
    for item in items:
        if item:
            cells = [str(v) if type(v) is int else json.dumps(v) for v in item]
            yield f"{sep}    [\n      " + ",\n      ".join(cells) + "\n    ]"
        else:
            yield sep + "    []"
        sep = ",\n"
    yield "]\n}\n" if sep == "\n" else "\n  ]\n}\n"


_PAIRS_PER_CHUNK = 4096
_PAIR = "    [\n      {},\n      {}\n    ]".format


def stream_pairs(kind: str, payload: dict, key: str, xs: list[int], ys: list[int]) -> Iterator[str]:
    """The text of `render_report` with ``payload[key]`` the pairs [x, y].

    The pieces join to ``render_report(kind, {**payload, key: pairs})``,
    with ``key`` not in payload and pairs ``[[x, y] for x, y in zip(xs,
    ys)]`` for int lists of equal length.  Each pair is formatted from
    one template, as `json.dumps(..., indent=2)` writes it at that depth,
    and the pairs are joined a chunk at a time, so the text of at most
    one chunk is held at once.
    """
    head = render_report(kind, {**payload, key: []})
    if not xs:
        yield head
        return
    yield head[: -len("]\n}\n")] + "\n"
    for i in range(0, len(xs), _PAIRS_PER_CHUNK):
        chunk = ",\n".join(map(_PAIR, xs[i : i + _PAIRS_PER_CHUNK], ys[i : i + _PAIRS_PER_CHUNK]))
        yield chunk if i == 0 else ",\n" + chunk
    yield "\n  ]\n}\n"


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
