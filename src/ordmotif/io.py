"""Reading formal contexts in Burmeister (.cxt) and CSV form, writing Burmeister.

Burmeister layout::

    B
    <optional name line>
    <object count>
    <attribute count>
    <blank line>
    <object names, one per line>
    <attribute names, one per line>
    <incidence rows of '.' and 'X', one per object>

CSV layout: header row of attribute names (first cell is a corner label and
is ignored), then one row per object holding its name followed by 0/1 cells.
"""

from __future__ import annotations

import io as _io
import os

from .context import FormalContext


class ParseError(ValueError):
    """Context input rejected; ``line`` is 1-based where it applies."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _int_line(lines: list[str], i: int, what: str) -> int:
    if i >= len(lines):
        raise ParseError(f"missing {what}", len(lines))
    try:
        value = int(lines[i].strip())
    except ValueError:
        raise ParseError(f"expected {what}, got {lines[i]!r}", i + 1) from None
    if value < 0:
        raise ParseError(f"{what} must be nonnegative", i + 1)
    return value


def parse_burmeister(text: str) -> FormalContext:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "B":
        raise ParseError("expected header 'B'", 1)

    # The name line is optional. Without it the two counts follow 'B'
    # directly and the separator blank comes third.
    def looks_like_counts(i: int) -> bool:
        try:
            int(lines[i].strip())
            int(lines[i + 1].strip())
        except (ValueError, IndexError):
            return False
        return i + 2 < len(lines) and lines[i + 2].strip() == ""

    if looks_like_counts(1):
        counts_at = 1
    else:
        counts_at = 2  # line 2 is the context name, which we do not keep
    n_objects = _int_line(lines, counts_at, "object count")
    n_attributes = _int_line(lines, counts_at + 1, "attribute count")
    sep = counts_at + 2
    if sep >= len(lines) or lines[sep].strip() != "":
        raise ParseError("expected blank line after counts", sep + 1)

    need = sep + 1 + n_objects + n_attributes + n_objects
    if len(lines) < need:
        raise ParseError(
            f"truncated input: expected at least {need} lines, got {len(lines)}",
            len(lines),
        )
    at = sep + 1
    objects = [lines[at + i].rstrip("\r") for i in range(n_objects)]
    at += n_objects
    attributes = [lines[at + i].rstrip("\r") for i in range(n_attributes)]
    at += n_attributes

    incidence = []
    for i in range(n_objects):
        raw = lines[at + i].rstrip("\r")
        if len(raw) != n_attributes:
            raise ParseError(
                f"row width {len(raw)} does not match attribute count {n_attributes}",
                at + i + 1,
            )
        bad = [ch for ch in raw if ch not in "X."]
        if bad:
            raise ParseError(f"incidence character {bad[0]!r} is not '.' or 'X'", at + i + 1)
        incidence.append([int(ch == "X") for ch in raw])
    try:
        return FormalContext(objects, attributes, incidence)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def to_burmeister(context: FormalContext) -> str:
    """Burmeister text; raises ``ValueError`` on a label the line layout would split."""
    for label in (*context.objects, *context.attributes):
        if "".join(label.splitlines()) != label:
            raise ValueError(f"label {label!r} holds a line break; Burmeister cannot store it")
    width = range(len(context.attributes))
    rows = ["".join("X" if row >> m & 1 else "." for m in width) for row in context.rows]
    counts = [str(len(context.objects)), str(len(context.attributes))]
    return "\n".join(["B", "", *counts, "", *context.objects, *context.attributes, *rows]) + "\n"


def parse_csv(text: str) -> FormalContext:
    import csv  # here, so reading a Burmeister file does not load it

    # newline="" hands line ends to csv, so a bare "\r" ends a row too.
    reader = csv.reader(_io.StringIO(text, newline=""))
    try:
        # Each row with the physical line it ends on; quoted cells may span lines.
        table = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from exc
    # csv yields [] for a blank line; a file may end in some.
    while table and not table[-1][1]:
        table.pop()
    if not table:
        raise ParseError("empty CSV input", 1)
    attributes = table[0][1][1:]
    objects = []
    incidence = []
    for i, row in table[1:]:
        if len(row) != len(attributes) + 1:
            raise ParseError(
                f"row has {len(row)} cells, expected {len(attributes) + 1}", i
            )
        objects.append(row[0])
        cells = []
        for cell in row[1:]:
            cell = cell.strip()
            if cell not in ("0", "1"):
                raise ParseError(f"cell {cell!r} is not 0 or 1", i)
            cells.append(int(cell))
        incidence.append(cells)
    try:
        return FormalContext(objects, attributes, incidence)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_context(path: str | os.PathLike) -> FormalContext:
    """Read a UTF-8 context file, BOM or not; the suffix (.cxt or .csv, any case) picks the format."""
    suffix = os.path.splitext(os.fspath(path))[1].lower()
    parsers = {".cxt": parse_burmeister, ".csv": parse_csv}
    if suffix not in parsers:
        raise ParseError(f"cannot infer format from suffix {suffix!r}")
    with open(path, "rb") as fh:
        return parsers[suffix](fh.read().decode("utf-8-sig"))
