"""Output checkers, written from the definitions and not from ordmotif.

Each checker takes the generated input and the text one CLI command
printed, and returns a list of problems (empty when the output is
right). The benchmark counts an operation with any problem as failed.
"""

from __future__ import annotations

import json
import re

from workloads import FAMILIES, Table

Problems = list[str]


def brute_force_extents(n_objects: int, columns) -> set[int]:
    """Intersection closure of the attribute columns plus the full set."""
    full = (1 << n_objects) - 1
    closed = {full}
    frontier = {full}
    columns = set(columns)
    while frontier:
        nxt = set()
        for e in frontier:
            for col in columns:
                f = e & col
                if f not in closed:
                    closed.add(f)
                    nxt.add(f)
        frontier = nxt
    return closed


def extent_count(table: Table) -> int:
    return len(brute_force_extents(len(table.objects), table.cols()))


def clarified_labels(table: Table) -> tuple[list[str], list[str]]:
    """Representative and merged labels after merging identical rows.

    The representative is the first object of each group; the merged
    label joins the group with "/", both in order of first appearance.
    """
    groups: dict[int, list[str]] = {}
    for label, row in zip(table.objects, table.rows):
        groups.setdefault(row, []).append(label)
    return [g[0] for g in groups.values()], ["/".join(g) for g in groups.values()]


def split_names(text: str) -> list[str]:
    """Invert "a, b and c" into its names."""
    head, sep, last = text.rpartition(" and ")
    if not sep:
        return [text]
    return head.split(", ") + [last]


_SENTENCES = {
    "nominal": re.compile(
        r"The elements (?P<names>.+) are incomparable, i\.e\., all elements have at"
        r" least one property that the other elements do not have\."
    ),
    "ordinal": re.compile(
        r"There is a ranking of elements (?P<names>.+) such that an element has all"
        r" the properties its successors has\."
    ),
    "interordinal": re.compile(
        r"The elements (?P<names>.+) are ordered in such a way that each interval of"
        r" elements has a unique set of properties they have in common\."
    ),
    "contranominal": re.compile(
        r"Each combination of the elements (?P<names>.+) has a unique set of"
        r" properties they have in common\."
    ),
    "crown": re.compile(
        r"The elements (?P<names>.+) are incomparable\. Furthermore, there is a"
        r" closed cycle from (?P<first>\S+) over (?P<rest>.+) back to (?P<again>\S+)"
        r" by pairwise shared properties\."
    ),
}

_MIN_SIZE = {"nominal": 2, "ordinal": 2, "interordinal": 2, "contranominal": 2, "crown": 3}


def _sentence_problems(sentence: str, labels: set[str]) -> Problems:
    for family, pattern in _SENTENCES.items():
        match = pattern.fullmatch(sentence)
        if match is None:
            continue
        names = split_names(match["names"])
        problems = []
        if len(names) < _MIN_SIZE[family] or len(set(names)) != len(names):
            problems.append(f"{family} sentence with names {names}")
        unknown = [n for n in names if n not in labels]
        if unknown:
            problems.append(f"{family} sentence names unknown objects {unknown}")
        if family == "crown":
            walk = [match["first"]] + split_names(match["rest"])
            if walk != names or match["again"] != names[0]:
                problems.append(f"crown cycle {walk} does not follow {names}")
        return problems
    return [f"sentence matches no family template: {sentence!r}"]


def check_explain(table: Table, text: str, k: int) -> Problems:
    """Numbered entries 1..n (n <= k), every paragraph a filled template."""
    _, merged = clarified_labels(table)
    labels = set(merged)
    problems: Problems = []
    number = 0
    lines = text.rstrip("\n").split("\n") if text.strip() else []
    if not lines:
        return ["explain printed nothing"]
    for line in lines:
        match = re.match(r"(\d+)\. (.*)", line)
        if match:
            number += 1
            if int(match[1]) != number:
                problems.append(f"entry {match[1]} out of order")
            line = match[2]
        elif number == 0:
            problems.append("explain output does not start with entry 1")
        problems.extend(_sentence_problems(line, labels))
    if number > k:
        problems.append(f"{number} entries for k={k}")
    return problems


_STEP = re.compile(
    r"step (?P<i>\d+): (?P<family>\w+) \{(?P<names>[^}]*)\} new=(?P<new>\d+)"
    r" cumulative=(?P<cum>\d+)"
)
_TOTAL = re.compile(r"covered (?P<covered>\d+) of (?P<total>\d+) extents")


def check_cover(table: Table, text: str, extents: int, full: bool) -> Problems:
    """Steps in order, cumulative counts strictly rising, totals right.

    With ``full`` the covering must reach every extent.
    """
    _, merged = clarified_labels(table)
    labels = set(merged)
    lines = text.rstrip("\n").split("\n")
    problems: Problems = []
    total = _TOTAL.fullmatch(lines[-1])
    if total is None:
        return [f"cover output ends with {lines[-1]!r}"]
    cumulative = 0
    for i, line in enumerate(lines[:-1], 1):
        step = _STEP.fullmatch(line)
        if step is None:
            problems.append(f"unparsable step line {line!r}")
            continue
        new, cum = int(step["new"]), int(step["cum"])
        if int(step["i"]) != i:
            problems.append(f"step {step['i']} out of order")
        if step["family"] not in FAMILIES:
            problems.append(f"step {i} has unknown family {step['family']!r}")
        names = step["names"].split(", ")
        if any(n not in labels for n in names) or len(set(names)) != len(names):
            problems.append(f"step {i} names {names} are not distinct objects")
        if new <= 0 or cum != cumulative + new:
            problems.append(f"step {i}: cumulative {cum} after {cumulative} with new={new}")
        cumulative = cum
    if int(total["covered"]) != cumulative:
        problems.append(f"covered {total['covered']} but steps sum to {cumulative}")
    if int(total["total"]) != extents:
        problems.append(f"total {total['total']} extents, brute force gives {extents}")
    if full and cumulative != extents:
        problems.append(f"full covering reached {cumulative} of {extents} extents")
    return problems


def burmeister_columns(text: str) -> tuple[list[str], set[int]]:
    """Object labels and the distinct attribute columns of a Burmeister text."""
    lines = text.split("\n")
    if lines[0] != "B":
        raise ValueError("missing 'B' header")
    n, m = int(lines[2]), int(lines[3])
    objects = lines[5 : 5 + n]
    rows = lines[5 + n + m : 5 + n + m + n]
    if len(rows) != n or any(len(r) != m or set(r) - {"X", "."} for r in rows):
        raise ValueError("malformed incidence rows")
    columns = set()
    for column in set(zip(*rows)):
        columns.add(sum(1 << g for g, ch in enumerate(column) if ch == "X"))
    return objects, columns


def check_basis(table: Table, text: str, extents: int) -> Problems:
    """The basis is a context on the clarified objects with the same extent count."""
    try:
        objects, columns = burmeister_columns(text)
    except (ValueError, IndexError) as exc:
        return [f"basis output does not parse: {exc}"]
    representatives, _ = clarified_labels(table)
    problems: Problems = []
    if objects != representatives:
        problems.append("basis objects differ from the clarified objects")
    found = len(brute_force_extents(len(objects), columns))
    if found != extents:
        problems.append(f"basis has {found} extents, the input {extents}")
    return problems


def check_planted(blocks, text: str) -> Problems:
    """Each planted block is listed by ``motifs --json --maximal-only``."""
    try:
        listed = {
            (m["family"], frozenset(m["domain"])) for m in json.loads(text)["motifs"]
        }
    except (ValueError, KeyError, TypeError) as exc:
        return [f"motifs JSON does not parse: {exc}"]
    return [
        f"planted {b.family} block {sorted(b.objects)} is not a maximal motif"
        for b in blocks
        if (b.family, frozenset(b.objects)) not in listed
    ]


def check_dimension(text: str, expected: int) -> Problems:
    answer = text.strip()
    if answer != str(expected):
        return [f"scaling dimension {answer!r}, expected {expected}"]
    return []
