"""Seeded input generators for the ordmotif benchmark.

Every workload is built from a fixed shape: a random table drawn once
from a constant generator seed or a block-diagonal sum of standard
scales, plus a batch of single scales for ``scaling-dim``. ``--seed``
permutes the object and attribute order and draws fresh labels. The extent system and the
motif pool are the same for every seed and the work differs only
through object order, so the spread between runs measures the program
and not the luck of the draw, while each seed still hands the program
different files and different expected output.

Nothing here imports ordmotif: the tables, the planted blocks and the
expected answers are written from the definitions, so the checkers in
``checks.py`` stay independent of the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

FAMILIES = ("nominal", "ordinal", "interordinal", "contranominal", "crown")

# Labels never contain ",", " ", "/" or "{}" so that the text outputs
# parse without ambiguity.
_SYLLABLES = ("ka", "lo", "mi", "nu", "pe", "ra", "si", "to", "ve", "zu")


def scale_rows(family: str, n: int) -> tuple[list[int], int]:
    """Rows (attribute bitmasks) and attribute count of a standard scale."""
    full = (1 << n) - 1
    if family == "nominal":
        return [1 << g for g in range(n)], n
    if family == "ordinal":
        return [full & ~((1 << g) - 1) for g in range(n)], n
    if family == "interordinal":
        rows = []
        for g in range(n):
            at_least = full & ~((1 << g) - 1)
            at_most = (1 << (g + 1)) - 1
            rows.append(at_least | at_most << n)
        return rows, 2 * n
    if family == "contranominal":
        return [full & ~(1 << g) for g in range(n)], n
    if family == "crown":
        return [(1 << g) | (1 << ((g + 1) % n)) for g in range(n)], n
    raise ValueError(f"unknown family {family!r}")


@dataclass
class Table:
    """A binary context: object labels, attribute labels, row bitmasks."""

    objects: list[str]
    attributes: list[str]
    rows: list[int]

    def cols(self) -> list[int]:
        cols = [0] * len(self.attributes)
        for g, row in enumerate(self.rows):
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= 1 << g
                row ^= low
        return cols

    def to_burmeister(self) -> str:
        lines = ["B", "", str(len(self.objects)), str(len(self.attributes)), ""]
        lines.extend(self.objects)
        lines.extend(self.attributes)
        width = len(self.attributes)
        for row in self.rows:
            lines.append("".join("X" if row >> m & 1 else "." for m in range(width)))
        return "\n".join(lines) + "\n"


@dataclass
class Block:
    """A planted standard scale: its family and its object labels."""

    family: str
    objects: tuple[str, ...]


@dataclass
class ContextInput:
    """A context the pipeline commands run on, with its planted blocks."""

    name: str
    table: Table
    blocks: list[Block] = field(default_factory=list)


@dataclass
class DimInput:
    """A ``scaling-dim`` call whose answer is known by construction."""

    name: str
    table: Table
    scales: str
    expected: int


@dataclass
class Workload:
    name: str
    main: ContextInput
    dims: list[DimInput]

    def tables(self) -> list[tuple[str, Table]]:
        return [(self.main.name, self.main.table)] + [(d.name, d.table) for d in self.dims]


def _labels(rng: random.Random, prefix: str, count: int) -> list[str]:
    # A random word plus a distinct number: unique, seed dependent length.
    return [
        prefix + "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3))) + str(i)
        for i in range(count)
    ]


def _shuffled(rng: random.Random, rows: list[int], n_attributes: int) -> tuple[Table, list[int]]:
    """Permute rows and columns, draw labels; return the table and the row order."""
    order = list(range(len(rows)))
    rng.shuffle(order)
    col_order = list(range(n_attributes))
    rng.shuffle(col_order)
    new_rows = []
    for g in order:
        row = 0
        for new_m, old_m in enumerate(col_order):
            if rows[g] >> old_m & 1:
                row |= 1 << new_m
        new_rows.append(row)
    table = Table(_labels(rng, "o", len(rows)), _labels(rng, "a", n_attributes), new_rows)
    return table, order


def random_rows(base_seed: int, n_objects: int, n_attributes: int, weight: int) -> list[int]:
    """Rows of ``weight`` random attributes each, drawn from a constant seed."""
    rng = random.Random(base_seed)
    return [
        sum(1 << m for m in rng.sample(range(n_attributes), weight))
        for _ in range(n_objects)
    ]


def direct_sum(blocks: list[tuple[str, int]]) -> tuple[list[int], int, list[tuple[str, list[int]]]]:
    """Block-diagonal sum of scales: rows, attribute count, block members."""
    rows: list[int] = []
    members = []
    shift = 0
    for family, n in blocks:
        block_rows, width = scale_rows(family, n)
        members.append((family, list(range(len(rows), len(rows) + n))))
        rows.extend(r << shift for r in block_rows)
        shift += width
    return rows, shift, members


def _planted(rng: random.Random, name: str, blocks: list[tuple[str, int]]) -> ContextInput:
    rows, width, members = direct_sum(blocks)
    table, order = _shuffled(rng, rows, width)
    position = {old: new for new, old in enumerate(order)}
    planted = [
        Block(family, tuple(table.objects[position[g]] for g in objs))
        for family, objs in members
    ]
    return ContextInput(name, table, planted)


def _dim_batch(rng: random.Random, specs: list[tuple[str, int, str, int]]) -> list[DimInput]:
    out = []
    for family, n, scales, expected in specs:
        rows, width = scale_rows(family, n)
        table, _ = _shuffled(rng, rows, width)
        out.append(DimInput(f"{family}{n}", table, scales, expected))
    return out


# Known answers: a standard scale measured by its own family has
# dimension 1 (the identity is a full measure). Contranominal n has the n
# co-atoms as meet-irreducibles and any map into ordinal 2 or into a
# nominal scale reaches at most one of them, so it needs n factors.
_LIGHT_DIMS = [
    ("nominal", 5, "nominal:5", 1),
    ("interordinal", 5, "interordinal:5", 1),
    ("crown", 5, "crown:5", 1),
    ("contranominal", 3, "ordinal:2", 3),
]

# The heavy batch rides on planted-scales, the context workload with the
# shortest round; the other two run the light batch and so bypass the
# map search.
_HEAVY_DIMS = [
    ("ordinal", 7, "ordinal:7", 1),
    ("nominal", 6, "nominal:6", 1),
    ("interordinal", 6, "interordinal:6", 1),
    ("crown", 6, "crown:6", 1),
    ("contranominal", 4, "ordinal:2,nominal:4", 4),
]

# (generator seed, objects, attributes, attributes per object). Three of
# 23 makes crowns the most expensive family; six of 18 gives many
# extents per object and a large nested pool.
SPARSE_SHAPE = (7, 27, 23, 3)
DENSE_SHAPE = (1502, 22, 18, 6)
PLANTED_BLOCKS = [
    ("contranominal", 6),
    ("interordinal", 6),
    ("crown", 6),
    ("contranominal", 4),
]


def _random_workload(name: str, shape: tuple[int, int, int, int], seed: int) -> Workload:
    rng = random.Random(seed)
    base_seed, n, m, weight = shape
    table, _ = _shuffled(rng, random_rows(base_seed, n, m, weight), m)
    return Workload(name, ContextInput("main", table), _dim_batch(rng, _LIGHT_DIMS))


def _planted_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    main = _planted(rng, "main", PLANTED_BLOCKS)
    return Workload("planted-scales", main, _dim_batch(rng, _HEAVY_DIMS))


WORKLOADS = {
    "sparse-random": lambda seed: _random_workload("sparse-random", SPARSE_SHAPE, seed),
    "planted-scales": _planted_workload,
    "dense-random": lambda seed: _random_workload("dense-random", DENSE_SHAPE, seed),
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def write_inputs(workload: Workload, directory: Path) -> dict[str, Path]:
    """Write every table as a Burmeister file; return name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, table in workload.tables():
        path = directory / f"{name}.cxt"
        path.write_text(table.to_burmeister(), encoding="utf-8")
        paths[name] = path
    return paths
