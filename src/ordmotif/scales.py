"""Standard scale contexts.

The five families live on the ground set [n] = {1, ..., n}:

* nominal        ([n], [n], =)
* ordinal        ([n], [n], <=)
* interordinal   ([n], [n], <=) | ([n], [n], >=)
* contranominal  ([n], [n], !=)
* crown          ([n], [n], J) with a J b iff a = b, b = a + 1, or (a, b) = (n, 1)
"""

from __future__ import annotations

import enum
from itertools import accumulate
from operator import or_
from typing import Sequence

from .bitsets import mask_of
from .context import FormalContext


class ScaleFamily(enum.IntEnum):
    """The five families; numeric order doubles as the covering tie-break rank."""

    NOMINAL = 1
    ORDINAL = 2
    INTERORDINAL = 3
    CONTRANOMINAL = 4
    CROWN = 5

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "ScaleFamily":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            names = ", ".join(str(f) for f in cls)
            raise ValueError(f"unknown scale family {name!r}; expected one of: {names}") from None


#: Smallest size at which each family is defined.
FAMILY_MIN_SIZE = {
    ScaleFamily.NOMINAL: 1,
    ScaleFamily.ORDINAL: 1,
    ScaleFamily.INTERORDINAL: 1,
    ScaleFamily.CONTRANOMINAL: 1,
    ScaleFamily.CROWN: 3,
}


def check_scale_size(family: ScaleFamily, n: int) -> None:
    if n < FAMILY_MIN_SIZE[family]:
        raise ValueError(f"{family} scale needs size >= {FAMILY_MIN_SIZE[family]}, got {n}")


def build_scale(family: ScaleFamily, n: int) -> FormalContext:
    """The standard scale of the given family and size, objects labelled 1..n."""
    check_scale_size(family, n)
    labels = tuple(str(i + 1) for i in range(n))
    if family is ScaleFamily.NOMINAL:
        rows = [1 << g for g in range(n)]
        return FormalContext.from_rows(labels, labels, rows)
    if family is ScaleFamily.ORDINAL:
        # object g has attribute m iff g <= m: row g covers bits g..n-1
        full = (1 << n) - 1
        rows = [full & ~((1 << g) - 1) for g in range(n)]
        return FormalContext.from_rows(labels, labels, rows)
    if family is ScaleFamily.INTERORDINAL:
        att = tuple(f"≤{i + 1}" for i in range(n)) + tuple(
            f"≥{i + 1}" for i in range(n)
        )
        full = (1 << n) - 1
        rows = []
        for g in range(n):
            le = full & ~((1 << g) - 1)  # g <= m
            ge = (1 << (g + 1)) - 1  # g >= m
            rows.append(le | ge << n)
        return FormalContext.from_rows(labels, att, rows)
    if family is ScaleFamily.CONTRANOMINAL:
        full = (1 << n) - 1
        rows = [full & ~(1 << g) for g in range(n)]
        return FormalContext.from_rows(labels, labels, rows)
    # crown: object a is incident with attributes a and a+1 (cyclically)
    rows = [(1 << g) | (1 << ((g + 1) % n)) for g in range(n)]
    return FormalContext.from_rows(labels, labels, rows)


def column_count(family: ScaleFamily, n: int) -> int:
    """Number of attributes of ``build_scale(family, n)``."""
    return 2 * n if family is ScaleFamily.INTERORDINAL else n


def scale_preimages(family: ScaleFamily, witness: Sequence[int]) -> list[int]:
    """Preimages of the extents of ``build_scale(family, len(witness))``.

    The map sends object ``witness[i]`` to scale object ``i + 1``; each
    preimage is written directly on the witness's object bits: prefixes
    (ordinal), intervals (interordinal), every subset by doubling
    (contranominal), or the empty set, singletons, cycle pairs and the whole
    domain (nominal, crown).
    """
    check_scale_size(family, len(witness))
    singles = [1 << g for g in witness]
    if family is ScaleFamily.ORDINAL:
        return list(accumulate(singles, or_))
    if family is ScaleFamily.INTERORDINAL:
        intervals = [p for i in range(len(singles)) for p in accumulate(singles[i:], or_)]
        return intervals if len(singles) == 1 else [0, *intervals]
    if family is ScaleFamily.CONTRANOMINAL:
        subsets = [0]
        for s in singles:
            subsets += [x | s for x in subsets]
        return subsets
    full = mask_of(witness)
    if family is ScaleFamily.NOMINAL:
        return [full] if len(singles) == 1 else [0, *singles, full]
    return [0, full, *singles, *map(or_, singles, singles[1:] + singles[:1])]


def scale_extents(family: ScaleFamily, n: int) -> list[int]:
    """Extent system of ``build_scale(family, n)``: the preimages under the identity.

    Bit i of each mask stands for scale object i + 1, in the order of
    :func:`scale_preimages`; for contranominal scales mask k is at index k.
    """
    return scale_preimages(family, range(n))


def expected_extent_count(family: ScaleFamily, n: int) -> int:
    """Number of extents of the standard scale of the given family and size."""
    check_scale_size(family, n)
    if family is ScaleFamily.NOMINAL:
        return 1 if n == 1 else n + 2
    if family is ScaleFamily.ORDINAL:
        return n
    if family is ScaleFamily.INTERORDINAL:
        return 1 if n == 1 else n * (n + 1) // 2 + 1
    if family is ScaleFamily.CONTRANOMINAL:
        return 2**n
    return 8 if n == 3 else 2 * n + 2

