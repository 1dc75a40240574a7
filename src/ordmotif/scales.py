"""Standard scale contexts.

The five families live on the ground set [n] = {1, ..., n}:

* nominal        ([n], [n], =)
* ordinal        ([n], [n], <=)
* interordinal   ([n], [n], <=) | ([n], [n], >=)
* contranominal  ([n], [n], !=)
* crown          ([n], [n], J) with a J b iff a = b, b = a + 1, or (a, b) = (n, 1)

Each family's extents have one closed form, written over rows inline in
``covering.covered_extents``; the basis reads a built scale's ``extents()``.
"""

from __future__ import annotations

import enum

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
    """The standard scale of the given family and size, objects labelled 1..n.

    Rows and columns are both written in closed form, so building costs no
    transposition.
    """
    check_scale_size(family, n)
    labels = tuple(str(i + 1) for i in range(n))
    full = (1 << n) - 1
    if family is ScaleFamily.NOMINAL:
        rows = [1 << g for g in range(n)]
        return FormalContext._from_rows_and_cols(labels, labels, rows, rows)
    # object g holds "<= m" iff g <= m: row g is bits g..n-1, column m bits 0..m
    at_most = [full & ~((1 << g) - 1) for g in range(n)]
    up_to = [(1 << (m + 1)) - 1 for m in range(n)]
    if family is ScaleFamily.ORDINAL:
        return FormalContext._from_rows_and_cols(labels, labels, at_most, up_to)
    if family is ScaleFamily.INTERORDINAL:
        att = tuple(f"≤{i + 1}" for i in range(n)) + tuple(
            f"≥{i + 1}" for i in range(n)
        )
        # object g holds ">= m" iff g >= m: the mirror image of "<= m"
        rows = [le | ge << n for le, ge in zip(at_most, up_to)]
        return FormalContext._from_rows_and_cols(labels, att, rows, up_to + at_most)
    if family is ScaleFamily.CONTRANOMINAL:
        rows = [full & ~(1 << g) for g in range(n)]
        return FormalContext._from_rows_and_cols(labels, labels, rows, rows)
    # crown: object a is incident with attributes a and a+1 (cyclically),
    # so column m holds objects m and m-1
    rows = [(1 << g) | (1 << ((g + 1) % n)) for g in range(n)]
    cols = [(1 << m) | (1 << ((m - 1) % n)) for m in range(n)]
    return FormalContext._from_rows_and_cols(labels, labels, rows, cols)


def column_count(family: ScaleFamily, n: int) -> int:
    """Number of attributes of ``build_scale(family, n)``."""
    return 2 * n if family is ScaleFamily.INTERORDINAL else n

