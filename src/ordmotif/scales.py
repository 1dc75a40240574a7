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
from functools import reduce
from itertools import accumulate, repeat
from operator import and_, or_
from typing import Sequence

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


# The extents of ``build_scale(family, len(atoms))``, each written as a
# join: scale object ``i + 1`` stands for ``atoms[i]``, an extent is the
# join of its objects' atoms, and the empty extent is ``bottom``. Object
# masks join by ``|`` from 0, intents by ``&`` from every attribute.


def _ordinal_shapes(atoms: list[int], join, bottom: int) -> list[int]:
    # the prefixes
    return list(accumulate(atoms, join))


def _interordinal_shapes(atoms: list[int], join, bottom: int) -> list[int]:
    # the intervals, and the empty set once there are two objects
    intervals = [p for i in range(len(atoms)) for p in accumulate(atoms[i:], join)]
    return intervals if len(atoms) == 1 else [bottom, *intervals]


def _contranominal_shapes(atoms: list[int], join, bottom: int) -> list[int]:
    # every subset, by doubling: subset k is at index k
    subsets = [bottom]
    for a in atoms:
        subsets += list(map(join, subsets, repeat(a)))
    return subsets


def _nominal_shapes(atoms: list[int], join, bottom: int) -> list[int]:
    # the empty set, the singletons and the whole domain
    whole = reduce(join, atoms)
    return [whole] if len(atoms) == 1 else [bottom, *atoms, whole]


def _crown_shapes(atoms: list[int], join, bottom: int) -> list[int]:
    # the empty set, the whole domain, the singletons and the cycle pairs
    pairs = map(join, atoms, atoms[1:] + atoms[:1])
    return [bottom, reduce(join, atoms), *atoms, *pairs]


_EXTENT_SHAPES = {
    ScaleFamily.NOMINAL: _nominal_shapes,
    ScaleFamily.ORDINAL: _ordinal_shapes,
    ScaleFamily.INTERORDINAL: _interordinal_shapes,
    ScaleFamily.CONTRANOMINAL: _contranominal_shapes,
    ScaleFamily.CROWN: _crown_shapes,
}


def scale_preimages(family: ScaleFamily, witness: Sequence[int]) -> list[int]:
    """Preimages of the extents of ``build_scale(family, len(witness))``.

    The map sends object ``witness[i]`` to scale object ``i + 1``; each
    preimage is the OR of its objects' bits, and the empty preimage is 0.
    """
    check_scale_size(family, len(witness))
    return _EXTENT_SHAPES[family]([1 << g for g in witness], or_, 0)


def preimage_intents(
    context: FormalContext, family: ScaleFamily, witness: Sequence[int]
) -> list[int]:
    """Intents of :func:`scale_preimages`, in the same order.

    The intent of a nonempty object set is the AND of its rows and the
    intent of the empty set is every attribute, so each intent is the same
    shape as its preimage, over rows instead of object bits.
    """
    check_scale_size(family, len(witness))
    rows = context.rows
    return _EXTENT_SHAPES[family]([rows[g] for g in witness], and_, context.attribute_mask)


def scale_extents(family: ScaleFamily, n: int) -> list[int]:
    """Extent system of ``build_scale(family, n)``: the preimages under the identity.

    Bit i of each mask stands for scale object i + 1, in the order of
    :func:`scale_preimages`; for contranominal scales mask k is at index k.
    """
    return scale_preimages(family, range(n))

