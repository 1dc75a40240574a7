"""Scaling dimension: fewest scales whose semi-product fully measures a context.

A full scale-measure into a semi-product decomposes into one map per
component, each a scale-measure on its own, whose attribute-extent
preimages jointly meet-generate the extent system. Every extent is an
intersection of meet-irreducible ones, so the search reduces to covering
the irreducibles with per-map preimage families. Each scale's maps are
grown one object at a time, and a partial map is dropped as soon as
some column's partial preimage can no longer grow into an extent. Each
column carries its preimage's intent, so that test reads the closure
off the context's intent table and computes none. The problem is hard
in general, and a context in which every set is an extent drops no
partial map, hence the caps on object count, tuple length and the
scale column scans the search counts as it goes.
"""

from __future__ import annotations

from typing import Sequence

from .context import FormalContext
from .scales import ScaleFamily, check_scale_size, column_count

MAX_OBJECTS = 8
MAX_TUPLE_LENGTH = 4
MAX_COLUMN_SCANS = 2**23


def check_object_count(n_objects: int) -> None:
    """Reject a context with more objects than the search admits."""
    if n_objects > MAX_OBJECTS:
        raise ValueError(f"scaling dimension search is capped at {MAX_OBJECTS} objects")


def check_scale_specs(n_objects: int, specs: Sequence[tuple[ScaleFamily, int]]) -> None:
    """Refuse a search before any of its ``(family, size)`` scales is built.

    Each size must be valid for its family and the context must pass
    :func:`check_object_count`. The first grown map of a scale ``S``
    already scans its ``|S| * |M_S|`` columns, and one count spans all
    scales, so their sum must stay within ``MAX_COLUMN_SCANS``.
    """
    for family, n in specs:
        check_scale_size(family, n)
    check_object_count(n_objects)
    first = sum(n * column_count(family, n) for family, n in specs)
    if first > MAX_COLUMN_SCANS:
        raise ValueError(
            f"the scales would scan {first} columns for one object; "
            f"the cap is {MAX_COLUMN_SCANS} column scans"
        )


def meet_irreducible_extents(context: FormalContext) -> list[int]:
    """Extents that are not intersections of strictly larger extents.

    Every extent is an intersection of columns, so every irreducible is a
    column, and the extents strictly above a column meet where the columns
    strictly above it do. Only the distinct columns are therefore tested,
    against each other. The top is the meet of nothing and never counts.
    """
    top = context.object_mask
    columns = set(context.cols)
    out = []
    for e in columns:
        meet = top
        for f in columns:
            if f != e and f & e == e:
                meet &= f
        if meet != e:
            out.append(e)
    return sorted(out)


def _measure_coverages(
    context: FormalContext, scale: FormalContext, irreducibles: int, spent: list[int]
) -> set[int]:
    """Irreducibles reachable per valid map from the context onto ``scale``.

    Grows each map one object at a time, in object order, trying the
    scale's objects in their order, and carries the partial preimage ``P``
    of every scale column next to its intent. A branch ends as soon as some
    ``P`` has an assigned object outside ``P`` in its closure: every
    completion's preimage contains ``P`` and is an extent, so it would hold
    that object too, which the assignment already ruled out. An object
    joining ``P`` narrows the intent to its row, and the closure is read off
    ``context.intent_ids()``; an object kept out of ``P`` is outside the
    closure iff it lacks some attribute of the intent. Once every object is
    assigned the test says that each preimage is an extent, so exactly the
    measures survive. Records which irreducibles appear among their
    preimages; sets of extents are ints over ``intent_ids()``.

    Each grown partial map adds its ``|S| * |M_S|`` column scans to the
    shared ``spent[0]``; past ``MAX_COLUMN_SCANS`` the search fails.
    """
    n = len(context.objects)
    cost = len(scale.rows) * len(scale.attributes)
    rows = context.rows
    extents = context.extents()
    ids = context.intent_ids()
    out: set[int] = set()

    def grow(g: int, columns: list[tuple[int, int]]) -> None:
        if g == n:
            hit = 0
            for _, intent in columns:
                hit |= 1 << ids[intent]
            out.add(hit & irreducibles)
            return
        spent[0] += cost
        if spent[0] > MAX_COLUMN_SCANS:
            raise ValueError(
                f"scaling dimension search stopped after {spent[0]} scale column "
                f"scans; the cap is {MAX_COLUMN_SCANS} column scans"
            )
        bit = 1 << g
        assigned = (bit << 1) - 1
        row_g = rows[g]
        for row in scale.rows:
            grown = []
            for c, (pre, intent) in enumerate(columns):
                if row >> c & 1:
                    pre |= bit
                    intent &= row_g
                    if extents[ids[intent]] & assigned != pre:
                        break
                elif not intent & ~row_g:
                    break
                grown.append((pre, intent))
            else:
                grow(g + 1, grown)

    grow(0, [(0, context.attribute_mask)] * len(scale.attributes))
    return out


def scaling_dimension(
    context: FormalContext,
    scales: Sequence[FormalContext],
    max_d: int = MAX_TUPLE_LENGTH,
) -> int | None:
    """Least d <= ``max_d`` admitting a full measure into a d-fold semi-product.

    Scales may repeat within a tuple. Returns ``None`` when no tuple of
    length up to ``max_d`` works.
    """
    check_object_count(len(context.objects))
    if not 1 <= max_d <= MAX_TUPLE_LENGTH:
        raise ValueError(f"max_d must be between 1 and {MAX_TUPLE_LENGTH}")
    if not scales:
        raise ValueError("the scale family must not be empty")

    ids = context.intent_ids()
    target = 0
    for e in meet_irreducible_extents(context):
        target |= 1 << ids[context.derive_objects(e)]
    coverages: set[int] = set()
    spent = [0]
    for scale in scales:
        coverages |= _measure_coverages(context, scale, target, spent)
    if not coverages:
        return None
    # Dominated coverage sets never help a smallest tuple.
    maximal = [c for c in coverages if not any(c != o and c | o == o for o in coverages)]
    maximal.sort(key=lambda c: (-c.bit_count(), c))

    def search(missing: int, budget: int, start: int) -> bool:
        if not missing:
            return True
        if budget == 0:
            return False
        for i in range(start, len(maximal)):
            if missing & maximal[i]:
                if search(missing & ~maximal[i], budget - 1, i + 1):
                    return True
        return False

    for d in range(1, max_d + 1):
        if search(target, d, 0):
            return d
    return None
