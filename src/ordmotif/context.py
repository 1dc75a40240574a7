"""Formal contexts over finite object and attribute sets.

Objects and attributes are label tuples; incidence is stored as one int
bitmask per object row (and per attribute column). Object sets and
attribute sets are plain ints throughout, extents included, and a set of
extents is one int whose bit ``i`` stands for ``extents()[i]``. The
extents are the intersections of the columns, and ``intent_ids()`` names
each by its intent, so any closure is one intent and one lookup.
``meet_links()`` files each object's incomparable partners by meet.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .bitsets import bits, mask_of


class UnclarifiedObjectsError(ValueError):
    """Raised where pairwise distinct object rows are required."""

    def __init__(self, first: str, second: str):
        super().__init__(
            f"objects {first!r} and {second!r} have identical rows; clarify first"
        )
        self.pair = (first, second)


class FormalContext:
    """Immutable (G, M, I) triple with bitmask derivation operators."""

    __slots__ = (
        "objects",
        "attributes",
        "rows",
        "cols",
        "_extents",
        "_intent_ids",
        "_meet_links",
    )

    def __init__(
        self,
        objects: Sequence[str],
        attributes: Sequence[str],
        incidence: Sequence[Sequence[int]],
    ):
        rows = []
        for row in incidence:
            if len(row) != len(attributes):
                raise ValueError(
                    f"row width {len(row)} does not match {len(attributes)} attributes"
                )
            rows.append(mask_of(m for m, v in enumerate(row) if v))
        self._init(tuple(objects), tuple(attributes), tuple(rows))

    @classmethod
    def from_rows(
        cls, objects: Sequence[str], attributes: Sequence[str], rows: Sequence[int]
    ) -> "FormalContext":
        self = object.__new__(cls)
        self._init(tuple(objects), tuple(attributes), tuple(rows))
        return self

    @classmethod
    def _from_rows_and_cols(
        cls,
        objects: Sequence[str],
        attributes: Sequence[str],
        rows: Sequence[int],
        cols: Sequence[int],
    ) -> "FormalContext":
        """:meth:`from_rows` for callers that already hold the columns, the rows transposed."""
        self = object.__new__(cls)
        self._init(tuple(objects), tuple(attributes), tuple(rows), tuple(cols))
        return self

    def _init(self, objects, attributes, rows, cols=None):
        for kind, labels in (("object", objects), ("attribute", attributes)):
            seen: set[str] = set()
            for lab in labels:
                if lab in seen:
                    raise ValueError(f"duplicate {kind} label {lab!r}")
                seen.add(lab)
        if len(rows) != len(objects):
            raise ValueError(f"{len(rows)} rows for {len(objects)} objects")
        limit = 1 << len(attributes)
        for r in rows:
            if not 0 <= r < limit:
                raise ValueError("row mask exceeds attribute count")
        if cols is None:
            cols = [0] * len(attributes)
            for g, r in enumerate(rows):
                for m in bits(r):
                    cols[m] |= 1 << g
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", tuple(cols))
        object.__setattr__(self, "_extents", None)
        object.__setattr__(self, "_intent_ids", None)
        object.__setattr__(self, "_meet_links", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FormalContext is immutable")

    # -- basic shape ---------------------------------------------------

    @property
    def object_mask(self) -> int:
        return (1 << len(self.objects)) - 1

    @property
    def attribute_mask(self) -> int:
        return (1 << len(self.attributes)) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalContext):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.attributes == other.attributes
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.objects, self.attributes, self.rows))

    def __repr__(self) -> str:
        return f"FormalContext({len(self.objects)} objects, {len(self.attributes)} attributes)"

    # -- derivation ----------------------------------------------------

    def derive_objects(self, object_set: int) -> int:
        """Attributes shared by every object in ``object_set``."""
        out = self.attribute_mask
        for g in bits(object_set):
            out &= self.rows[g]
        return out

    def derive_attributes(self, attribute_set: int) -> int:
        """Objects incident with every attribute in ``attribute_set``."""
        out = self.object_mask
        for m in bits(attribute_set):
            out &= self.cols[m]
        return out

    def object_closure(self, object_set: int) -> int:
        """The smallest extent containing ``object_set``."""
        return self.derive_attributes(self.derive_objects(object_set))

    # -- global structure ----------------------------------------------

    def extents(self) -> tuple[int, ...]:
        """All extents, each once, in ascending lectic order.

        Every extent is the full object set cut by some attribute columns,
        so the extents are the intersection closure of the columns. In
        lectic order object 0 is the most significant, so the sort key is
        the mask with its bits reversed. Cached: the context is immutable.
        """
        if self._extents is None:
            closed = {self.object_mask}
            for col in self.cols:
                closed |= {e & col for e in closed}
            width = f"0{len(self.objects)}b"
            lectic = sorted(closed, key=lambda e: format(e, width)[::-1])
            object.__setattr__(self, "_extents", tuple(lectic))
        return self._extents

    def intent_ids(self) -> dict[int, int]:
        """Each extent's position in :meth:`extents`, keyed by the extent's intent.

        The position is the extent's bit in a set of extents. An extent is
        the set of objects holding its intent, so this answers the closure
        of any object set whose intent is known: the closure has the same
        intent.
        """
        if self._intent_ids is None:
            derive = self.derive_objects
            ids = {derive(e): i for i, e in enumerate(self.extents())}
            object.__setattr__(self, "_intent_ids", ids)
        return self._intent_ids

    def meet_links(self) -> dict[int, dict[int, int]]:
        """:func:`link_table` of the rows, built on first use and kept: the context is immutable."""
        if self._meet_links is None:
            table = link_table(self.rows, self.cols)
            object.__setattr__(self, "_meet_links", table)
        return self._meet_links

    # -- derived contexts ------------------------------------------------

    def transpose(self) -> "FormalContext":
        """Swap objects with attributes; incidence rows become columns."""
        return FormalContext._from_rows_and_cols(
            self.attributes, self.objects, self.cols, self.rows
        )


def link_table(rows: Sequence[int], cols: Sequence[int]) -> dict[int, dict]:
    """For each object x, ``{meet: the objects whose row meets x's in meet}``.

    ``cols`` are the columns of ``rows``. Only incomparable rows link, so
    neither row contains the other. The nonempty rows outside the columns
    of x's attributes link with x at 0 in one mask; a meet is computed
    only for an object that shares an attribute with x.
    """
    filled = mask_of(g for g, r in enumerate(rows) if r)
    table = {}
    for x, rx in enumerate(rows):
        near = 0
        for m in bits(rx):
            near |= cols[m]
        links = table[x] = {0: filled & ~near} if rx and filled & ~near else {}
        for y in bits(near & ~(1 << x)):
            meet = rx & rows[y]
            if meet != rx and meet != rows[y]:
                links[meet] = links.get(meet, 0) | 1 << y
    return table


def require_clarified(context: FormalContext, objects: Iterable[int]) -> None:
    """Raise :class:`UnclarifiedObjectsError` unless the given objects' rows all differ."""
    seen: dict[int, int] = {}
    for g in objects:
        row = context.rows[g]
        if row in seen:
            raise UnclarifiedObjectsError(
                context.objects[seen[row]], context.objects[g]
            )
        seen[row] = g


def clarify_objects(context: FormalContext) -> tuple[FormalContext, list[tuple[str, ...]]]:
    """Merge objects with identical rows, keeping the first of each group.

    Returns the clarified context and its groups: ``groups[g]`` lists the
    original labels merged into object ``g``, its own label first. The
    groups partition the original object list.
    """
    groups: dict[int, list[str]] = {}
    for g, row in enumerate(context.rows):
        groups.setdefault(row, []).append(context.objects[g])
    clarified = FormalContext.from_rows(
        tuple(labels[0] for labels in groups.values()),
        context.attributes,
        tuple(groups),
    )
    return clarified, [tuple(labels) for labels in groups.values()]
