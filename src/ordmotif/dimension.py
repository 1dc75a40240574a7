"""Scaling dimension: fewest scales whose semi-product fully measures a context.

A full scale-measure into a semi-product decomposes into one map per
component, each a scale-measure on its own, whose attribute-extent
preimages jointly meet-generate the extent system. Every extent is an
intersection of meet-irreducible ones, so the search covers the
irreducibles with the *coverage sets* of single maps, the irreducibles
among a map's column preimages. A set inside another covers nothing
more, so only maximal ones are kept. The final cover is an exact search
bounded by cardinality: it branches only on the sets holding the least
uncovered irreducible, and stops once d sets of the largest size are
too few for what is left.

Measures onto a scale depend only on its extents (Ganter, Hanika & Hirth,
"Scaling Dimension", ICFCA 2023), so no map is searched. Each scale is
keyed on the family :func:`recognize` finds for all its objects,
clarified first if two rows are equal, and its coverage sets are read
off a walk over the context's extents:

* Ordinal and interordinal scales of n objects T: the prefixes
  C_1 < ... < C_c (c = n - 1) are distinct, proper and nonempty, and
  the extents are the intersections of T and the C_i, in the
  interordinal, *complemented*, case also of each T minus C_i. A measure
  pulls the C_i back to a nondecreasing chain A_1 <= ... <= A_c of
  extents, in the complemented case with each G minus A_i an extent
  too. Every such chain is realized: send g to an object of C_i outside
  C_(i-1) for the least i with g in A_i, or to an object outside C_c
  when no A_i holds g. So the walk follows chains of at most c distinct
  extents. When every scale is ordinal and the longest chain of
  irreducibles fits the largest c, the *capacity*, the dimension is the
  least number of chains covering the irreducibles, at least 1: by
  Dilworth's theorem their width (Fulkerson 1956).
* Nominal and contranominal scales of n objects: a map is a partition
  of G into at most n nonempty blocks. Nominal columns pull back to the
  blocks, and to the empty set once fewer than n blocks are used;
  contranominal ones to the blocks' complements, and to G.
* Crowns of n >= 4 objects: the columns are the pairs of cycle
  neighbours, so a map with blocks B_0, ..., B_(n-1) in cycle order is
  a measure iff every B_i | B_(i+1) (indices mod n) is an extent.

A partition has at most |G| nonempty blocks, and around a crown a run of
empty blocks between two nonempty ones matters only as none, one, or two
or more (which pull a column back to the empty set). So larger scales
measure a context as those of |G| + 1 and of 3|G| objects do, and
:func:`check_scale_specs` builds none larger than :func:`_walked_size`
allows; the walks cap built ones alike. A walk counts its steps as
column scans, on one count per call.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .bitsets import bits
from .context import FormalContext, clarify_objects
from .recognition import recognize
from .scales import ScaleFamily, check_scale_size

#: The crown walk's memo table grows as 4**|G| * n, hence the object cap.
MAX_OBJECTS = 8
MAX_TUPLE_LENGTH = 4
MAX_COLUMN_SCANS = 2**23


def check_object_count(n_objects: int) -> None:
    """Reject a context with more objects than the search admits."""
    if n_objects > MAX_OBJECTS:
        raise ValueError(f"scaling dimension search is capped at {MAX_OBJECTS} objects")


def _walked_size(family: ScaleFamily, n_objects: int) -> int:
    """Size above which a scale of ``family`` measures ``n_objects`` objects as at this size.

    See the module docstring; a chain of distinct extents, at most
    ``n_objects + 1`` of them, fits a chain scale of ``n_objects + 2``.
    """
    return max(4, 3 * n_objects) if family is ScaleFamily.CROWN else n_objects + 2


def check_scale_specs(
    n_objects: int, specs: Sequence[tuple[ScaleFamily, int]]
) -> list[tuple[ScaleFamily, int]]:
    """Refuse a search before any of its ``(family, size)`` scales is built.

    Each size must be valid for its family and the context must pass
    :func:`check_object_count`. Returns the specs to build, each capped
    at :func:`_walked_size`: a larger scale gives the same answer.
    """
    for family, n in specs:
        check_scale_size(family, n)
    check_object_count(n_objects)
    return [(f, min(n, _walked_size(f, n_objects))) for f, n in specs]


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


def _spend(spent: list[int], scans: int) -> None:
    """Add ``scans`` to the shared count ``spent[0]``; fail past ``MAX_COLUMN_SCANS``."""
    spent[0] += scans
    if spent[0] > MAX_COLUMN_SCANS:
        raise ValueError(
            f"scaling dimension search stopped after {spent[0]} scale column "
            f"scans; the cap is {MAX_COLUMN_SCANS} column scans"
        )


def _maximal(hits: Iterable[int]) -> list[int]:
    """The distinct sets of ``hits`` that no other one strictly contains, largest first."""
    out: list[int] = []
    for hit in sorted(set(hits), key=int.bit_count, reverse=True):
        if all(hit & ~kept for kept in out):
            out.append(hit)
    return out


#: The order in which :func:`_shape` asks the families: chain scales first.
_SHAPES = (
    ScaleFamily.ORDINAL, ScaleFamily.INTERORDINAL,
    ScaleFamily.NOMINAL, ScaleFamily.CONTRANOMINAL, ScaleFamily.CROWN,
)


def _shape(scale: FormalContext) -> tuple[ScaleFamily, int] | None:
    """The first family :func:`recognize` finds for all of the scale's objects, and their count.

    The scale is clarified first if two rows are equal. Chain scales are
    asked first, so no scale of two objects is nominal or contranominal,
    and contranominal before crown, so the 3-crown is contranominal 3. A
    scale without objects, or that no family fits, answers ``None``.
    """
    if len(set(scale.rows)) < len(scale.rows):
        scale, _ = clarify_objects(scale)
    n = len(scale.rows)
    for family in _SHAPES:
        if n and recognize(scale, range(n), family):
            return family, n
    return None


def _chain_coverages(
    context: FormalContext, length: int, complemented: bool, irreducibles: int, spent: list[int]
) -> list[int]:
    """Maximal coverage sets of the measures onto an ordinal or interordinal scale.

    A measure pulls the chain C back to a nondecreasing chain of at most
    ``length`` extents, in the complemented (interordinal) case of
    extents whose complements are extents too, and every such chain is realized (see
    the module docstring). The irreducibles a chain meets are those among
    its members, and in the complemented case also those among their
    complements, so only *relevant* members, which meet some irreducible,
    are walked: chains of them grow upwards by strict inclusion, and each
    chain that cannot grow gives a coverage set. Without relevant members
    the empty coverage stands, if any map is a measure at all.

    Each walk step adds one plus the members it tries to the shared
    ``spent[0]``.
    """
    extents = context.extents()
    if complemented:
        top = context.object_mask
        index = {e: i for i, e in enumerate(extents)}
        hits = {
            e: (1 << i | 1 << index[top ^ e]) & irreducibles
            for i, e in enumerate(extents)
            if top ^ e in index
        }
        if not hits:
            return []
    else:
        hits = {extents[i]: 1 << i for i in bits(irreducibles)}
    relevant = sorted((e for e, hit in hits.items() if hit), key=int.bit_count)
    if not length or not relevant:
        return [0]
    above = {e: [f for f in relevant if f != e and e & f == e] for e in relevant}
    found: set[int] = set()

    def walk(e: int, depth: int, hit: int) -> None:
        _spend(spent, 1 + len(above[e]))
        if depth == length or not above[e]:
            found.add(hit)
            return
        for f in above[e]:
            walk(f, depth + 1, hit | hits[f])

    for e in relevant:
        walk(e, 1, hits[e])
    return _maximal(found)


def _partition_coverages(
    context: FormalContext, n: int, complemented: bool, irreducibles: int, spent: list[int]
) -> list[int]:
    """Maximal coverage sets of the measures onto a nominal or contranominal scale of n objects.

    A measure is a partition of G into at most n nonempty blocks that are
    extents, or in the complemented (contranominal) case whose complements
    are, and a nominal one of fewer blocks needs the empty set to be an
    extent. Each block holds the least object not yet placed, so every
    partition is grown once. A state is the objects not yet placed and
    the number of blocks; growing one adds one plus the blocks it tries
    to the shared ``spent[0]``.
    """
    top = context.object_mask
    n = min(n, _walked_size(ScaleFamily.NOMINAL, len(context.objects)))
    extents = context.extents()
    blocks = [
        (top ^ e if complemented else e, 1 << i & irreducibles) for i, e in enumerate(extents)
    ]
    # A scale object no block uses pulls its column back to G, or to the empty set.
    unused = top if complemented else 0
    spare = [1 << extents.index(unused) & irreducibles] if unused in extents else []
    memo: dict[tuple[int, int], list[int]] = {}

    def walk(free: int, depth: int) -> list[int]:
        key = free, depth
        if key not in memo:
            if not free:
                memo[key] = [0] if depth == n else spare
            elif depth == n:
                memo[key] = []
            else:
                _spend(spent, 1 + len(blocks))
                low = free & -free
                memo[key] = _maximal(
                    hit | rest
                    for b, hit in blocks
                    if b & low and not b & ~free
                    for rest in walk(free ^ b, depth + 1)
                )
        return memo[key]

    return walk(top, 0)


def _crown_coverages(
    context: FormalContext, n: int, irreducibles: int, spent: list[int]
) -> list[int]:
    """Maximal coverage sets of the measures onto a crown of n >= 4 objects.

    A rotation keeps the preimages, so object 0 lies in B_0. Each block
    is an extent, the meet of the two unions that hold it: B_0 is one
    holding object 0, and each later block one of the objects not yet
    placed whose union with the block before is an extent. The last
    block takes the objects left and closes with B_0. A state is B_0,
    the last block, the objects not yet placed and the blocks still to
    place; with k objects left, more than 3k + 2 blocks walk as that many
    (see the module docstring). Growing a state adds one plus the blocks
    it tries to the shared ``spent[0]``.
    """
    extents = context.extents()
    hits = {e: 1 << i & irreducibles for i, e in enumerate(extents)}
    n = min(n, _walked_size(ScaleFamily.CROWN, len(context.objects)))
    inside: dict[int, list[int]] = {}
    memo: dict[tuple[int, int, int, int], list[int]] = {}

    def walk(first: int, last: int, free: int, left: int) -> list[int]:
        left = min(left, 3 * free.bit_count() + 2)
        key = first, last, free, left
        if key not in memo:
            blocks = inside.get(free)
            if blocks is None:
                blocks = inside[free] = [e for e in extents if not e & ~free]
            _spend(spent, 1 + len(blocks))
            found = []
            for b in blocks:
                joint = hits.get(last | b)
                if joint is None:
                    continue
                rest = free ^ b
                if left > 2:
                    found += [joint | hit for hit in walk(first, b, rest, left - 1)]
                elif rest in hits and rest | b in hits and rest | first in hits:
                    # The last block takes every object left and closes with B_0.
                    found.append(joint | hits[rest | b] | hits[rest | first])
            memo[key] = _maximal(found)
        return memo[key]

    top = context.object_mask
    if not top:
        return [irreducibles & 1]
    return _maximal(
        hit for first in extents if first & 1 for hit in walk(first, first, top ^ first, n - 1)
    )


def _height_and_width(sets: list[int]) -> tuple[int, int]:
    """Longest chain and fewest covering chains of distinct sets under strict inclusion.

    The fewest chains are ``len(sets)`` minus a maximum matching of sets
    to strict supersets (Dilworth; Fulkerson 1956), grown by augmenting
    paths.
    """
    above = [[j for j, f in enumerate(sets) if e != f and e & f == e] for e in sets]
    height = [0] * len(sets)
    for i in sorted(range(len(sets)), key=lambda i: -sets[i].bit_count()):
        height[i] = 1 + max((height[j] for j in above[i]), default=0)
    match: list[int | None] = [None] * len(sets)

    def augment(i: int, seen: set[int]) -> bool:
        for j in above[i]:
            if j not in seen:
                seen.add(j)
                if match[j] is None or augment(match[j], seen):
                    match[j] = i
                    return True
        return False

    matched = sum(augment(i, set()) for i in range(len(sets)))
    return max(height, default=0), len(sets) - matched


def _coverages(
    context: FormalContext, family: ScaleFamily, n: int, irreducibles: int, spent: list[int]
) -> list[int]:
    """Maximal coverage sets of the measures onto the family's scale of n objects."""
    if family is ScaleFamily.CROWN:
        return _crown_coverages(context, n, irreducibles, spent)
    complemented = family in (ScaleFamily.INTERORDINAL, ScaleFamily.CONTRANOMINAL)
    if family in (ScaleFamily.NOMINAL, ScaleFamily.CONTRANOMINAL):
        return _partition_coverages(context, n, complemented, irreducibles, spent)
    return _chain_coverages(context, n - 1, complemented, irreducibles, spent)


def scaling_dimension(
    context: FormalContext,
    scales: Sequence[FormalContext],
    max_d: int = MAX_TUPLE_LENGTH,
) -> int | None:
    """Least d <= ``max_d`` admitting a full measure into a d-fold semi-product.

    Scales may repeat within a tuple, and each must be a standard scale up
    to its labels, its repeated objects and its redundant columns;
    another raises ``ValueError``. Returns ``None`` when no tuple of
    length up to ``max_d`` works. When every scale is ordinal and the
    longest chain of irreducibles fits the largest capacity, the answer
    is their width (at least 1) and nothing is walked. Otherwise every
    scale is walked over extents, on one column scan count.
    """
    check_object_count(len(context.objects))
    if not 1 <= max_d <= MAX_TUPLE_LENGTH:
        raise ValueError(f"max_d must be between 1 and {MAX_TUPLE_LENGTH}")
    if not scales:
        raise ValueError("the scale family must not be empty")
    shapes = [_shape(scale) for scale in scales]
    if None in shapes:
        raise ValueError(f"scale {shapes.index(None) + 1} is no standard scale")

    irreducibles = meet_irreducible_extents(context)
    if all(family is ScaleFamily.ORDINAL for family, _ in shapes):
        height, width = _height_and_width(irreducibles)
        if height < max(n for _, n in shapes):
            d = max(width, 1)
            return d if d <= max_d else None

    ids = context.intent_ids()
    target = 0
    for e in irreducibles:
        target |= 1 << ids[context.derive_objects(e)]
    coverages: set[int] = set()
    spent = [0]
    for family, n in shapes:
        coverages.update(_coverages(context, family, n, target, spent))
    if not coverages:
        return None
    largest = max(c.bit_count() for c in coverages)

    def cover(missing: int, budget: int) -> bool:
        # Some set of every cover holds the least missing irreducible.
        if not missing:
            return True
        if missing.bit_count() > budget * largest:
            return False
        low = missing & -missing
        return any(cover(missing & ~c, budget - 1) for c in coverages if c & low)

    return next((d for d in range(1, max_d + 1) if cover(target, d)), None)
