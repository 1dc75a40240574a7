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
scale column scans the search counts as it goes. The final cover is an
exact search bounded by cardinality: it branches only on the maps' sets
holding the least uncovered irreducible, and stops once d sets of the
largest size are too few for what is left.

Three exact cuts spare the search work whose answer is known. Measures
onto a scale depend only on its extents (Ganter, Hanika & Hirth,
"Scaling Dimension", ICFCA 2023), so the cuts key on the family
:func:`recognize` finds for all the scale's objects, clarified first if
two rows are equal:

* Ordinal and interordinal scales are walked over extents. On either, of
  n objects T, the prefixes C_1 < ... < C_c (c = n - 1) are distinct,
  proper and nonempty, and the extents are the intersections of T and
  the C_i, in the interordinal, *complemented*, case also of each T
  minus C_i. A measure pulls the C_i back to a nondecreasing chain
  A_1 <= ... <= A_c of extents, and in the complemented case each G
  minus A_i must be an extent too. Every such chain is realized: send g
  to an object of C_i outside C_(i-1) for the least i with g in A_i, or
  to an object outside C_c when no A_i holds g. Then C_i pulls back to
  A_i, T minus C_i to G minus A_i, and T to G. A shorter chain is padded
  by repeats, so the coverage sets are the irreducibles met by chains of
  at most c distinct extents, and only the extents that meet one
  matter: the irreducibles themselves, or in the complemented case the
  extents E with G minus E an extent and E or G minus E irreducible.
  Ordinal scales always realize the chain G, ..., G; interordinal ones
  realize some chain only if some extent's complement is an extent.
* Ordinal scales are answered by width, c being the *capacity*. With no
  irreducible at all, one map that pulls every column back to G
  suffices. So when every scale is ordinal and the longest chain of
  irreducibles fits the largest capacity, the dimension is the least
  number of chains covering the irreducibles, at least 1: by Dilworth's
  theorem their width, the irreducibles minus a maximum matching on
  strict inclusion (Fulkerson 1956).
* The map search grows one map per orbit of the scale automorphisms that
  permute its columns: composed with a map, one keeps the preimage
  family, measure or not. Once the first objects are assigned, one
  fixing every used scale object carries the maps sending the next
  object to t onto those sending it to t's image, with the same partial
  preimages, so only one scale object per orbit of that pointwise
  stabilizer is tried, and by induction every measure has a grown image
  (isomorph rejection along a stabilizer chain; McKay, "Isomorph-free
  exhaustive generation", J. Algorithms 1998). A used object is fixed,
  hence always tried. The column sizes name the family to ask: pairs a
  crown, singletons nominal, all objects but one contranominal. Once
  recognized, the columns are the family's meet-irreducible extents,
  which every automorphism permutes. On a crown, a cycle of n pairs,
  these are its rotations and reflections: the first object goes to
  position 0 of the witness only. While every used object lies in
  {0, n/2} (n/2 only for even n), the reflection through 0 still fixes
  them and pairs position i with n - i, so positions 0..n//2 are tried;
  after that, only the identity does. On a nominal or contranominal
  scale every permutation is an automorphism, so the unused objects form
  one orbit and only the least of them is tried. Any other scale tries
  every object.

Crowns, nominal and contranominal scales of three or more objects, and
any scale recognized as neither ordinal nor interordinal, keep the map
search.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .bitsets import bits, mask_of
from .context import FormalContext, clarify_objects
from .recognition import Motif, recognize
from .scales import ScaleFamily, check_scale_size, column_count

MAX_OBJECTS = 8
MAX_TUPLE_LENGTH = 4
MAX_COLUMN_SCANS = 2**23


def check_object_count(n_objects: int) -> None:
    """Reject a context with more objects than the search admits."""
    if n_objects > MAX_OBJECTS:
        raise ValueError(f"scaling dimension search is capped at {MAX_OBJECTS} objects")


def check_scale_specs(
    n_objects: int, specs: Sequence[tuple[ScaleFamily, int]]
) -> list[tuple[ScaleFamily, int]]:
    """Refuse a search before any of its ``(family, size)`` scales is built.

    Each size must be valid for its family and the context must pass
    :func:`check_object_count`. :func:`recognize` finds a built scale of
    one or two objects ordinal or interordinal, so the map search runs on
    crowns and on nominal and contranominal scales of three or more
    objects, and the first grown map of such a scale ``S`` already scans
    its ``|S| * |M_S|`` columns. One count spans all scales, so the sum
    over these scales must stay within ``MAX_COLUMN_SCANS``.

    Returns the specs to build. The other scales are recognized as
    ordinal or interordinal and walked over chains of distinct extents,
    which have at most ``n_objects + 1`` members. So an ordinal or
    interordinal scale of more than ``n_objects + 2`` objects gives the
    same answer on the same column scan count as one of that size, which
    is built instead.
    """
    for family, n in specs:
        check_scale_size(family, n)
    check_object_count(n_objects)
    first = sum(
        n * column_count(family, n)
        for family, n in specs
        if family is ScaleFamily.CROWN
        or family in (ScaleFamily.NOMINAL, ScaleFamily.CONTRANOMINAL) and n >= 3
    )
    if first > MAX_COLUMN_SCANS:
        raise ValueError(
            f"the scales would scan {first} columns for one object; "
            f"the cap is {MAX_COLUMN_SCANS} column scans"
        )
    chains = (ScaleFamily.ORDINAL, ScaleFamily.INTERORDINAL)
    return [(f, min(n, n_objects + 2) if f in chains else n) for f, n in specs]


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


def _symmetric_motif(scale: FormalContext) -> Motif | None:
    """The crown, nominal or contranominal scale ``recognize`` finds on all objects, else ``None``.

    Only the family the column sizes name is asked (the third cut of the
    module docstring); a later key wins, so a 3-crown, also contranominal
    3, is a crown. Equal rows answer ``None``, not an error. A crown's
    witness is its cycle order from 0 towards its smaller neighbour:
    0, 1, ..., n - 1 on ``build_scale(CROWN, n)``.
    """
    n = len(scale.rows)
    sizes = {c.bit_count() for c in scale.cols}
    families = {1: ScaleFamily.NOMINAL, n - 1: ScaleFamily.CONTRANOMINAL, 2: ScaleFamily.CROWN}
    family = families.get(sizes.pop()) if len(sizes) == 1 else None
    if family is None or len(set(scale.rows)) < n:
        return None
    return recognize(scale, range(n), family)


def _orbit_rule(scale: FormalContext) -> Callable[[int], int]:
    """The scale objects to try next, as a mask, given the used ones.

    One object per orbit of the automorphisms that fix every used object
    (the third cut of the module docstring): on a crown, cycle position
    0, then positions 0..n//2 while every used object lies in {0, n/2},
    then every object; on a nominal or contranominal scale, the used
    objects and the least unused one; on any other scale, every object.
    """
    everything = scale.object_mask
    motif = _symmetric_motif(scale)
    if motif is None:
        return lambda used: everything
    if motif.family is ScaleFamily.CROWN:
        order, n = motif.domain, motif.size
        first = 1 << order[0]
        mirror = first | 1 << order[n // 2] if n % 2 == 0 else first
        half = mask_of(order[: n // 2 + 1])
        return lambda used: everything if used & ~mirror else half if used else first
    return lambda used: used | ~used & (used + 1)


def _measure_coverages(
    context: FormalContext, scale: FormalContext, irreducibles: int, spent: list[int]
) -> set[int]:
    """Irreducibles reachable per valid map from the context onto ``scale``.

    Grows each map one object at a time, in object order, trying the
    scale objects :func:`_orbit_rule` names in their order, and carries
    the partial preimage ``P`` of every scale column next to its intent.
    A branch ends as soon as some ``P`` has an assigned object outside
    ``P`` in its closure: every completion's preimage contains ``P`` and
    is an extent, so it would hold that object too, which the assignment
    already ruled out. An object joining ``P`` narrows the intent to its
    row, and the closure is read off ``context.intent_ids()``; an object
    kept out of ``P`` is outside the closure iff it lacks some attribute
    of the intent. Once every object is assigned the test says that each
    preimage is an extent, so exactly the measures survive. Records which
    irreducibles appear among their preimages; sets of extents are ints
    over ``intent_ids()``.

    The orbit rule skips a scale object t only when an automorphism that
    fixes every used scale object carries t onto a tried one. Composing
    with it keeps the assignment so far and permutes the columns, so the
    partial preimages form the same family and the tried branch is
    pruned exactly when t's is. By induction over the objects, every
    measure has a grown image under some automorphism, with the same
    preimage family: the recorded sets are those of the full search.

    Each grown partial map adds its ``|S| * |M_S|`` column scans to the
    shared ``spent[0]``; past ``MAX_COLUMN_SCANS`` the search fails.
    """
    n = len(context.objects)
    cost = len(scale.rows) * len(scale.attributes)
    rows = context.rows
    extents = context.extents()
    ids = context.intent_ids()
    tries = _orbit_rule(scale)
    scale_objects = [(1 << s, row) for s, row in enumerate(scale.rows)]
    out: set[int] = set()

    def grow(g: int, columns: list[tuple[int, int]], used: int) -> None:
        if g == n:
            hit = 0
            for _, intent in columns:
                hit |= 1 << ids[intent]
            out.add(hit & irreducibles)
            return
        _spend(spent, cost)
        tried = tries(used)
        bit = 1 << g
        assigned = (bit << 1) - 1
        row_g = rows[g]
        for s, row in scale_objects:
            if not tried & s:
                continue
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
                grow(g + 1, grown, used | s)

    grow(0, [(0, context.attribute_mask)] * len(scale.attributes), 0)
    return out


def _chain_shape(scale: FormalContext) -> tuple[int, bool] | None:
    """``(n - 1, complemented)`` for an ordinal or interordinal scale of n objects, else ``None``.

    The family is the first of the two that :func:`recognize` finds on
    all objects, clarified first if two rows are equal; ``complemented``
    says interordinal. A scale without objects answers ``None``.
    """
    if len(set(scale.rows)) < len(scale.rows):
        scale, _ = clarify_objects(scale)
    n = len(scale.rows)
    for family in (ScaleFamily.ORDINAL, ScaleFamily.INTERORDINAL):
        if n and recognize(scale, range(n), family):
            return n - 1, family is ScaleFamily.INTERORDINAL
    return None


def _chain_coverages(
    context: FormalContext, length: int, complemented: bool, irreducibles: int, spent: list[int]
) -> set[int]:
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
    ``spent[0]``, the count the map search keeps.
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
            return set()
    else:
        hits = {extents[i]: 1 << i for i in bits(irreducibles)}
    relevant = sorted((e for e, hit in hits.items() if hit), key=int.bit_count)
    if not length or not relevant:
        return {0}
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
    out: set[int] = set()
    for hit in sorted(found, key=int.bit_count, reverse=True):
        if all(hit & ~kept for kept in out):
            out.add(hit)
    return out


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


def scaling_dimension(
    context: FormalContext,
    scales: Sequence[FormalContext],
    max_d: int = MAX_TUPLE_LENGTH,
) -> int | None:
    """Least d <= ``max_d`` admitting a full measure into a d-fold semi-product.

    Scales may repeat within a tuple. Returns ``None`` when no tuple of
    length up to ``max_d`` works. When every scale is ordinal and the
    longest chain of irreducibles fits the largest capacity, the answer
    is their width (at least 1) and no map is searched. Otherwise
    ordinal and interordinal scales are walked over extents and the
    others searched, on one column scan count.
    """
    check_object_count(len(context.objects))
    if not 1 <= max_d <= MAX_TUPLE_LENGTH:
        raise ValueError(f"max_d must be between 1 and {MAX_TUPLE_LENGTH}")
    if not scales:
        raise ValueError("the scale family must not be empty")

    irreducibles = meet_irreducible_extents(context)
    shapes = [_chain_shape(scale) for scale in scales]
    if all(shape is not None and not shape[1] for shape in shapes):
        height, width = _height_and_width(irreducibles)
        if height <= max(length for length, _ in shapes):
            d = max(width, 1)
            return d if d <= max_d else None

    ids = context.intent_ids()
    target = 0
    for e in irreducibles:
        target |= 1 << ids[context.derive_objects(e)]
    coverages: set[int] = set()
    spent = [0]
    for scale, shape in zip(scales, shapes):
        if shape is None:
            coverages |= _measure_coverages(context, scale, target, spent)
        else:
            coverages |= _chain_coverages(context, *shape, target, spent)
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
