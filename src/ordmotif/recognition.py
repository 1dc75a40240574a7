"""Scale-measure verification and recognition of standard-scale motifs.

A motif is a set H of objects whose induced subcontext K[H, M] admits a
full scale-measure onto a standard scale of size |H|. Verification works
for arbitrary maps; recognition finds a witnessing bijection in
polynomial time per family, or reports that none exists. Each family's
rule lives here once and enumeration runs it too: one depth-first search
per ordinal, interordinal and contranominal family, which recognition
runs along the witness order, and :func:`crown_walks` for crowns, on the
context's cached link table ``meet_links()``. The nominal rule is
pairwise, checked in O(|H|^2): every pair of rows meets in one intent
that no row equals; enumeration grows nominal sets as its cliques.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .bitsets import bits, mask_of
from .context import FormalContext, require_clarified
from .scales import FAMILY_MIN_SIZE, ScaleFamily


class Motif(NamedTuple):
    """A recognized domain; the order of ``domain`` encodes the witness.

    ``domain[i]`` is the object mapped to scale object ``i + 1``. For crowns
    this is the canonical cycle walk, for ordinal and interordinal scales the
    chain order, and ascending object index where any bijection witnesses.
    A named tuple, so it equals the plain tuple ``(family, domain)``.
    """

    family: ScaleFamily
    domain: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.domain)

    @property
    def domain_mask(self) -> int:
        return mask_of(self.domain)


def preimage(class_masks: Sequence[int], scale_extent: int) -> int:
    """Objects a map sends into ``scale_extent``.

    ``class_masks[s]`` holds the objects mapped to scale object ``s``. This
    serves arbitrary maps; the basis ANDs a witness's rows per scale extent.
    """
    out = 0
    for s in bits(scale_extent):
        out |= class_masks[s]
    return out


def _class_masks(sigma: Sequence[int], n_scale_objects: int) -> list[int]:
    masks = [0] * n_scale_objects
    for g, s in enumerate(sigma):
        if not 0 <= s < n_scale_objects:
            raise ValueError(f"sigma maps object {g} to missing scale object {s}")
        masks[s] |= 1 << g
    return masks


def verify_scale_measure(context: FormalContext, sigma: Sequence[int], scale: FormalContext) -> bool:
    """Check that every attribute extent of ``scale`` pulls back to an extent.

    Preimages commute with intersections, so checking the attribute extents
    covers the whole extent system of the scale.
    """
    if len(sigma) != len(context.objects):
        raise ValueError("sigma length does not match the object count")
    class_masks = _class_masks(sigma, len(scale.objects))
    for col in scale.cols:
        pre = preimage(class_masks, col)
        if context.object_closure(pre) != pre:
            return False
    return True


def verify_full(context: FormalContext, sigma: Sequence[int], scale: FormalContext) -> bool:
    """Check that the preimages of the scale extents are exactly the extents."""
    if len(sigma) != len(context.objects):
        raise ValueError("sigma length does not match the object count")
    class_masks = _class_masks(sigma, len(scale.objects))
    preimages = {preimage(class_masks, e) for e in scale.extents()}
    return preimages == set(context.extents())


def _recognize_size_one(context: FormalContext, g: int, family: ScaleFamily) -> tuple[int, ...] | None:
    # All size-1 scales collapse to a 1x1 context: full for nominal, ordinal
    # and interordinal (one extent), empty for contranominal (two extents).
    full_row = context.rows[g] == context.attribute_mask
    return (g,) if full_row != (family is ScaleFamily.CONTRANOMINAL) else None


def _is_nominal(rows: Sequence[int], idx: list[int]) -> bool:
    # Every pair meets in the same intent I, and no row equals I. The
    # clique search of ``enumeration.enumerate_family`` grows these sets.
    intent = rows[idx[0]] & rows[idx[1]]
    return all(rows[g] != intent for g in idx) and all(
        rows[g] & rows[h] == intent for i, g in enumerate(idx) for h in idx[i + 1 :]
    )


def crown_walks(
    rows: Sequence[int], links: dict, objects: int, x: int, a: int, b: int, lo: int, hi: int
) -> Iterator[tuple[int, ...]]:
    """Walks ``(x, a, ..., b)`` of the crowns of ``lo..hi`` objects seeded by x, a, b.

    The crown rule, run by :func:`recognize`, enumeration and the scaling
    dimension's orbit rule: a set H of at least three objects with intent
    I is a crown iff its members linked by sharing something outside I
    form one cycle through H, and its witness walks from its least object
    x over x's neighbours a < b. ``links`` is the context's ``meet_links()``.
    Enumeration needs the walk to branch; recognize first checks that
    every member has two links, so its walk never does.

    A crown's consecutive pairs share an attribute outside its intent and
    no other pair does, so no member's row contains another's. On a
    triangle the intent is what all three share. On a longer cycle a and
    b are not consecutive, so I is exactly what a and b share: they link
    at I, x shares more than I with each, and two members are consecutive
    iff they do not link at I. ``common``, at first ``links[x][I]`` above
    x in the mask ``objects``, holds the objects the walk may use linked
    at I with every path member but the last.
    A path closes once its last object and b are not linked at I, and
    otherwise grows by each object of ``common`` not linked with the last
    at I. So the linked members are exactly the walk's consecutive ones,
    and a walk so found needs no system check: a column cut to H is H or
    a clique of the cycle (an edge at most when |H| >= 4), every edge is
    a cut column, and edges meet in singletons and the empty set.
    """
    ab = rows[a] & rows[b]
    if ab & ~rows[x]:
        # a and b share more than x holds, so they are consecutive.
        intent = rows[x] & ab
        if lo <= 3 and rows[x] & rows[a] & ~intent and rows[x] & rows[b] & ~intent:
            yield x, a, b
        return
    if hi < 4 or not links[a].get(ab, 0) >> b & 1 or ab in (rows[x] & rows[a], rows[x] & rows[b]):
        return
    # An explicit stack, so the cap is not bounded by the recursion limit.
    stack = [([x, a], links[x].get(ab, 0) & objects & -(2 << x))]
    while stack:
        path, common = stack.pop()
        same = links[path[-1]].get(ab, 0)
        if not same >> b & 1:
            if lo <= len(path) + 1:
                yield (*path, b)
            continue
        if len(path) + 1 >= hi:
            continue
        for nxt in bits(common & ~same):
            stack.append((path + [nxt], common & same))


def ordinal_chains(context: FormalContext, lo: int, hi: int, witness: Sequence[int] = ()) -> list:
    """The ordinal chains of ``lo..hi`` objects (``lo >= 2``) as (path, domain mask) pairs.

    H is ordinal iff its rows form a strict chain down from the full row
    (an ordinal scale has no empty extent), its witness. This loop and the
    two below grow paths depth-first under their family's rule. A node
    carries its domain mask and, as one int, the objects it may try: those
    its parent accepted, as dropping any object but the first from a
    witness leaves one. Nodes pop in ascending object order, so paths come
    out in depth-first lexicographic order. :func:`recognize` runs the loop
    forced along its witness order, trying at depth k only ``witness[k]``.
    """
    rows, full, everyone = context.rows, context.attribute_mask, context.object_mask
    seeds = witness[:1] or range(len(rows) - 1, -1, -1)
    stack = [((g,), 1 << g, everyone ^ 1 << g) for g in seeds if rows[g] == full]
    found = []
    while stack:
        path, mask, options = stack.pop()
        k = len(path)
        if k >= lo:
            found.append((path, mask))
        if k >= hi:
            continue
        last = rows[path[-1]]
        options = 1 << witness[k] if witness else options
        after = 0
        while options:
            low = options & -options
            options ^= low
            r = rows[low.bit_length() - 1]
            if not r & ~last and r != last:
                after |= low
        grow = after
        while grow:
            x = grow.bit_length() - 1
            grow ^= 1 << x
            stack.append((path + (x,), mask | 1 << x, after ^ 1 << x))
    return found


def interordinal_walks(context: FormalContext, lo: int, hi: int, witness: Sequence[int] = ()) -> list:
    """The interordinal walks of ``lo..hi`` objects (``lo >= 2``), as :func:`ordinal_chains`.

    Walks start at every object and are kept when ``path[0] < path[-1]``.
    z may follow a walk ending in x, y iff it holds nothing an earlier
    member has and a later one lacks (holders stay contiguous), lacks
    something the ends share, and holds something y lacks and something
    of each tail: what a member has, the one before lacks and every later
    one has (each prefix and suffix is a cut column, so the extents of
    K[H, M] are the empty set and the intervals). For z accepted beside
    y, rows[z] & rows[p] lies in rows[x] for every earlier member p, so
    a mask of column ORs settles the first and last tests: no attribute
    of rows[x] & ~rows[y], one of the newest tail. Then rows[z] & rows[p]
    lies in rows[y], as does what z holds of an older tail (in a rows[p]).
    """
    rows, cols, everyone = context.rows, context.cols, context.object_mask
    seeds = witness[:1] or range(len(rows) - 1, -1, -1)
    stack = [((g,), 1 << g, everyone ^ 1 << g) for g in seeds]
    found = []
    union, gap, tails = 0, 0, []
    while stack:
        path, mask, options = stack.pop()
        k = len(path)
        if k >= lo and (witness or path[0] < path[-1]):
            found.append((path, mask))
        last = rows[path[-1]]
        ends = rows[path[0]] & last
        if k >= hi or not ends:
            continue
        if witness:
            # Forced, z passed no sibling test: keep the gap test and every tail.
            z = rows[witness[k]]
            gap |= union & ~last
            union |= last
            tails = [t & z for t in tails] + [z & ~last]
            options = 0 if z & gap or not all(tails) else 1 << witness[k]
        elif k > 1:
            prev = rows[path[-2]]
            near = far = 0
            m = last & ~prev
            while m:
                low = m & -m
                near |= cols[low.bit_length() - 1]
                m ^= low
            m = prev & ~last
            while m:
                low = m & -m
                far |= cols[low.bit_length() - 1]
                m ^= low
            options &= near & ~far
        after = 0
        while options:
            low = options & -options
            options ^= low
            r = rows[low.bit_length() - 1]
            if ends & ~r and r & ~last:
                after |= low
        grow = after
        while grow:
            x = grow.bit_length() - 1
            grow ^= 1 << x
            stack.append((path + (x,), mask | 1 << x, after ^ 1 << x))
    return found


def contranominal_sets(context: FormalContext, lo: int, hi: int, witness: Sequence[int] = ()) -> list:
    """The contranominal sets of ``lo..hi`` objects (``lo >= 2``), as :func:`ordinal_chains`.

    H is contranominal iff every member lacks an attribute that all other
    members share: ``lacks`` holds them per member, ``intent`` the AND of
    the rows. Sets grow in ascending object order, so each is listed
    once. A mask of column ORs keeps the objects holding something of the
    newest lack; the older lacks and the intent, of which a new member
    must lack something, are tested object by object.
    """
    rows, cols, full = context.rows, context.cols, context.attribute_mask
    seeds = witness[:1] or range(len(rows) - 1, -1, -1)
    stack = [
        ((g,), 1 << g, r, (full & ~r,), context.object_mask & -(2 << g))
        for g in seeds if full & ~(r := rows[g])
    ]
    found = []
    while stack:
        path, mask, intent, lacks, options = stack.pop()
        k = len(path)
        if k >= lo:
            found.append((path, mask))
        if k >= hi:
            continue
        near = 0
        m = lacks[-1]
        while m:
            low = m & -m
            near |= cols[low.bit_length() - 1]
            m ^= low
        options = (1 << witness[k] if witness else options) & near
        after = 0
        while options:
            low = options & -options
            options ^= low
            r = rows[low.bit_length() - 1]
            if not intent & ~r:
                continue
            for l in lacks:
                if not l & r:
                    break
            else:
                after |= low
        grow = after
        while grow:
            x = grow.bit_length() - 1
            grow ^= 1 << x
            r = rows[x]
            lack = (*[l & r for l in lacks], intent & ~r)
            stack.append((path + (x,), mask | 1 << x, intent & r, lack, after & -(2 << x)))
    return found


#: Each hereditary family's search, run by enumeration and :func:`recognize`.
HEREDITARY_SEARCHES = {
    ScaleFamily.ORDINAL: ordinal_chains,
    ScaleFamily.INTERORDINAL: interordinal_walks,
    ScaleFamily.CONTRANOMINAL: contranominal_sets,
}


def _interordinal_walk(context: FormalContext, idx: list[int]) -> list[int]:
    # On an interordinal walk, two members share the intent of the interval
    # between them, which shrinks strictly as the interval grows. So the
    # member sharing fewest attributes with any member is an end, the one
    # sharing fewest with that end is the other end, and the walk is the
    # domain by decreasing share with an end. Any other domain gets some
    # order, and the search rejects it. Reversal maps intervals to intervals,
    # so starting from the lower end loses nothing.
    rows = context.rows

    def farthest(a: int) -> int:
        return min(idx, key=lambda g: (rows[g] & rows[a]).bit_count())

    b = farthest(idx[0])
    end = rows[min(b, farthest(b))]
    return sorted(idx, key=lambda g: -(rows[g] & end).bit_count())


#: The witness order along which recognize runs each hereditary search.
_WITNESS_ORDERS = {
    # Down the chain: by decreasing row size.
    ScaleFamily.ORDINAL: lambda context, idx: sorted(idx, key=lambda g: -context.rows[g].bit_count()),
    ScaleFamily.INTERORDINAL: _interordinal_walk,
    ScaleFamily.CONTRANOMINAL: lambda context, idx: idx,
}


def _recognize_crown(context: FormalContext, idx: list[int]) -> tuple[int, ...] | None:
    # Links are pairs sharing something outside I: on the context's cached
    # table cut to the domain, the members not linked at I (a row equal to
    # I counts them all, and the walk rejects it). H is no cycle unless each
    # member has two; then no walk step has two objects to choose from, so
    # the walk from x closes through all of H, or stops, in O(|H|^2).
    rows = context.rows
    domain = mask_of(idx)
    links = context.meet_links()
    intent = reduce(and_, (rows[g] for g in idx))
    ends = [domain & ~(1 << g | links[g].get(intent, 0)) for g in idx]
    if any(e.bit_count() != 2 for e in ends):
        return None
    return next(crown_walks(rows, links, domain, idx[0], *bits(ends[0]), len(idx), len(idx)), None)


def recognize(context: FormalContext, domain: Iterable[int], family: ScaleFamily) -> Motif | None:
    """Find a witnessing bijection from ``domain`` onto the family's scale.

    Returns ``None`` when no bijection makes the induced subcontext's extent
    system match the scale's. The subcontext must have pairwise distinct
    object rows; :class:`UnclarifiedObjectsError` is raised otherwise. A
    crown domain reads the context's ``meet_links()``, so the first crown
    call on a fresh context builds the whole table once.
    """
    idx = sorted(set(domain))
    if not idx:
        raise ValueError("domain must be nonempty")
    if idx[0] < 0 or idx[-1] >= len(context.objects):
        raise ValueError("domain index out of range")
    n = len(idx)
    if n < FAMILY_MIN_SIZE[family]:
        return None
    require_clarified(context, idx)
    if n == 1:
        witness = _recognize_size_one(context, idx[0], family)
    elif family is ScaleFamily.NOMINAL:
        witness = tuple(idx) if _is_nominal(context.rows, idx) else None
    elif family is ScaleFamily.CROWN:
        witness = _recognize_crown(context, idx)
    else:
        found = HEREDITARY_SEARCHES[family](context, n, n, _WITNESS_ORDERS[family](context, idx))
        witness = found[0][0] if found else None
    if witness is None:
        return None
    return Motif(family, witness)


def realizations(context: FormalContext, domain: Iterable[int]) -> tuple[Motif, ...]:
    """The witness of every family whose scale the domain maps onto fully, in rank order."""
    idx = tuple(sorted(set(domain)))
    witnesses = (recognize(context, idx, f) for f in ScaleFamily)
    return tuple(m for m in witnesses if m is not None)
