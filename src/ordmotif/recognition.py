"""Scale-measure verification and recognition of standard-scale motifs.

A motif is a set H of objects whose induced subcontext K[H, M] admits a
full scale-measure onto a standard scale of size |H|. Verification works
for arbitrary maps; recognition finds a witnessing bijection in
polynomial time per family, or reports that none exists. Each family's
rule lives here once and enumeration runs it too: a step function for
ordinal, interordinal and contranominal domains, and :func:`crown_walks`
for crowns, on the context's cached link table ``meet_links()``: cut to
the domain here, whole in enumeration. The nominal rule is pairwise and
checked in O(|H|^2): every pair of rows meets in one intent that no row
equals. Enumeration grows nominal sets as the cliques of one meet under
the same rule, read off the same cached table.
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
    if family is ScaleFamily.CONTRANOMINAL:
        return (g,) if not full_row else None
    return (g,) if full_row else None


def _is_nominal(rows: Sequence[int], idx: list[int]) -> bool:
    # Every pair meets in the same intent I, and no row equals I. The
    # clique search of ``enumeration.enumerate_family`` grows these sets.
    intent = rows[idx[0]] & rows[idx[1]]
    return all(rows[g] != intent for g in idx) and all(
        rows[g] & rows[h] == intent for i, g in enumerate(idx) for h in idx[i + 1 :]
    )


def _ordinal_step(rows, path, state, r):
    # The rows fall along a strict chain; the state is the last row.
    return r if r & ~state == 0 and r != state else None


def _interordinal_step(rows, path, state, r):
    # Along the walk, each attribute's holders stay contiguous (``gap`` holds
    # what some member has and a later one lacks), the old path stays a
    # prefix column, and every suffix keeps a column of its own: ``tails[i]``
    # is what member i + 1 has, member i lacks and every later member has.
    # The extents of K[H, M] are H and the intersections of the cut columns,
    # so with interval columns and every proper prefix and suffix among them
    # they are exactly the empty set and the intervals.
    union, gap, tails = state
    if r & gap or not rows[path[0]] & rows[path[-1]] & ~r:
        return None
    tails = [t & r for t in tails] + [r & ~rows[path[-1]]]
    return (union | r, gap | union & ~r, tails) if all(tails) else None


def _interordinal_candidates(rows, cols, path, state):
    # The step needs rows[path[0]] & rows[path[-1]] & ~r and tails[-1] & r
    # nonzero: no row passes once the ends share nothing, and a row that
    # passes holds an attribute of the newest tail (none yet at one object).
    # It also needs r & gap zero, and gap holds what the next-to-last member
    # x has and the last member y lacks, so a row that passes holds none of
    # that. With it the gap test never rejects: a candidate z was accepted
    # beside y, after x, so rows[z] & rows[p] lies in rows[x] for every
    # earlier member p; holding nothing of rows[x] & ~rows[y] puts
    # rows[z] & rows[x], and so rows[z] & rows[p], inside rows[y], which is
    # what the new part of gap, union & ~rows[y], asks.
    if not rows[path[0]] & rows[path[-1]]:
        return 0
    tails = state[2]
    if not tails:
        return -1
    return _holders(cols, tails[-1]) & ~_holders(cols, rows[path[-2]] & ~rows[path[-1]])


def _contranominal_step(rows, path, state, r):
    # Every member lacks an attribute that all other members share; ``lacks``
    # holds those attributes per member, in path order.
    intent, lacks = state
    lacks = [l & r for l in lacks] + [intent & ~r]
    return (intent & r, lacks) if all(lacks) else None


def _contranominal_candidates(rows, cols, path, state):
    # The step needs lacks[-1] & r and intent & ~r nonzero: an object that
    # passes holds something of the newest lack and not the whole intent.
    intent, lacks = state
    whole = -1
    for m in bits(intent):
        whole &= cols[m]
    return _holders(cols, lacks[-1]) & ~whole


def _holders(cols, attributes):
    # The objects holding at least one of ``attributes``.
    out = 0
    for m in bits(attributes):
        out |= cols[m]
    return out


# Ordinal, interordinal and contranominal domains H (|H| >= 2) are decided
# on rows, one object at a time: ``seed(r, M)`` is the state of the
# one-object domain with row ``r`` (M is the attribute mask), and
# ``step(rows, path, state, r)`` the state once an object with row ``r``
# joins ``path``; either is None when no motif can follow. H is a motif iff
# the rule folds along its witness order, and enumeration grows domains
# with it. I is the AND of the rows, U the OR. Nominal sets have no step
# rule: theirs is pairwise (``_is_nominal``).
HEREDITARY_RULES = {
    # An ordinal scale has no empty extent, so its chain starts at the full row.
    ScaleFamily.ORDINAL: (lambda r, full: r if r == full else None, _ordinal_step),
    ScaleFamily.INTERORDINAL: (lambda r, full: (r, 0, []), _interordinal_step),
    ScaleFamily.CONTRANOMINAL: (
        lambda r, full: (r, [full & ~r]) if full & ~r else None,
        _contranominal_step,
    ),
}

# Necessary conditions of a step as one object mask: ``candidates(rows,
# cols, path, state)`` holds every object whose row the step could accept
# (-1 admits all). Enumeration narrows a node's options with it before
# stepping; the step still decides each object left. Ordinal has none.
HEREDITARY_CANDIDATES = {
    ScaleFamily.INTERORDINAL: _interordinal_candidates,
    ScaleFamily.CONTRANOMINAL: _contranominal_candidates,
}


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


def _fold(context: FormalContext, family: ScaleFamily, walk: list[int]) -> tuple[int, ...] | None:
    seed, step = HEREDITARY_RULES[family]
    rows = context.rows
    state = seed(rows[walk[0]], context.attribute_mask)
    for k in range(1, len(walk)):
        if state is None:
            return None
        state = step(rows, walk[:k], state, rows[walk[k]])
    return None if state is None else tuple(walk)


def _interordinal_walk(context: FormalContext, idx: list[int]) -> list[int]:
    # On an interordinal walk, two members share the intent of the interval
    # between them, which shrinks strictly as the interval grows. So the
    # member sharing fewest attributes with any member is an end, the one
    # sharing fewest with that end is the other end, and the walk is the
    # domain by decreasing share with an end. Any other domain gets some
    # order, and the fold rejects it. Reversal maps intervals to intervals,
    # so starting from the lower end loses nothing.
    rows = context.rows

    def farthest(a: int) -> int:
        return min(idx, key=lambda g: (rows[g] & rows[a]).bit_count())

    b = farthest(idx[0])
    end = rows[min(b, farthest(b))]
    return sorted(idx, key=lambda g: -(rows[g] & end).bit_count())


#: The witness order each hereditary family folds its rule along.
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
        witness = _fold(context, family, _WITNESS_ORDERS[family](context, idx))
    if witness is None:
        return None
    return Motif(family, witness)


def realizations(context: FormalContext, domain: Iterable[int]) -> tuple[Motif, ...]:
    """The witness of every family whose scale the domain maps onto fully, in rank order."""
    idx = tuple(sorted(set(domain)))
    witnesses = (recognize(context, idx, f) for f in ScaleFamily)
    return tuple(m for m in witnesses if m is not None)
