"""Scale-measure verification and recognition of standard-scale motifs.

A motif is a set H of objects whose induced subcontext K[H, M] admits a
full scale-measure onto a standard scale of size |H|. Verification works
for arbitrary maps; recognition finds a witnessing bijection in polynomial
time per family, or reports that none exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bitsets import bits, mask_of
from .context import FormalContext, require_clarified
from .scales import FAMILY_MIN_SIZE, ScaleFamily, scale_preimages


@dataclass(frozen=True)
class Motif:
    """A recognized domain; the order of ``domain`` encodes the witness.

    ``domain[i]`` is the object mapped to scale object ``i + 1``. For crowns
    this is the canonical cycle walk, for ordinal and interordinal scales the
    chain order, and ascending object index where any bijection witnesses.
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
    serves arbitrary maps; a witness's preimages come from ``scale_preimages``.
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


def _system_matches(
    context: FormalContext, witness: Sequence[int], family: ScaleFamily, h_mask: int
) -> bool:
    # The extents of K[H, M] are H and the intersections of the columns cut
    # to H; the preimages contain H and are closed under intersection. So
    # the two systems are equal iff every cut column is a preimage and every
    # preimage is closed within H.
    preimages = set(scale_preimages(family, witness))
    return all(col & h_mask in preimages for col in context.cols) and all(
        _closed_within(context, p, h_mask) for p in preimages
    )


def _closed_within(context: FormalContext, subset: int, h_mask: int) -> bool:
    return context.object_closure(subset) & h_mask == subset


def _recognize_size_one(context: FormalContext, g: int, family: ScaleFamily) -> tuple[int, ...] | None:
    # All size-1 scales collapse to a 1x1 context: full for nominal, ordinal
    # and interordinal (one extent), empty for contranominal (two extents).
    full_row = context.rows[g] == context.attribute_mask
    if family is ScaleFamily.CONTRANOMINAL:
        return (g,) if not full_row else None
    return (g,) if full_row else None


def _recognize_nominal(context: FormalContext, idx: list[int], h_mask: int) -> tuple[int, ...] | None:
    if context.object_closure(0) & h_mask:
        return None  # the empty set must be an extent of K[H, M]
    for g in idx:
        if not _closed_within(context, 1 << g, h_mask):
            return None
    for i, a in enumerate(idx):
        for b in idx[i + 1 :]:
            if context.object_closure((1 << a) | (1 << b)) & h_mask != h_mask:
                return None
    return tuple(idx)


def _recognize_ordinal(context: FormalContext, idx: list[int], h_mask: int) -> tuple[int, ...] | None:
    if not context.object_closure(0) & h_mask:
        return None  # chains have no empty extent
    extents = sorted(
        ((context.object_closure(1 << g) & h_mask, g) for g in idx),
        key=lambda pair: pair[0].bit_count(),
    )
    previous = 0
    for k, (e, _) in enumerate(extents, start=1):
        if e.bit_count() != k or e & previous != previous:
            return None
        previous = e
    return tuple(g for _, g in extents)


def _recognize_interordinal(context: FormalContext, idx: list[int], h_mask: int) -> tuple[int, ...] | None:
    # The two-element extents of K[H, M] must link H into one path.
    neighbours: dict[int, list[int]] = {g: [] for g in idx}
    for i, a in enumerate(idx):
        for b in idx[i + 1 :]:
            if _closed_within(context, (1 << a) | (1 << b), h_mask):
                neighbours[a].append(b)
                neighbours[b].append(a)
    ends = [g for g in idx if len(neighbours[g]) == 1]
    if not ends:
        return None
    walk = [ends[0]]
    while len(walk) < len(idx):
        options = [h for h in neighbours[walk[-1]] if len(walk) < 2 or h != walk[-2]]
        if len(options) != 1:
            return None  # disconnected or branching
        walk.append(options[0])
    # Reversal maps intervals to intervals, so the reversed walk matches
    # exactly when this one does.
    if not _system_matches(context, walk, ScaleFamily.INTERORDINAL, h_mask):
        return None
    return tuple(walk)


def _recognize_contranominal(context: FormalContext, idx: list[int], h_mask: int) -> tuple[int, ...] | None:
    for g in idx:
        if not _closed_within(context, h_mask & ~(1 << g), h_mask):
            return None
    return tuple(idx)


def _recognize_crown(context: FormalContext, idx: list[int], h_mask: int) -> tuple[int, ...] | None:
    n = len(idx)
    common = context.attribute_mask
    for g in idx:
        common &= context.rows[g]
    # Attributes shared by the whole domain cannot separate anything; the
    # cycle must emerge from the remaining overlaps.
    neighbours: dict[int, list[int]] = {g: [] for g in idx}
    for i, a in enumerate(idx):
        for b in idx[i + 1 :]:
            if context.rows[a] & context.rows[b] & ~common:
                neighbours[a].append(b)
                neighbours[b].append(a)
    if any(len(ns) != 2 for ns in neighbours.values()):
        return None
    start = idx[0]
    walk = [start, min(neighbours[start])]
    while len(walk) < n:
        a, b = neighbours[walk[-1]]
        nxt = b if a == walk[-2] else a
        if nxt in walk:
            return None  # closed early: more than one cycle component
        walk.append(nxt)
    # One cycle through H needs no system check: a column cut to H is H or a
    # clique of the cycle (an edge at most when |H| >= 4), every edge is a
    # cut column, and edges meet in singletons and the empty set. The walk
    # also closes, since every degree is 2.
    return tuple(walk)


_RECOGNIZERS = {
    ScaleFamily.NOMINAL: _recognize_nominal,
    ScaleFamily.ORDINAL: _recognize_ordinal,
    ScaleFamily.INTERORDINAL: _recognize_interordinal,
    ScaleFamily.CONTRANOMINAL: _recognize_contranominal,
    ScaleFamily.CROWN: _recognize_crown,
}


def recognize(context: FormalContext, domain: Iterable[int], family: ScaleFamily) -> Motif | None:
    """Find a witnessing bijection from ``domain`` onto the family's scale.

    Returns ``None`` when no bijection makes the induced subcontext's extent
    system match the scale's. The subcontext must have pairwise distinct
    object rows; :class:`UnclarifiedObjectsError` is raised otherwise.
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
    else:
        witness = _RECOGNIZERS[family](context, idx, mask_of(idx))
    if witness is None:
        return None
    return Motif(family, witness)


def realizations(context: FormalContext, domain: Iterable[int]) -> tuple[Motif, ...]:
    """The witness of every family whose scale the domain maps onto fully, in rank order."""
    idx = tuple(sorted(set(domain)))
    witnesses = (recognize(context, idx, f) for f in ScaleFamily)
    return tuple(m for m in witnesses if m is not None)
