"""Greedy selection of motifs to cover the extent system of a context.

A motif covers the closures of the preimages of its scale's extents, one
int over the context's extent ids. No closure is computed: the intent of
a preimage is the AND of its objects' rows (every attribute for the empty
set), and the context's ``intent_ids()`` table names the extent with that
intent: the preimage's closure. ``covered_extents`` covers the whole pool
in one pass, writing each family's ANDs in closed form on the motif's
witness. This is the package's one closed form of the scale extent
systems; the basis reads a built scale's ``extents()`` instead, and the
tests pin these ANDs to the preimages of each built scale's brute-force
extents.

The standard heuristic picks the largest marginal gain per step; the
normalized one divides the gain by the motif's own extent count, which
is its cover's size: distinct preimages have distinct closures, since
each closure meets the domain in its preimage. It favours small motifs
that are covered in full. Scores compare exactly, by integer
cross-multiplication, so ties break deterministically: smaller family
rank first, then the lexicographically smallest sorted domain, then the
earlier input position. The pool is taken in any order and not sorted;
the tie key is built only for candidates of the least family in a kept
bucket.

Gains never rise as coverage grows, so steps are lazy (Minoux 1978):
each weight's candidates sit in buckets by a bound on their gain, first
the cover's size. A step re-scores the top bucket of each group that can
reach the best score, moving candidates to their gain (0 is never read),
until a bucket keeps someone: the group's best gain and all its ties.
The first step re-scores nothing: with nothing covered, every bucket
already holds exact gains.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import NamedTuple, Sequence

from .context import FormalContext
from .recognition import Motif, realizations
from .scales import ScaleFamily, check_scale_size


class HeuristicKind(enum.Enum):
    STANDARD = "standard"
    NORMALIZED = "normalized"


class CoveringStep(NamedTuple):
    """One greedy selection: the motif, its gain, and the running total.

    ``witnesses`` holds one recognized motif per family the selected domain
    realizes, in rank order; explanations render these. ``tie_count`` is the
    number of candidates that shared the winning score. A named tuple, so it
    equals the plain tuple ``(motif, witnesses, new_extents, cumulative,
    tie_count)``.
    """

    motif: Motif
    witnesses: tuple[Motif, ...]
    new_extents: int
    cumulative: int
    tie_count: int = 1

    @property
    def families(self) -> tuple[ScaleFamily, ...]:
        """The realized families; ``cover --ratios-csv`` splits a pick evenly over them."""
        return tuple(w.family for w in self.witnesses)


def covered_extents(context: FormalContext, motifs: Sequence[Motif]) -> list[int]:
    """Each motif's cover: the closures of its scale preimages, as extent-id bits.

    A preimage's closure is the extent with the preimage's intent, read
    off ``intent_ids()``. Two closures recur and are looked up once: each
    object's, whose intent is its row, and the empty preimage's, whose
    intent is every attribute. A size the motif's family does not allow
    raises ``ValueError``.
    """
    # Local names: reading a member off the enum class costs a lookup per motif.
    nominal, _, interordinal, contranominal, crown = ScaleFamily
    ids = context.intent_ids()
    rows = context.rows
    every = context.attribute_mask
    single = [1 << ids[row] for row in rows]
    empty = 1 << ids[every]
    covers: list[int] = []
    cover_of = covers.append
    for motif in motifs:
        family = motif.family
        witness = motif.domain
        if len(witness) < 3:
            check_scale_size(family, len(witness))
            if len(witness) == 1:
                # the one object, and the empty set only for contranominal
                cover = single[witness[0]]
                cover_of(cover | empty if family is contranominal else cover)
                continue
        if family is nominal:
            # the empty set, the singletons and the whole domain
            cover, meet = empty, every
            for g in witness:
                meet &= rows[g]
                cover |= single[g]
            cover |= 1 << ids[meet]
        elif family is crown:
            # the nominal extents, plus the pairs of cycle neighbours
            cover, meet = empty, every
            prev = rows[witness[-1]]
            for g in witness:
                row = rows[g]
                meet &= row
                cover |= single[g] | 1 << ids[prev & row]
                prev = row
            cover |= 1 << ids[meet]
        elif family is interordinal:
            # the empty set and the intervals
            cover = empty
            for i, g in enumerate(witness, 1):
                meet = rows[g]
                cover |= single[g]
                for h in witness[i:]:
                    meet &= rows[h]
                    cover |= 1 << ids[meet]
        elif family is contranominal:
            # every subset, by doubling
            meets = [every]
            for g in witness:
                row = rows[g]
                meets += [meet & row for meet in meets]
            cover = 0
            for meet in meets:
                cover |= 1 << ids[meet]
        else:
            # ordinal: the prefixes
            cover, meet = 0, every
            for g in witness:
                meet &= rows[g]
                cover |= 1 << ids[meet]
        cover_of(cover)
    return covers


def greedy_cover(
    context: FormalContext,
    motifs: Sequence[Motif],
    k: int,
    heuristic: HeuristicKind = HeuristicKind.STANDARD,
) -> list[CoveringStep]:
    """Select up to ``k`` motifs greedily; stops early once nothing gains.

    ``motifs`` may come in any order: ties go to the smaller family rank,
    then the smaller sorted domain, then the earlier position in ``motifs``.
    """
    if k < 0:
        raise ValueError("step count must be nonnegative")
    pool = list(motifs)
    tie_keys: list[tuple | None] = [None] * len(pool)

    def tie_key(i: int) -> tuple:
        if tie_keys[i] is None:
            tie_keys[i] = (pool[i].family, sorted(pool[i].domain), i)
        return tie_keys[i]

    covers = covered_extents(context, pool)
    sizes = [cover.bit_count() for cover in covers]
    weights = [1] * len(pool) if heuristic is HeuristicKind.STANDARD else sizes
    groups: defaultdict[int, defaultdict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
    for i, (size, weight) in enumerate(zip(sizes, weights)):
        groups[weight][size].append(i)
    order = [[max(buckets), weight, buckets] for weight, buckets in groups.items()]
    covered = 0
    steps: list[CoveringStep] = []
    for _ in range(k):
        # The best score so far is best_gain / best_weight; weights are positive.
        best_gain, best_weight, best, ties = 0, 1, None, 0
        uncovered = ~covered
        order.sort(key=lambda group: group[0] / group[1], reverse=True)
        for group in order:
            top, weight, buckets = group
            while top and top * best_weight >= best_gain * weight:
                if covered:
                    for i in buckets.pop(top):
                        buckets[(covers[i] & uncovered).bit_count()].append(i)
                kept = buckets[top]
                if kept:
                    if top * best_weight > best_gain * weight:
                        best, ties = None, 0
                    ties += len(kept)
                    # Keys only for the tied motifs of the least family.
                    least = min(pool[i].family for i in kept)
                    first = min((i for i in kept if pool[i].family is least), key=tie_key)
                    if best is None or tie_key(first) < tie_key(best):
                        best_gain, best_weight, best = top, weight, first
                    break
                while top and not buckets[top]:
                    top -= 1
            group[0] = top
        if not ties:
            break
        covered |= covers[best]
        witnesses = realizations(context, pool[best].domain)
        steps.append(CoveringStep(pool[best], witnesses, best_gain, covered.bit_count(), ties))
    return steps
