"""Greedy selection of motifs to cover the extent system of a context.

A motif covers the closures of the preimages of its scale's extents, one
int over the context's extent ids; ``scale_preimages`` writes those
preimages in closed form on the motif's witness, and the greedy pass
reads a crown's from singleton and pair tables. The standard heuristic
picks the largest marginal gain per step; the normalized one divides the
gain by the motif's own extent count, favouring small motifs that are
covered in full. Scores compare exactly, by integer cross-multiplication,
so ties break deterministically: smaller family rank first, then the
lexicographically smallest sorted domain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .context import FormalContext
from .recognition import Motif, realizations
from .scales import ScaleFamily, expected_extent_count, scale_preimages


class HeuristicKind(enum.Enum):
    STANDARD = "standard"
    NORMALIZED = "normalized"


@dataclass(frozen=True)
class CoveringStep:
    """One greedy selection: the motif, its gain, and the running total.

    ``witnesses`` holds one recognized motif per family the selected domain
    realizes, in rank order; explanations render these. ``tie_count`` is the
    number of candidates that shared the winning score.
    """

    motif: Motif
    witnesses: tuple[Motif, ...]
    new_extents: int
    cumulative: int
    tie_count: int = 1

    @property
    def families(self) -> tuple[ScaleFamily, ...]:
        """The realized families, which fractional attribution splits over."""
        return tuple(w.family for w in self.witnesses)


def covered_extents(context: FormalContext, motif: Motif) -> int:
    """Closures of the preimages of the motif's scale extents, as extent-id bits."""
    ids = context.extent_ids()
    closure = context.object_closure
    out = 0
    for p in scale_preimages(motif.family, motif.domain):
        out |= 1 << ids[closure(p)]
    return out


def _pool_covers(context: FormalContext, pool: Sequence[Motif]) -> list[int]:
    """:func:`covered_extents` of every motif in the pool.

    A crown's scale extents are the empty set, the whole domain, the
    singletons and the cycle pairs, so its cover ORs bits read from one
    table of singletons and one memo of pairs that the whole pool shares.
    """
    ids = context.extent_ids()
    closure = context.object_closure

    def bit(objects: int) -> int:
        return 1 << ids[closure(objects)]

    empty = bit(0)
    singles = [bit(1 << g) for g in range(len(context.objects))]
    pairs: dict[int, int] = {}
    covers = []
    for m in pool:
        if m.family is not ScaleFamily.CROWN:
            covers.append(covered_extents(context, m))
            continue
        cover = empty | bit(m.domain_mask)
        prev = m.domain[-1]
        for g in m.domain:
            pair = 1 << prev | 1 << g
            pair_bit = pairs.get(pair)
            if pair_bit is None:
                pair_bit = pairs[pair] = bit(pair)
            cover |= singles[g] | pair_bit
            prev = g
        covers.append(cover)
    return covers


def _canonical_order(motifs: Iterable[Motif]) -> list[Motif]:
    return sorted(motifs, key=lambda m: (m.family, tuple(sorted(m.domain))))


def greedy_cover(
    context: FormalContext,
    motifs: Sequence[Motif],
    k: int,
    heuristic: HeuristicKind = HeuristicKind.STANDARD,
) -> list[CoveringStep]:
    """Select up to ``k`` motifs greedily; stops early once nothing gains."""
    if k < 0:
        raise ValueError("step count must be nonnegative")
    pool = _canonical_order(motifs)
    covers = _pool_covers(context, pool)
    if heuristic is HeuristicKind.STANDARD:
        weights = [1] * len(pool)
    else:
        weights = [expected_extent_count(m.family, m.size) for m in pool]
    covered = 0
    steps: list[CoveringStep] = []
    for _ in range(k):
        # The best score so far is best_gain / best_weight; weights are positive.
        best_gain, best_weight, best_at, ties = 0, 1, -1, 0
        uncovered = ~covered
        for i, cov in enumerate(covers):
            gain = (cov & uncovered).bit_count()
            if gain == 0:
                continue
            lhs, rhs = gain * best_weight, best_gain * weights[i]
            if lhs > rhs:
                best_gain, best_weight, best_at, ties = gain, weights[i], i, 1
            elif lhs == rhs:
                ties += 1
        if best_at < 0:
            break
        chosen = pool[best_at]
        covered |= covers[best_at]
        steps.append(
            CoveringStep(
                motif=chosen,
                witnesses=realizations(context, chosen.domain),
                new_extents=best_gain,
                cumulative=covered.bit_count(),
                tie_count=ties,
            )
        )
    return steps


def family_ratios(
    steps: Sequence[CoveringStep], up_to: int | None = None
) -> dict[ScaleFamily, Fraction]:
    """Fractional family attribution over the first ``up_to`` selections.

    A motif realizing q families contributes 1/q to each, so the returned
    fractions sum to one whenever any step is counted.
    """
    counted = steps[: up_to if up_to is not None else len(steps)]
    out = {f: Fraction(0) for f in ScaleFamily}
    if not counted:
        return out
    for step in counted:
        share = Fraction(1, len(step.families) * len(counted))
        for f in step.families:
            out[f] += share
    return out


def coverage_curve(steps: Sequence[CoveringStep]) -> list[tuple[int, int, int]]:
    """Rows of (step number, newly covered, cumulative), 1-based steps."""
    return [(i, s.new_extents, s.cumulative) for i, s in enumerate(steps, start=1)]


def ratio_curve(steps: Sequence[CoveringStep]) -> list[tuple[int, dict[ScaleFamily, Fraction]]]:
    """Family ratios after each prefix of the selection."""
    return [(i, family_ratios(steps, i)) for i in range(1, len(steps) + 1)]
