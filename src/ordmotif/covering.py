"""Greedy selection of motifs to cover the extent system of a context.

A motif covers the closures of the preimages of its scale's extents, one
int over the context's extent ids. No closure is computed: the intent of
a preimage is the AND of its objects' rows (every attribute for the empty
set), ``scales.preimage_intents`` writes those ANDs in closed form on the
motif's witness, and the context's ``intent_ids()`` table names the
extent with that intent: the preimage's closure.

The standard heuristic picks the largest marginal gain per step; the
normalized one divides the gain by the motif's own extent count,
favouring small motifs that are covered in full. Scores compare
exactly, by integer cross-multiplication, so ties break
deterministically: smaller family rank first, then the
lexicographically smallest sorted domain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .context import FormalContext
from .recognition import Motif, realizations
from .scales import ScaleFamily, expected_extent_count, preimage_intents


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
        """The realized families; ``cover --ratios-csv`` splits a pick evenly over them."""
        return tuple(w.family for w in self.witnesses)


def covered_extents(context: FormalContext, motif: Motif) -> int:
    """Closures of the preimages of the motif's scale extents, as extent-id bits.

    Each closure is the extent with the preimage's intent, read off
    ``intent_ids()``.
    """
    ids = context.intent_ids()
    out = 0
    for intent in preimage_intents(context, motif.family, motif.domain):
        out |= 1 << ids[intent]
    return out


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
    if heuristic is HeuristicKind.STANDARD:
        weights = [1] * len(pool)
    else:
        weights = [expected_extent_count(m.family, m.size) for m in pool]
    # Gains only fall as coverage grows, so a candidate that gains nothing
    # leaves the scan for good; the rest keep their canonical order.
    live = [(m, covered_extents(context, m), w) for m, w in zip(pool, weights)]
    covered = 0
    steps: list[CoveringStep] = []
    for _ in range(k):
        # The best score so far is best_gain / best_weight; weights are positive.
        best_gain, best_weight, best, ties = 0, 1, None, 0
        uncovered = ~covered
        kept: list[tuple[Motif, int, int]] = []
        keep = kept.append
        for entry in live:
            gain = (entry[1] & uncovered).bit_count()
            if gain:
                keep(entry)
                weight = entry[2]
                lhs, rhs = gain * best_weight, best_gain * weight
                if lhs > rhs:
                    best_gain, best_weight, best, ties = gain, weight, entry, 1
                elif lhs == rhs:
                    ties += 1
        if best is None:
            break
        live = kept
        chosen, cov, _ = best
        covered |= cov
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
