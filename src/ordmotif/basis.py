"""Rebuilding a context from a complete motif covering.

Each motif contributes one block over the original objects with one
column per extent of its scale: the object is incident iff it lies in
the closure of the preimage of that scale extent. Columns for attribute
extents keep the attribute's label; the remaining scale extents get
starred labels. Attribute columns alone would not suffice: the closure
of an intersection of preimages can be strictly smaller than the
intersection of their closures, so covered extents reachable only
through the scale's top or bottom would go missing. With one column per
scale extent the apposition of all blocks has exactly the extents of
the source context, hence the same local full scale-measures. Columns
run in scale attribute order, then the other scale extents by mask.
"""

from __future__ import annotations

from typing import Sequence

from .bitsets import bits
from .context import FormalContext
from .recognition import Motif
from .scales import apposition, build_scale, scale_extents, scale_preimages


class IncompleteCoveringError(ValueError):
    """The motifs do not cover the whole extent system."""

    def __init__(self, uncovered: int):
        super().__init__(f"covering misses {uncovered} extents")
        self.uncovered = uncovered


def build_basis(context: FormalContext, motifs: Sequence[Motif]) -> FormalContext:
    """Apposition of the per-motif blocks; requires a complete covering."""
    ids = context.extent_ids()
    blocks = []
    covered = 0
    for number, motif in enumerate(motifs, start=1):
        scale = build_scale(motif.family, motif.size)
        witness_side = scale_preimages(motif.family, motif.domain)
        preimages = dict(zip(scale_extents(motif.family, motif.size), witness_side))
        extras = sorted(preimages.keys() - set(scale.cols))
        labels = [f"{number}:{label}" for label in scale.attributes]
        labels.extend(f"{number}:*{j}" for j in range(1, len(extras) + 1))
        # One column per scale extent, so the columns are the motif's covered extents.
        columns = [context.object_closure(preimages[e]) for e in (*scale.cols, *extras)]
        rows = [0] * len(context.objects)
        for m_idx, column in enumerate(columns):
            covered |= 1 << ids[column]
            for g in bits(column):
                rows[g] |= 1 << m_idx
        blocks.append(
            FormalContext.from_rows(context.objects, tuple(labels), tuple(rows))
        )
    missing = len(ids) - covered.bit_count()
    if missing:
        raise IncompleteCoveringError(missing)
    return apposition(*blocks)
