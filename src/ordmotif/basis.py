"""Rebuilding a context from a complete motif covering.

Each motif contributes one column over the original objects per extent
of its built scale (``build_scale(...).extents()``): the closure of its
preimage under the witness, read off ``FormalContext.intent_ids()`` at
the AND of the witness rows in the extent (every attribute for the empty
one).
Columns for attribute extents keep the attribute's label; the remaining
scale extents get starred labels. Attribute columns alone would not
suffice: the closure of an intersection of preimages can be strictly
smaller than the intersection of their closures, so covered extents
reachable only through the scale's top or bottom would go missing. With
one column per scale extent the columns are exactly the covered extents.
They are extents of the source context, so every intersection of them is
one too, and a complete covering makes every source extent a column. The
top needs none, being the empty intersection of columns, so a covering
that misses only the top is complete here as well. Then the basis has
exactly the extents of the source context, hence the same local full
scale-measures. Columns run in scale attribute order, then the other
scale extents by mask.
"""

from __future__ import annotations

from typing import Sequence

from .bitsets import bits
from .context import FormalContext
from .recognition import Motif
from .scales import build_scale


class IncompleteCoveringError(ValueError):
    """The motifs do not cover the whole extent system."""

    def __init__(self, uncovered: int):
        super().__init__(f"covering misses {uncovered} extents")
        self.uncovered = uncovered


def build_basis(context: FormalContext, motifs: Sequence[Motif]) -> FormalContext:
    """One closed column per scale extent of each motif; requires a complete covering."""
    extents = context.extents()
    ids = context.intent_ids()
    rows = context.rows
    labels: list[str] = []
    columns: list[int] = []
    for number, motif in enumerate(motifs, start=1):
        scale = build_scale(motif.family, motif.size)
        extras = sorted(set(scale.extents()) - set(scale.cols))
        labels.extend(f"{number}:{label}" for label in scale.attributes)
        labels.extend(f"{number}:*{j}" for j in range(1, len(extras) + 1))
        for e in (*scale.cols, *extras):
            intent = context.attribute_mask
            for i in bits(e):
                intent &= rows[motif.domain[i]]
            columns.append(extents[ids[intent]])
    missing = len(extents) - len(set(columns) | {context.object_mask})
    if missing:
        raise IncompleteCoveringError(missing)
    return FormalContext.from_rows(labels, context.objects, columns).transpose()
