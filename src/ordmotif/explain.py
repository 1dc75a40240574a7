"""Textual explanations for motifs and motif coverings.

One fixed sentence per scale family, with element names filling the
slots in witness order: chain order for ordinal and interordinal,
cycle order for crowns, index order otherwise. A motif realizing
several families gets one paragraph per family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .context import ClarificationMap, FormalContext, object_labels
from .covering import CoveringStep
from .recognition import Motif
from .scales import ScaleFamily

TEMPLATES: dict[ScaleFamily, str] = {
    ScaleFamily.NOMINAL: (
        "The elements {names} are incomparable, i.e., all elements have at least"
        " one property that the other elements do not have."
    ),
    ScaleFamily.ORDINAL: (
        "There is a ranking of elements {names} such that an element has all the"
        " properties its successors has."
    ),
    ScaleFamily.INTERORDINAL: (
        "The elements {names} are ordered in such a way that each interval of"
        " elements has a unique set of properties they have in common."
    ),
    ScaleFamily.CONTRANOMINAL: (
        "Each combination of the elements {names} has a unique set of properties"
        " they have in common."
    ),
    ScaleFamily.CROWN: (
        "The elements {names} are incomparable. Furthermore, there is a closed"
        " cycle from {first} over {rest} back to {first} by pairwise shared"
        " properties."
    ),
}


def join_names(names: Sequence[str]) -> str:
    """Comma-separate all names but the last, which follows a plain "and"."""
    if not names:
        raise ValueError("nothing to join")
    if len(names) == 1:
        return names[0]
    return ", ".join(names[:-1]) + " and " + names[-1]


def render_motif(motif: Motif, labels: Sequence[str]) -> str:
    """Fill the family template with the motif's element names, ``labels[g]``."""
    for g in motif.domain:
        if not 0 <= g < len(labels):
            raise ValueError(f"no label for object index {g}")
    names = [labels[g] for g in motif.domain]
    if motif.family is ScaleFamily.CROWN:
        return TEMPLATES[motif.family].format(
            names=join_names(names), first=names[0], rest=join_names(names[1:])
        )
    return TEMPLATES[motif.family].format(names=join_names(names))


@dataclass(frozen=True)
class ExplanationEntry:
    """One covering step rendered as text, one paragraph per realized family."""

    text: str
    motif: Motif
    families_rendered: tuple[ScaleFamily, ...]


@dataclass(frozen=True)
class ExplanationDoc:
    entries: tuple[ExplanationEntry, ...]

    def to_text(self) -> str:
        """Numbered list; extra paragraphs of an entry follow unnumbered."""
        lines: list[str] = []
        for i, entry in enumerate(self.entries, 1):
            first, *rest = entry.text.split("\n")
            lines.append(f"{i}. {first}")
            lines.extend(rest)
        return "\n".join(lines)


def explain_covering(
    context: FormalContext,
    steps: Sequence[CoveringStep],
    clarification: Optional[ClarificationMap] = None,
) -> ExplanationDoc:
    """Render greedy covering steps in selection order.

    Each step's witnesses give one paragraph per realized family, each in
    that family's own witness order. Clarified objects show merged labels.
    """
    labels = object_labels(context, clarification)
    return ExplanationDoc(
        tuple(
            ExplanationEntry(
                "\n".join(render_motif(w, labels) for w in step.witnesses),
                step.motif,
                step.families,
            )
            for step in steps
        )
    )
