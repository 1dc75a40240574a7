"""Ordinal motifs: standard-scale patterns in formal contexts.

Recognize nominal, ordinal, interordinal, contranominal and crown
substructures, enumerate them, cover the extent system greedily, fold a
complete covering into a basis context, and render the result as text.
"""

from .basis import IncompleteCoveringError, build_basis
from .context import FormalContext, UnclarifiedObjectsError, clarify_objects
from .covering import CoveringStep, HeuristicKind, greedy_cover
from .dimension import scaling_dimension
from .enumeration import EnumerationConfig, enumerate_motifs
from .explain import explain_covering, number_entries
from .io import ParseError, load_context
from .recognition import Motif, recognize, verify_full, verify_scale_measure
from .scales import ScaleFamily, build_scale

__all__ = [
    "FormalContext",
    "clarify_objects",
    "UnclarifiedObjectsError",
    "ParseError",
    "load_context",
    "ScaleFamily",
    "build_scale",
    "Motif",
    "recognize",
    "verify_full",
    "verify_scale_measure",
    "EnumerationConfig",
    "enumerate_motifs",
    "HeuristicKind",
    "CoveringStep",
    "greedy_cover",
    "explain_covering",
    "number_entries",
    "IncompleteCoveringError",
    "build_basis",
    "scaling_dimension",
]

__version__ = "0.1.0"
