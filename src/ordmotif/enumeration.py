"""Exhaustive motif enumeration over a clarified context.

Nominal, ordinal, interordinal and contranominal motifs are hereditary
along their witnesses: every prefix of a witness of two or more objects
is a witness too. So their domains grow depth-first, one object at a
time, under the family's step rule on rows. Crowns are not hereditary:
H is a crown iff the objects sharing an attribute outside H's intent
link H into one cycle, which a depth-first path search, capped by size,
checks on rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .context import FormalContext, require_clarified
from .recognition import HEREDITARY_RULES, Motif, recognize
from .scales import FAMILY_MIN_SIZE, ScaleFamily

DEFAULT_MIN_SIZE = 2
DEFAULT_CROWN_SIZE_CAP = 8


@dataclass(frozen=True)
class EnumerationConfig:
    """Bounds for the enumeration; sizes are inclusive and apply to every family.

    ``min_size`` defaults to 2 and is raised to each family's own minimum
    (1, or 3 for crowns); ``max_size`` defaults to the object count. A
    family whose minimum exceeds ``max_size`` yields no motifs.
    """

    families: tuple[ScaleFamily, ...] = tuple(ScaleFamily)
    min_size: int | None = None
    max_size: int | None = None
    crown_size_cap: int = DEFAULT_CROWN_SIZE_CAP

    def __post_init__(self):
        if not self.families:
            raise ValueError("no scale family selected")
        # A family named twice is enumerated once, at its first mention.
        object.__setattr__(self, "families", tuple(dict.fromkeys(self.families)))
        if (
            self.min_size is not None
            and self.max_size is not None
            and self.min_size > self.max_size
        ):
            raise ValueError(f"max size {self.max_size} below min size {self.min_size}")
        if self.crown_size_cap < 3:
            raise ValueError("crown size cap must be at least 3")

    def bounds(self, family: ScaleFamily, object_count: int) -> tuple[int, int]:
        lo = DEFAULT_MIN_SIZE if self.min_size is None else self.min_size
        lo = max(lo, FAMILY_MIN_SIZE[family])
        hi = object_count if self.max_size is None else min(self.max_size, object_count)
        if family is ScaleFamily.CROWN:
            hi = min(hi, self.crown_size_cap)
        return lo, hi


def _sorted_motifs(found: dict[tuple[int, ...], Motif]) -> list[Motif]:
    return [found[key] for key in sorted(found, key=lambda d: (len(d), d))]


def enumerate_hereditary(
    context: FormalContext, family: ScaleFamily, config: EnumerationConfig | None = None
) -> list[Motif]:
    """All motif domains of a hereditary family within the size bounds.

    Paths grow under ``recognition.HEREDITARY_RULES`` and are their own
    witnesses: nominal and contranominal sets in ascending object order,
    ordinal chains down from the full row, interordinal walks from every
    object, kept when ``path[0] < path[-1]``. A child tries only the objects
    that extended its parent: dropping any object but the first from a
    witness leaves a witness.
    Singletons obey another rule and go through :func:`recognize`.
    """
    if family not in HEREDITARY_RULES:
        raise ValueError(f"{family} is not hereditary; see enumerate_crowns")
    config = config or EnumerationConfig()
    n_objects = len(context.objects)
    require_clarified(context, range(n_objects))
    lo, hi = config.bounds(family, n_objects)
    found: dict[tuple[int, ...], Motif] = {}

    if lo <= 1 <= hi:
        for g in range(n_objects):
            motif = recognize(context, (g,), family)
            if motif is not None:
                found[(g,)] = motif

    rows = context.rows
    seed, step = HEREDITARY_RULES[family]
    walks = family in (ScaleFamily.ORDINAL, ScaleFamily.INTERORDINAL)
    stack = []
    for g in range(n_objects):
        state = seed(rows[g], context.attribute_mask)
        if state is not None:
            stack.append(([g], state, range(0 if walks else g + 1, n_objects)))
    while stack:
        path, state, options = stack.pop()
        if len(path) >= max(lo, 2) and (
            family is not ScaleFamily.INTERORDINAL or path[0] < path[-1]
        ):
            found[tuple(sorted(path))] = Motif(family, tuple(path))
        if len(path) >= hi:
            continue
        # A walk's options hold no member but its last, which the rule rejects.
        grown = [(x, s) for x in options if (s := step(rows, path, state, rows[x])) is not None]
        after = [x for x, _ in grown]
        for i, (x, s) in enumerate(grown):
            stack.append((path + [x], s, after if walks else after[i + 1 :]))
    return _sorted_motifs(found)


def enumerate_crowns(
    context: FormalContext, config: EnumerationConfig | None = None
) -> list[Motif]:
    """All crown motifs up to the size cap.

    Simple paths grow from their least object while pairs not consecutive
    on the cycle meet exactly in the domain's intent. A path that closes
    with every consecutive pair sharing more is a crown, and with
    ``path[1] < path[-1]`` it is the recognizer's canonical walk.
    """
    config = config or EnumerationConfig()
    n_objects = len(context.objects)
    require_clarified(context, range(n_objects))
    lo, hi = config.bounds(ScaleFamily.CROWN, n_objects)
    if hi < 3 or n_objects < 3:
        return []

    rows = context.rows
    overlap = [
        [b for b in range(n_objects) if b != a and rows[a] & rows[b]] for a in range(n_objects)
    ]

    found: dict[tuple[int, ...], Motif] = {}
    # An explicit stack of (path, path_mask, intent, inner, apart), so the cap
    # is not bounded by the recursion limit: ``intent`` ANDs the path's rows,
    # ``inner`` ORs its interior rows and ``apart`` ORs what its
    # non-consecutive pairs, the end pair aside, share.
    stack = [([g], 1 << g, rows[g], 0, 0) for g in range(n_objects)]
    while stack:
        path, path_mask, intent, inner, apart = stack.pop()
        start, last = path[0], path[-1]
        if (
            lo <= len(path)
            and path[1] < last
            and rows[start] & rows[last] & ~intent
            and all(rows[a] & rows[b] & ~intent for a, b in zip(path, path[1:]))
        ):
            found[tuple(sorted(path))] = Motif(ScaleFamily.CROWN, tuple(path))
        if len(path) == hi:
            continue
        if len(path) > 2:
            apart |= rows[start] & rows[last]  # ``last`` turns interior
        # ``apart`` only grows and every longer path keeps it inside its
        # intent, so a consecutive pair sharing nothing outside ``apart``
        # never closes into a crown.
        if apart and not all(rows[a] & rows[b] & ~apart for a, b in zip(path, path[1:])):
            continue
        next_inner = inner | rows[last] if len(path) > 1 else 0
        for nxt in overlap[last]:
            if nxt <= start or path_mask >> nxt & 1:
                continue
            next_intent = intent & rows[nxt]
            next_apart = apart | rows[nxt] & inner
            if next_apart & ~next_intent:
                continue
            stack.append(
                (path + [nxt], path_mask | 1 << nxt, next_intent, next_inner, next_apart)
            )
    return _sorted_motifs(found)


def enumerate_family(
    context: FormalContext, family: ScaleFamily, config: EnumerationConfig | None = None
) -> list[Motif]:
    if family is ScaleFamily.CROWN:
        return enumerate_crowns(context, config)
    return enumerate_hereditary(context, family, config)


def maximal_filter(motifs: Iterable[Motif], family: ScaleFamily) -> list[Motif]:
    """Motifs whose domain has no one-object extension among ``motifs``.

    For every family this coincides with having no proper superset domain at
    all, provided ``motifs`` is the family's full enumeration.
    """
    pool = list(motifs)
    for m in pool:
        if m.family is not family:
            raise ValueError(f"expected only {family} motifs, found {m.family}")
    masks = [m.domain_mask for m in pool]
    # Mark every domain one object short of a motif; the unmarked are maximal.
    extended = {mask ^ 1 << g for m, mask in zip(pool, masks) for g in m.domain}
    return [m for m, mask in zip(pool, masks) if mask not in extended]


@dataclass
class MotifInventory:
    """Per-family enumeration results with their maximal sub-lists."""

    by_family: dict[ScaleFamily, list[Motif]]
    maximal_by_family: dict[ScaleFamily, list[Motif]]

    def all_motifs(self, maximal_only: bool = False) -> list[Motif]:
        source = self.maximal_by_family if maximal_only else self.by_family
        out: list[Motif] = []
        for family in ScaleFamily:
            out.extend(source.get(family, ()))
        return out


def enumerate_motifs(
    context: FormalContext, config: EnumerationConfig | None = None
) -> MotifInventory:
    """Run the full enumeration for every family selected by ``config``."""
    config = config or EnumerationConfig()
    by_family: dict[ScaleFamily, list[Motif]] = {}
    maximal: dict[ScaleFamily, list[Motif]] = {}
    for family in config.families:
        motifs = enumerate_family(context, family, config)
        by_family[family] = motifs
        maximal[family] = maximal_filter(motifs, family)
    return MotifInventory(by_family, maximal)


def motif_stats(inventory: MotifInventory) -> dict[ScaleFamily, tuple[int, int, int]]:
    """Per family: total count, maximal count, largest domain size (0 if none)."""
    out = {}
    for family, motifs in inventory.by_family.items():
        largest = max((m.size for m in motifs), default=0)
        out[family] = (len(motifs), len(inventory.maximal_by_family[family]), largest)
    return out


def stats_table(inventory: MotifInventory) -> str:
    """Fixed-width text table of :func:`motif_stats`."""
    stats = motif_stats(inventory)
    families = [f for f in ScaleFamily if f in stats]
    headers = [str(f) for f in families]
    rows = [
        ("motifs", [str(stats[f][0]) for f in families]),
        ("maximal", [str(stats[f][1]) for f in families]),
        ("largest size", [str(stats[f][2]) for f in families]),
    ]
    label_width = max(len(r[0]) for r in rows)
    widths = [
        max(len(headers[i]), max(len(r[1][i]) for r in rows)) for i in range(len(families))
    ]
    lines = [
        " " * label_width
        + "  "
        + "  ".join(h.rjust(widths[i]) for i, h in enumerate(headers))
    ]
    for label, cells in rows:
        lines.append(
            label.ljust(label_width)
            + "  "
            + "  ".join(c.rjust(widths[i]) for i, c in enumerate(cells))
        )
    return "\n".join(lines)
