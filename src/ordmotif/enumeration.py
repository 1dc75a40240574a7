"""Exhaustive motif enumeration over a clarified context.

Nominal, interordinal and contranominal domains are closed under taking
subsets of size two and up, which justifies Apriori-style level-wise
candidate generation. Ordinal domains are closed only under subsets that
keep the bottom of the chain, so their levels grow by single-object
extension instead. Crowns are not hereditary at all and are found by a
pruned depth-first cycle search, capped by size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .context import FormalContext, require_clarified
from .recognition import Motif, recognize
from .scales import FAMILY_MIN_SIZE, ScaleFamily

DEFAULT_MIN_SIZE = 2
DEFAULT_CROWN_SIZE_CAP = 8

_HEREDITARY = (
    ScaleFamily.NOMINAL,
    ScaleFamily.ORDINAL,
    ScaleFamily.INTERORDINAL,
    ScaleFamily.CONTRANOMINAL,
)


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

    Levels always start at size two internally; singletons obey a different
    rule than larger domains and are handled on their own when requested.
    """
    if family not in _HEREDITARY:
        raise ValueError(f"{family} is not enumerated level-wise; see enumerate_crowns")
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

    level: dict[tuple[int, ...], Motif] = {}
    if hi >= 2:
        for a in range(n_objects):
            for b in range(a + 1, n_objects):
                motif = recognize(context, (a, b), family)
                if motif is not None:
                    level[(a, b)] = motif
    size = 2
    while level:
        if lo <= size <= hi:
            found.update(level)
        if size >= hi:
            break
        if family is ScaleFamily.ORDINAL:
            candidates = {
                tuple(sorted(domain + (g,)))
                for domain in level
                for g in range(n_objects)
                if g not in domain
            }
        else:
            candidates = _apriori_candidates(level, size + 1)
        level = {}
        for domain in sorted(candidates):
            motif = recognize(context, domain, family)
            if motif is not None:
                level[domain] = motif
        size += 1
    return _sorted_motifs(found)


def _apriori_candidates(level: dict[tuple[int, ...], Motif], k: int) -> set[tuple[int, ...]]:
    """Join (k-1)-domains sharing a prefix; keep those with all subsets present."""
    by_prefix: dict[tuple[int, ...], list[int]] = {}
    for domain in level:
        by_prefix.setdefault(domain[:-1], []).append(domain[-1])
    out: set[tuple[int, ...]] = set()
    for prefix, lasts in by_prefix.items():
        lasts.sort()
        for i, a in enumerate(lasts):
            for b in lasts[i + 1 :]:
                candidate = prefix + (a, b)
                if all(
                    candidate[:j] + candidate[j + 1 :] in level
                    for j in range(len(candidate) - 2)
                ):
                    out.add(candidate)
    return out


def enumerate_crowns(
    context: FormalContext, config: EnumerationConfig | None = None
) -> list[Motif]:
    """All crown motifs up to the size cap.

    Candidate domains come from a depth-first simple-cycle search over the
    object overlap graph. Pruning only uses conditions every crown domain
    must satisfy, so nothing below the cap is missed; every candidate is
    confirmed by the recognizer before it is reported.
    """
    config = config or EnumerationConfig()
    n_objects = len(context.objects)
    require_clarified(context, range(n_objects))
    lo, hi = config.bounds(ScaleFamily.CROWN, n_objects)
    if hi < 3 or n_objects < 3:
        return []

    closure = context.object_closure
    universal = closure(0)  # objects with full rows never qualify
    eligible = [g for g in range(n_objects) if not universal >> g & 1]
    overlap: dict[int, list[int]] = {g: [] for g in eligible}
    for i, a in enumerate(eligible):
        for b in eligible[i + 1 :]:
            if context.rows[a] & context.rows[b]:
                overlap[a].append(b)
                overlap[b].append(a)

    found: dict[tuple[int, ...], Motif] = {}
    seen_domains: set[int] = set()
    # Depth-first over (path, path_mask, forbidden) with an explicit stack,
    # so the cap is not bounded by the interpreter's recursion limit.
    stack = [([g], 1 << g, closure(1 << g) & ~(1 << g)) for g in eligible]
    while stack:
        path, path_mask, forbidden = stack.pop()
        start, last = path[0], path[-1]
        if 3 <= len(path) <= hi and path[1] < last and start in overlap[last]:
            # Cycle closes. Remaining necessary conditions, then the recognizer.
            if path_mask not in seen_domains:
                end_pair = (1 << start) | (1 << last)
                if closure(end_pair) & path_mask == end_pair:
                    if all(
                        closure((1 << start) | (1 << u)) & path_mask == path_mask
                        for u in path[2:-1]
                    ):
                        seen_domains.add(path_mask)
                        motif = recognize(context, path, ScaleFamily.CROWN)
                        if motif is not None and motif.size >= lo:
                            found[tuple(sorted(path))] = motif
        if len(path) == hi:
            continue
        for nxt in overlap[last]:
            bit = 1 << nxt
            if nxt <= start or path_mask & bit or forbidden & bit:
                continue
            if closure(bit) & path_mask:
                continue
            new_mask = path_mask | bit
            # Consecutive objects share a pairwise-private attribute set ...
            step_pair = (1 << last) | bit
            if closure(step_pair) & new_mask != step_pair:
                continue
            # ... while non-consecutive ones must both lie in every closed
            # superset of the pair, since only the full domain separates them.
            if any(
                closure((1 << u) | bit) & new_mask != new_mask for u in path[1:-1]
            ):
                continue
            stack.append((path + [nxt], new_mask, forbidden | (closure(bit) & ~bit)))
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
