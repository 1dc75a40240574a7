"""Exhaustive motif enumeration over a clarified context.

:func:`enumerate_family` checks the context, bounds the sizes and lists
singletons through ``recognize``; the family's search lists the rest,
in its own deterministic order (the ``motifs`` command sorts its
listing). With ``maximal`` it lists only the motifs no listed domain
contains: nominal's from the clique search, crowns' through
:func:`maximal_filter`, and the other families' by its one-short rule on
the domain masks their searches carry. :func:`enumerate_motifs` joins
the selected families' lists in family rank order. Nominal, ordinal,
interordinal and contranominal motifs are hereditary along their
witnesses, so their domains grow depth-first, one object at a time:
ordinal, interordinal and contranominal ones in the loops of
``recognition.HEREDITARY_SEARCHES``, which ``recognize`` runs too, and
nominal sets as the cliques of one graph per meet of ``meet_links()``,
in one Bron-Kerbosch search. Crowns are not hereditary; their search
runs ``recognition.crown_walks`` from seed pairs (see :func:`_crowns`).
"""

from __future__ import annotations

from typing import Iterable

from .bitsets import bits
from .context import FormalContext, require_clarified
from .recognition import HEREDITARY_SEARCHES, Motif, crown_walks, recognize
from .scales import FAMILY_MIN_SIZE, ScaleFamily

DEFAULT_MIN_SIZE = 2
DEFAULT_CROWN_SIZE_CAP = 8


class EnumerationConfig:
    """Bounds for the enumeration; sizes are inclusive and apply to every family.

    ``min_size`` defaults to 2 and is raised to each family's own minimum
    (1, or 3 for crowns); ``max_size`` defaults to the object count. A
    family whose minimum exceeds ``max_size`` yields no motifs.
    """

    __slots__ = ("families", "min_size", "max_size", "crown_size_cap")

    def __init__(
        self,
        families: tuple[ScaleFamily, ...] = tuple(ScaleFamily),
        min_size: int | None = None,
        max_size: int | None = None,
        crown_size_cap: int = DEFAULT_CROWN_SIZE_CAP,
    ):
        # A family named twice is enumerated once, at its first mention.
        self.families = tuple(dict.fromkeys(families))
        if not self.families:
            raise ValueError("no scale family selected")
        if min_size is not None and max_size is not None and min_size > max_size:
            raise ValueError(f"max size {max_size} below min size {min_size}")
        if crown_size_cap < 3:
            raise ValueError("crown size cap must be at least 3")
        self.min_size = min_size
        self.max_size = max_size
        self.crown_size_cap = crown_size_cap

    def bounds(self, family: ScaleFamily, object_count: int) -> tuple[int, int]:
        lo = DEFAULT_MIN_SIZE if self.min_size is None else self.min_size
        lo = max(lo, FAMILY_MIN_SIZE[family])
        hi = object_count if self.max_size is None else min(self.max_size, object_count)
        if family is ScaleFamily.CROWN:
            hi = min(hi, self.crown_size_cap)
        return lo, hi


def _cliques(context: FormalContext, lo: int, hi: int, maximal: bool) -> list[Motif]:
    """The nominal domains of ``lo..hi`` objects (``lo >= 2``), or the maximal ones.

    H (|H| >= 2) is nominal iff every pair of its rows meets in the same
    intent I and no row equals I, so its domains are the cliques of one
    graph per meet: ``links[x][meet]`` in the context's ``meet_links()``
    holds the objects that pair with x at meet. Bron & Kerbosch (1973)
    runs one search per object x and meet (Eppstein et al. 2010). A node
    holds its clique, the candidates P not yet branched on and the
    excluded X, from P = ``links[x][meet]`` above x and X those below, so
    each clique is found once, from its least member, and P | X holds
    every object linked with each member at the meet. Without ``maximal``
    every clique is listed. With it, one is listed at ``hi`` objects or
    when P | X is empty: below the bound no object extends it, the
    one-short rule of :func:`maximal_filter`. With no cut (``hi`` the
    object count) it branches only on the members of P that Tomita et
    al.'s pivot (2006), the member of P | X with most links into P, does
    not link with, so no clique inside a maximal one is visited; under a
    cut that would skip the cliques at the bound.
    """
    links = context.meet_links()
    pivot = maximal and hi == len(context.objects)
    # Each clique is found from its least member x, so a seed needs a
    # candidate above x.
    stack = [
        ((x,), meet, ys & -(2 << x), ys & ((1 << x) - 1))
        for x, x_links in links.items()
        for meet, ys in x_links.items()
        if ys >> x
    ]
    cliques = []
    while stack:
        clique, meet, p, xs = stack.pop()
        size = len(clique)
        if size >= lo and (not maximal or size == hi or not p | xs):
            cliques.append(clique)
        if size == hi or not p:
            continue
        if not p & (p - 1):
            # One candidate: its child has none, so only X can extend it.
            y = p.bit_length() - 1
            if size + 1 >= lo and (not maximal or size + 1 == hi or not xs & links[y][meet]):
                cliques.append(clique + (y,))
            continue
        branch = p
        if pivot:
            most = -1
            pool = p | xs
            while pool:
                low = pool & -pool
                pool ^= low
                covered = p & links[low.bit_length() - 1][meet]
                if covered.bit_count() > most:
                    most, skip = covered.bit_count(), covered
            branch = p & ~skip
        while branch:
            low = branch & -branch
            branch ^= low
            y = low.bit_length() - 1
            near = links[y][meet]
            stack.append((clique + (y,), meet, p & near, xs & near))
            p ^= low
            xs |= low
    # Pivots branch out of object order, and a nominal witness is
    # ascending; without a pivot each clique grows upward.
    family = ScaleFamily.NOMINAL
    return [Motif(family, tuple(sorted(c)) if pivot else c) for c in cliques]


def _crowns(context: FormalContext, lo: int, hi: int) -> list[Motif]:
    """The crowns of ``lo..hi`` objects (``lo >= 3``).

    Each cycle is found once, from its seed triplet: its least object
    ``x`` and x's two cycle neighbours ``a < b``, both above ``x`` and
    linked with it in ``meet_links()``. Its witness is the walk
    ``[x, a, ..., b]`` that ``recognition.crown_walks`` grows from the
    triplet, the one :func:`recognize` returns. One walk generator per
    pair x, a tries every b in ascending order. Crowns come out grouped
    by their least object.
    """
    family = ScaleFamily.CROWN
    rows = context.rows
    links = context.meet_links()
    crowns = []
    for x in range(len(context.objects)):
        # Crown members are incomparable and neighbours share more than the
        # intent, so x's neighbours link with x at a nonempty meet.
        ups = sum(ys for meet, ys in links[x].items() if meet) & -(2 << x)
        for a in bits(ups):
            for walk in crown_walks(rows, links, context.object_mask, x, a, ups & -(2 << a), lo, hi):
                crowns.append(Motif(family, walk))
    return crowns


def enumerate_family(
    context: FormalContext,
    family: ScaleFamily,
    config: EnumerationConfig | None = None,
    maximal: bool = False,
) -> list[Motif]:
    """The family's list within the size bounds: singletons, then its search's order.

    With ``maximal``, only the motifs with no proper superset domain in
    the full list, found as the module docstring says; a listed singleton
    is maximal when no listed pair holds its object.
    """
    config = config or EnumerationConfig()
    n_objects = len(context.objects)
    require_clarified(context, range(n_objects))
    lo, hi = config.bounds(family, n_objects)
    # A one-object domain obeys its own rule, which ``recognize`` decides.
    singles = range(n_objects) if lo <= 1 <= hi else ()
    motifs = [m for g in singles if (m := recognize(context, (g,), family))]
    if max(lo, 2) > hi:
        return motifs
    if family is ScaleFamily.NOMINAL:
        return motifs + _cliques(context, max(lo, 2), hi, maximal)
    if family is ScaleFamily.CROWN:
        motifs += _crowns(context, lo, hi)
        return maximal_filter(motifs, family) if maximal else motifs
    found = HEREDITARY_SEARCHES[family](context, max(lo, 2), hi)
    if not maximal:
        return motifs + [Motif(family, path) for path, _ in found]
    # The one-short rule of maximal_filter on the masks the search carried.
    # A domain of lo objects or fewer marks none that is listed.
    short = {mask ^ 1 << g for path, mask in found if len(path) > lo for g in path}
    motifs = [m for m in motifs if 1 << m.domain[0] not in short]
    return motifs + [Motif(family, path) for path, mask in found if mask not in short]


def maximal_filter(motifs: Iterable[Motif], family: ScaleFamily) -> list[Motif]:
    """Motifs whose domain has no one-object extension among ``motifs``.

    For every family this coincides with having no proper superset domain at
    all, provided ``motifs`` is the family's full enumeration. Crowns are
    returned unfiltered, since no crown contains another: two members of a
    crown C that are not cycle neighbours share only C's intent, which the
    intent of a subset H of C contains, so H links only along C's cycle
    edges, and with a member of C missing those form paths, not one cycle.
    """
    pool = list(motifs)
    for m in pool:
        if m.family is not family:
            raise ValueError(f"expected only {family} motifs, found {m.family}")
    if family is ScaleFamily.CROWN:
        return pool
    masks = [m.domain_mask for m in pool]
    # Mark every domain one object short of a motif; the unmarked are maximal.
    extended = {mask ^ 1 << g for m, mask in zip(pool, masks) for g in m.domain}
    return [m for m, mask in zip(pool, masks) if mask not in extended]


def enumerate_motifs(
    context: FormalContext, config: EnumerationConfig | None = None, maximal_only: bool = False
) -> list[Motif]:
    """Every family's list that ``config`` selects, joined in family rank order.

    With ``maximal_only``, each family's maximal motifs instead, as
    :func:`enumerate_family` gives them.
    """
    config = config or EnumerationConfig()
    return [
        m
        for family in ScaleFamily
        if family in config.families
        for m in enumerate_family(context, family, config, maximal_only)
    ]
