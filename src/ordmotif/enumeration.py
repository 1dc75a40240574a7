"""Exhaustive motif enumeration over a clarified context.

:func:`enumerate_family` checks the context, bounds the sizes and lists
singletons through ``recognize``; the family's search lists the rest.
With ``maximal`` it lists only the motifs no listed domain contains:
nominal's from the clique search, every other family's through
:func:`maximal_filter`. :func:`enumerate_motifs` joins the selected
families' lists, full or maximal, in family rank order.
Nominal, ordinal, interordinal and contranominal motifs are hereditary
along their witnesses: every prefix of a witness of two or more objects
is a witness too. So their domains grow depth-first, one object at a
time. Ordinal, interordinal and contranominal domains grow under the
family's step rule on rows; each node keeps the objects it may still try
as one int and narrows it with ``&`` before the rule runs. Nominal sets
have no step rule: they are the cliques of one graph per meet, read off
the context's ``meet_links()``, so a clique carries the objects that may
still join it. One Bron-Kerbosch search lists every clique or only the
maximal ones, those no object extends within the size bound, with
Tomita's pivot when no size cuts. Crowns are not hereditary: H is a
crown iff the objects sharing an attribute outside H's intent link H
into one cycle. Crown enumeration runs
``recognition.crown_walks``, the walk ``recognize`` also runs, on the
same table, from every seed triplet of an object and two objects above
it that link with it at a nonempty meet, capped by size, so it finds
each cycle once. Every list comes in its search's order, deterministic
but not sorted: covering does not depend on it, and the ``motifs``
listing of the command line sorts its own.
"""

from __future__ import annotations

from typing import Iterable

from .bitsets import bits
from .context import FormalContext, require_clarified
from .recognition import HEREDITARY_CANDIDATES, HEREDITARY_RULES, Motif, crown_walks, recognize
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


def _singletons(context: FormalContext, family: ScaleFamily) -> list[Motif]:
    # A one-object domain obeys its own rule, which ``recognize`` decides.
    return [m for g in range(len(context.objects)) if (m := recognize(context, (g,), family))]


def _grow(context: FormalContext, family: ScaleFamily, lo: int, hi: int) -> list[Motif]:
    """The domains of ``lo..hi`` objects (``lo >= 2``) of a family with a step rule.

    Paths grow under ``recognition.HEREDITARY_RULES`` and are their own
    witnesses: contranominal sets in ascending object order, ordinal
    chains down from the full row, interordinal walks from every object,
    kept when ``path[0] < path[-1]``; so each domain is reached once. A
    node's options are one int of objects: the siblings the step rule
    accepted (for sets only those above the new object), since dropping
    any object but the first from a witness leaves a witness.
    ``recognition.HEREDITARY_CANDIDATES`` narrows that mask with column
    ORs and ANDs, and the step rule decides every object left. The stack
    pops seeds and children in ascending object order, so paths come out
    in depth-first lexicographic order.
    """
    n_objects = len(context.objects)
    rows, cols = context.rows, context.cols
    seed, step = HEREDITARY_RULES[family]
    candidates = HEREDITARY_CANDIDATES.get(family)
    walks = family in (ScaleFamily.ORDINAL, ScaleFamily.INTERORDINAL)
    interordinal = family is ScaleFamily.INTERORDINAL
    everyone = (1 << n_objects) - 1
    stack = []
    for g in reversed(range(n_objects)):
        state = seed(rows[g], context.attribute_mask)
        if state is not None:
            stack.append(([g], state, everyone ^ 1 << g if walks else everyone & -(2 << g)))
    motifs = []
    while stack:
        path, state, options = stack.pop()
        if len(path) >= lo and (not interordinal or path[0] < path[-1]):
            motifs.append(Motif(family, tuple(path)))
        if len(path) >= hi:
            continue
        if candidates is not None:
            options &= candidates(rows, cols, path, state)
        grown = []
        after = 0
        while options:
            low = options & -options
            options ^= low
            x = low.bit_length() - 1
            s = step(rows, path, state, rows[x])
            if s is not None:
                grown.append((x, s))
                after |= low
        for x, s in reversed(grown):
            stack.append((path + [x], s, after ^ 1 << x if walks else after & -(2 << x)))
    return motifs


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
    triplet, the one :func:`recognize` returns. Crowns come out grouped
    by their least object.
    """
    family = ScaleFamily.CROWN
    rows = context.rows
    links = context.meet_links()
    crowns = []
    for x in range(len(context.objects)):
        # Crown members are incomparable and neighbours share more than the
        # intent, so x's neighbours link with x at a nonempty meet.
        ups = list(bits(sum(ys for meet, ys in links[x].items() if meet) & -(2 << x)))
        for i, a in enumerate(ups):
            for b in ups[i + 1 :]:
                for walk in crown_walks(rows, links, context.object_mask, x, a, b, lo, hi):
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
    the full list. Nominal's come from the clique search in maximal mode; a listed
    singleton has the full row, which no pair holds, so it is maximal
    too. Every other family's are :func:`maximal_filter` of its full list.
    """
    config = config or EnumerationConfig()
    n_objects = len(context.objects)
    require_clarified(context, range(n_objects))
    lo, hi = config.bounds(family, n_objects)
    motifs = _singletons(context, family) if lo <= 1 <= hi else []
    lo = max(lo, 2)
    if lo <= hi:
        if family is ScaleFamily.NOMINAL:
            motifs += _cliques(context, lo, hi, maximal)
        elif family is ScaleFamily.CROWN:
            motifs += _crowns(context, lo, hi)
        else:
            motifs += _grow(context, family, lo, hi)
    if maximal and family is not ScaleFamily.NOMINAL:
        return maximal_filter(motifs, family)
    return motifs


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
