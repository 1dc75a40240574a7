"""Brute-force reference implementations the tests compare against.

Everything here is written from the definitions, independent of the
package internals: extents as the intersection closure of attribute
columns, scales from their incidence formulas, recognition by trying
all bijections, and scaling dimension by explicit semi-products.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from random import Random

from ordmotif import (
    FormalContext,
    HeuristicKind,
    Motif,
    ScaleFamily,
    build_scale,
    verify_full,
)
from ordmotif.recognition import preimage


def brute_force_extents(context: FormalContext) -> set[int]:
    """Intersection closure of the attribute columns plus the full set."""
    full = (1 << len(context.objects)) - 1
    closed = {full}
    frontier = {full}
    while frontier:
        nxt = set()
        for e in frontier:
            for col in context.cols:
                f = e & col
                if f not in closed:
                    closed.add(f)
                    nxt.add(f)
        frontier = nxt
    return closed


def extent_set(context: FormalContext, ids: int) -> frozenset[int]:
    """Decode an int over extent ids: bit ``i`` stands for ``extents()[i]``."""
    return frozenset(e for i, e in enumerate(context.extents()) if ids >> i & 1)


def lectic_less(a: int, b: int) -> bool:
    """Lectic order on object sets: the least element of a xor b lies in b."""
    width = max(a, b).bit_length()
    differ = [i for i in range(width) if (a >> i & 1) != (b >> i & 1)]
    return bool(differ) and b >> differ[0] & 1 == 1


def compress(mask: int, positions: list[int]) -> int:
    """Re-index ``mask`` onto the compact universe given by ``positions``.

    Bit ``positions[j]`` of the input becomes bit ``j`` of the output; bits
    outside ``positions`` are dropped.
    """
    out = 0
    for j, p in enumerate(positions):
        if mask >> p & 1:
            out |= 1 << j
    return out


def induced_subcontext(
    context: FormalContext, object_set: int, attribute_set: int | None = None
) -> FormalContext:
    """Restrict to the given objects (and attributes; all by default)."""
    if attribute_set is None:
        attribute_set = (1 << len(context.attributes)) - 1
    obj_pos = [g for g in range(len(context.objects)) if object_set >> g & 1]
    att_pos = [m for m in range(len(context.attributes)) if attribute_set >> m & 1]
    return FormalContext.from_rows(
        tuple(context.objects[g] for g in obj_pos),
        tuple(context.attributes[m] for m in att_pos),
        tuple(compress(context.rows[g] & attribute_set, att_pos) for g in obj_pos),
    )


def to_csv(context: FormalContext) -> str:
    """The CSV layout written from its definition.

    A header of attribute names after an empty corner cell, then one row
    per object: its name and its 0/1 cells. A label holding a comma, a
    quote or a line break is quoted, with its quotes doubled.
    """

    def cell(text: str) -> str:
        if any(ch in text for ch in ',"\n\r'):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join([""] + [cell(m) for m in context.attributes])]
    for g, row in enumerate(context.rows):
        bits = [str(row >> m & 1) for m in range(len(context.attributes))]
        lines.append(",".join([cell(context.objects[g])] + bits))
    return "".join(line + "\n" for line in lines)


def is_valid_motif(context: FormalContext, motif: Motif) -> bool:
    """Full verification of the encoded witness on the induced subcontext."""
    sub = induced_subcontext(context, motif.domain_mask)
    positions = {g: j for j, g in enumerate(sorted(motif.domain))}
    sigma = [0] * motif.size
    for i, g in enumerate(motif.domain):
        sigma[positions[g]] = i
    return verify_full(sub, sigma, build_scale(motif.family, motif.size))


def random_context(rng: Random, n_objects: int, n_attributes: int, density: float) -> FormalContext:
    rows = [
        [1 if rng.random() < density else 0 for _ in range(n_attributes)]
        for _ in range(n_objects)
    ]
    objects = [f"g{i + 1}" for i in range(n_objects)]
    attributes = [f"m{j + 1}" for j in range(n_attributes)]
    return FormalContext(objects, attributes, rows)


def crown_heavy_context(rng: Random, n_objects: int) -> FormalContext:
    """A crown of 4..n_objects objects planted among random rows, then noised.

    Up to three extra columns, sparse or nearly full, and a chance of bit
    flips make near-crowns as well as crowns, so both answers are common.
    """
    k = rng.randint(4, n_objects)
    extra = rng.randint(0, 3)
    noise = rng.choice([0.0, 0.04, 0.1])
    density = rng.choice([0.2, 0.9])
    rows = []
    for g in range(n_objects):
        if g < k:
            row = [int(m in (g, (g + 1) % k)) for m in range(k)]
        else:
            row = [int(rng.random() < 0.3) for _ in range(k)]
        row += [int(rng.random() < density) for _ in range(extra)]
        rows.append([b ^ (rng.random() < noise) for b in row])
    rng.shuffle(rows)
    objects = [f"g{i + 1}" for i in range(n_objects)]
    attributes = [f"m{j + 1}" for j in range(k + extra)]
    return FormalContext(objects, attributes, rows)


def full_row_context(rng: Random, n_objects: int) -> FormalContext:
    """Random rows with one full row planted at a random place.

    Ordinal motifs above size one need the full row, which random rows
    rarely hold.
    """
    raw = random_context(rng, n_objects - 1, rng.randint(5, 8), rng.uniform(0.3, 0.7))
    rows = list(raw.rows)
    rows.insert(rng.randint(0, n_objects - 1), raw.attribute_mask)
    objects = [f"g{g + 1}" for g in range(n_objects)]
    return FormalContext.from_rows(objects, raw.attributes, rows)


def with_shared_column(context: FormalContext) -> FormalContext:
    """The context with one more column that every object holds.

    The column links every pair of objects without making a crown.
    """
    rows = [r | 1 << len(context.attributes) for r in context.rows]
    return FormalContext.from_rows(context.objects, (*context.attributes, "shared"), rows)


def link_table_oracle(rows: list[int]) -> list[dict[int, int]]:
    """Per object x, its meets with every incomparable row, from all ordered pairs."""
    table = []
    for x, rx in enumerate(rows):
        links: dict[int, int] = {}
        for y, ry in enumerate(rows):
            meet = rx & ry
            if meet != rx and meet != ry:
                links[meet] = links.get(meet, 0) | 1 << y
        table.append(links)
    return table


def cycle_order_oracle(scale: FormalContext) -> list[int] | None:
    """The cycle through every object that the scale's distinct pair columns form.

    Read by following neighbours from object 0 towards the smaller one;
    ``None`` unless there are at least three objects, every column is a
    pair and each object lies in exactly two distinct pairs of one cycle.
    """
    n = len(scale.objects)
    pairs = [[g for g in range(n) if c >> g & 1] for c in set(scale.cols)]
    if n < 3 or any(len(pair) != 2 for pair in pairs):
        return None
    neighbours = [[b if a == g else a for a, b in pairs if g in (a, b)] for g in range(n)]
    if any(len(ends) != 2 for ends in neighbours):
        return None
    order = [0, min(neighbours[0])]
    while len(order) < n:
        step = [h for h in neighbours[order[-1]] if h != order[-2]][0]
        if step == 0:
            return None
        order.append(step)
    return order


def random_corpus_item(rng: Random) -> FormalContext:
    """One context drawn as in the oracle-equivalence corpus."""
    n_objects = rng.randint(1, 6)
    n_attributes = rng.randint(1, 6)
    density = rng.uniform(0.3, 0.7)
    return random_context(rng, n_objects, n_attributes, density)


def oracle_scale_incidence(family: ScaleFamily, n: int, g: int, m: int) -> bool:
    """Standard scale incidence by formula, zero-based on both sides."""
    if family is ScaleFamily.NOMINAL:
        return g == m
    if family is ScaleFamily.ORDINAL:
        return m >= g
    if family is ScaleFamily.INTERORDINAL:
        return g <= m if m < n else g >= m - n
    if family is ScaleFamily.CONTRANOMINAL:
        return g != m
    if family is ScaleFamily.CROWN:
        return m == g or m == (g + 1) % n
    raise AssertionError(family)


def oracle_scale(family: ScaleFamily, n: int) -> FormalContext:
    width = 2 * n if family is ScaleFamily.INTERORDINAL else n
    rows = [
        [1 if oracle_scale_incidence(family, n, g, m) else 0 for m in range(width)]
        for g in range(n)
    ]
    objects = [f"s{g + 1}" for g in range(n)]
    attributes = [f"a{m + 1}" for m in range(width)]
    return FormalContext(objects, attributes, rows)


_ORACLE_MIN_SIZE = {
    ScaleFamily.NOMINAL: 1,
    ScaleFamily.ORDINAL: 1,
    ScaleFamily.INTERORDINAL: 1,
    ScaleFamily.CONTRANOMINAL: 1,
    ScaleFamily.CROWN: 3,
}


def expected_extent_count(family: ScaleFamily, n: int) -> int:
    """Number of extents of the standard scale of the given family and size, in closed form."""
    if n < _ORACLE_MIN_SIZE[family]:
        raise ValueError(f"{family} scale needs size >= {_ORACLE_MIN_SIZE[family]}, got {n}")
    if family is ScaleFamily.NOMINAL:
        return 1 if n == 1 else n + 2
    if family is ScaleFamily.ORDINAL:
        return n
    if family is ScaleFamily.INTERORDINAL:
        return 1 if n == 1 else n * (n + 1) // 2 + 1
    if family is ScaleFamily.CONTRANOMINAL:
        return 2**n
    return 8 if n == 3 else 2 * n + 2


def bijection_oracle(context: FormalContext, domain: tuple[int, ...], family: ScaleFamily) -> bool:
    """True iff some bijection onto the same-size scale is a full measure.

    A map is a full scale-measure exactly when the preimages of the scale
    extents are precisely the extents of the induced subcontext.
    """
    k = len(domain)
    if k < _ORACLE_MIN_SIZE[family]:
        return False
    sub_mask = 0
    for g in domain:
        sub_mask |= 1 << g
    sub = induced_subcontext(context, sub_mask)
    if len(set(sub.rows)) != len(sub.rows):
        return False
    target = frozenset(brute_force_extents(sub))
    scale_ext = brute_force_extents(oracle_scale(family, k))
    if sorted(map(int.bit_count, target)) != sorted(map(int.bit_count, scale_ext)):
        return False  # a bijection keeps the number and the sizes of the extents
    for perm in permutations(range(k)):
        preimages = frozenset(
            sum(1 << i for i in range(k) if e >> perm[i] & 1) for e in scale_ext
        )
        if preimages == target:
            return True
    return False


def subsets_oracle(
    context: FormalContext,
    family: ScaleFamily,
    lo: int,
    hi: int,
) -> set[tuple[int, ...]]:
    """All domains within the size bounds that some bijection witnesses."""
    n = len(context.objects)
    out = set()
    for k in range(max(lo, _ORACLE_MIN_SIZE[family]), min(hi, n) + 1):
        for domain in combinations(range(n), k):
            if bijection_oracle(context, domain, family):
                out.add(domain)
    return out


def _ordinal_step(rows, path, state, r, gap):
    # The rows fall along a strict chain; the state is the last row.
    return r if r & ~state == 0 and r != state else None


def _interordinal_step(rows, path, state, r, gap):
    # ``gap`` holds what some member has and a later one lacks, ``tails[i]``
    # what member i + 1 has, member i lacks and every later member has.
    union, holes, tails = state
    if gap and r & holes or not rows[path[0]] & rows[path[-1]] & ~r:
        return None
    tails = [t & r for t in tails] + [r & ~rows[path[-1]]]
    return (union | r, holes | union & ~r, tails) if all(tails) else None


def _contranominal_step(rows, path, state, r, gap):
    # Every member lacks an attribute that all other members share.
    intent, lacks = state
    lacks = [l & r for l in lacks] + [intent & ~r]
    return (intent & r, lacks) if all(lacks) else None


# Per family, ``seed(r, full)`` is the state of the one-object path with
# row r (None when no motif of two or more objects starts there) and
# ``step(rows, path, state, r, gap)`` the state once an object with row r
# joins ``path``, or None. ``gap`` False skips the interordinal gap test.
HEREDITARY_STEPS = {
    ScaleFamily.ORDINAL: (lambda r, full: r if r == full else None, _ordinal_step),
    ScaleFamily.INTERORDINAL: (lambda r, full: (r, 0, []), _interordinal_step),
    ScaleFamily.CONTRANOMINAL: (
        lambda r, full: (r, [full & ~r]) if full & ~r else None,
        _contranominal_step,
    ),
}


def fold_oracle(
    context: FormalContext, family: ScaleFamily, walk: list[int], gap: bool = True
) -> bool:
    """True iff the family's step rule folds along ``walk`` (ordinal, interordinal, contranominal).

    A one-object walk is a motif iff its row is full, or for contranominal
    not full: every one-object scale but contranominal has one extent.
    """
    rows, full = context.rows, context.attribute_mask
    if len(walk) == 1:
        return (rows[walk[0]] == full) != (family is ScaleFamily.CONTRANOMINAL)
    seed, step = HEREDITARY_STEPS[family]
    state = seed(rows[walk[0]], full)
    for k in range(1, len(walk)):
        if state is None:
            return False
        state = step(rows, walk[:k], state, rows[walk[k]], gap)
    return state is not None


def hereditary_oracle(context: FormalContext, family: ScaleFamily, lo: int, hi: int) -> list[Motif]:
    """The family's motifs of ``lo..hi`` objects, as a plain depth-first search lists them.

    Singletons first, then every path the step rule accepts, each object
    tried at every node: all objects not on the path for ordinal and
    interordinal walks (an interordinal walk is kept when it starts below
    its end), those above the last member for contranominal sets. Seeds
    and children go in ascending object order.
    """
    rows, full = context.rows, context.attribute_mask
    n = len(rows)
    seed, step = HEREDITARY_STEPS[family]
    sets = family is ScaleFamily.CONTRANOMINAL
    out = [Motif(family, (g,)) for g in range(n) if lo <= 1 <= hi and fold_oracle(context, family, [g])]

    def grow(path, state):
        if len(path) >= max(lo, 2) and (family is not ScaleFamily.INTERORDINAL or path[0] < path[-1]):
            out.append(Motif(family, tuple(path)))
        if len(path) >= hi:
            return
        for x in range(path[-1] + 1 if sets else 0, n):
            if x not in path and (s := step(rows, path, state, rows[x], True)) is not None:
                grow(path + [x], s)

    for g in range(n):
        if (state := seed(rows[g], full)) is not None and hi >= 2:
            grow([g], state)
    return out


def oracle_semiproduct(scales: list[FormalContext]) -> FormalContext:
    """Tupled objects, disjoint-union attributes, componentwise incidence."""
    obj_tuples = list(product(*(range(len(s.objects)) for s in scales)))
    rows = []
    for combo in obj_tuples:
        row = []
        for j, s in enumerate(scales):
            for m in range(len(s.attributes)):
                row.append(1 if s.rows[combo[j]] >> m & 1 else 0)
        rows.append(row)
    objects = ["|".join(str(x + 1) for x in combo) for combo in obj_tuples]
    attributes = [
        f"{j + 1}.{m + 1}"
        for j, s in enumerate(scales)
        for m in range(len(s.attributes))
    ]
    return FormalContext(objects, attributes, rows)


def dimension_oracle(
    context: FormalContext, scales: list[FormalContext], max_d: int
) -> int | None:
    """Least d admitting a full measure into an explicit d-fold semi-product."""
    n = len(context.objects)
    target = frozenset(brute_force_extents(context))
    for d in range(1, max_d + 1):
        for combo in combinations_with_replacement(scales, d):
            semi = oracle_semiproduct(list(combo))
            semi_ext = brute_force_extents(semi)
            for sigma in product(range(len(semi.objects)), repeat=n):
                preimages = frozenset(
                    sum(1 << g for g in range(n) if e >> sigma[g] & 1)
                    for e in semi_ext
                )
                if preimages == target:
                    return d
    return None


def least_cover_oracle(coverages: set[int], target: int, max_d: int) -> int | None:
    """Least d <= ``max_d`` such that d of ``coverages``, repeats allowed, cover ``target``.

    ``coverages`` are per-map sets of irreducibles as ints, such as the
    union of ``dimension._measure_coverages`` over a call's scales; every
    choice of d of them is tried.
    """
    for d in range(1, max_d + 1):
        for combo in combinations_with_replacement(sorted(coverages), d):
            union = 0
            for c in combo:
                union |= c
            if target & ~union == 0:
                return d
    return None


def meet_irreducibles_oracle(context: FormalContext) -> list[int]:
    """Extents other than the top that are not the meet of the extents above them.

    Tests every extent against every other one.
    """
    extents = brute_force_extents(context)
    top = (1 << len(context.objects)) - 1
    out = []
    for e in extents:
        if e == top:
            continue
        meet = top
        for f in extents:
            if f != e and f & e == e:
                meet &= f
        if meet != e:
            out.append(e)
    return sorted(out)


def coverages_oracle(context: FormalContext, scale: FormalContext, irreducibles: int) -> set[int]:
    """Irreducibles reachable per valid map from the context onto ``scale``.

    Enumerates all maps; keeps those whose attribute-extent preimages are
    extents, and records which irreducibles appear among the preimages.
    Sets of extents are ints whose bit ``i`` stands for ``context.extents()[i]``.
    """
    n = len(context.objects)
    ids = {e: i for i, e in enumerate(context.extents())}
    out: set[int] = set()
    for assignment in product(range(len(scale.objects)), repeat=n):
        hit = 0
        for col in scale.cols:
            pre = 0
            for g in range(n):
                if col >> assignment[g] & 1:
                    pre |= 1 << g
            i = ids.get(pre)
            if i is None:
                break
            hit |= 1 << i
        else:
            out.add(hit & irreducibles)
    return out


def greedy_oracle(
    context: FormalContext, motifs: list[Motif], k: int, heuristic: HeuristicKind
) -> list[tuple[Motif, int, int, int]]:
    """Greedy covering from the definitions, one (motif, gain, cumulative, ties) per step.

    A motif covers the smallest extent containing each preimage of a scale
    extent. The score is the gain, divided under the normalized heuristic
    by the scale's extent count; ties go to the smaller family rank, then
    the lexicographically smallest sorted domain.
    """
    extents = brute_force_extents(context)
    rank = list(ScaleFamily)
    pool = sorted(motifs, key=lambda m: (rank.index(m.family), sorted(m.domain)))
    candidates = []
    for m in pool:
        scale_ext = brute_force_extents(oracle_scale(m.family, m.size))
        covers = set()
        for e in scale_ext:
            pre = sum(1 << m.domain[s] for s in range(m.size) if e >> s & 1)
            closed = [f for f in extents if f & pre == pre]
            covers.add(min(closed, key=lambda f: bin(f).count("1")))
        weight = 1 if heuristic is HeuristicKind.STANDARD else len(scale_ext)
        candidates.append((m, frozenset(covers), weight))
    covered: set[int] = set()
    steps = []
    for _ in range(k):
        scored = [
            (Fraction(len(cov - covered), weight), m, cov)
            for m, cov, weight in candidates
            if cov - covered
        ]
        if not scored:
            break
        best = max(score for score, _, _ in scored)
        winners = [(m, cov) for score, m, cov in scored if score == best]
        m, cov = winners[0]
        gain = len(cov - covered)
        covered |= cov
        steps.append((m, gain, len(covered), len(winners)))
    return steps


def ratio_curve_oracle(
    realized: list[tuple[ScaleFamily, ...]],
) -> list[dict[ScaleFamily, Fraction]]:
    """Family ratios after each prefix of greedy steps, recounted from scratch.

    ``realized`` holds the families each step realizes. Over the first i
    steps, a step realizing q families gives each of them 1/(q * i).
    """
    curve = []
    for i in range(1, len(realized) + 1):
        ratios = dict.fromkeys(ScaleFamily, Fraction(0))
        for families in realized[:i]:
            for f in families:
                ratios[f] += Fraction(1, len(families) * i)
        curve.append(ratios)
    return curve


def basis_oracle(
    context: FormalContext, motifs: list[Motif]
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Basis attribute labels and object rows from the definition.

    Motif number j contributes the attribute columns of its standard scale
    in ``build_scale`` order, then the scale's other extents by ascending
    mask, labelled ``j:*1``, ``j:*2``, ... Each column holds the smallest
    extent containing the preimage of its scale extent under the witness.
    """
    extents = brute_force_extents(context)
    labels: list[str] = []
    columns: list[int] = []
    for number, m in enumerate(motifs, start=1):
        scale = build_scale(m.family, m.size)
        extras = sorted(brute_force_extents(scale) - set(scale.cols))
        labels.extend(f"{number}:{label}" for label in scale.attributes)
        labels.extend(f"{number}:*{j}" for j in range(1, len(extras) + 1))
        class_masks = [1 << g for g in m.domain]
        for e in list(scale.cols) + extras:
            pre = preimage(class_masks, e)
            closed = [f for f in extents if f & pre == pre]
            columns.append(min(closed, key=lambda f: bin(f).count("1")))
    rows = tuple(
        sum(1 << j for j, col in enumerate(columns) if col >> g & 1)
        for g in range(len(context.objects))
    )
    return tuple(labels), rows
