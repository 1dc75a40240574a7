import time
from random import Random

import pytest

from ordmotif import (
    FormalContext,
    ScaleFamily,
    build_scale,
    scaling_dimension,
)
from ordmotif import dimension
from ordmotif.context import clarify_objects
from ordmotif.dimension import meet_irreducible_extents
from ordmotif.scales import FAMILY_MIN_SIZE

from oracles import (
    coverages_oracle,
    cycle_order_oracle,
    dimension_oracle,
    full_row_context,
    least_cover_oracle,
    meet_irreducibles_oracle,
    random_context,
    with_shared_column,
)

B3 = build_scale(ScaleFamily.CONTRANOMINAL, 3)
N3 = build_scale(ScaleFamily.NOMINAL, 3)
I3 = build_scale(ScaleFamily.INTERORDINAL, 3)
O2 = build_scale(ScaleFamily.ORDINAL, 2)
N2 = build_scale(ScaleFamily.NOMINAL, 2)
O3 = build_scale(ScaleFamily.ORDINAL, 3)


def test_meet_irreducibles_of_boolean_cube():
    # the two-element extents; everything below them is an intersection
    assert meet_irreducible_extents(B3) == [0b011, 0b101, 0b110]


def test_meet_irreducibles_of_chain():
    assert meet_irreducible_extents(O3) == [0b001, 0b011]


def test_meet_irreducibles_exclude_top():
    one = FormalContext.from_rows(["g"], ["m"], (0b1,))
    assert meet_irreducible_extents(one) == []


def test_meet_irreducibles_match_the_all_extents_oracle():
    # A full column is the top extent; a repeated column adds no extent.
    rng = Random(131)
    for _ in range(400):
        ctx = random_context(rng, rng.randint(0, 7), rng.randint(0, 7), rng.uniform(0.2, 0.8))
        variants = [ctx, with_shared_column(ctx)]
        if ctx.attributes:
            m = rng.randrange(len(ctx.attributes))
            rows = [r | (r >> m & 1) << len(ctx.attributes) for r in ctx.rows]
            attributes = (*ctx.attributes, "copy")
            variants.append(FormalContext.from_rows(ctx.objects, attributes, rows))
        for c in variants:
            assert meet_irreducible_extents(c) == meet_irreducibles_oracle(c)


def test_boolean_cube_needs_three_chains():
    assert scaling_dimension(B3, [O2]) == 3
    assert scaling_dimension(B3, [O2], max_d=2) is None


def test_interval_scale_needs_two_chains():
    assert scaling_dimension(I3, [O3]) == 2
    assert scaling_dimension(I3, [O3], max_d=1) is None


def test_three_classes_need_three_cuts():
    assert scaling_dimension(N3, [O2]) == 3


def test_every_context_measures_itself():
    for scale in (B3, N3, I3, O3):
        assert scaling_dimension(scale, [scale]) == 1


def test_enlarging_the_scale_family_never_hurts():
    assert scaling_dimension(B3, [O2, B3]) == 1


def test_trivial_scale_reaches_nothing():
    one = build_scale(ScaleFamily.ORDINAL, 1)
    assert scaling_dimension(B3, [one]) is None


def test_bounds_are_enforced(monkeypatch):
    big = FormalContext.from_rows([f"g{i}" for i in range(9)], ["m"], (1,) * 9)
    with pytest.raises(ValueError):
        scaling_dimension(big, [O2])
    with pytest.raises(ValueError):
        scaling_dimension(B3, [O2], max_d=0)
    with pytest.raises(ValueError):
        scaling_dimension(B3, [O2], max_d=5)
    with pytest.raises(ValueError):
        scaling_dimension(B3, [])
    # nominal:40 is walked as nominal 8, |G| + 2, and the empty set is no
    # extent, so no partition into fewer than 40 blocks is a measure.
    six = FormalContext.from_rows([f"g{i}" for i in range(6)], ["m"], (1,) * 6)
    assert scaling_dimension(six, [build_scale(ScaleFamily.NOMINAL, 40)]) is None
    # Every set is an extent of contranominal 7, so the crown walk drops
    # no block for failing to be one.
    monkeypatch.setattr(dimension, "MAX_COLUMN_SCANS", 10_000)
    b7 = build_scale(ScaleFamily.CONTRANOMINAL, 7)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="the cap is 10000 column scans"):
        scaling_dimension(b7, [build_scale(ScaleFamily.CROWN, 7)])
    # The interordinal scale is recognized as such, so it is walked, not searched.
    assert scaling_dimension(b7, [build_scale(ScaleFamily.INTERORDINAL, 7)]) == 4
    assert time.perf_counter() - start < 1


def _irreducible_bits(context):
    # The meet-irreducible extents as one int over ``intent_ids()``.
    ids = context.intent_ids()
    target = 0
    for e in meet_irreducible_extents(context):
        target |= 1 << ids[context.derive_objects(e)]
    return target


def _walk(context, scale, target, spent):
    # The maximal coverage sets of the walk the scale's family takes.
    return set(dimension._coverages(context, *dimension._shape(scale), target, spent))


def _column_scans(context, scale):
    spent = [0]
    _walk(context, scale, _irreducible_bits(context), spent)
    return spent[0]


def test_one_column_scan_count_spans_every_scale(monkeypatch):
    # O3 is walked over chains and N3 over partitions, on one count.
    first, second = _column_scans(B3, O3), _column_scans(B3, N3)
    assert first > 0 and second > 0
    monkeypatch.setattr(dimension, "MAX_COLUMN_SCANS", first + second)
    assert scaling_dimension(B3, [O3, N3]) == 3
    monkeypatch.setattr(dimension, "MAX_COLUMN_SCANS", first + second - 1)
    assert scaling_dimension(B3, [O3], max_d=4) == 3
    with pytest.raises(ValueError, match="column scans"):
        scaling_dimension(B3, [O3, N3])


def test_agrees_with_explicit_semiproduct_search():
    rng = Random(127)
    pools = [[O2, build_scale(ScaleFamily.NOMINAL, 2)], [O3]]
    for trial in range(25):
        ctx = random_context(
            rng, rng.randint(2, 4), rng.randint(2, 4), rng.uniform(0.3, 0.7)
        )
        scales = pools[trial % len(pools)]
        assert scaling_dimension(ctx, scales, max_d=2) == dimension_oracle(
            ctx, scales, 2
        )


def test_no_map_is_a_measure_when_the_empty_set_is_no_extent():
    # The one object holds every attribute, so the empty set is no extent:
    # every map onto nominal:2 leaves one scale column's preimage empty.
    full = FormalContext.from_rows(["g"], ["m", "n"], (0b11,))
    assert scaling_dimension(full, [N2]) is None
    assert scaling_dimension(full, [O2]) == 1


def _family_scales(sizes):
    return [
        build_scale(family, n)
        for family in ScaleFamily
        for n in sizes
        if n >= FAMILY_MIN_SIZE[family]
    ]


SMALL_SCALES = _family_scales(range(1, 4))
RANDOM_SCALES = _family_scales(range(1, 5))


def _maximal(sets):
    return {s for s in sets if not any(s != t and s & t == s for t in sets)}


CHAINS = (ScaleFamily.ORDINAL, ScaleFamily.INTERORDINAL)


def _assert_same_coverages(context, scale, every_extent=True):
    # The walk keeps the maximal coverage sets of every measure. On a
    # scale with only its family's columns, every extent may count, and
    # the sets compare the whole preimage families. A chain walk reads
    # only the irreducibles off its chains, and a redundant column adds
    # only preimages that are no irreducibles.
    targets = [_irreducible_bits(context)]
    if every_extent and dimension._shape(scale)[0] not in CHAINS:
        targets.append((1 << len(context.extents())) - 1)
    for target in targets:
        assert _walk(context, scale, target, [0]) == _maximal(
            coverages_oracle(context, scale, target)
        ), (context, scale, target)


def _relabeled(rng, scale):
    # The same scale with its objects and its columns shuffled.
    n, m = len(scale.rows), len(scale.attributes)
    objects, columns = rng.sample(range(n), n), rng.sample(range(m), m)
    return FormalContext.from_rows(
        [scale.objects[g] for g in objects],
        [scale.attributes[j] for j in columns],
        [sum((scale.rows[g] >> c & 1) << j for j, c in enumerate(columns)) for g in objects],
    )


def test_pruned_map_search_matches_the_exhaustive_one_on_scales():
    for context in _family_scales(range(1, 6)):
        for scale in (*SMALL_SCALES, context):
            _assert_same_coverages(context, scale)


def test_pruned_map_search_matches_the_exhaustive_one_on_random_contexts():
    rng = Random(4099)
    for _ in range(320):
        raw = random_context(rng, rng.randint(0, 6), rng.randint(1, 6), rng.uniform(0.2, 0.8))
        context, _ = clarify_objects(raw)
        _assert_same_coverages(context, rng.choice(RANDOM_SCALES))


def test_a_scale_no_standard_family_fits_is_refused():
    # Random scales, and the twin scale whose objects b and c swap, are
    # often no standard scale up to labels, repeated objects and
    # redundant columns: those are refused, and the others walked.
    rng = Random(2753)
    twins = FormalContext.from_rows(["a", "b", "c"], ["p", "q", "r"], (0b111, 0b010, 0b100))
    assert dimension._shape(twins) is None
    with pytest.raises(ValueError, match="scale 2 is no standard scale"):
        scaling_dimension(B3, [O2, twins])
    refused = 0
    for _ in range(300):
        raw = random_context(rng, rng.randint(0, 5), rng.randint(1, 5), rng.uniform(0.2, 0.8))
        context, _ = clarify_objects(raw)
        scale = random_context(rng, rng.randint(1, 4), rng.randint(1, 4), rng.uniform(0.2, 0.8))
        if dimension._shape(scale) is None:
            refused += 1
            with pytest.raises(ValueError, match="scale 1 is no standard scale"):
                scaling_dimension(context, [scale])
        else:
            _assert_same_coverages(context, scale, every_extent=False)
    assert 50 < refused < 250, refused


def test_pruned_map_search_matches_the_exhaustive_one_without_an_empty_extent():
    rng = Random(8191)
    for _ in range(60):
        context = full_row_context(rng, rng.randint(1, 6))
        assert context.object_closure(0) != 0
        _assert_same_coverages(context, rng.choice(SMALL_SCALES))


def test_largest_admitted_scales_measure_themselves_with_pruning():
    # 8**8 maps per scale: the exhaustive search took 19-47 s per scale.
    # The walks over extents make 247 to 10,448 column scans per scale.
    start = time.perf_counter()
    for family in (ScaleFamily.ORDINAL, ScaleFamily.CROWN, ScaleFamily.INTERORDINAL):
        scale = build_scale(family, 8)
        assert scaling_dimension(scale, [scale]) == 1, family
        scans = _column_scans(scale, scale)
        assert scans < 8**7, (family, scans)
    # Only a runaway search comes near this; the pruned one takes under 1 s.
    assert time.perf_counter() - start < 60


def test_nominal_8_measures_itself_below_the_column_scan_cap():
    # A measure is a partition grown block by block from the least object
    # left, so each partition is grown once. A search over maps took about
    # 4.4M column scans on nominal 8 and passed the 2**23 cap on
    # contranominal 8, in which every set is an extent.
    n8 = build_scale(ScaleFamily.NOMINAL, 8)
    b8 = build_scale(ScaleFamily.CONTRANOMINAL, 8)
    assert scaling_dimension(n8, [n8]) == 1
    assert scaling_dimension(b8, [b8]) == 1
    assert _column_scans(n8, n8) <= 1_000
    assert _column_scans(b8, b8) < 100_000
    # Exactly, also on a shuffled copy of the scale: the walk reads only
    # the family and the size.
    rng = Random(23)
    for scale in (n8, _relabeled(rng, n8)):
        assert _column_scans(n8, scale) == 88
    for scale in (b8, _relabeled(rng, b8)):
        assert _column_scans(b8, scale) == 63_736


def _coverage_sets(context, scales):
    # The irreducibles as one int, and the walks' coverage sets of them.
    target = _irreducible_bits(context)
    coverages = set()
    for scale in scales:
        coverages |= _walk(context, scale, target, [0])
    return coverages, target


def _searched_dimension(context, scales, max_d):
    # The least cover of the irreducibles by the walks' coverage sets.
    coverages, target = _coverage_sets(context, scales)
    return least_cover_oracle(coverages, target, max_d)


def test_exact_cover_matches_the_least_cover_oracle_on_planted_measures():
    # Each context is the columns of 1-3 random maps onto non-chain scales,
    # so the walks run and many answers are 2 to 4. The exact cover
    # must find the least cover over the same coverage sets, also where d
    # sets of the largest size hold exactly as many irreducibles as there are.
    rng = Random(3)
    families = [f for f in ScaleFamily if f is not ScaleFamily.ORDINAL]
    answers = set()
    tight = 0
    for _ in range(300):
        n = rng.randint(5, 7)
        rows = [0] * n
        width = 0
        scales = []
        for _ in range(rng.randint(1, 3)):
            scale = build_scale(rng.choice(families), rng.randint(3, 4))
            scales.append(scale)
            for g in range(n):
                rows[g] |= scale.rows[rng.randrange(len(scale.rows))] << width
            width += len(scale.attributes)
        ctx = FormalContext.from_rows(
            [f"g{i}" for i in range(n)], [f"m{j}" for j in range(width)], rows
        )
        scales = scales[: rng.randint(1, len(scales))]
        max_d = rng.randint(1, 4)
        coverages, target = _coverage_sets(ctx, scales)
        got = scaling_dimension(ctx, scales, max_d)
        assert got == least_cover_oracle(coverages, target, max_d), (ctx, scales, max_d)
        answers.add(got)
        if got is not None and got > 1:
            tight += got * max(map(int.bit_count, coverages)) == target.bit_count()
    assert {None, 1, 2, 3, 4} <= answers
    assert tight >= 5, tight


def _takes_width_path(context, scales):
    height, _ = dimension._height_and_width(meet_irreducible_extents(context))
    return height < max(dimension._shape(s)[1] for s in scales)


def test_chain_capacity_counts_the_proper_columns():
    # The classifier names the family and the size; a chain scale of n
    # objects has capacity n - 1.
    O, I, N, C, K = (
        ScaleFamily.ORDINAL,
        ScaleFamily.INTERORDINAL,
        ScaleFamily.NOMINAL,
        ScaleFamily.CONTRANOMINAL,
        ScaleFamily.CROWN,
    )
    for n in range(1, 7):
        assert dimension._shape(build_scale(O, n)) == (O, n)
    # One column, the full object set, is an ordinal scale of one object.
    assert dimension._shape(build_scale(N, 1)) == (O, 1)
    assert dimension._shape(build_scale(I, 1)) == (O, 1)
    # An empty row is contranominal 1: its one column pulls back to the empty set.
    assert dimension._shape(build_scale(C, 1)) == (C, 1)
    # Two columns that do not nest but complement each other: C = {{1}}.
    for family in (N, I, C):
        assert dimension._shape(build_scale(family, 2)) == (I, 2), family
    for n in range(3, 7):
        for family in (I, N, C):
            assert dimension._shape(build_scale(family, n)) == (family, n), (family, n)
        # The 3-crown is contranominal 3.
        assert dimension._shape(build_scale(K, n)) == (K if n > 3 else C, n)
    # A duplicated object adds no extent: the scale is clarified first.
    for family in (O, I, N, C, K):
        s4 = build_scale(family, 4)
        twice = FormalContext.from_rows((*s4.objects, "2'"), s4.attributes, (*s4.rows, s4.rows[1]))
        assert dimension._shape(twice) == (family, 4), family
    # A chain {a} < {a, b} and as many other columns, {b} and {b, c}, but
    # {c} = T minus {a, b} is no column.
    lopsided = FormalContext.from_rows(
        ["a", "b", "c"], ["p", "q", "r", "s"], (0b0011, 0b1110, 0b1000)
    )
    assert dimension._shape(lopsided) is None
    # Repeated columns count once.
    doubled = FormalContext.from_rows(["a", "b"], ["p", "q", "r"], (0b111, 0b100))
    assert dimension._shape(doubled) == (O, 2)
    # No objects means no map at all, even with no columns.
    assert dimension._shape(FormalContext.from_rows([], [], [])) is None


def test_height_and_width_of_small_posets():
    assert dimension._height_and_width([]) == (0, 0)
    assert dimension._height_and_width([0b1, 0b11, 0b111]) == (3, 1)
    assert dimension._height_and_width([0b011, 0b101, 0b110]) == (1, 3)
    # The three pairs are an antichain; each singleton lies below two of them.
    assert dimension._height_and_width([0b001, 0b011, 0b100, 0b110, 0b101]) == (2, 3)


def test_chain_scales_agree_with_the_explicit_semiproduct_search():
    rng = Random(6151)
    sides = set()
    for _ in range(60):
        k = rng.randint(1, 5)
        n = rng.randint(2, 4 if k <= 3 else 3)
        ctx = random_context(rng, n, rng.randint(1, 4), rng.uniform(0.2, 0.8))
        scales = [build_scale(ScaleFamily.ORDINAL, k)]
        sides.add(_takes_width_path(ctx, scales))
        assert scaling_dimension(ctx, scales, max_d=2) == dimension_oracle(ctx, scales, 2), (
            ctx,
            k,
        )
    assert sides == {True, False}


def test_chain_scales_agree_with_the_map_search():
    rng = Random(7001)
    sides = set()
    for trial in range(300):
        n = rng.randint(0, 6)
        if trial % 3 == 0 and n:
            ctx = full_row_context(rng, n)
        else:
            ctx = random_context(rng, n, rng.randint(0, 6), rng.uniform(0.2, 0.8))
        scales = [
            build_scale(ScaleFamily.ORDINAL, rng.randint(1, 6))
            for _ in range(rng.randint(1, 2))
        ]
        max_d = rng.randint(1, 4)
        sides.add(_takes_width_path(ctx, scales))
        assert scaling_dimension(ctx, scales, max_d) == _searched_dimension(ctx, scales, max_d), (
            ctx,
            scales,
            max_d,
        )
    assert sides == {True, False}


def test_width_path_cases():
    rng = Random(17)
    o5 = build_scale(ScaleFamily.ORDINAL, 5)
    # The empty set is no extent, yet every chain of extents is realized.
    for _ in range(20):
        ctx = full_row_context(rng, rng.randint(2, 6))
        assert ctx.object_closure(0) != 0
        assert scaling_dimension(ctx, [o5]) == _searched_dimension(ctx, [o5], 4)
    # One extent: no irreducible to cover, and one map suffices.
    same = FormalContext.from_rows(["a", "b", "c"], ["m"], (1, 1, 1))
    for scale in (build_scale(ScaleFamily.ORDINAL, 1), O3):
        assert scaling_dimension(same, [scale]) == 1
    # Five pairwise incomparable singletons need five chains.
    n5 = build_scale(ScaleFamily.NOMINAL, 5)
    assert scaling_dimension(n5, [O3]) is None
    assert _searched_dimension(n5, [O3], 4) is None
    # The longest chain decides the capacity, the shortest scale is not needed.
    assert scaling_dimension(o5, [O2, o5]) == 1
    assert scaling_dimension(I3, [O2, o5]) == 2
    assert scaling_dimension(I3, [O2]) == _searched_dimension(I3, [O2], 4)


def test_a_scale_that_is_no_chain_takes_the_map_search(monkeypatch):
    # A scale that is no chain scale takes its own family's walk.
    calls = []
    walk = dimension._partition_coverages

    def counted(context, n, complemented, irreducibles, spent):
        calls.append((n, complemented))
        return walk(context, n, complemented, irreducibles, spent)

    monkeypatch.setattr(dimension, "_partition_coverages", counted)
    assert scaling_dimension(O3, [O3]) == 1
    assert calls == []
    # O3 is walked over chains, so only N3 is walked over partitions.
    assert scaling_dimension(O3, [O3, N3]) == 1
    assert calls == [(3, False)]
    assert scaling_dimension(I3, [O2, N3]) == _searched_dimension(I3, [O2, N3], 4)
    calls.clear()
    # Chain scales of capacities 1 and 4: the larger one decides.
    assert scaling_dimension(I3, [O2, build_scale(ScaleFamily.ORDINAL, 5)]) == 2
    assert calls == []
    searched = _searched_dimension(I3, [B3], 4)
    calls.clear()
    assert scaling_dimension(I3, [B3]) == searched
    assert calls == [(3, True)]


CHAIN_SCALES = [
    *(build_scale(ScaleFamily.INTERORDINAL, n) for n in range(1, 7)),
    *(build_scale(ScaleFamily.ORDINAL, n) for n in range(1, 7)),
    N2,
]


def test_chain_walk_finds_the_maximal_sets_of_the_map_search():
    # The walk reads the coverage sets off the extents; the oracle tries
    # every map, so only scales with |S|**|G| <= 4,096 are compared. A
    # third of the contexts have a full row, so the empty set is no
    # extent and no interordinal scale has any measure.
    rng = Random(9973)
    seen = set()
    for trial in range(300):
        n = rng.randint(0, 6)
        if trial % 3 == 0 and n:
            ctx = full_row_context(rng, n)
        else:
            ctx = random_context(rng, n, rng.randint(0, 6), rng.uniform(0.2, 0.8))
        target = _irreducible_bits(ctx)
        for scale in CHAIN_SCALES:
            if len(scale.rows) ** n > 4_096:
                continue
            walked = _walk(ctx, scale, target, [0])
            assert walked == _maximal(coverages_oracle(ctx, scale, target)), (ctx, scale)
            seen.add(min(len(walked), 2) if walked != {0} else "empty")
    # No measure, only the empty coverage, one set and several sets.
    assert seen == {0, "empty", 1, 2}


def _oracle_dimension(context, scales, max_d):
    # The least cover of the irreducibles by the coverage sets of all maps.
    target = _irreducible_bits(context)
    coverages = set()
    for scale in scales:
        coverages |= coverages_oracle(context, scale, target)
    return least_cover_oracle(coverages, target, max_d)


def test_a_relabeled_interordinal_scale_gets_the_map_search_answer():
    # Objects and columns shuffled: recognition reads sets, not order.
    # One more column, {2} = "<=2" and ">=2": the same extents, so the
    # same interordinal scale, walked like the others.
    rng = Random(401)
    i4 = build_scale(ScaleFamily.INTERORDINAL, 4)
    order = [2, 0, 3, 1]
    columns = rng.sample(list(i4.cols), len(i4.cols))
    relabeled = FormalContext.from_rows(
        ["c", "a", "d", "b"],
        [f"m{j}" for j in range(len(columns))],
        [sum((c >> g & 1) << j for j, c in enumerate(columns)) for g in order],
    )
    padded = FormalContext.from_rows(
        i4.objects, (*i4.attributes, "=2"), [r | (g == 1) << 8 for g, r in enumerate(i4.rows)]
    )
    assert dimension._shape(relabeled) == (ScaleFamily.INTERORDINAL, 4)
    assert dimension._shape(padded) == (ScaleFamily.INTERORDINAL, 4)
    for trial in range(40):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 6), rng.uniform(0.2, 0.8))
        max_d = rng.randint(1, 4)
        searched = _oracle_dimension(ctx, [i4], max_d)
        for scale in (i4, relabeled, padded):
            assert scaling_dimension(ctx, [scale], max_d) == searched, (ctx, scale, max_d)


def test_interordinal_dimension_of_contranominal_scales():
    # Every set is an extent, so every chain of atoms and co-atoms is a
    # measure's; each reaches at most two co-atoms, one of them through
    # an atom's complement.
    for n, d in ((4, 2), (5, 3), (6, 3)):
        b = build_scale(ScaleFamily.CONTRANOMINAL, n)
        i = build_scale(ScaleFamily.INTERORDINAL, n)
        target = _irreducible_bits(b)
        assert least_cover_oracle(coverages_oracle(b, i, target), target, 4) == d
        assert scaling_dimension(b, [i]) == d


def test_an_interordinal_scale_with_a_redundant_column_is_walked():
    # "=2" is the meet of "<=2" and ">=2", so interordinal 8 keeps its
    # extents, and contranominal 8 gets the interordinal answer from the
    # walk; searched by maps it stopped at the column-scan cap.
    i8 = build_scale(ScaleFamily.INTERORDINAL, 8)
    padded = FormalContext.from_rows(
        i8.objects, (*i8.attributes, "=2"), [r | (g == 1) << 16 for g, r in enumerate(i8.rows)]
    )
    start = time.perf_counter()
    assert scaling_dimension(build_scale(ScaleFamily.CONTRANOMINAL, 8), [padded]) == 4
    assert time.perf_counter() - start < 1


def test_the_walk_counts_against_the_column_scan_cap(monkeypatch):
    i8 = build_scale(ScaleFamily.INTERORDINAL, 8)
    walk = _column_scans(i8, i8)
    monkeypatch.setattr(dimension, "MAX_COLUMN_SCANS", 5)
    with pytest.raises(ValueError, match="the cap is 5 column scans"):
        scaling_dimension(i8, [i8])
    monkeypatch.setattr(dimension, "MAX_COLUMN_SCANS", walk)
    assert scaling_dimension(i8, [i8]) == 1
    monkeypatch.setattr(dimension, "MAX_COLUMN_SCANS", walk - 1)
    with pytest.raises(ValueError, match="column scans"):
        scaling_dimension(i8, [i8])


def test_cycle_shape_reads_the_order_of_any_crown():
    # The classifier asks recognize, which reads sets, not labels: every
    # relabeled crown is a crown of as many objects, and the 3-crown is
    # contranominal 3.
    rng = Random(881)
    for n in range(3, 9):
        crown = build_scale(ScaleFamily.CROWN, n)
        shape = (ScaleFamily.CROWN, n) if n > 3 else (ScaleFamily.CONTRANOMINAL, 3)
        assert dimension._shape(crown) == shape
        for _ in range(5):
            relabeled = _relabeled(rng, crown)
            assert dimension._shape(relabeled) == shape, relabeled
    # Two disjoint triangles: every object has two neighbours, but the
    # pairs form two cycles, not one.
    triangles = [0b000011, 0b000110, 0b000101, 0b011000, 0b110000, 0b101000]
    two = FormalContext.from_rows(
        [f"g{i}" for i in range(6)],
        [f"m{j}" for j in range(6)],
        [sum((c >> g & 1) << j for j, c in enumerate(triangles)) for g in range(6)],
    )
    assert dimension._shape(two) is None
    # One more column, a chord of the 5-crown: two objects get three neighbours.
    c5 = build_scale(ScaleFamily.CROWN, 5)
    chord = FormalContext.from_rows(
        c5.objects, (*c5.attributes, "13"), [r | (g in (0, 2)) << 5 for g, r in enumerate(c5.rows)]
    )
    assert dimension._shape(chord) is None
    # A repeated column is the same pair.
    doubled = FormalContext.from_rows(
        c5.objects, (*c5.attributes, "1'"), [r | (r & 1) << 5 for r in c5.rows]
    )
    assert dimension._shape(doubled) == (ScaleFamily.CROWN, 5)
    for family in (ScaleFamily.NOMINAL, ScaleFamily.ORDINAL, ScaleFamily.INTERORDINAL):
        assert dimension._shape(build_scale(family, 4)) == (family, 4)


def test_cycle_shape_on_random_pair_column_scales():
    # Random pairs, some scales with two objects whose only column is their
    # own pair (so equal rows), and relabeled crowns with a repeated column.
    # The classifier answers crown n exactly where the pairs form one
    # cycle through all n >= 4 objects, and the 3-cycle is contranominal 3.
    # Repeated rows are clarified and never raise UnclarifiedObjectsError.
    rng = Random(4099)
    shaped = repeated = 0
    for trial in range(3000):
        n = rng.randint(1, 8)
        pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 10))] if n >= 2 else []
        if trial % 3 == 1 and n >= 4:
            u, v = rng.sample(range(n), 2)
            pairs = [p for p in pairs if u not in p and v not in p] + [[u, v]]
        if trial % 3 == 2 and n >= 3:
            labels = rng.sample(range(n), n)
            pairs = [[labels[g], labels[(g + 1) % n]] for g in range(n)]
            pairs += pairs[: rng.randint(0, 1)]
            rng.shuffle(pairs)
        cols = [1 << a | 1 << b for a, b in pairs]
        scale = FormalContext.from_rows(
            [f"g{g}" for g in range(n)],
            [f"m{j}" for j in range(len(cols))],
            [sum((c >> g & 1) << j for j, c in enumerate(cols)) for g in range(n)],
        )
        shape = dimension._shape(scale)
        if cycle_order_oracle(scale) is None:
            assert shape is None or shape[0] is not ScaleFamily.CROWN, (n, pairs)
        else:
            cycle = (ScaleFamily.CROWN, n) if n > 3 else (ScaleFamily.CONTRANOMINAL, 3)
            assert shape == cycle, (n, pairs)
        if trial % 3 == 2 and n >= 3:
            assert shape is not None
        repeated += len(set(scale.rows)) < n
        shaped += shape is not None and shape[0] is ScaleFamily.CROWN
    assert shaped > 500 and repeated > 300


def test_orbit_rule_matches_the_exhaustive_search_on_relabeled_scales():
    # Crowns, nominal and contranominal scales are walked by the family
    # the classifier finds, also shuffled; the oracle tries all |S|**|G|
    # maps, so |G| stays small.
    rng = Random(6007)
    scales = [
        *(build_scale(ScaleFamily.CROWN, n) for n in range(3, 8)),
        *(build_scale(f, n) for f in (ScaleFamily.NOMINAL, ScaleFamily.CONTRANOMINAL) for n in range(3, 7)),
    ]
    for trial in range(300):
        scale = rng.choice(scales)
        if trial % 2:
            scale = _relabeled(rng, scale)
        n = rng.randint(1, 6)
        while len(scale.rows) ** n > 20_000:
            n -= 1
        if trial % 5 == 0:
            context = full_row_context(rng, n)
        else:
            raw = random_context(rng, n, rng.randint(1, 6), rng.uniform(0.2, 0.8))
            context, _ = clarify_objects(raw)
        _assert_same_coverages(context, scale)


WALKED = {
    ScaleFamily.NOMINAL: range(3, 8),
    ScaleFamily.CONTRANOMINAL: range(3, 8),
    ScaleFamily.CROWN: range(4, 8),
}


def test_the_walks_find_the_maximal_coverage_sets_of_all_maps():
    # Nominal and contranominal 3-7 and crowns 4-7, and sizes above each
    # family's cap, where the walk runs at the cap: on random contexts,
    # contexts with a full row (no empty extent) and relabeled standard
    # scales, with irreducible and all-extent targets. The oracle tries
    # all |S|**|G| <= 30,000 maps.
    rng = Random(6211)
    kinds = set()
    for trial in range(400):
        family = rng.choice(list(WALKED))
        beyond = trial % 2 == 1
        g = rng.randint(0, 6)
        while True:
            cap = dimension._walked_size(family, g)
            n = cap + rng.randint(1, 3) if beyond else rng.choice(WALKED[family])
            if n**g <= 30_000:
                break
            g -= 1
        kind = trial % 3 if g >= 3 else trial % 2
        if kind == 0:
            raw = random_context(rng, g, rng.randint(1, 6), rng.uniform(0.2, 0.8))
            context, _ = clarify_objects(raw)
        elif kind == 1:
            context = full_row_context(rng, g) if g else FormalContext.from_rows([], ["m"], [])
        else:
            shapes = [f for f in ScaleFamily if g >= FAMILY_MIN_SIZE[f]]
            context = _relabeled(rng, build_scale(rng.choice(shapes), g))
        kinds.add((kind, beyond))
        _assert_same_coverages(context, build_scale(family, n))
    assert len(kinds) == 6, kinds
