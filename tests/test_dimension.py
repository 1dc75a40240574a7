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
    # 40**6 maps if none were dropped, but the empty set is no extent, so
    # every map leaves some scale column's preimage empty and dies early.
    six = FormalContext.from_rows([f"g{i}" for i in range(6)], ["m"], (1,) * 6)
    assert scaling_dimension(six, [build_scale(ScaleFamily.NOMINAL, 40)]) is None
    # Every set is an extent of contranominal 7, so nothing is dropped.
    monkeypatch.setattr(dimension, "MAX_COLUMN_SCANS", 10_000)
    b7 = build_scale(ScaleFamily.CONTRANOMINAL, 7)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="the cap is 10000 column scans"):
        scaling_dimension(b7, [build_scale(ScaleFamily.CROWN, 7)])
    # The interordinal scale is recognized as such, so it is walked, not searched.
    assert scaling_dimension(b7, [build_scale(ScaleFamily.INTERORDINAL, 7)]) == 4
    assert time.perf_counter() - start < 1


def _column_scans(context, scale):
    spent = [0]
    dimension._measure_coverages(context, scale, 0, spent)
    return spent[0]


def _irreducible_bits(context):
    # The meet-irreducible extents as one int over ``intent_ids()``.
    ids = context.intent_ids()
    target = 0
    for e in meet_irreducible_extents(context):
        target |= 1 << ids[context.derive_objects(e)]
    return target


def _walk_scans(context, scale):
    spent = [0]
    shape = dimension._chain_shape(scale)
    dimension._chain_coverages(context, *shape, _irreducible_bits(context), spent)
    return spent[0]


def test_one_column_scan_count_spans_every_scale(monkeypatch):
    # O3 is walked over extents and N3 searched by maps, on one count.
    first, second = _walk_scans(B3, O3), _column_scans(B3, N3)
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


def _assert_same_coverages(context, scale):
    # Every extent counts, so the sets compare the whole preimage families.
    everything = (1 << len(context.extents())) - 1
    assert dimension._measure_coverages(context, scale, everything, [0]) == coverages_oracle(
        context, scale, everything
    ), (context, scale)


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


def test_pruned_map_search_matches_the_exhaustive_one_on_random_scales():
    # Random scales, and the twin scale whose objects b and c swap, are
    # rarely crowns, nominal or contranominal scales, so they take the
    # plain search.
    rng = Random(2753)
    twins = FormalContext.from_rows(["a", "b", "c"], ["p", "q", "r"], (0b111, 0b010, 0b100))
    for _ in range(300):
        raw = random_context(rng, rng.randint(0, 5), rng.randint(1, 5), rng.uniform(0.2, 0.8))
        context, _ = clarify_objects(raw)
        scale = random_context(rng, rng.randint(1, 4), rng.randint(1, 4), rng.uniform(0.2, 0.8))
        _assert_same_coverages(context, scale)
        _assert_same_coverages(context, twins)


def test_pruned_map_search_matches_the_exhaustive_one_without_an_empty_extent():
    rng = Random(8191)
    for _ in range(60):
        context = full_row_context(rng, rng.randint(1, 6))
        assert context.object_closure(0) != 0
        _assert_same_coverages(context, rng.choice(SMALL_SCALES))


def test_largest_admitted_scales_measure_themselves_with_pruning():
    # 8**8 maps per scale: the exhaustive search took 19-47 s per scale. A
    # search that tested preimages only on complete maps would grow all
    # 8**7 partial maps of seven objects, each costing |S| * |M_S| >= 64
    # column scans; the pruned one makes 0.02-1.7M scans per scale.
    start = time.perf_counter()
    for family in (ScaleFamily.ORDINAL, ScaleFamily.CROWN, ScaleFamily.INTERORDINAL):
        scale = build_scale(family, 8)
        assert scaling_dimension(scale, [scale]) == 1, family
        scans = _column_scans(scale, scale)
        assert scans < 8**7, (family, scans)
    # Only a runaway search comes near this; the pruned one takes under 1 s.
    assert time.perf_counter() - start < 60


def test_nominal_8_measures_itself_below_the_column_scan_cap():
    # Every two objects of these scales are interchangeable, so each grown
    # map tries the used objects and one unused one. Without that, nominal 8
    # took about 4.4M column scans and contranominal 8, which drops no
    # partial map, passed the 2**23 cap.
    n8 = build_scale(ScaleFamily.NOMINAL, 8)
    b8 = build_scale(ScaleFamily.CONTRANOMINAL, 8)
    assert scaling_dimension(n8, [n8]) == 1
    assert scaling_dimension(b8, [b8]) == 1
    assert _column_scans(n8, n8) <= 1_000
    assert _column_scans(b8, b8) < 100_000
    # Exactly: the used objects and the least unused one, also on a
    # shuffled copy of the scale.
    rng = Random(23)
    for scale in (n8, _relabeled(rng, n8)):
        assert _column_scans(n8, scale) == 896
    for scale in (b8, _relabeled(rng, b8)):
        assert _column_scans(b8, scale) == 73_984


def _coverage_sets(context, scales):
    # The irreducibles as one int, and the map search's coverage sets of them.
    target = _irreducible_bits(context)
    coverages = set()
    for scale in scales:
        coverages |= dimension._measure_coverages(context, scale, target, [0])
    return coverages, target


def _searched_dimension(context, scales, max_d):
    # The least cover of the irreducibles by the map search's coverage sets.
    coverages, target = _coverage_sets(context, scales)
    return least_cover_oracle(coverages, target, max_d)


def test_exact_cover_matches_the_least_cover_oracle_on_planted_measures():
    # Each context is the columns of 1-3 random maps onto non-chain scales,
    # so the map search runs and many answers are 2 to 4. The exact cover
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
    return height <= max(dimension._chain_shape(s)[0] for s in scales)


def test_chain_capacity_counts_the_proper_columns():
    for n in range(1, 7):
        assert dimension._chain_shape(build_scale(ScaleFamily.ORDINAL, n)) == (n - 1, False)
    # One column, the full object set, is a chain of capacity 0.
    assert dimension._chain_shape(build_scale(ScaleFamily.NOMINAL, 1)) == (0, False)
    assert dimension._chain_shape(build_scale(ScaleFamily.INTERORDINAL, 1)) == (0, False)
    # An empty row is no ordinal or interordinal scale of one object.
    assert dimension._chain_shape(build_scale(ScaleFamily.CONTRANOMINAL, 1)) is None
    # Two columns that do not nest but complement each other: C = {{1}}.
    for family in (ScaleFamily.NOMINAL, ScaleFamily.INTERORDINAL, ScaleFamily.CONTRANOMINAL):
        assert dimension._chain_shape(build_scale(family, 2)) == (1, True), family
    for n in range(3, 7):
        assert dimension._chain_shape(build_scale(ScaleFamily.INTERORDINAL, n)) == (n - 1, True)
        for family in (ScaleFamily.NOMINAL, ScaleFamily.CONTRANOMINAL, ScaleFamily.CROWN):
            assert dimension._chain_shape(build_scale(family, n)) is None, (family, n)
    # A duplicated object adds no extent: the scale is clarified first.
    for family, complemented in ((ScaleFamily.ORDINAL, False), (ScaleFamily.INTERORDINAL, True)):
        s4 = build_scale(family, 4)
        twice = FormalContext.from_rows((*s4.objects, "2'"), s4.attributes, (*s4.rows, s4.rows[1]))
        assert dimension._chain_shape(twice) == (3, complemented), family
    # A chain {a} < {a, b} and as many other columns, {b} and {b, c}, but
    # {c} = T minus {a, b} is no column.
    lopsided = FormalContext.from_rows(
        ["a", "b", "c"], ["p", "q", "r", "s"], (0b0011, 0b1110, 0b1000)
    )
    assert dimension._chain_shape(lopsided) is None
    # Repeated columns count once.
    doubled = FormalContext.from_rows(["a", "b"], ["p", "q", "r"], (0b111, 0b100))
    assert dimension._chain_shape(doubled) == (1, False)
    # No objects means no map at all, even with no columns.
    assert dimension._chain_shape(FormalContext.from_rows([], [], [])) is None


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
    calls = []
    search = dimension._measure_coverages

    def counted(context, scale, irreducibles, spent):
        calls.append(scale)
        return search(context, scale, irreducibles, spent)

    monkeypatch.setattr(dimension, "_measure_coverages", counted)
    assert scaling_dimension(O3, [O3]) == 1
    assert calls == []
    # O3 is walked, so only N3 is searched.
    assert scaling_dimension(O3, [O3, N3]) == 1
    assert calls == [N3]
    assert scaling_dimension(I3, [O2, N3]) == _searched_dimension(I3, [O2, N3], 4)
    calls.clear()
    # Chain scales of capacities 1 and 4: the larger one decides.
    assert scaling_dimension(I3, [O2, build_scale(ScaleFamily.ORDINAL, 5)]) == 2
    assert calls == []


def _maximal(sets):
    return {s for s in sets if not any(s != t and s & t == s for t in sets)}


CHAIN_SCALES = [
    *(build_scale(ScaleFamily.INTERORDINAL, n) for n in range(1, 7)),
    *(build_scale(ScaleFamily.ORDINAL, n) for n in range(1, 7)),
    N2,
]


def test_chain_walk_finds_the_maximal_sets_of_the_map_search():
    # The walk reads the coverage sets off the extents, the map search
    # grows every measure. A third of the contexts have a full row, so the
    # empty set is no extent and no interordinal scale has any measure.
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
            walked = dimension._chain_coverages(ctx, *dimension._chain_shape(scale), target, [0])
            assert walked == _maximal(dimension._measure_coverages(ctx, scale, target, [0])), (
                ctx,
                scale,
            )
            seen.add(min(len(walked), 2) if walked != {0} else "empty")
    # No measure, only the empty coverage, one set and several sets.
    assert seen == {0, "empty", 1, 2}


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
    assert dimension._chain_shape(relabeled) == (3, True)
    assert dimension._chain_shape(padded) == (3, True)
    for trial in range(40):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 6), rng.uniform(0.2, 0.8))
        max_d = rng.randint(1, 4)
        searched = _searched_dimension(ctx, [i4], max_d)
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
    walk = _walk_scans(i8, i8)
    monkeypatch.setattr(dimension, "MAX_COLUMN_SCANS", 5)
    with pytest.raises(ValueError, match="the cap is 5 column scans"):
        scaling_dimension(i8, [i8])
    monkeypatch.setattr(dimension, "MAX_COLUMN_SCANS", walk)
    assert scaling_dimension(i8, [i8]) == 1
    monkeypatch.setattr(dimension, "MAX_COLUMN_SCANS", walk - 1)
    with pytest.raises(ValueError, match="column scans"):
        scaling_dimension(i8, [i8])


def _is_cycle_order(scale, order):
    # Cyclic neighbours in ``order`` are exactly the scale's columns.
    n = len(order)
    pairs = {1 << order[i] | 1 << order[(i + 1) % n] for i in range(n)}
    return sorted(order) == list(range(n)) and pairs == set(scale.cols)


def _cycle_order(scale):
    # The crown's cycle order, as the orbit rule reads it, else None.
    motif = dimension._symmetric_motif(scale)
    return list(motif.domain) if motif and motif.family is ScaleFamily.CROWN else None


def test_cycle_shape_reads_the_order_of_any_crown():
    rng = Random(881)
    for n in range(3, 9):
        crown = build_scale(ScaleFamily.CROWN, n)
        assert _cycle_order(crown) == list(range(n))
        for _ in range(5):
            relabeled = _relabeled(rng, crown)
            order = _cycle_order(relabeled)
            assert order[0] == 0 and order[1] < order[-1]
            assert _is_cycle_order(relabeled, order), (relabeled, order)
    # Two disjoint triangles: every object has two neighbours, but the
    # walk from the first object meets only half of them.
    triangles = [0b000011, 0b000110, 0b000101, 0b011000, 0b110000, 0b101000]
    two = FormalContext.from_rows(
        [f"g{i}" for i in range(6)],
        [f"m{j}" for j in range(6)],
        [sum((c >> g & 1) << j for j, c in enumerate(triangles)) for g in range(6)],
    )
    assert _cycle_order(two) is None
    # One more column, a chord of the 5-crown: two objects get three neighbours.
    c5 = build_scale(ScaleFamily.CROWN, 5)
    chord = FormalContext.from_rows(
        c5.objects, (*c5.attributes, "13"), [r | (g in (0, 2)) << 5 for g, r in enumerate(c5.rows)]
    )
    assert _cycle_order(chord) is None
    # A repeated column is the same pair.
    doubled = FormalContext.from_rows(
        c5.objects, (*c5.attributes, "1'"), [r | (r & 1) << 5 for r in c5.rows]
    )
    assert _cycle_order(doubled) == list(range(5))
    assert _cycle_order(FormalContext.from_rows([], [], [])) is None
    for family in (ScaleFamily.NOMINAL, ScaleFamily.ORDINAL, ScaleFamily.INTERORDINAL):
        assert _cycle_order(build_scale(family, 4)) is None
    # contranominal:3 is the 3-crown.
    assert _cycle_order(build_scale(ScaleFamily.CONTRANOMINAL, 3)) == [0, 1, 2]
    assert _cycle_order(build_scale(ScaleFamily.CONTRANOMINAL, 4)) is None


def test_cycle_shape_on_random_pair_column_scales():
    # Random pairs, some scales with two objects whose only column is their
    # own pair (so equal rows), and relabeled crowns with a repeated column.
    # Repeated rows answer None and never raise UnclarifiedObjectsError.
    rng = Random(4099)
    shaped = repeated = 0
    for trial in range(3000):
        n = rng.randint(1, 8)
        pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 10))] if n >= 2 else []
        if trial % 3 == 1 and n >= 4:
            u, v = rng.sample(range(n), 2)
            pairs = [p for p in pairs if u not in p and v not in p] + [[u, v]]
        if trial % 3 == 2 and n >= 3:
            crown = build_scale(ScaleFamily.CROWN, n)
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
        order = _cycle_order(scale)
        assert order == cycle_order_oracle(scale), (n, pairs)
        if len(set(scale.rows)) < n:
            repeated += 1
            assert order is None
        if trial % 3 == 2 and n >= 3:
            # build_scale(CROWN, n)'s order 0, 1, ..., n - 1 carried over
            # by the relabeling, from object 0 towards its smaller neighbour.
            start = labels.index(0)
            forward = [labels[(start + i) % n] for i in range(n)]
            backward = [labels[(start - i) % n] for i in range(n)]
            assert order == min(forward, backward, key=lambda o: o[1])
            assert _cycle_order(crown) == list(range(n))
        shaped += order is not None
    assert shaped > 500 and repeated > 300


def test_orbit_rule_matches_the_exhaustive_search_on_relabeled_scales():
    # Crowns, nominal and contranominal scales take the orbit rule, also
    # shuffled; the oracle tries all |S|**|G| maps, so |G| stays small.
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


def test_orbit_rule_column_scans():
    # A crown tries its first object at one cycle position, and then at
    # positions 0..n//2 while the reflection through 0 fixes the used
    # ones. Full search: crown 4 496 scans, crown 6 15,804 and
    # contranominal 7 against crown:7 6,725,593.
    crowns = {n: build_scale(ScaleFamily.CROWN, n) for n in (4, 6, 7)}
    assert _column_scans(crowns[4], crowns[4]) == 176
    assert _column_scans(crowns[6], crowns[6]) == 1_512
    b7 = build_scale(ScaleFamily.CONTRANOMINAL, 7)
    assert _column_scans(b7, crowns[7]) == 480_592
    # A relabeled crown gets the same rule, so the same count.
    rng = Random(19)
    for crown in crowns.values():
        for _ in range(3):
            assert _column_scans(crown, _relabeled(rng, crown)) == _column_scans(crown, crown)
