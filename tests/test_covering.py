from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import and_
from random import Random

import pytest

from ordmotif import (
    CoveringStep,
    EnumerationConfig,
    FormalContext,
    HeuristicKind,
    Motif,
    ScaleFamily,
    build_basis,
    build_scale,
    clarify_objects,
    enumerate_motifs,
    greedy_cover,
    recognize,
)
from ordmotif.bitsets import bits
from ordmotif.covering import covered_extents
from ordmotif.recognition import preimage, realizations
from ordmotif.scales import FAMILY_MIN_SIZE

from oracles import (
    brute_force_extents,
    crown_heavy_context,
    expected_extent_count,
    extent_set,
    full_row_context,
    greedy_oracle,
    random_context,
    random_corpus_item,
    ratio_curve_oracle,
)

B3 = build_scale(ScaleFamily.CONTRANOMINAL, 3)
TRIPLE = Motif(ScaleFamily.CONTRANOMINAL, (0, 1, 2))


def test_full_motif_covers_the_whole_boolean_cube():
    assert extent_set(B3, covered_extents(B3, [TRIPLE])[0]) == frozenset(B3.extents())


def test_crown_triple_covers_eight():
    c = recognize(B3, (0, 1, 2), ScaleFamily.CROWN)
    assert len(extent_set(B3, covered_extents(B3, [c])[0])) == 8


def test_covered_extent_count_matches_expected_exactly():
    rng = Random(79)
    for _ in range(60):
        ctx, _ = clarify_objects(random_context(rng, 6, 5, rng.uniform(0.3, 0.7)))
        extents = set(ctx.extents())
        for m in enumerate_motifs(ctx):
            covered = extent_set(ctx, covered_extents(ctx, [m])[0])
            assert len(covered) == expected_extent_count(m.family, m.size)
            assert covered <= extents


def test_covered_extents_are_the_closures_of_the_preimages():
    # The definition: each scale preimage covers the smallest extent that
    # contains it. Covering reads it off the preimage's intent instead.
    rng = Random(101)
    config = EnumerationConfig(min_size=1)
    seen = {(f, size_one) for f in ScaleFamily for size_one in (True, False)}
    seen.discard((ScaleFamily.CROWN, True))
    for i in range(60):
        if i % 3 == 0:
            raw = random_context(rng, 8, 6, rng.uniform(0.2, 0.6))
        elif i % 3 == 1:
            raw = crown_heavy_context(rng, 6 + i % 5)
        else:
            raw = full_row_context(rng, 6 + i % 3)
        ctx, _ = clarify_objects(raw)
        extents = brute_force_extents(ctx)
        pool = enumerate_motifs(ctx, config)
        for m, cover in zip(pool, covered_extents(ctx, pool), strict=True):
            expected = set()
            for p in _preimages(m):
                expected.add(min((e for e in extents if e & p == p), key=int.bit_count))
            assert extent_set(ctx, cover) == expected, (ctx.rows, m)
            seen.discard((m.family, m.size == 1))
    assert not seen


def _preimages(motif):
    # Each brute-force extent of the built scale, relabeled through the
    # witness: scale object i + 1 stands for motif.domain[i].
    class_masks = [1 << g for g in motif.domain]
    scale_ext = brute_force_extents(build_scale(motif.family, motif.size))
    return [preimage(class_masks, e) for e in scale_ext]


def _cover_from_preimages(ctx, motif):
    # The preimage's intent is the AND of its rows, every attribute for
    # the empty one, and intent_ids() names its closure.
    ids = ctx.intent_ids()
    cover = 0
    for p in _preimages(motif):
        cover |= 1 << ids[reduce(and_, (ctx.rows[g] for g in bits(p)), ctx.attribute_mask)]
    return cover


def test_pool_kernel_is_pinned_to_the_preimage_intents():
    # covered_extents writes each family's intents out in closed form; the
    # oracle relabels the brute-force extents of the built scale and ANDs
    # their rows. Every AND of rows is an intent, so the two must agree on
    # any witness of distinct objects, recognized or not.
    rng = Random(139)
    contexts = [
        FormalContext.from_rows(["g"], [], [0]),
        FormalContext.from_rows(["g", "h", "i"], [], [0, 0, 0]),
    ]
    contexts += [random_context(rng, 9, 6, rng.uniform(0.2, 0.8)) for _ in range(40)]
    checked = set()
    for ctx in contexts:
        n_objects = len(ctx.objects)
        pool = [
            Motif(f, tuple(rng.sample(range(n_objects), size)))
            for f in ScaleFamily
            for size in range(FAMILY_MIN_SIZE[f], min(7, n_objects) + 1)
            for _ in range(3)
        ]
        covers = covered_extents(ctx, pool)
        assert len(covers) == len(pool)
        for m, cover in zip(pool, covers):
            assert cover == _cover_from_preimages(ctx, m), (ctx.rows, m)
            checked.add((m.family, m.size))
    assert checked == {(f, n) for f in ScaleFamily for n in range(FAMILY_MIN_SIZE[f], 8)}
    for bad in (Motif(ScaleFamily.CROWN, (0, 1)), Motif(ScaleFamily.NOMINAL, ())):
        with pytest.raises(ValueError):
            covered_extents(B3, [TRIPLE, bad])


def test_pool_kernel_counts_one_extent_per_scale_extent():
    # A scale among extra objects is still a motif on its own objects: extra
    # rows leave every column's trace on them as it was. Its cover then
    # holds exactly one extent per scale extent, the normalized weight.
    rng = Random(149)
    for f in ScaleFamily:
        for n in range(FAMILY_MIN_SIZE[f], 8):
            scale = build_scale(f, n)
            width = len(scale.attributes)
            extra = [rng.getrandbits(width) for _ in range(rng.randrange(4))]
            order = list(range(n + len(extra)))
            rng.shuffle(order)
            rows = [(scale.rows + tuple(extra))[i] for i in order]
            ctx = FormalContext.from_rows([f"g{i}" for i in order], scale.attributes, rows)
            m = Motif(f, tuple(order.index(i) for i in range(n)))
            (cover,) = covered_extents(ctx, [m])
            assert cover == _cover_from_preimages(ctx, m), (f, n, rows)
            assert cover.bit_count() == expected_extent_count(f, n), (f, n, rows)


def test_greedy_cover_and_basis_ask_no_closure(monkeypatch):
    def forbidden(*args):
        raise AssertionError("covering and the basis must not ask a closure")

    rng = Random(113)
    folded = 0
    for i in range(30):
        raw = random_corpus_item(rng) if i % 2 else crown_heavy_context(rng, 7)
        ctx, _ = clarify_objects(raw)
        pool = enumerate_motifs(ctx, EnumerationConfig(min_size=1))
        ctx.extents()
        with monkeypatch.context() as patch:
            patch.setattr(FormalContext, "object_closure", forbidden)
            steps = greedy_cover(ctx, pool, len(pool), HeuristicKind.NORMALIZED)
            if steps and steps[-1].cumulative >= len(ctx.extents()) - 1:
                build_basis(ctx, [s.motif for s in steps])
                folded += 1
    assert folded > 10


def test_dual_family_motifs_cover_the_same_extents():
    rng = Random(83)
    seen = 0
    for _ in range(60):
        ctx, _ = clarify_objects(random_context(rng, 6, 5, rng.uniform(0.3, 0.7)))
        for d in combinations(range(len(ctx.objects)), 3):
            b = recognize(ctx, d, ScaleFamily.CONTRANOMINAL)
            c = recognize(ctx, d, ScaleFamily.CROWN)
            if b is not None and c is not None:
                seen += 1
                assert extent_set(ctx, covered_extents(ctx, [b])[0]) == extent_set(
                    ctx, covered_extents(ctx, [c])[0]
                )
    assert seen > 0


def test_zero_steps_allowed():
    assert greedy_cover(B3, [TRIPLE], 0) == []
    with pytest.raises(ValueError):
        greedy_cover(B3, [TRIPLE], -1)


def test_greedy_stops_once_nothing_gains():
    steps = greedy_cover(B3, [TRIPLE, Motif(ScaleFamily.NOMINAL, (0, 1))], 10)
    assert len(steps) == 1
    assert steps[0].cumulative == 8


def test_tie_break_prefers_lower_family_rank():
    pool = [
        recognize(B3, (0, 1, 2), ScaleFamily.CROWN),
        TRIPLE,
    ]
    steps = greedy_cover(B3, pool, 1)
    assert steps[0].motif.family is ScaleFamily.CONTRANOMINAL
    assert steps[0].tie_count == 2
    assert steps[0].families == (ScaleFamily.CONTRANOMINAL, ScaleFamily.CROWN)


def test_a_step_is_the_plain_tuple_of_its_fields():
    witnesses = realizations(B3, TRIPLE.domain)
    assert greedy_cover(B3, [TRIPLE], 1) == [(TRIPLE, witnesses, 8, 8, 1)]
    step = CoveringStep(TRIPLE, witnesses, 1, 1)
    assert step.tie_count == 1
    assert step == (TRIPLE, witnesses, 1, 1, 1)
    assert step.families == (ScaleFamily.CONTRANOMINAL, ScaleFamily.CROWN)


def test_tie_break_prefers_lexicographically_smaller_domain():
    pool = [
        Motif(ScaleFamily.NOMINAL, (1, 2)),
        Motif(ScaleFamily.NOMINAL, (0, 1)),
    ]
    steps = greedy_cover(B3, pool, 2)
    assert steps[0].motif.domain == (0, 1)


def _second_witness(motif):
    # The reversed chain of an interordinal walk, or a crown's walk rotated by one.
    if motif.family is ScaleFamily.CROWN:
        return Motif(motif.family, motif.domain[1:] + motif.domain[:1])
    return Motif(motif.family, motif.domain[::-1])


@pytest.mark.parametrize("family", [ScaleFamily.INTERORDINAL, ScaleFamily.CROWN])
def test_one_domain_under_two_witnesses_goes_to_the_earlier_copy(family):
    scale = build_scale(family, 5)
    first = recognize(scale, range(5), family)
    second = _second_witness(first)
    assert first != second
    for pool in ([first, second], [second, first]):
        (step,) = greedy_cover(scale, pool, 1)
        assert step.motif is pool[0]
        assert step.tie_count == 2


def test_pool_order_does_not_change_the_steps():
    # Every interordinal walk and crown joins the pool twice, under two
    # witnesses; whatever the order, a step picks the same domain, and the
    # copy of it that comes first in that order.
    rng = Random(109)
    for i in range(24):
        table = crown_heavy_context(rng, 8) if i % 2 else random_context(rng, 8, 6, 0.5)
        ctx, _ = clarify_objects(table)
        pool = enumerate_motifs(ctx, EnumerationConfig(min_size=1))
        pool += [
            _second_witness(m)
            for m in pool
            if m.family in (ScaleFamily.INTERORDINAL, ScaleFamily.CROWN) and m.size > 1
        ]
        shuffled = rng.sample(pool, len(pool))
        for heuristic in HeuristicKind:
            want = [
                (sorted(s.motif.domain), s.motif.family, s.new_extents, s.cumulative, s.tie_count)
                for s in greedy_cover(ctx, pool, len(pool), heuristic)
            ]
            for order in (pool, pool[::-1], shuffled):
                steps = greedy_cover(ctx, order, len(order), heuristic)
                got = [
                    (sorted(s.motif.domain), s.motif.family, s.new_extents, s.cumulative, s.tie_count)
                    for s in steps
                ]
                assert got == want, (ctx.rows, heuristic)
                for s in steps:
                    copies = [
                        m
                        for m in order
                        if m.family is s.motif.family and sorted(m.domain) == sorted(s.motif.domain)
                    ]
                    assert s.motif is copies[0]


def test_heuristics_can_pick_differently():
    pool = [TRIPLE, Motif(ScaleFamily.NOMINAL, (0, 1))]
    standard = greedy_cover(B3, pool, 1, HeuristicKind.STANDARD)
    assert standard[0].motif is TRIPLE
    # both candidates score 1 under normalization; rank prefers nominal
    normalized = greedy_cover(B3, pool, 1, HeuristicKind.NORMALIZED)
    assert normalized[0].motif.family is ScaleFamily.NOMINAL


def test_standard_gains_are_nonincreasing():
    rng = Random(89)
    for _ in range(40):
        ctx, _ = clarify_objects(random_context(rng, 6, 5, rng.uniform(0.3, 0.7)))
        pool = enumerate_motifs(ctx, maximal_only=True)
        steps = greedy_cover(ctx, pool, 10)
        gains = [s.new_extents for s in steps]
        assert gains == sorted(gains, reverse=True)
        for before, after in zip(steps, steps[1:]):
            assert after.cumulative == before.cumulative + after.new_extents


def test_cumulative_equals_union_of_covered_sets():
    rng = Random(97)
    for _ in range(30):
        ctx, _ = clarify_objects(random_context(rng, 6, 5, rng.uniform(0.3, 0.7)))
        pool = enumerate_motifs(ctx, maximal_only=True)
        steps = greedy_cover(ctx, pool, 5)
        union: set[int] = set()
        for s in steps:
            union |= extent_set(ctx, covered_extents(ctx, [s.motif])[0])
        if steps:
            assert steps[-1].cumulative == len(union)
            assert steps[-1].cumulative <= len(ctx.extents())


def test_normalized_scores_drop_after_the_first_pick():
    # Non-ordinal scales share the closure of the empty set, so any later
    # non-ordinal selection has at least one extent already covered.
    rng = Random(101)
    checked = 0
    for _ in range(40):
        ctx, _ = clarify_objects(random_context(rng, 6, 5, rng.uniform(0.3, 0.7)))
        pool = enumerate_motifs(ctx, maximal_only=True)
        steps = greedy_cover(ctx, pool, 8, HeuristicKind.NORMALIZED)
        if not steps or steps[0].motif.family is ScaleFamily.ORDINAL:
            continue
        for s in steps[1:]:
            if s.motif.family is ScaleFamily.ORDINAL:
                continue
            expected = expected_extent_count(s.motif.family, s.motif.size)
            checked += 1
            assert Fraction(s.new_extents, expected) <= 1 - Fraction(1, expected)
    assert checked > 0


def test_family_ratios_split_across_dual_families():
    # The B3 pick realizes contranominal and crown; each takes half of it.
    steps = greedy_cover(B3, [TRIPLE], 1)
    assert steps[0].families == (ScaleFamily.CONTRANOMINAL, ScaleFamily.CROWN)
    (ratios,) = ratio_curve_oracle([s.families for s in steps])
    assert ratios[ScaleFamily.CONTRANOMINAL] == Fraction(1, 2)
    assert ratios[ScaleFamily.CROWN] == Fraction(1, 2)
    assert ratios[ScaleFamily.NOMINAL] == 0


def test_greedy_matches_the_reference_greedy_at_every_step():
    rng = Random(109)
    compared = 0
    for _ in range(150):
        ctx, _ = clarify_objects(random_corpus_item(rng))
        for pool in (enumerate_motifs(ctx, maximal_only=True), enumerate_motifs(ctx)):
            for heuristic in HeuristicKind:
                steps = greedy_cover(ctx, pool, len(pool), heuristic)
                got = [(s.motif, s.new_extents, s.cumulative, s.tie_count) for s in steps]
                assert got == greedy_oracle(ctx, pool, len(pool), heuristic)
                compared += 1
    assert compared == 600


def test_greedy_matches_the_reference_greedy_past_full_coverage():
    # Repeated motifs tie with their copies, and k runs past the last
    # gaining step, so candidates drop out of the scan before it stops.
    rng = Random(127)
    compared = 0
    for i in range(60):
        raw = random_corpus_item(rng) if i % 2 else crown_heavy_context(rng, 6)
        ctx, _ = clarify_objects(raw)
        pool = enumerate_motifs(ctx) + enumerate_motifs(ctx, maximal_only=True)
        for heuristic in HeuristicKind:
            steps = greedy_cover(ctx, pool, 2 * len(pool) + 3, heuristic)
            got = [(s.motif, s.new_extents, s.cumulative, s.tie_count) for s in steps]
            assert got == greedy_oracle(ctx, pool, 2 * len(pool) + 3, heuristic)
            compared += any(s.tie_count > 1 for s in steps[1:])
    assert compared > 20


def test_greedy_matches_the_reference_greedy_on_larger_tables():
    # Tables of 8-10 objects give pools of 25-194 motifs, where the tied
    # candidates of a step were last scored at different steps, so a
    # bucket of them is no longer in canonical order.
    rng = Random(131)
    compared = 0
    for i in range(30):
        ctx, _ = clarify_objects(random_context(rng, rng.randint(8, 10), rng.randint(6, 9), 0.4))
        for pool in (enumerate_motifs(ctx, maximal_only=True), enumerate_motifs(ctx)):
            shuffled = rng.sample(pool, len(pool))
            runs = [(pool, heuristic) for heuristic in HeuristicKind]
            runs.append((shuffled, list(HeuristicKind)[i % 2]))
            for motifs, heuristic in runs:
                steps = greedy_cover(ctx, motifs, len(pool), heuristic)
                got = [(s.motif, s.new_extents, s.cumulative, s.tie_count) for s in steps]
                assert got == greedy_oracle(ctx, pool, len(pool), heuristic)
                compared += 1
    assert compared == 180


def test_greedy_is_deterministic():
    rng = Random(107)
    ctx, _ = clarify_objects(random_context(rng, 6, 6, 0.5))
    pool = enumerate_motifs(ctx, maximal_only=True)
    first = greedy_cover(ctx, pool, 6)
    again = greedy_cover(ctx, list(reversed(pool)), 6)
    assert [s.motif for s in first] == [s.motif for s in again]
