from itertools import combinations
from random import Random

import pytest

from ordmotif import (
    EnumerationConfig,
    IncompleteCoveringError,
    Motif,
    ScaleFamily,
    build_basis,
    build_scale,
    clarify_objects,
    enumerate_motifs,
    verify_full,
    verify_scale_measure,
)
from ordmotif.io import parse_burmeister, to_burmeister

from oracles import basis_oracle, induced_subcontext, random_context, random_corpus_item

B3 = build_scale(ScaleFamily.CONTRANOMINAL, 3)
TRIPLE = Motif(ScaleFamily.CONTRANOMINAL, (0, 1, 2))


def test_boolean_basis_from_one_motif():
    basis = build_basis(B3, [TRIPLE])
    assert basis.objects == B3.objects
    # one column per scale extent: three attribute extents, five starred
    assert basis.attributes == (
        "1:1",
        "1:2",
        "1:3",
        "1:*1",
        "1:*2",
        "1:*3",
        "1:*4",
        "1:*5",
    )
    assert set(basis.extents()) == set(B3.extents())


def test_identity_is_full_into_the_basis():
    basis = build_basis(B3, [TRIPLE])
    assert verify_full(B3, [0, 1, 2], basis)
    assert verify_full(basis, [0, 1, 2], B3)


def test_empty_covering_rejected():
    # every extent but the top, the empty intersection of columns
    with pytest.raises(IncompleteCoveringError, match="covering misses 7 extents"):
        build_basis(B3, [])


def test_incomplete_covering_reports_missing_count():
    # one nominal pair covers the empty set, its singletons and itself;
    # {2}, {0, 2} and {1, 2} are missed, the top needs no column
    with pytest.raises(IncompleteCoveringError, match="covering misses 3 extents"):
        build_basis(B3, [Motif(ScaleFamily.NOMINAL, (0, 1))])


def test_covering_that_misses_only_the_top_is_complete():
    # nominal pairs cover every extent but the top, which every basis has
    pairs = [Motif(ScaleFamily.NOMINAL, d) for d in combinations(range(3), 2)]
    assert set(build_basis(B3, pairs).extents()) == set(B3.extents())


def test_basis_attribute_labels_are_numbered_per_motif():
    basis = build_basis(
        B3, [TRIPLE, Motif(ScaleFamily.INTERORDINAL, (0, 1))]
    )
    assert basis.attributes == (
        "1:1",
        "1:2",
        "1:3",
        "1:*1",
        "1:*2",
        "1:*3",
        "1:*4",
        "1:*5",
        "2:≤1",
        "2:≤2",
        "2:≥1",
        "2:≥2",
        "2:*1",
    )


def test_basis_columns_match_the_oracle_order():
    rng = Random(127)
    config = EnumerationConfig(min_size=1)
    built = 0
    for _ in range(120):
        ctx, _ = clarify_objects(random_corpus_item(rng))
        motifs = enumerate_motifs(ctx, config)
        try:
            basis = build_basis(ctx, motifs)
        except IncompleteCoveringError:
            continue
        built += 1
        assert (basis.attributes, basis.rows) == basis_oracle(ctx, motifs)
    assert built >= 50


def test_basis_round_trips_through_burmeister():
    rng = Random(127)
    config = EnumerationConfig(min_size=1)
    built = 0
    for _ in range(120):
        ctx, _ = clarify_objects(random_corpus_item(rng))
        try:
            basis = build_basis(ctx, enumerate_motifs(ctx, config))
        except IncompleteCoveringError:
            continue
        built += 1
        assert parse_burmeister(to_burmeister(basis)) == basis
    assert built >= 50


def test_basis_preserves_extents_on_random_contexts():
    rng = Random(109)
    config = EnumerationConfig(min_size=1)
    built = 0
    for _ in range(80):
        ctx, _ = clarify_objects(random_context(rng, 5, 5, rng.uniform(0.3, 0.7)))
        motifs = enumerate_motifs(ctx, config)
        try:
            basis = build_basis(ctx, motifs)
        except IncompleteCoveringError:
            continue
        built += 1
        assert set(basis.extents()) == set(ctx.extents())
    assert built >= 20


def test_local_full_measures_agree_between_context_and_basis():
    rng = Random(113)
    config = EnumerationConfig(min_size=1)
    checked = 0
    for _ in range(60):
        ctx, _ = clarify_objects(random_context(rng, 5, 5, rng.uniform(0.3, 0.7)))
        motifs = enumerate_motifs(ctx, config)
        try:
            basis = build_basis(ctx, motifs)
        except IncompleteCoveringError:
            continue
        n = len(ctx.objects)
        for _ in range(20):
            size = rng.randint(1, n)
            h = tuple(sorted(rng.sample(range(n), size)))
            family = rng.choice(list(ScaleFamily))
            scale_size = rng.randint(3 if family is ScaleFamily.CROWN else 1, 4)
            scale = build_scale(family, scale_size)
            sigma = [rng.randrange(scale_size) for _ in range(size)]
            h_mask = sum(1 << g for g in h)
            sub_ctx = induced_subcontext(ctx, h_mask)
            sub_basis = induced_subcontext(basis, h_mask)
            checked += 1
            assert verify_full(sub_ctx, sigma, scale) == verify_full(
                sub_basis, sigma, scale
            )
            assert verify_scale_measure(sub_ctx, sigma, scale) == verify_scale_measure(
                sub_basis, sigma, scale
            )
    assert checked >= 200
