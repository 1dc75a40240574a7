from collections import Counter
from functools import cmp_to_key
from random import Random

import pytest

from ordmotif import (
    FormalContext,
    UnclarifiedObjectsError,
    clarify_objects,
)
from ordmotif.bitsets import mask_of
from ordmotif.context import require_clarified
from ordmotif.covering import greedy_cover
from ordmotif.enumeration import enumerate_motifs

from oracles import (
    brute_force_extents,
    crown_heavy_context,
    induced_subcontext,
    lectic_less,
    link_table_oracle,
    random_context,
    random_corpus_item,
    with_shared_column,
)

K = FormalContext(
    ["a", "b", "c", "d"],
    ["p", "q", "r"],
    [
        [1, 0, 0],
        [1, 1, 0],
        [0, 1, 1],
        [0, 0, 1],
    ],
)


def test_rows_and_cols_agree():
    for g, row in enumerate(K.rows):
        for m, col in enumerate(K.cols):
            assert bool(row >> m & 1) == bool(col >> g & 1)


def test_construction_validation():
    with pytest.raises(ValueError):
        FormalContext(["a", "a"], ["p"], [[1], [0]])
    with pytest.raises(ValueError):
        FormalContext(["a"], ["p", "p"], [[1, 0]])
    with pytest.raises(ValueError):
        FormalContext(["a"], ["p"], [[1, 0]])
    with pytest.raises(ValueError):
        FormalContext.from_rows(("a",), ("p",), (0b10,))


def test_immutability():
    with pytest.raises(AttributeError):
        K.rows = ()


def test_derivation_galois_properties():
    rng = Random(11)
    for _ in range(100):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 6), 0.5)
        full = ctx.object_mask
        for _ in range(20):
            a = rng.getrandbits(len(ctx.objects)) & full
            b = rng.getrandbits(len(ctx.objects)) & full
            ca, cb = ctx.object_closure(a), ctx.object_closure(b)
            assert ca & a == a
            assert ctx.object_closure(ca) == ca
            if a & ~b == 0:
                assert ca & ~cb == 0


def test_object_closure_derives_each_set_once(monkeypatch):
    derived = Counter()
    derive = FormalContext.derive_objects

    def counting(self, object_set):
        derived[id(self), object_set] += 1
        return derive(self, object_set)

    monkeypatch.setattr(FormalContext, "derive_objects", counting)
    rng = Random(29)
    total = 0
    for _ in range(30):
        ctx, _ = clarify_objects(random_corpus_item(rng))
        derived.clear()
        # Enumeration runs on rows; covering looks its closures up in the
        # intent table, which derives each extent's intent once.
        pool = enumerate_motifs(ctx)
        greedy_cover(ctx, pool, len(pool))
        assert all(n == 1 for n in derived.values())
        total += len(derived)
        # Every closure, derived afresh on each call, is the smallest
        # brute-force extent containing the set.
        extents = brute_force_extents(ctx)
        for s in range(1 << len(ctx.objects)):
            smallest = ctx.object_mask
            for e in extents:
                if e & s == s:
                    smallest &= e
            assert ctx.object_closure(s) == smallest
    assert total > 0


def test_extents_match_brute_force():
    rng = Random(13)
    for _ in range(200):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 6), rng.uniform(0.2, 0.8))
        assert set(ctx.extents()) == brute_force_extents(ctx)


def test_extents_are_in_ascending_lectic_order():
    rng = Random(17)
    for _ in range(50):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 6), 0.5)
        ext = ctx.extents()
        for e, f in zip(ext, ext[1:]):
            assert lectic_less(e, f)


def test_intent_ids_index_the_extents():
    rng = Random(31)
    for _ in range(50):
        ctx = random_corpus_item(rng)
        extents = ctx.extents()
        # Each extent's position, keyed by its intent: the attributes every
        # member holds.
        by_intent = ctx.intent_ids()
        assert by_intent == {ctx.derive_objects(e): i for i, e in enumerate(extents)}
        assert len(by_intent) == len(extents)
        assert ctx.intent_ids() is by_intent


def _lectic_sorted(extents):
    return sorted(
        extents, key=cmp_to_key(lambda a, b: -1 if lectic_less(a, b) else int(a != b))
    )


@pytest.mark.parametrize(
    "objects,attributes,incidence",
    [
        ([], ["p", "q"], []),
        ([], [], []),
        (["a", "b", "c"], [], [[], [], []]),
        # p and q are one column twice; r is held by no object.
        (["a", "b", "c"], ["p", "q", "r"], [[1, 1, 0], [0, 0, 0], [1, 1, 0]]),
        (["a", "b"], ["p", "q"], [[0, 0], [0, 0]]),
        # b and d share one row, and s is held by no object.
        (["a", "b", "c", "d"], ["p", "q", "r", "s"], [[1, 0, 1, 0], [0, 1, 0, 0], [1, 1, 1, 0], [0, 1, 0, 0]]),
    ],
)
def test_degenerate_contexts_list_the_sorted_brute_force_extents(objects, attributes, incidence):
    ctx = FormalContext(objects, attributes, incidence)
    assert ctx.extents() == tuple(_lectic_sorted(brute_force_extents(ctx)))
    assert len(ctx.intent_ids()) == len(ctx.extents())


def test_known_extents():
    # Two overlapping chains: every column meet plus top.
    assert set(K.extents()) == {
        0b0000,
        0b0010,
        0b0011,
        0b0100,
        0b0110,
        0b1100,
        0b1111,
    }


def test_concepts_pair_extent_with_intent():
    for e in K.extents():
        intent = K.derive_objects(e)
        assert K.derive_attributes(intent) == e
        assert K.derive_objects(K.derive_attributes(intent)) == intent


def test_transpose_swaps_roles():
    t = K.transpose()
    assert t.objects == K.attributes
    assert t.rows == K.cols
    assert t.transpose() == K


def test_induced_subcontext_and_restriction_law():
    rng = Random(19)
    for _ in range(100):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 6), 0.5)
        h = rng.getrandbits(len(ctx.objects)) & ctx.object_mask
        sub = induced_subcontext(ctx, h)
        positions = [g for g in range(len(ctx.objects)) if h >> g & 1]
        expanded = {
            mask_of(positions[i] for i in range(len(positions)) if e >> i & 1)
            for e in brute_force_extents(sub)
        }
        assert expanded == {e & h for e in ctx.extents()}


def test_closure_within_is_subcontext_closure():
    # Closing inside K[H, M] is closing in K and cutting back to H.
    h = 0b0111
    sub = induced_subcontext(K, h)
    for s in range(8):
        assert K.object_closure(s) & h == sub.object_closure(s)


def test_clarification():
    dup = FormalContext(
        ["a", "b", "a2"],
        ["p", "q"],
        [[1, 0], [0, 1], [1, 0]],
    )
    with pytest.raises(UnclarifiedObjectsError):
        require_clarified(dup, range(3))
    clarified, cmap = clarify_objects(dup)
    assert clarified.objects == ("a", "b")
    assert cmap.groups == {0: ("a", "a2"), 1: ("b",)}
    assert cmap.label(0) == "a/a2"
    assert set(clarified.extents()) <= {0b00, 0b01, 0b10, 0b11}
    require_clarified(clarified, range(2))


def test_clarification_preserves_extent_count():
    rng = Random(23)
    for _ in range(50):
        ctx = random_context(rng, rng.randint(2, 6), rng.randint(1, 4), 0.5)
        clarified, _ = clarify_objects(ctx)
        assert len(clarified.extents()) == len(ctx.extents())


def test_link_table_matches_the_pair_oracle():
    # Raw tables keep equal and empty rows, which link to nothing they
    # contain or are contained in; crown-heavy tables link along cycles.
    rng = Random(3301)
    raws = [random_corpus_item(rng) for _ in range(80)]
    for _ in range(40):
        raws.append(random_context(rng, rng.randint(1, 24), rng.randint(1, 12), rng.uniform(0.1, 0.6)))
    raws += [crown_heavy_context(rng, 4 + i % 9) for i in range(40)]
    raws += [with_shared_column(random_context(rng, 8, 5, 0.35)) for _ in range(10)]
    for raw in raws:
        for ctx in (raw, clarify_objects(raw)[0]):
            table = ctx.meet_links()
            oracle = link_table_oracle(list(ctx.rows))
            assert [table[x] for x in range(len(ctx.objects))] == oracle, ctx.rows
            assert list(table) == list(range(len(ctx.objects)))
            assert ctx.meet_links() is table
    assert FormalContext.from_rows([], [], []).meet_links() == {}
