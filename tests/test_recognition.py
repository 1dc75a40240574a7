import time
from collections import Counter
from itertools import combinations
from random import Random

import pytest

from ordmotif import (
    FormalContext,
    Motif,
    ScaleFamily,
    UnclarifiedObjectsError,
    build_scale,
    clarify_objects,
    recognize,
    verify_full,
    verify_scale_measure,
)
from ordmotif.enumeration import EnumerationConfig, enumerate_family
from ordmotif.recognition import _WITNESS_ORDERS, realizations

from oracles import (
    bijection_oracle,
    brute_force_extents,
    crown_heavy_context,
    fold_oracle,
    full_row_context,
    is_valid_motif,
    nominal_pairwise_oracle,
    random_context,
    random_corpus_item,
    with_shared_column,
)

ALL = list(ScaleFamily)


def all_objects(ctx):
    return range(len(ctx.objects))


def test_every_scale_recognizes_itself():
    for f in ALL:
        for n in range(3 if f is ScaleFamily.CROWN else 1, 7):
            scale = build_scale(f, n)
            motif = recognize(scale, all_objects(scale), f)
            assert motif is not None
            assert is_valid_motif(scale, motif)


def test_identity_is_a_full_scale_measure():
    for f in ALL:
        for n in range(3 if f is ScaleFamily.CROWN else 1, 6):
            scale = build_scale(f, n)
            assert verify_scale_measure(scale, list(range(n)), scale)
            assert verify_full(scale, list(range(n)), scale)


def test_constant_map_into_trivial_scale():
    k = build_scale(ScaleFamily.CONTRANOMINAL, 3)
    n1 = build_scale(ScaleFamily.NOMINAL, 1)
    assert verify_scale_measure(k, [0, 0, 0], n1)
    assert not verify_full(k, [0, 0, 0], n1)


def test_verify_full_known_cases():
    b2 = build_scale(ScaleFamily.CONTRANOMINAL, 2)
    n2 = build_scale(ScaleFamily.NOMINAL, 2)
    assert verify_full(b2, [0, 1], n2)
    assert verify_full(b2, [1, 0], n2)
    o3 = build_scale(ScaleFamily.ORDINAL, 3)
    n3 = build_scale(ScaleFamily.NOMINAL, 3)
    assert not verify_full(o3, [0, 1, 2], n3)


def test_verify_scale_measure_against_naive_preimages():
    rng = Random(41)
    for _ in range(300):
        k = random_context(rng, rng.randint(1, 5), rng.randint(1, 5), rng.uniform(0.3, 0.7))
        s = build_scale(rng.choice(ALL), rng.randint(3, 5))
        sigma = [rng.randrange(len(s.objects)) for _ in k.objects]
        extents = brute_force_extents(k)
        expected = True
        for col in s.cols:
            pre = 0
            for g in range(len(k.objects)):
                if col >> sigma[g] & 1:
                    pre |= 1 << g
            if pre not in extents:
                expected = False
                break
        assert verify_scale_measure(k, sigma, s) == expected


def test_nominal_recognition_matches_the_pairwise_rule():
    # recognize checks disjoint nonempty residues over the domain's intent
    # in one pass; the pairwise rule is the definition. Half the domains
    # are listed nominal sets, some with one more object.
    rng = Random(2011)
    contexts = [random_corpus_item(rng) for _ in range(40)]
    contexts += [random_context(rng, rng.randint(7, 12), rng.randint(4, 9), rng.uniform(0.1, 0.5)) for _ in range(30)]
    contexts += [full_row_context(rng, rng.randint(7, 10)) for _ in range(15)]
    contexts += [with_shared_column(random_context(rng, rng.randint(7, 10), 6, 0.3)) for _ in range(15)]
    tables = []
    for raw in contexts:
        ctx, _ = clarify_objects(raw)
        if len(ctx.objects) >= 2:
            listed = [m.domain for m in enumerate_family(ctx, ScaleFamily.NOMINAL)]
            tables.append((ctx, listed))
    seen = Counter()
    for _ in range(3000):
        ctx, listed = rng.choice(tables)
        n = len(ctx.objects)
        if listed and rng.random() < 0.5:
            domain = sorted({*rng.choice(listed), rng.randrange(n)})
        else:
            domain = sorted(rng.sample(range(n), rng.randint(2, min(8, n))))
        want = nominal_pairwise_oracle(ctx.rows, domain)
        got = recognize(ctx, domain, ScaleFamily.NOMINAL)
        assert got == (Motif(ScaleFamily.NOMINAL, tuple(domain)) if want else None), (ctx.rows, domain)
        seen[want] += 1
    assert min(seen.values()) >= 500, seen


def test_large_nominal_scale_is_recognized_in_linear_time():
    # The pairwise rule costs 4.2 million pair meets here; one pass over
    # the residues takes milliseconds.
    scale = build_scale(ScaleFamily.NOMINAL, 2896)
    start = time.perf_counter()
    motif = recognize(scale, range(2896), ScaleFamily.NOMINAL)
    assert time.perf_counter() - start < 0.1
    assert motif == Motif(ScaleFamily.NOMINAL, tuple(range(2896)))


def test_crown_on_boolean_three():
    b3 = build_scale(ScaleFamily.CONTRANOMINAL, 3)
    motif = recognize(b3, all_objects(b3), ScaleFamily.CROWN)
    assert motif is not None
    assert realizations(b3, all_objects(b3)) == (
        Motif(ScaleFamily.CONTRANOMINAL, (0, 1, 2)),
        motif,
    )


def test_chain_is_not_nominal():
    o3 = build_scale(ScaleFamily.ORDINAL, 3)
    assert recognize(o3, all_objects(o3), ScaleFamily.NOMINAL) is None


def test_size_one_depends_on_the_full_row():
    ctx = FormalContext(["full", "partial"], ["p", "q"], [[1, 1], [1, 0]])
    for f in (ScaleFamily.NOMINAL, ScaleFamily.ORDINAL, ScaleFamily.INTERORDINAL):
        assert recognize(ctx, [0], f) is not None
        assert recognize(ctx, [1], f) is None
    assert recognize(ctx, [0], ScaleFamily.CONTRANOMINAL) is None
    assert recognize(ctx, [1], ScaleFamily.CONTRANOMINAL) is not None
    assert recognize(ctx, [0], ScaleFamily.CROWN) is None


def test_unclarified_domain_raises():
    ctx = FormalContext(["a", "b", "c"], ["p"], [[1], [1], [0]])
    with pytest.raises(UnclarifiedObjectsError):
        recognize(ctx, [0, 1], ScaleFamily.NOMINAL)
    # duplicates outside the domain do not matter
    assert recognize(ctx, [0, 2], ScaleFamily.ORDINAL) is not None


def test_domain_validation():
    ctx = build_scale(ScaleFamily.NOMINAL, 2)
    with pytest.raises(ValueError):
        recognize(ctx, [], ScaleFamily.NOMINAL)
    with pytest.raises(ValueError):
        recognize(ctx, [5], ScaleFamily.NOMINAL)


def test_recognizer_agrees_with_bijection_oracle():
    rng = Random(43)
    for _ in range(120):
        raw = random_context(
            rng, rng.randint(1, 5), rng.randint(1, 5), rng.uniform(0.3, 0.7)
        )
        ctx, _ = clarify_objects(raw)
        n = len(ctx.objects)
        for size in range(1, n + 1):
            for domain in combinations(range(n), size):
                for f in ALL:
                    got = recognize(ctx, domain, f)
                    want = bijection_oracle(ctx, domain, f)
                    assert (got is not None) == want, (ctx.rows, domain, f)
                    if got is not None:
                        assert is_valid_motif(ctx, got)


def test_recognize_matches_the_step_rule_fold():
    # recognize runs the enumeration's search, forced along the witness
    # order; the step rules folded along that order (tests/oracles.py) must
    # give the same answer. Half the domains are listed motifs, some with
    # one more object, so near misses are common, among them domains that
    # only the interordinal gap test rejects.
    families = [ScaleFamily.ORDINAL, ScaleFamily.INTERORDINAL, ScaleFamily.CONTRANOMINAL]
    rng = Random(131)
    contexts = [random_corpus_item(rng) for _ in range(40)]
    contexts += [full_row_context(rng, rng.randint(7, 10)) for _ in range(20)]
    contexts += [with_shared_column(random_context(rng, rng.randint(7, 10), 6, 0.35)) for _ in range(20)]
    config = EnumerationConfig(min_size=1, max_size=7)
    tables = []
    for raw in contexts:
        ctx, _ = clarify_objects(raw)
        tables.append((ctx, [m.domain for f in families for m in enumerate_family(ctx, f, config)]))
    seen = Counter()
    for _ in range(2000):
        ctx, listed = rng.choice(tables)
        n = len(ctx.objects)
        if listed and rng.random() < 0.5:
            domain = {*rng.choice(listed), rng.randrange(n)}
        else:
            domain = rng.sample(range(n), rng.randint(1, min(8, n)))
        for f in families:
            walk = _WITNESS_ORDERS[f](ctx, sorted(domain))
            want = fold_oracle(ctx, f, walk)
            assert recognize(ctx, domain, f) == (Motif(f, tuple(walk)) if want else None), (ctx.rows, walk)
            seen[f, want] += 1
            seen["gap only"] += f is ScaleFamily.INTERORDINAL and not want and fold_oracle(ctx, f, walk, gap=False)
    assert all(seen[f, want] >= 200 for f in families for want in (False, True)), seen
    assert seen["gap only"] >= 20, seen


def test_crown_rule_agrees_with_bijection_oracle_on_six_and_seven_objects():
    # Crowns of four and more objects are rare below six objects, so this
    # plants them. The crown walk is shared with enumeration, so this
    # oracle comparison is its independent check.
    rng = Random(71)
    found = Counter()
    checked = 0
    while checked < 200:
        n = 6 + checked % 2
        ctx, _ = clarify_objects(crown_heavy_context(rng, n))
        if len(ctx.objects) < n:
            continue
        checked += 1
        for size in range(3, n + 1):
            for domain in combinations(range(n), size):
                got = recognize(ctx, domain, ScaleFamily.CROWN)
                want = bijection_oracle(ctx, domain, ScaleFamily.CROWN)
                assert (got is not None) == want, (ctx.rows, domain)
                if got is not None:
                    assert is_valid_motif(ctx, got)
                    found[size] += 1
    assert all(found[size] >= 5 for size in (4, 5, 6, 7)), found


def test_interordinal_witness_reversal_also_witnesses():
    rng = Random(47)
    seen = 0
    for _ in range(200):
        ctx, _ = clarify_objects(random_context(rng, 5, 5, rng.uniform(0.3, 0.7)))
        n = len(ctx.objects)
        for domain in combinations(range(n), min(3, n)):
            motif = recognize(ctx, domain, ScaleFamily.INTERORDINAL)
            if motif is not None and motif.size >= 3:
                seen += 1
                reversed_witness = Motif(
                    ScaleFamily.INTERORDINAL, tuple(reversed(motif.domain))
                )
                assert is_valid_motif(ctx, reversed_witness)
    assert seen > 0


def test_crown_canonical_walk_and_symmetries():
    c5 = build_scale(ScaleFamily.CROWN, 5)
    motif = recognize(c5, all_objects(c5), ScaleFamily.CROWN)
    assert motif is not None
    walk = motif.domain
    assert walk[0] == min(walk)
    assert walk[1] < walk[-1]
    n = len(walk)
    for shift in range(n):
        rotated = tuple(walk[(i + shift) % n] for i in range(n))
        assert is_valid_motif(c5, Motif(ScaleFamily.CROWN, rotated))
        assert is_valid_motif(c5, Motif(ScaleFamily.CROWN, tuple(reversed(rotated))))


def test_crown_rejects_two_disjoint_triangles():
    # two overlap triangles; degrees are right but the cycle is disconnected
    rows = [
        [1, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 1, 0, 1],
    ]
    ctx = FormalContext(
        [f"g{i}" for i in range(6)], [f"m{j}" for j in range(6)], rows
    )
    assert recognize(ctx, range(6), ScaleFamily.CROWN) is None


def _linked_context(n, links):
    # One column per link, held by its two objects.
    rows = [[int(g in link) for link in links] for g in range(n)]
    return FormalContext([f"g{g}" for g in range(n)], [f"m{j}" for j in range(len(links))], rows)


@pytest.mark.parametrize(
    "n, links",
    [
        # A 6-cycle 0-1-2-3-4-5-0 with a chord 2-4 away from the least member.
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 4)]),
        # The cycle x-a-c-b-x as 0-1-3-2-0, and member 4 linked to a and b.
        (5, [(0, 1), (1, 3), (3, 2), (2, 0), (4, 1), (4, 2)]),
    ],
)
def test_crown_needs_one_cycle_beyond_the_least_members_two_links(n, links):
    # The least member has exactly two links, yet the links are no cycle.
    ctx = _linked_context(n, links)
    assert recognize(ctx, range(n), ScaleFamily.CROWN) is None
    assert not bijection_oracle(ctx, tuple(range(n)), ScaleFamily.CROWN)


def test_crown_rejects_a_diamond_chain_without_branching():
    # x = 0 links a = 1 and b = 2 only, and a chain of 20 diamonds
    # a-{u,v}-w-{u,v}-w-... hangs off a. A walk that branched on each
    # diamond would try 2^20 paths; a had three links, so H is no cycle.
    links, prev, nxt = [(0, 1), (0, 2)], 1, 3
    for _ in range(20):
        u, v, w = nxt, nxt + 1, nxt + 2
        links += [(prev, u), (prev, v), (u, w), (v, w)]
        prev, nxt = w, nxt + 3
    ctx = _linked_context(nxt, links)
    start = time.monotonic()
    assert recognize(ctx, range(nxt), ScaleFamily.CROWN) is None
    assert time.monotonic() - start < 1


def test_crown_walk_starts_at_the_least_member_towards_its_lower_neighbour():
    # C_n with shuffled object labels and one column every member holds.
    rng = Random(53)
    for n in range(3, 9):
        label = list(range(n))
        rng.shuffle(label)
        cycle = [(label[i], label[(i + 1) % n]) for i in range(n)]
        ctx = with_shared_column(_linked_context(n, cycle))
        walk = recognize(ctx, range(n), ScaleFamily.CROWN).domain
        assert walk[0] == 0 and walk[1] < walk[-1]
        edges = {frozenset(link) for link in cycle}
        assert {frozenset((walk[i - 1], walk[i])) for i in range(n)} == edges
        assert is_valid_motif(ctx, Motif(ScaleFamily.CROWN, walk))


def test_crown_ignores_attributes_common_to_the_whole_domain():
    # C_4 plus one full column; naive pairwise-intent overlap would see K_4.
    base = build_scale(ScaleFamily.CROWN, 4)
    rows = [[1] + [base.rows[g] >> m & 1 for m in range(4)] for g in range(4)]
    ctx = FormalContext(list(base.objects), ["all", "1", "2", "3", "4"], rows)
    motif = recognize(ctx, range(4), ScaleFamily.CROWN)
    assert motif is not None
    assert bijection_oracle(ctx, (0, 1, 2, 3), ScaleFamily.CROWN)


def test_motif_witnesses_round_trip():
    # Recognizing a stored witness again, in any order, gives the same witness.
    c4 = build_scale(ScaleFamily.CROWN, 4)
    motif = recognize(c4, all_objects(c4), ScaleFamily.CROWN)
    assert recognize(c4, reversed(motif.domain), ScaleFamily.CROWN) == motif
    assert is_valid_motif(c4, motif)
    assert recognize(c4, motif.domain, ScaleFamily.NOMINAL) is None


def test_ordinal_witness_orders_by_extent_size():
    o4 = build_scale(ScaleFamily.ORDINAL, 4)
    motif = recognize(o4, all_objects(o4), ScaleFamily.ORDINAL)
    assert motif.domain == (0, 1, 2, 3)
    # reversing the object order must reverse the witness
    flipped = FormalContext.from_rows(
        tuple(reversed(o4.objects)), o4.attributes, tuple(reversed(o4.rows))
    )
    motif = recognize(flipped, all_objects(flipped), ScaleFamily.ORDINAL)
    assert motif.domain == (3, 2, 1, 0)
