import inspect
import json
import sys
import time
from itertools import combinations
from random import Random

import pytest

from ordmotif import (
    EnumerationConfig,
    FormalContext,
    ScaleFamily,
    UnclarifiedObjectsError,
    build_scale,
    clarify_objects,
    enumerate_motifs,
    greedy_cover,
    recognize,
)
from ordmotif import enumeration
from ordmotif.cli import main
from ordmotif.context import link_table
from ordmotif.enumeration import DEFAULT_CROWN_SIZE_CAP, enumerate_family, maximal_filter
from ordmotif.io import to_burmeister
from ordmotif.recognition import crown_walks

from oracles import (
    crown_heavy_context,
    full_row_context,
    hereditary_oracle,
    is_valid_motif,
    random_context,
    random_corpus_item,
    subsets_oracle,
    with_shared_column,
)

ALL = list(ScaleFamily)
HEREDITARY = [f for f in ALL if f is not ScaleFamily.CROWN]
STEP_FAMILIES = [ScaleFamily.ORDINAL, ScaleFamily.INTERORDINAL, ScaleFamily.CONTRANOMINAL]
CROWN = ScaleFamily.CROWN


def domains(motifs):
    return {tuple(sorted(m.domain)) for m in motifs}


def by_size(motifs):
    # Searches emit in their own order; oracles list by size, then sorted domain.
    return sorted(motifs, key=lambda m: (len(m.domain), sorted(m.domain)))


def motifs_stats(path, capsys, ctx, config):
    # The ``motifs --json`` stats of a clarified context under ``config``.
    path.write_text(to_burmeister(ctx), encoding="utf-8")
    argv = ["motifs", str(path), "--json", "--families", ",".join(map(str, config.families))]
    argv += ["--crown-cap", str(config.crown_size_cap)]
    argv += ["--min-size", str(config.min_size)] * (config.min_size is not None)
    argv += ["--max-size", str(config.max_size)] * (config.max_size is not None)
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["stats"]


def test_boolean_four_contranominal_enumeration(tmp_path, capsys):
    b4 = build_scale(ScaleFamily.CONTRANOMINAL, 4)
    motifs = enumerate_family(b4, ScaleFamily.CONTRANOMINAL)
    expected = {
        d
        for size in (2, 3, 4)
        for d in combinations(range(4), size)
    }
    assert domains(motifs) == expected
    assert len(motifs) == 11
    config = EnumerationConfig(families=(ScaleFamily.CONTRANOMINAL,))
    stats = motifs_stats(tmp_path / "b4.cxt", capsys, b4, config)
    assert stats == {"contranominal": {"total": 11, "maximal": 1, "largest": 4}}


def test_chain_has_no_nominal_pairs():
    o5 = build_scale(ScaleFamily.ORDINAL, 5)
    assert enumerate_family(o5, ScaleFamily.NOMINAL) == []


def test_chain_has_no_crowns():
    o6 = build_scale(ScaleFamily.ORDINAL, 6)
    assert enumerate_family(o6, CROWN) == []


def test_crown_five_contains_exactly_itself():
    c5 = build_scale(ScaleFamily.CROWN, 5)
    motifs = enumerate_family(c5, CROWN)
    assert domains(motifs) == {(0, 1, 2, 3, 4)}
    assert subsets_oracle(c5, ScaleFamily.CROWN, 3, 5) == {(0, 1, 2, 3, 4)}


def test_crown_size_cap_hides_large_crowns():
    c6 = build_scale(ScaleFamily.CROWN, 6)
    capped = EnumerationConfig(families=(ScaleFamily.CROWN,), crown_size_cap=5)
    assert enumerate_family(c6, ScaleFamily.CROWN, capped) == []
    assert domains(enumerate_family(c6, CROWN)) == {tuple(range(6))}


def test_crown_search_depth_does_not_follow_the_crown_size():
    c100 = build_scale(ScaleFamily.CROWN, 100)
    config = EnumerationConfig(families=(ScaleFamily.CROWN,), crown_size_cap=100)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        motifs = enumerate_family(c100, CROWN, config)
    finally:
        sys.setrecursionlimit(limit)
    assert [m.size for m in motifs] == [100]


def test_crown_search_equals_recognition_over_all_subsets():
    # Enumeration runs the crown walk once per seed triplet over the whole
    # context, recognition once per domain on that domain alone; both must
    # find the same crowns with the same witnesses.
    rng = Random(79)
    raws = [
        crown_heavy_context(rng, 7 + i % 4) if i % 2 else random_context(rng, 7 + i % 4, 7, 0.35)
        for i in range(40)
    ]
    raws += [with_shared_column(random_context(rng, 7 + i % 4, 5, 0.35)) for i in range(6)]
    sizes = set()
    for raw in raws:
        ctx, _ = clarify_objects(raw)
        n = len(ctx.objects)
        want = [
            motif
            for size in range(3, n + 1)
            for domain in combinations(range(n), size)
            if (motif := recognize(ctx, domain, ScaleFamily.CROWN)) is not None
        ]
        config = EnumerationConfig(crown_size_cap=max(n, 3))
        assert by_size(enumerate_family(ctx, CROWN, config)) == want
        sizes.update(m.size for m in want)
        # Any size bounds cut the same list.
        for _ in range(13):
            min_size = rng.choice([None, *range(1, n + 2)])
            max_size = rng.choice([None, *range(min_size or 1, n + 2)])
            cap = rng.randint(3, n + 2)
            config = EnumerationConfig(min_size=min_size, max_size=max_size, crown_size_cap=cap)
            low = max(3, min_size or 0)
            high = min(cap, n if max_size is None else max_size)
            got = by_size(enumerate_family(ctx, CROWN, config))
            assert got == [m for m in want if low <= m.size <= high]
    assert {3, 4, 5, 6} <= sizes


def test_each_crown_is_built_once(monkeypatch):
    # One seed triplet reaches each crown, and only once.
    built = []
    real_motif = enumeration.Motif

    def counting_motif(family, domain):
        if family is ScaleFamily.CROWN:
            built.append(domain)
        return real_motif(family, domain)

    monkeypatch.setattr(enumeration, "Motif", counting_motif)
    rng = Random(97)
    total = 0
    for i in range(30):
        ctx, _ = clarify_objects(crown_heavy_context(rng, 8 + i % 5))
        built.clear()
        crowns = enumerate_family(ctx, CROWN, EnumerationConfig(crown_size_cap=12))
        assert len(built) == len(crowns)
        total += len(crowns)
    assert total > 100


def test_one_enumeration_builds_the_link_table_once(monkeypatch):
    # Nominal cliques, the maximal clique search and crown walks read one
    # cached table, and so does crown recognition, cut to the domain: a
    # greedy cover asks it once per pick and builds nothing more.
    # Clarifying builds none; the first enumeration builds it.
    calls = []

    def counting(rows, cols):
        calls.append(len(rows))
        return link_table(rows, cols)

    monkeypatch.setattr("ordmotif.context.link_table", counting)
    rng = Random(211)
    crown_picks = 0
    config = EnumerationConfig(min_size=1, crown_size_cap=12)
    for i in range(12):
        raw = crown_heavy_context(rng, 7 + i % 5)
        calls.clear()
        ctx, _ = clarify_objects(raw)
        assert calls == []
        motifs = enumerate_motifs(ctx, config)
        assert len(motifs) == sum(len(enumerate_family(ctx, f, config)) for f in ALL)
        assert calls == [len(ctx.objects)]
        assert enumerate_motifs(ctx, config, maximal_only=True) and calls == [len(ctx.objects)]
        steps = greedy_cover(ctx, motifs, 1_000_000)
        assert steps and calls == [len(ctx.objects)]
        crown_picks += sum(ScaleFamily.CROWN in step.families for step in steps)
        assert ctx.meet_links() is ctx.meet_links() and len(calls) == 1
    assert crown_picks


def test_crown_search_stops_at_pairs_sharing_only_a_common_column():
    # Every pair of objects overlaps, but only in the column all of them hold.
    ctx = with_shared_column(build_scale(ScaleFamily.NOMINAL, 14))
    started = time.perf_counter()
    assert enumerate_family(ctx, CROWN) == []
    assert time.perf_counter() - started < 2


def test_crown_search_runs_on_rows_alone(monkeypatch):
    # Every family's default enumeration, crowns and the four step rules
    # alike, decides on rows: no closure and no recognition of a candidate.
    def forbidden(*args):
        raise AssertionError("enumeration must not call this")

    rng = Random(83)
    contexts = [clarify_objects(crown_heavy_context(rng, 8))[0] for _ in range(10)]
    contexts += [clarify_objects(full_row_context(rng, 8))[0] for _ in range(5)]
    contexts += [build_scale(f, 7) for f in ALL]
    expected = [enumerate_motifs(ctx) for ctx in contexts]
    for f in ALL:
        assert any(m.family is f for pool in expected for m in pool), f
    monkeypatch.setattr(FormalContext, "object_closure", forbidden)
    monkeypatch.setattr("ordmotif.enumeration.recognize", forbidden)
    assert [enumerate_motifs(ctx) for ctx in contexts] == expected


def test_full_row_contexts_match_the_subset_oracle():
    # The oracle corpus stops at 6 objects and rarely holds a full row, which
    # ordinal motifs above size one need.
    rng = Random(89)
    config = EnumerationConfig(min_size=1)
    ordinal_sizes = set()
    for i in range(16):
        ctx, _ = clarify_objects(full_row_context(rng, 7 + i % 4))
        n = len(ctx.objects)
        for f in HEREDITARY:
            got = domains(enumerate_family(ctx, f, config))
            assert got == subsets_oracle(ctx, f, 1, n), (ctx.rows, f)
        want = [
            motif
            for size in range(1, n + 1)
            for domain in combinations(range(n), size)
            if (motif := recognize(ctx, domain, ScaleFamily.ORDINAL)) is not None
        ]
        assert by_size(enumerate_family(ctx, ScaleFamily.ORDINAL, config)) == want
        ordinal_sizes.update(m.size for m in want)
    assert max(ordinal_sizes) >= 4


def test_enumeration_matches_subset_oracle():
    rng = Random(53)
    config = EnumerationConfig(min_size=1)
    for _ in range(60):
        ctx, _ = clarify_objects(
            random_context(rng, rng.randint(1, 6), rng.randint(1, 6), rng.uniform(0.3, 0.7))
        )
        n = len(ctx.objects)
        for f in ALL:
            got = domains(enumerate_family(ctx, f, config))
            want = subsets_oracle(ctx, f, 1, n)
            assert got == want, (ctx.rows, f)


def test_enumerated_motifs_are_valid_and_unique():
    rng = Random(59)
    for _ in range(40):
        ctx, _ = clarify_objects(random_context(rng, 6, 5, rng.uniform(0.3, 0.7)))
        for family in ALL:
            motifs = enumerate_family(ctx, family)
            assert len(domains(motifs)) == len(motifs)
            for m in motifs:
                assert m.family is family
                assert is_valid_motif(ctx, m)


def test_hereditary_families_are_downward_closed():
    rng = Random(61)
    closed_families = (
        ScaleFamily.NOMINAL,
        ScaleFamily.INTERORDINAL,
        ScaleFamily.CONTRANOMINAL,
    )
    for _ in range(40):
        ctx, _ = clarify_objects(random_context(rng, 6, 5, rng.uniform(0.3, 0.7)))
        for f in closed_families:
            found = domains(enumerate_family(ctx, f))
            for d in found:
                for k in range(2, len(d)):
                    for sub in combinations(d, k):
                        assert sub in found, (ctx.rows, f, d, sub)


def test_ordinal_domains_shrink_onto_their_bottom():
    # Subsets of an ordinal domain stay ordinal exactly when they keep the
    # object whose closure is the chain's least extent.
    rng = Random(67)
    for _ in range(40):
        ctx, _ = clarify_objects(random_context(rng, 6, 5, rng.uniform(0.3, 0.7)))
        found = domains(enumerate_family(ctx, ScaleFamily.ORDINAL))
        for d in found:
            witness = recognize(ctx, d, ScaleFamily.ORDINAL)
            bottom = witness.domain[0]
            for k in range(2, len(d)):
                for sub in combinations(d, k):
                    inside = sub in found
                    assert inside == (bottom in sub), (ctx.rows, d, sub)


def test_maximal_filter_on_boolean_three():
    b3 = build_scale(ScaleFamily.CONTRANOMINAL, 3)
    motifs = enumerate_family(b3, ScaleFamily.CONTRANOMINAL)
    maximal = maximal_filter(motifs, ScaleFamily.CONTRANOMINAL)
    assert domains(maximal) == {(0, 1, 2)}


def test_maximal_filter_equals_superset_freedom():
    rng = Random(71)
    for _ in range(30):
        ctx, _ = clarify_objects(random_context(rng, 6, 5, rng.uniform(0.3, 0.7)))
        for f in ALL:
            motifs = enumerate_family(ctx, f)
            found = domains(motifs)
            expected = {
                d
                for d in found
                if not any(d != e and set(d) <= set(e) for e in found)
            }
            assert domains(maximal_filter(motifs, f)) == expected


def test_crowns_never_nest():
    # So maximal_filter returns crowns unfiltered; check the law itself.
    rng = Random(73)
    raws = [random_context(rng, 6, 6, rng.uniform(0.3, 0.7)) for _ in range(30)]
    raws += [crown_heavy_context(rng, 8 + i % 5) for i in range(20)]
    total = 0
    for raw in raws:
        ctx, _ = clarify_objects(raw)
        crowns = enumerate_family(ctx, CROWN, EnumerationConfig(crown_size_cap=12))
        masks = {m.domain_mask for m in crowns}
        for mask in masks:
            assert not any(other != mask and other & mask == mask for other in masks)
        assert maximal_filter(crowns, ScaleFamily.CROWN) == crowns
        total += len(crowns)
    assert total > 100


@pytest.mark.parametrize(
    "min_size,max_size,crown_cap",
    [
        pytest.param(lo, hi, DEFAULT_CROWN_SIZE_CAP, id=f"{lo}-{hi}")
        for lo in (1, 2, 3)
        for hi in (1, 2, 3, None)
        if hi is None or lo <= hi
    ]
    + [pytest.param(2, None, 4, id="2-None-cap4")],
)
def test_nominal_search_marks_the_maximal_motifs(min_size, max_size, crown_cap):
    # Every family's maximal list, nominal's from the clique search in
    # maximal mode at every size bound and the others' from the one-short
    # rule, must equal that rule on the full list and superset freedom.
    # The ``motifs`` command counts it with ``maximal_filter``, so both
    # must agree; and a maximal pool joins the lists in family rank order.
    rng = Random(131)
    contexts = [random_corpus_item(rng) for _ in range(60)]
    contexts += [full_row_context(rng, 7 + i % 4) for i in range(8)]
    contexts += [with_shared_column(random_context(rng, 7 + i % 4, 6, 0.35)) for i in range(8)]
    contexts += [with_shared_column(build_scale(ScaleFamily.NOMINAL, 5))]
    contexts += [crown_heavy_context(rng, 7 + i % 3) for i in range(4)]
    config = EnumerationConfig(
        families=tuple(reversed(ALL)),
        min_size=min_size,
        max_size=max_size,
        crown_size_cap=crown_cap,
    )
    capped = searched = 0
    found_any = dict.fromkeys(ALL, 0)
    for ctx in contexts:
        ctx, _ = clarify_objects(ctx)
        lists = {}
        for family in ALL:
            motifs = enumerate_family(ctx, family, config)
            maximal = enumerate_family(ctx, family, config, maximal=True)
            lists[family] = maximal
            assert by_size(maximal) == by_size(maximal_filter(motifs, family)), (ctx.rows, family)
            found = domains(motifs)
            expected = {d for d in found if not any(d != e and set(d) <= set(e) for e in found)}
            assert domains(maximal) == expected, (ctx.rows, family)
            assert len(maximal) == len(expected)
            found_any[family] += len(maximal)
            if family is ScaleFamily.NOMINAL:
                everything = domains(enumerate_family(ctx, family, EnumerationConfig(min_size=1)))
                capped += sum(1 for d in expected if any(set(d) < set(e) for e in everything))
        # Rank order, whatever order ``config`` names the families in.
        assert enumerate_motifs(ctx, config, True) == [m for f in ALL for m in lists[f]]
        assert enumerate_motifs(ctx, config) == [
            m for f in ALL for m in enumerate_family(ctx, f, config)
        ]
        searched += max_size is None or max_size >= len(ctx.objects)
    # A size cap below the largest clique leaves maximal nominal motifs
    # that grow; singletons, with the full row, never do.
    assert (capped > 0) == (max_size in (2, 3))
    assert searched > 0
    # Ordinal motifs of two objects or more need a full row, which few
    # tables here hold, and crowns at least three objects.
    big_enough = [f for f in ALL if max_size is None or max_size >= 3 or f is not CROWN]
    assert all(found_any[f] for f in big_enough), found_any


@pytest.mark.parametrize(
    "min_size,max_size",
    [(lo, hi) for lo in (1, 2, 3) for hi in (1, 2, 3, 4, None) if hi is None or lo <= hi],
)
def test_maximal_nominal_list_matches_the_subset_oracle(min_size, max_size):
    # The one-short rule on the oracle's nominal domains within the bounds,
    # against the clique search in maximal mode. The shared-column nominal
    # scales are cliques of up to 6 objects, so they grow past every cut.
    rng = Random(139)
    contexts = [random_corpus_item(rng) for _ in range(30)]
    contexts += [full_row_context(rng, 6 + i % 2) for i in range(4)]
    contexts += [with_shared_column(build_scale(ScaleFamily.NOMINAL, n)) for n in (4, 5, 6)]
    config = EnumerationConfig(min_size=min_size, max_size=max_size)
    cut = 0
    for ctx in contexts:
        ctx, _ = clarify_objects(ctx)
        n = len(ctx.objects)
        hi = n if max_size is None else max_size
        found = subsets_oracle(ctx, ScaleFamily.NOMINAL, min_size, hi)
        expected = {
            d for d in found if not any(tuple(sorted(d + (g,))) in found for g in range(n))
        }
        maximal = enumerate_family(ctx, ScaleFamily.NOMINAL, config, maximal=True)
        assert len(maximal) == len(expected), ctx.rows
        assert domains(maximal) == expected, ctx.rows
        everything = subsets_oracle(ctx, ScaleFamily.NOMINAL, 1, n)
        cut += sum(1 for d in expected if any(set(d) < set(e) for e in everything))
    assert (cut > 0) == (max_size is not None and max_size >= 2)


def test_maximal_pool_lists_no_nominal_clique(monkeypatch, tmp_path, capsys):
    # A maximal pool runs the clique search once, in maximal mode, at every
    # size bound, and enumerates no full nominal list. The ``motifs``
    # command runs it once, in full mode, and its stats come out as the
    # one-short rule on the full list gives. The search runs only where
    # pairs fit under the size bound.
    calls = []
    cliques = enumeration._cliques

    def counting(context, lo, hi, maximal):
        calls.append((hi, maximal))
        return cliques(context, lo, hi, maximal)

    monkeypatch.setattr(enumeration, "_cliques", counting)
    rng = Random(137)
    contexts = [random_corpus_item(rng) for _ in range(20)]
    contexts += [random_context(rng, 14, 10, 0.3) for _ in range(4)]
    for raw in contexts:
        ctx, _ = clarify_objects(raw)
        n = len(ctx.objects)
        configs = (
            EnumerationConfig(),
            EnumerationConfig(min_size=1),
            EnumerationConfig(max_size=max(n - 1, 1)),
            EnumerationConfig(min_size=1, max_size=max(n - 1, 1)),
        )
        for config in configs:
            _, hi = config.bounds(ScaleFamily.NOMINAL, n)
            calls.clear()
            pool = enumerate_motifs(ctx, config, maximal_only=True)
            assert calls == [(hi, True)] * (hi >= 2)
            nominal = [m for m in pool if m.family is ScaleFamily.NOMINAL]
            assert nominal == enumerate_family(ctx, ScaleFamily.NOMINAL, config, maximal=True)
            calls.clear()
            stats = motifs_stats(tmp_path / "context.cxt", capsys, ctx, config)
            assert calls == [(hi, False)] * (hi >= 2)
            full = enumerate_family(ctx, ScaleFamily.NOMINAL, config)
            assert stats["nominal"] == {
                "total": len(full),
                "maximal": len(maximal_filter(full, ScaleFamily.NOMINAL)),
                "largest": max((m.size for m in full), default=0),
            }


def test_maximal_nominal_refuses_a_size_cut():
    # Nothing refuses a cut: under one, sets at the bound count as maximal
    # though they grow, and the clique search lists them in maximal mode,
    # without the pivot that would skip them.
    ctx = build_scale(ScaleFamily.NOMINAL, 4)

    def maximal(max_size):
        config = EnumerationConfig(max_size=max_size)
        return enumerate_family(ctx, ScaleFamily.NOMINAL, config, maximal=True)

    assert [m.domain for m in maximal(None)] == [(0, 1, 2, 3)]
    assert maximal(4) == maximal(None)
    assert domains(maximal(3)) == set(combinations(range(4), 3))


def test_unclarified_context_is_rejected():
    ctx = FormalContext(["a", "b"], ["p"], [[1], [1]])
    with pytest.raises(UnclarifiedObjectsError):
        enumerate_family(ctx, ScaleFamily.NOMINAL)
    with pytest.raises(UnclarifiedObjectsError):
        enumerate_family(ctx, CROWN)
    with pytest.raises(UnclarifiedObjectsError):
        enumerate_motifs(ctx)


def test_singletons_when_minimum_allows():
    ctx = FormalContext(["full", "partial"], ["p", "q"], [[1, 1], [0, 1]])
    config = EnumerationConfig(min_size=1)
    for f in (ScaleFamily.NOMINAL, ScaleFamily.ORDINAL, ScaleFamily.INTERORDINAL):
        assert (0,) in domains(enumerate_family(ctx, f, config))
        assert (1,) not in domains(enumerate_family(ctx, f, config))
    got = domains(enumerate_family(ctx, ScaleFamily.CONTRANOMINAL, config))
    assert (1,) in got and (0,) not in got


def test_config_validation():
    with pytest.raises(ValueError):
        EnumerationConfig(min_size=4, max_size=3)
    # Sizes below a family's own minimum are raised to it, not rejected.
    assert EnumerationConfig(min_size=0).bounds(ScaleFamily.NOMINAL, 5) == (1, 5)
    assert EnumerationConfig(min_size=1).bounds(ScaleFamily.CROWN, 5) == (3, 5)
    assert EnumerationConfig().bounds(ScaleFamily.ORDINAL, 5) == (2, 5)
    with pytest.raises(ValueError):
        EnumerationConfig(crown_size_cap=2)
    with pytest.raises(ValueError, match="no scale family"):
        EnumerationConfig(families=())


def test_config_keeps_each_family_at_its_first_mention():
    crown, nominal = ScaleFamily.CROWN, ScaleFamily.NOMINAL
    assert EnumerationConfig(families=(crown, nominal, crown)).families == (crown, nominal)

    def fields(c):
        return c.families, c.min_size, c.max_size, c.crown_size_cap

    assert fields(EnumerationConfig()) == (tuple(ScaleFamily), None, None, DEFAULT_CROWN_SIZE_CAP)
    assert fields(EnumerationConfig((nominal,), 2, 4, 5)) == ((nominal,), 2, 4, 5)


def test_size_bounds_are_respected():
    b4 = build_scale(ScaleFamily.CONTRANOMINAL, 4)
    config = EnumerationConfig(
        families=(ScaleFamily.CONTRANOMINAL,), min_size=3, max_size=3
    )
    motifs = enumerate_family(b4, ScaleFamily.CONTRANOMINAL, config)
    assert {m.size for m in motifs} == {3}
    assert len(motifs) == 4


@pytest.mark.parametrize("max_size", [-1, 0, 1])
def test_max_size_below_two_grows_nothing(max_size):
    rng = Random(101)
    contexts = [build_scale(f, 5) for f in ALL]
    contexts += [clarify_objects(full_row_context(rng, 7))[0] for _ in range(5)]
    config = EnumerationConfig(max_size=max_size)
    for ctx in contexts:
        for f in ALL:
            assert all(m.size < 2 for m in enumerate_family(ctx, f, config)), (ctx.rows, f)


def test_min_and_max_size_one_yield_singletons_only():
    rng = Random(103)
    contexts = [build_scale(f, 5) for f in ALL]
    contexts += [clarify_objects(full_row_context(rng, 7))[0] for _ in range(5)]
    config = EnumerationConfig(min_size=1, max_size=1)
    seen = set()
    for ctx in contexts:
        for f in ALL:
            motifs = enumerate_family(ctx, f, config)
            assert all(m.size == 1 for m in motifs), (ctx.rows, f)
            assert domains(motifs) == subsets_oracle(ctx, f, 1, 1)
            seen.update(m.family for m in motifs)
    assert seen == set(HEREDITARY)


@pytest.mark.parametrize(
    "min_size,max_size", [(None, None), (1, None), (1, 1), (1, 2), (None, 3), (3, 5)]
)
def test_every_family_lists_motifs_by_size_then_sorted_domain(
    min_size, max_size, tmp_path, capsys
):
    # The searches emit in their own order; the motifs listing sorts it by
    # family rank, size, then sorted domain, each witness kept as found.
    rng = Random(107)
    contexts = [random_context(rng, 9, 7, rng.uniform(0.3, 0.7)) for _ in range(6)]
    contexts += [full_row_context(rng, 8) for _ in range(4)]
    contexts += [crown_heavy_context(rng, 10) for _ in range(4)]
    flags = ["--crown-cap", "6"]
    flags += ["--min-size", str(min_size)] * (min_size is not None)
    flags += ["--max-size", str(max_size)] * (max_size is not None)
    path = tmp_path / "context.cxt"
    sizes: dict[ScaleFamily, set[int]] = {f: set() for f in ALL}
    for ctx in contexts:
        ctx, _ = clarify_objects(ctx)
        path.write_text(to_burmeister(ctx), encoding="utf-8")
        index = {label: g for g, label in enumerate(ctx.objects)}
        for maximal_only in (False, True):
            argv = ["motifs", str(path), "--json", *flags]
            assert main(argv + ["--maximal-only"] * maximal_only) == 0
            listing = [
                (ScaleFamily.from_name(m["family"]), tuple(index[g] for g in m["domain"]))
                for m in json.loads(capsys.readouterr().out)["motifs"]
            ]
            keys = [(f, len(d), sorted(d)) for f, d in listing]
            assert keys == sorted(keys), ctx.rows
            assert len({(f, tuple(sorted(d))) for f, d in listing}) == len(listing), ctx.rows
            for f, d in listing:
                sizes[f].add(len(d))
    # The sets span several sizes, so the order is tested across levels.
    lo = min_size or 2
    hi = 4 if max_size is None else min(max_size, 4)
    for f in (ScaleFamily.NOMINAL, ScaleFamily.CONTRANOMINAL):
        assert set(range(lo, hi + 1)) <= sizes[f], f


def _fixed_row_size_context(rng, n_objects, n_attributes, per_row):
    # Every object holds ``per_row`` attributes, like the sparse and dense
    # benchmark tables.
    rows = [
        sum(1 << m for m in rng.sample(range(n_attributes), per_row))
        for _ in range(n_objects)
    ]
    objects = [f"g{g + 1}" for g in range(n_objects)]
    attributes = [f"m{m + 1}" for m in range(n_attributes)]
    return clarify_objects(FormalContext.from_rows(objects, attributes, rows))[0]


def _superset_free(motifs):
    masks = [m.domain_mask for m in motifs]
    return [m for m, a in zip(motifs, masks) if not any(b != a and b & a == a for b in masks)]


def test_candidate_masks_drop_only_objects_the_step_rejects():
    # The searches narrow each node's options with candidate masks before
    # the step rule runs. A plain depth-first search under the step rules
    # (tests/oracles.py), trying every object, must list the same paths in
    # the same order, and the same maximal ones, also with singletons and
    # under a size cut.
    rng = Random(107)
    contexts = [clarify_objects(random_corpus_item(rng))[0] for _ in range(60)]
    contexts += [clarify_objects(full_row_context(rng, 7 + i % 4))[0] for i in range(8)]
    contexts += [
        clarify_objects(with_shared_column(random_context(rng, 7 + i % 4, 6, 0.35)))[0]
        for i in range(8)
    ]
    contexts += [
        _fixed_row_size_context(Random(109), 27, 23, 3),
        _fixed_row_size_context(Random(113), 22, 18, 6),
    ]
    listed = dict.fromkeys(STEP_FAMILIES, 0)
    for ctx in contexts:
        for family in STEP_FAMILIES:
            for config in (EnumerationConfig(), EnumerationConfig(min_size=1, max_size=3)):
                lo, hi = config.bounds(family, len(ctx.objects))
                expected = hereditary_oracle(ctx, family, lo, hi)
                assert enumerate_family(ctx, family, config) == expected, (ctx.rows, family)
                maximal = enumerate_family(ctx, family, config, maximal=True)
                assert maximal == _superset_free(expected), (ctx.rows, family)
                listed[family] += len(expected)
    assert all(count > 300 for count in listed.values()), listed


class _CountingRows(tuple):
    # A rows tuple that counts its item reads: the searches read one row
    # per object they try.
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def test_candidate_masks_keep_step_rule_calls_down():
    # The searches read one row per object they try, and a few per node.
    # On this table they read 5,913 interordinal and 1,852 contranominal
    # rows; under the full step rules with no candidate masks, trying every
    # accepted sibling, the same loops read 14,127 and 3,798. Without the
    # pair masks kept per search and the direction cut, interordinal
    # walks read 6,661.
    ctx = _fixed_row_size_context(Random(127), 27, 23, 3)
    rows = _CountingRows(ctx.rows)
    object.__setattr__(ctx, "rows", rows)
    reads = {}
    for family, least in (ScaleFamily.INTERORDINAL, 1000), (ScaleFamily.CONTRANOMINAL, 400):
        rows.reads = 0
        assert len(enumerate_family(ctx, family)) >= least
        reads[family] = rows.reads
    assert reads[ScaleFamily.INTERORDINAL] < 6_300, reads
    assert reads[ScaleFamily.CONTRANOMINAL] < 2_500, reads


class _CountingLinks(dict):
    # One object's links that count their lookups: a crown walk reads
    # one per node it pops but the root, up to three per seed triplet,
    # and one per b whose walk has a node with children.
    gets = 0

    def get(self, key, default=None):
        _CountingLinks.gets += 1
        return dict.get(self, key, default)


def test_crown_closers_keep_link_reads_down():
    # On this table of 3,559 crowns the walk reads 11,428 links, and 5,013
    # for the 2,016 crowns under cap 5. Pushing every child, as a walk that
    # does not narrow to the objects that can still close with b does, it
    # reads 15,624 and 8,376; narrowing only where no descendant can close,
    # and not one short of the cap, 12,813 and 7,330. Reading the root's
    # links again and each b's closers before its walk, 12,074 and 5,659.
    # On the spices-shaped table of 4,966 crowns, 4,055 links, and 5,446
    # with those two reads.
    tables = [
        (random_context(Random(0), 40, 25, 0.12), ((8, 3_500, 12_000), (5, 2_000, 5_400))),
        (random_context(Random(3), 37, 56, 0.19), ((8, 4_900, 5_048),)),
    ]
    for raw, caps in tables:
        ctx, _ = clarify_objects(raw)
        links = {g: _CountingLinks(table) for g, table in ctx.meet_links().items()}
        object.__setattr__(ctx, "_meet_links", links)
        for cap, least, bound in caps:
            _CountingLinks.gets = 0
            assert len(enumerate_family(ctx, CROWN, EnumerationConfig(crown_size_cap=cap))) >= least
            assert _CountingLinks.gets < bound, (cap, _CountingLinks.gets)


def test_crown_walks_over_a_mask_of_b_chain_the_one_b_walks():
    # Enumeration hands crown_walks every b above a at once; the walks
    # come out as the one-b calls give them, b by b in ascending order.
    rng = Random(151)
    raws = [crown_heavy_context(rng, rng.randint(6, 11)) for _ in range(20)]
    raws += [random_context(rng, rng.randint(8, 14), rng.randint(5, 9), 0.3) for _ in range(20)]
    walks = 0
    for raw in raws:
        ctx, _ = clarify_objects(raw)
        rows, links, everyone = ctx.rows, ctx.meet_links(), ctx.object_mask
        for lo, hi in (3, 8), (4, 5), (3, 3), (5, 12):
            for x in range(len(rows)):
                ups = sum(links[x].values()) & -(2 << x)
                for a in range(x + 1, len(rows)):
                    bs = ups & -(2 << a)
                    got = list(crown_walks(rows, links, everyone, x, a, bs, lo, hi))
                    want = [w for b in range(a + 1, len(rows)) if bs >> b & 1
                            for w in crown_walks(rows, links, everyone, x, a, 1 << b, lo, hi)]
                    assert got == want, (rows, x, a, lo, hi)
                    walks += len(got)
    assert walks > 500, walks
