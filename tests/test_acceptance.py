"""Acceptance gate: one test per shipped guarantee, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
for each criterion. The spices planner reproduction needs the dataset
file; without it that criterion reports as skipped and the others stand
alone.
"""

import json
import os
import re
import time
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

from ordmotif import (
    EnumerationConfig,
    HeuristicKind,
    IncompleteCoveringError,
    Motif,
    ScaleFamily,
    build_basis,
    build_scale,
    clarify_objects,
    enumerate_motifs,
    explain_covering,
    greedy_cover,
    load_context,
    recognize,
    scaling_dimension,
    verify_full,
    verify_scale_measure,
)
from ordmotif.covering import covered_extents
from ordmotif.cli import main
from ordmotif.enumeration import enumerate_family
from ordmotif.explain import TEMPLATES, render_motif

from oracles import (
    dimension_oracle,
    expected_extent_count,
    extent_set,
    induced_subcontext,
    is_valid_motif,
    random_context,
    subsets_oracle,
)

ALL = list(ScaleFamily)
CORPUS_SEED = 233
CORPUS_SIZE = 1000

SPICES_PATH = Path(
    os.environ.get("ORDMOTIF_SPICES", Path(__file__).parent.parent / "data" / "spices.cxt")
)


def corpus(seed: int, count: int):
    rng = Random(seed)
    for _ in range(count):
        raw = random_context(
            rng, rng.randint(1, 6), rng.randint(1, 6), rng.uniform(0.3, 0.7)
        )
        ctx, _ = clarify_objects(raw)
        yield ctx


def test_criterion_1_scale_self_recognition():
    start = time.monotonic()
    for family in ALL:
        sizes = range(3, 9) if family is ScaleFamily.CROWN else range(2, 8)
        for n in sizes:
            scale = build_scale(family, n)
            motif = recognize(scale, range(n), family)
            assert motif is not None, (family, n)
            assert is_valid_motif(scale, motif)
            sigma = [0] * n
            for i, g in enumerate(motif.domain):
                sigma[g] = i
            assert verify_full(scale, sigma, build_scale(family, n)), (family, n)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"self-recognition took {elapsed:.2f}s"
    print(f"criterion 1 (scale self-recognition, {elapsed:.2f}s): PASS")


def test_criterion_2_oracle_equivalence():
    config = EnumerationConfig(min_size=1)
    discrepancies = 0
    decisions = 0
    for ctx in corpus(CORPUS_SEED, CORPUS_SIZE):
        n = len(ctx.objects)
        for family in ALL:
            want = subsets_oracle(ctx, family, 1, n)
            got = {
                tuple(sorted(m.domain))
                for m in enumerate_family(ctx, family, config)
            }
            if got != want:
                discrepancies += 1
            for size in range(1, n + 1):
                for domain in combinations(range(n), size):
                    decisions += 1
                    if (recognize(ctx, domain, family) is not None) != (
                        domain in want
                    ):
                        discrepancies += 1
    assert discrepancies == 0
    assert decisions >= 50000
    print(
        f"criterion 2 (oracle equivalence, {CORPUS_SIZE} contexts,"
        f" {decisions} decisions, 0 discrepancies): PASS"
    )


def test_criterion_3_heredity_and_coverage_counts():
    config = EnumerationConfig(min_size=1)
    downward_closed = (
        ScaleFamily.NOMINAL,
        ScaleFamily.INTERORDINAL,
        ScaleFamily.CONTRANOMINAL,
    )
    motifs_checked = 0
    for ctx in corpus(CORPUS_SEED, CORPUS_SIZE):
        extents = set(ctx.extents())
        for family in ALL:
            motifs = enumerate_family(ctx, family, config)
            found = {tuple(sorted(m.domain)) for m in motifs}
            for m in motifs:
                motifs_checked += 1
                covered = extent_set(ctx, covered_extents(ctx, [m])[0])
                assert covered <= extents
                assert len(covered) == expected_extent_count(family, m.size), m
                d = tuple(sorted(m.domain))
                if family in downward_closed:
                    for k in range(2, len(d)):
                        for sub in combinations(d, k):
                            assert sub in found, (ctx.rows, family, d, sub)
                elif family is ScaleFamily.ORDINAL and m.size >= 2:
                    bottom = m.domain[0]
                    for k in range(2, len(d)):
                        for sub in combinations(d, k):
                            assert (sub in found) == (bottom in sub)
    print(
        f"criterion 3 (heredity and coverage counts,"
        f" {motifs_checked} motifs): PASS"
    )


@pytest.mark.skipif(
    not SPICES_PATH.exists(),
    reason=f"spices planner dataset not available at {SPICES_PATH}",
)
def test_criterion_4_spices_reproduction(capsys):
    context = load_context(SPICES_PATH).transpose()
    context, _ = clarify_objects(context)
    assert len(context.extents()) == 531

    assert main(["motifs", str(SPICES_PATH), "--transpose", "--clarify", "--json"]) == 0
    stats = [json.loads(capsys.readouterr().out)["stats"][str(f)] for f in ALL]
    assert [s["total"] for s in stats] == [2342, 37, 4643, 2910, 2145]
    assert [s["maximal"] for s in stats] == [527, 37, 2550, 1498, 2145]
    assert [s["largest"] for s in stats] == [9, 1, 5, 5, 6]

    pool = enumerate_motifs(context, EnumerationConfig(), maximal_only=True)
    for heuristic, expected in (
        (HeuristicKind.STANDARD, 195),
        (HeuristicKind.NORMALIZED, 125),
    ):
        steps = greedy_cover(context, pool, 10, heuristic)
        covered = steps[-1].cumulative
        if covered != expected:
            assert any(s.tie_count > 1 for s in steps), (heuristic, covered)
            assert abs(covered - expected) <= 0.02 * expected, (heuristic, covered)

    full_run = greedy_cover(context, pool, len(pool), HeuristicKind.STANDARD)
    assert full_run[-1].cumulative == 531
    for family in (ScaleFamily.NOMINAL, ScaleFamily.INTERORDINAL, ScaleFamily.CROWN):
        only = [m for m in pool if m.family is family]
        steps = greedy_cover(context, only, len(only), HeuristicKind.STANDARD)
        assert steps and steps[-1].cumulative < 531
    print("criterion 4 (spices reproduction): PASS")


def test_criterion_5_basis_property():
    rng = Random(239)
    config = EnumerationConfig(min_size=1)
    complete = 0
    attempts = 0
    while complete < 100:
        attempts += 1
        assert attempts <= 600, "complete coverings became too rare"
        ctx, _ = clarify_objects(
            random_context(rng, rng.randint(2, 6), rng.randint(2, 6), rng.uniform(0.3, 0.7))
        )
        motifs = enumerate_motifs(ctx, config)
        try:
            basis = build_basis(ctx, motifs)
        except IncompleteCoveringError:
            continue
        complete += 1
        assert set(basis.extents()) == set(ctx.extents())
        n = len(ctx.objects)
        for _ in range(20):
            size = rng.randint(1, n)
            h_mask = sum(1 << g for g in rng.sample(range(n), size))
            family = rng.choice(ALL)
            scale = build_scale(
                family, rng.randint(3 if family is ScaleFamily.CROWN else 1, 4)
            )
            sigma = [rng.randrange(len(scale.objects)) for _ in range(size)]
            sub_ctx = induced_subcontext(ctx, h_mask)
            sub_basis = induced_subcontext(basis, h_mask)
            assert verify_full(sub_ctx, sigma, scale) == verify_full(
                sub_basis, sigma, scale
            )
            assert verify_scale_measure(sub_ctx, sigma, scale) == (
                verify_scale_measure(sub_basis, sigma, scale)
            )
    print(
        f"criterion 5 (basis property, {complete} complete coverings"
        f" of {attempts} contexts): PASS"
    )


def test_criterion_6_scaling_dimension():
    for family, size in (
        (ScaleFamily.NOMINAL, 3),
        (ScaleFamily.ORDINAL, 3),
        (ScaleFamily.INTERORDINAL, 3),
        (ScaleFamily.CONTRANOMINAL, 3),
        (ScaleFamily.CROWN, 4),
    ):
        scale = build_scale(family, size)
        assert scaling_dimension(scale, [scale]) == 1

    ordinals = [build_scale(ScaleFamily.ORDINAL, n) for n in (2, 3)]
    assert scaling_dimension(build_scale(ScaleFamily.INTERORDINAL, 3), ordinals) == 2
    assert (
        scaling_dimension(
            build_scale(ScaleFamily.CONTRANOMINAL, 3),
            [build_scale(ScaleFamily.ORDINAL, 2)],
        )
        == 3
    )

    rng = Random(241)
    pool = [build_scale(ScaleFamily.ORDINAL, 2), build_scale(ScaleFamily.NOMINAL, 2)]
    for _ in range(15):
        ctx = random_context(
            rng, rng.randint(2, 4), rng.randint(2, 4), rng.uniform(0.3, 0.7)
        )
        assert scaling_dimension(ctx, pool, max_d=2) == dimension_oracle(ctx, pool, 2)
    print("criterion 6 (scaling dimension): PASS")


def test_criterion_7_explanation_goldens():
    assert render_motif(
        Motif(ScaleFamily.CONTRANOMINAL, (0, 1, 2, 3, 4)),
        ["Thyme", "Sweet Paprika", "Oregano", "Caraway", "Black Pepper"],
    ) == (
        "Each combination of the elements Thyme, Sweet Paprika, Oregano,"
        " Caraway and Black Pepper has a unique set of properties they have"
        " in common."
    )
    assert render_motif(
        Motif(ScaleFamily.NOMINAL, (0, 1, 2)), ["Tarragon", "Potatos", "Majoram"]
    ) == (
        "The elements Tarragon, Potatos and Majoram are incomparable, i.e.,"
        " all elements have at least one property that the other elements do"
        " not have."
    )
    assert render_motif(
        Motif(ScaleFamily.INTERORDINAL, (0, 1, 2)), ["Thyme", "Caraway", "Poultry"]
    ) == (
        "The elements Thyme, Caraway and Poultry are ordered in such a way"
        " that each interval of elements has a unique set of properties they"
        " have in common."
    )

    patterns = {}
    for family, template in TEMPLATES.items():
        escaped = re.escape(template)
        for slot in ("\\{names\\}", "\\{first\\}", "\\{rest\\}"):
            escaped = escaped.replace(slot, ".+")
        patterns[family] = re.compile(escaped)

    rng = Random(251)
    config = EnumerationConfig(min_size=2)
    rendered = 0
    for _ in range(20):
        ctx, groups = clarify_objects(random_context(rng, 5, 5, rng.uniform(0.3, 0.7)))
        steps = greedy_cover(ctx, enumerate_motifs(ctx, config), 6)
        texts = explain_covering(steps, ["/".join(group) for group in groups])
        for step, text in zip(steps, texts):
            for family, paragraph in zip(step.families, text.split("\n")):
                assert patterns[family].fullmatch(paragraph), paragraph
                rendered += 1
    assert rendered >= 30
    print(f"criterion 7 (explanation goldens, {rendered} sentences): PASS")
