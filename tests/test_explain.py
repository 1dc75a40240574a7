import re
from random import Random

import pytest

from ordmotif import (
    EnumerationConfig,
    FormalContext,
    Motif,
    ScaleFamily,
    build_scale,
    clarify_objects,
    enumerate_motifs,
    explain_covering,
    greedy_cover,
    number_entries,
)
from ordmotif.explain import TEMPLATES, join_names, render_motif

from oracles import random_context

B3 = build_scale(ScaleFamily.CONTRANOMINAL, 3)

SPICES = ["Thyme", "Sweet Paprika", "Oregano", "Caraway", "Black Pepper"]


def test_combination_sentence_wording():
    motif = Motif(ScaleFamily.CONTRANOMINAL, (0, 1, 2, 3, 4))
    assert render_motif(motif, SPICES) == (
        "Each combination of the elements Thyme, Sweet Paprika, Oregano,"
        " Caraway and Black Pepper has a unique set of properties they have"
        " in common."
    )


def test_incomparable_sentence_wording():
    motif = Motif(ScaleFamily.NOMINAL, (0, 1, 2))
    labels = ["Tarragon", "Potatos", "Majoram"]
    assert render_motif(motif, labels) == (
        "The elements Tarragon, Potatos and Majoram are incomparable, i.e.,"
        " all elements have at least one property that the other elements do"
        " not have."
    )


def test_interval_sentence_wording():
    motif = Motif(ScaleFamily.INTERORDINAL, (0, 1, 2))
    labels = ["Thyme", "Caraway", "Poultry"]
    assert render_motif(motif, labels) == (
        "The elements Thyme, Caraway and Poultry are ordered in such a way"
        " that each interval of elements has a unique set of properties they"
        " have in common."
    )


def test_cycle_sentence_wording():
    motif = Motif(ScaleFamily.CROWN, (0, 1, 2))
    labels = ["Basil", "Sauces", "Mugwort"]
    assert render_motif(motif, labels) == (
        "The elements Basil, Sauces and Mugwort are incomparable."
        " Furthermore, there is a closed cycle from Basil over Sauces and"
        " Mugwort back to Basil by pairwise shared properties."
    )


def test_ranking_sentence_wording():
    motif = Motif(ScaleFamily.ORDINAL, (0, 1, 2))
    labels = ["Salt", "Pepper", "Saffron"]
    assert render_motif(motif, labels) == (
        "There is a ranking of elements Salt, Pepper and Saffron such that"
        " an element has all the properties its successors has."
    )


def test_join_names_rules():
    assert join_names(["a"]) == "a"
    assert join_names(["a", "b"]) == "a and b"
    assert join_names(["a", "b", "c"]) == "a, b and c"
    with pytest.raises(ValueError):
        join_names([])


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError):
        render_motif(Motif(ScaleFamily.NOMINAL, (0, 5)), ["a", "b"])


def test_clarified_groups_render_merged_labels():
    raw = FormalContext(["water", "wine", "rain"], ["cold", "red"], [[1, 0], [0, 1], [1, 0]])
    _, groups = clarify_objects(raw)
    motif = Motif(ScaleFamily.NOMINAL, (0, 1))
    text = render_motif(motif, ["/".join(group) for group in groups])
    assert text.startswith("The elements water/rain and wine are incomparable")


def test_dual_motif_renders_both_paragraphs():
    steps = greedy_cover(B3, [Motif(ScaleFamily.CONTRANOMINAL, (0, 1, 2))], 1)
    texts = explain_covering(steps, B3.objects)
    assert len(texts) == 1
    assert steps[0].families == (
        ScaleFamily.CONTRANOMINAL,
        ScaleFamily.CROWN,
    )
    combination, cycle = texts[0].split("\n")
    assert combination.startswith("Each combination of the elements 1, 2 and 3")
    assert "closed cycle from 1 over 2 and 3 back to 1" in cycle


def test_doc_numbering_keeps_continuations_unnumbered():
    steps = greedy_cover(B3, [Motif(ScaleFamily.CONTRANOMINAL, (0, 1, 2))], 1)
    lines = number_entries(explain_covering(steps, B3.objects)).split("\n")
    assert lines[0].startswith("1. Each combination")
    assert lines[1].startswith("The elements")


def test_empty_covering_renders_empty_doc():
    texts = explain_covering([], B3.objects)
    assert texts == []
    assert number_entries(texts) == ""


def _pattern(template: str) -> re.Pattern[str]:
    escaped = re.escape(template)
    for slot in ("\\{names\\}", "\\{first\\}", "\\{rest\\}"):
        escaped = escaped.replace(slot, ".+")
    return re.compile(escaped)


def test_rendered_sentences_match_their_templates():
    rng = Random(131)
    config = EnumerationConfig(min_size=2)
    rendered = 0
    for _ in range(25):
        ctx, groups = clarify_objects(
            random_context(rng, 5, 5, rng.uniform(0.3, 0.7))
        )
        steps = greedy_cover(ctx, enumerate_motifs(ctx, config), 6)
        texts = explain_covering(steps, ["/".join(group) for group in groups])
        for step, text in zip(steps, texts, strict=True):
            paragraphs = text.split("\n")
            assert len(paragraphs) == len(step.families)
            for family, paragraph in zip(step.families, paragraphs):
                assert _pattern(TEMPLATES[family]).fullmatch(paragraph)
                rendered += 1
    assert rendered >= 40


def test_entries_follow_selection_order():
    ctx = build_scale(ScaleFamily.INTERORDINAL, 3)
    steps = greedy_cover(
        ctx, enumerate_motifs(ctx, EnumerationConfig()), 5
    )
    texts = explain_covering(steps, ctx.objects)
    assert texts == [
        "\n".join(render_motif(w, ctx.objects) for w in s.witnesses) for s in steps
    ]
    assert number_entries(texts) == number_entries(explain_covering(steps, ctx.objects))
