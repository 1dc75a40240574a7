import re
from random import Random

import pytest

from ordmotif import (
    ClarificationMap,
    EnumerationConfig,
    FormalContext,
    Motif,
    ScaleFamily,
    build_scale,
    clarify_objects,
    enumerate_motifs,
    explain_covering,
    greedy_cover,
)
from ordmotif.context import object_labels
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
    ctx = FormalContext(["water", "wine"], ["cold", "red"], [[1, 0], [0, 1]])
    clar = ClarificationMap({0: ("water", "rain"), 1: ("wine",)})
    motif = Motif(ScaleFamily.NOMINAL, (0, 1))
    text = render_motif(motif, object_labels(ctx, clar))
    assert text.startswith("The elements water/rain and wine are incomparable")


def test_dual_motif_renders_both_paragraphs():
    steps = greedy_cover(B3, [Motif(ScaleFamily.CONTRANOMINAL, (0, 1, 2))], 1)
    doc = explain_covering(B3, steps)
    assert len(doc.entries) == 1
    entry = doc.entries[0]
    assert entry.families_rendered == (
        ScaleFamily.CONTRANOMINAL,
        ScaleFamily.CROWN,
    )
    combination, cycle = entry.text.split("\n")
    assert combination.startswith("Each combination of the elements 1, 2 and 3")
    assert "closed cycle from 1 over 2 and 3 back to 1" in cycle


def test_doc_numbering_keeps_continuations_unnumbered():
    steps = greedy_cover(B3, [Motif(ScaleFamily.CONTRANOMINAL, (0, 1, 2))], 1)
    doc = explain_covering(B3, steps)
    lines = doc.to_text().split("\n")
    assert lines[0].startswith("1. Each combination")
    assert lines[1].startswith("The elements")


def test_empty_covering_renders_empty_doc():
    doc = explain_covering(B3, [])
    assert doc.entries == ()
    assert doc.to_text() == ""


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
        ctx, clar = clarify_objects(
            random_context(rng, 5, 5, rng.uniform(0.3, 0.7))
        )
        steps = greedy_cover(ctx, enumerate_motifs(ctx, config), 6)
        doc = explain_covering(ctx, steps, clarification=clar)
        for entry in doc.entries:
            paragraphs = entry.text.split("\n")
            assert len(paragraphs) == len(entry.families_rendered)
            for family, paragraph in zip(entry.families_rendered, paragraphs):
                assert _pattern(TEMPLATES[family]).fullmatch(paragraph)
                rendered += 1
    assert rendered >= 40


def test_entries_follow_selection_order():
    ctx = build_scale(ScaleFamily.INTERORDINAL, 3)
    steps = greedy_cover(
        ctx, enumerate_motifs(ctx, EnumerationConfig()), 5
    )
    doc = explain_covering(ctx, steps)
    assert [e.motif for e in doc.entries] == [s.motif for s in steps]
    assert doc.to_text() == explain_covering(ctx, steps).to_text()
