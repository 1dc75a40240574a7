from random import Random

import pytest

from ordmotif import FormalContext, ParseError, load_context
from ordmotif.io import (
    format_for_path,
    parse_burmeister,
    parse_context,
    parse_csv,
    save_context,
    to_burmeister,
    to_csv,
)

from oracles import random_context

SAMPLE = FormalContext(
    ["water", "wine"],
    ["cold", "red"],
    [[1, 0], [0, 1]],
)


def test_burmeister_round_trip():
    assert parse_burmeister(to_burmeister(SAMPLE)) == SAMPLE


def test_burmeister_known_text():
    assert to_burmeister(SAMPLE) == "B\n\n2\n2\n\nwater\nwine\ncold\nred\nX.\n.X\n"


def test_burmeister_accepts_name_line():
    text = "B\nsome dataset\n2\n2\n\nwater\nwine\ncold\nred\nX.\n.X\n"
    assert parse_burmeister(text) == SAMPLE


def test_burmeister_numeric_labels_do_not_shadow_counts():
    # A missing name line is detected by the blank separator position.
    text = "B\n\n1\n1\n\n7\n9\nX\n"
    ctx = parse_burmeister(text)
    assert ctx.objects == ("7",) and ctx.attributes == ("9",)


def test_burmeister_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_burmeister("A\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_burmeister("B\nname\nx\n2\n\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_burmeister("B\n\n2\n2\n\nwater\nwine\ncold\nred\nX.\n.?\n")
    assert err.value.line == 11
    with pytest.raises(ParseError) as err:
        parse_burmeister("B\n\n2\n2\n\nwater\nwine\ncold\nred\nX.\nXXX\n")
    assert err.value.line == 11


def test_burmeister_truncated():
    with pytest.raises(ParseError):
        parse_burmeister("B\n\n2\n2\n\nwater\n")


def test_csv_round_trip():
    assert parse_csv(to_csv(SAMPLE)) == SAMPLE


def test_csv_known_text():
    assert to_csv(SAMPLE) == ",cold,red\nwater,1,0\nwine,0,1\n"


def test_csv_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_csv(",m\ng,2\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_csv(",m\ng,1,0\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_csv("")


def test_quoted_labels_with_commas_survive_csv():
    ctx = FormalContext(["a,b"], ["m,n"], [[1]])
    assert parse_csv(to_csv(ctx)) == ctx


def test_random_round_trips_both_formats():
    rng = Random(29)
    for _ in range(50):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 6), 0.5)
        assert parse_burmeister(to_burmeister(ctx)) == ctx
        assert parse_csv(to_csv(ctx)) == ctx


def test_parse_context_bytes_and_format_errors():
    assert parse_context(to_burmeister(SAMPLE).encode(), "burmeister") == SAMPLE
    with pytest.raises(ParseError):
        parse_context("B\n", "xml")


def test_format_for_path():
    assert format_for_path("k.cxt") == "burmeister"
    assert format_for_path("K.CSV") == "csv"
    with pytest.raises(ParseError):
        format_for_path("k.json")


def test_file_round_trip(tmp_path):
    for name in ("k.cxt", "k.csv"):
        p = tmp_path / name
        save_context(SAMPLE, p)
        assert load_context(p) == SAMPLE
