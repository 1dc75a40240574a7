import csv
from random import Random

import pytest

from ordmotif import FormalContext, ParseError, load_context
from ordmotif.io import parse_burmeister, parse_csv, to_burmeister

from oracles import random_context, to_csv

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
    assert parse_csv(",cold,red\nwater,1,0\nwine,0,1\n") == SAMPLE
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
    # A quoted label may span lines; errors after it name the physical line.
    with pytest.raises(ParseError, match="line 4: cell '2'") as err:
        parse_csv(',m\n"a\nb",1\nc,2\n')
    assert err.value.line == 4
    with pytest.raises(ParseError, match="line 4: row has 3 cells") as err:
        parse_csv(',m\n"a\nb",1\nc,1,0\n')
    assert err.value.line == 4


def test_csv_trailing_blank_lines_are_ignored():
    assert parse_csv(",cold,red\nwater,1,0\nwine,0,1\n\n") == SAMPLE
    assert parse_csv(",cold,red\r\nwater,1,0\r\nwine,0,1\r\n\r\n\r\n") == SAMPLE
    assert parse_csv(",m\ng,1\n\n").objects == ("g",)
    # A blank line between rows is still a row of 0 cells.
    with pytest.raises(ParseError, match="line 3: row has 0 cells") as err:
        parse_csv(",cold,red\nwater,1,0\n\nwine,0,1\n")
    assert err.value.line == 3
    for blank in ("\n", "\n\n\n", "\r\n\r\n"):
        with pytest.raises(ParseError, match="empty CSV input"):
            parse_csv(blank)


def test_csv_bare_carriage_returns_end_rows():
    # Classic Mac line ends parse; a stray CR splits its row, which then fails.
    assert parse_csv(",cold,red\rwater,1,0\rwine,0,1\r") == SAMPLE
    with pytest.raises(ParseError, match="row has 1 cells") as err:
        parse_csv(",cold,red\nwater,1,0\nwi\rne,0,1\n")
    assert err.value.line == 3
    assert parse_csv(',cold,red\n"wa\rter",1,0\nwine,0,1\n').objects == ("wa\rter", "wine")


def test_csv_reader_errors_become_parse_errors():
    cell = "1" * (csv.field_size_limit() + 1)
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        parse_csv(f",m\ng,1\nh,{cell}\n")
    assert err.value.line == 3


def test_quoted_labels_with_commas_survive_csv():
    ctx = FormalContext(["a,b"], ["m,n"], [[1]])
    assert parse_csv(',"m,n"\n"a,b",1\n') == ctx
    assert parse_csv(to_csv(ctx)) == ctx


def test_random_round_trips_both_formats():
    rng = Random(29)
    for _ in range(50):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 6), 0.5)
        assert parse_burmeister(to_burmeister(ctx)) == ctx
        assert parse_csv(to_csv(ctx)) == ctx


def test_parse_context_bytes_and_format_errors(tmp_path):
    # load_context decodes the bytes as UTF-8 and rejects unknown suffixes.
    accented = FormalContext(["crème"], ["süß"], [[1]])
    path = tmp_path / "k.cxt"
    path.write_bytes(to_burmeister(accented).encode("utf-8"))
    assert load_context(path) == accented
    path = tmp_path / "k.xml"
    path.write_text(to_burmeister(SAMPLE), encoding="utf-8")
    with pytest.raises(ParseError, match="suffix"):
        load_context(path)


def test_format_for_path(tmp_path):
    # The suffix picks the parser, in any case.
    (tmp_path / "k.CXT").write_text(to_burmeister(SAMPLE), encoding="utf-8")
    (tmp_path / "K.Csv").write_text(to_csv(SAMPLE), encoding="utf-8")
    (tmp_path / "k.json").write_text(to_csv(SAMPLE), encoding="utf-8")
    (tmp_path / "k.csv").write_text(to_burmeister(SAMPLE), encoding="utf-8")
    assert load_context(tmp_path / "k.CXT") == SAMPLE
    assert load_context(tmp_path / "K.Csv") == SAMPLE
    with pytest.raises(ParseError):
        load_context(tmp_path / "k.json")
    with pytest.raises(ParseError):
        load_context(tmp_path / "k.csv")  # Burmeister text under a CSV suffix


def test_file_round_trip(tmp_path):
    for name, text in (("k.cxt", to_burmeister(SAMPLE)), ("k.csv", to_csv(SAMPLE))):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        assert load_context(p) == SAMPLE


def test_byte_order_marks_are_dropped(tmp_path):
    # Editors on some systems save UTF-8 with a leading BOM; it must not
    # become part of the 'B' header or of the CSV corner cell.
    for name, text in (("k.cxt", to_burmeister(SAMPLE)), ("k.csv", to_csv(SAMPLE))):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_context(p) == SAMPLE


def test_burmeister_without_a_name_line(tmp_path):
    # The counts may follow 'B' directly, when the next line after them is blank.
    bare, named = tmp_path / "bare.cxt", tmp_path / "named.cxt"
    bare.write_text("B\n2\n1\n\na\nb\nm\nX\n.\n", encoding="utf-8")
    named.write_text("B\n\n2\n1\n\na\nb\nm\nX\n.\n", encoding="utf-8")
    assert load_context(bare) == load_context(named)
    assert load_context(bare).rows == (1, 0)


@pytest.mark.parametrize(
    "name, text",
    [
        ("negative.cxt", "B\n\n-1\n1\n\nm\n"),
        ("no_blank.cxt", "B\n\n2\n1\nx\na\nb\nm\nX\n.\n"),
        ("duplicate.cxt", "B\n\n2\n1\n\na\na\nm\nX\n.\n"),
        ("duplicate.csv", ",m,m\na,1,0\n"),
    ],
)
def test_malformed_files_raise_parse_errors(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError):
        load_context(path)


def test_burmeister_writer_refuses_line_breaks():
    for objects, attributes in (["a\nb"], ["m"]), (["a"], ["m\r"]), (["a"], ["m\u2028n"]):
        ctx = FormalContext(objects, attributes, [[1]])
        with pytest.raises(ValueError, match="line break"):
            to_burmeister(ctx)
