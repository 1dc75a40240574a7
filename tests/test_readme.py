"""The README's quick start and library example run as printed.

Writes the README's ``drinks.csv`` block to a scratch directory and runs
each ``$ ordmotif ...`` line of the quick start through ``cli.main``;
each stdout must equal the lines printed under it, byte for byte. The
``## Library`` block must print what ``ordmotif explain drinks.csv``
prints, and the export list must name ``ordmotif.__all__``.
"""

import re
import shlex
from pathlib import Path

import ordmotif
from ordmotif.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    return section.split("\n## ", 1)[0]


def _quick_start() -> tuple[str, list[tuple[list[str], str]]]:
    section = _section("Quick start")
    csv_block = re.search(r"```csv\n(.*?)```", section, re.S).group(1)
    text_block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    runs: list[tuple[list[str], str]] = []
    for chunk in re.split(r"^\$ ", text_block, flags=re.M)[1:]:
        command, _, output = chunk.partition("\n")
        argv = shlex.split(command)
        assert argv[0] == "ordmotif", command
        # A blank line separates one run's output from the next command.
        runs.append((argv[1:], output.removesuffix("\n\n").removesuffix("\n") + "\n"))
    return csv_block, runs


def test_quick_start_outputs_match_the_readme(capsys, tmp_path, monkeypatch):
    csv_block, runs = _quick_start()
    (tmp_path / "drinks.csv").write_text(csv_block, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert len(runs) == 4
    for argv, expected in runs:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == expected, argv


def test_library_example_prints_what_explain_prints(capsys, tmp_path, monkeypatch):
    csv_block, _ = _quick_start()
    (tmp_path / "drinks.csv").write_text(csv_block, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = re.search(r"```python\n(.*?)```", _section("Library"), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert main(["explain", "drinks.csv"]) == 0
    assert printed == capsys.readouterr().out != ""


def test_export_list_names_all():
    library = _section("Library")
    exports = library.split("exports exactly these names", 1)[1].split("\n\n", 2)[1]
    # Each item is "- layer: `Name` (remarks), `Name`", continued on indented lines.
    items = [item.split(":", 1)[1] for item in re.split(r"^- ", exports, flags=re.M)[1:]]
    names = re.findall(r"`([A-Za-z_]+)`", " ".join(items))
    assert sorted(names) == sorted(ordmotif.__all__)
    assert len(names) == len(set(names))
