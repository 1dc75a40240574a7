"""The README's quick start runs as printed.

Writes the README's ``drinks.csv`` block to a scratch directory and runs
each ``$ ordmotif ...`` line of the quick start through ``cli.main``;
each stdout must equal the lines printed under it, byte for byte.
"""

import re
import shlex
from pathlib import Path

from ordmotif.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> tuple[str, list[tuple[list[str], str]]]:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    section = section.split("\n## ", 1)[0]
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
