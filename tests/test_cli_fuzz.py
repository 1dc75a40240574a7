"""Seeded mutation fuzz of the command line: no input ends in a traceback.

Small 4x3 contexts, written as Burmeister and as CSV, are mutated byte by
byte and run through every command with well-typed but extreme flag
values and malformed ``--scales`` specs. Each run must exit 0, or exit 1
with an ``error:`` line on stderr and nothing on stdout; any exception
fails the test. Flags are passed as ``--flag=value``, so argparse never
reads a negative value as an option (usage errors, exit 2, are out of
scope).
"""

from random import Random

from ordmotif.cli import main
from ordmotif.io import to_burmeister

from oracles import random_context, to_csv

SEED = 2024
RUNS = 1000

# Characters a mutation inserts: the separators and cell values of both
# formats, a quote, stray line ends, a NUL, a non-ASCII letter and digits.
ALPHABET = ',\n\r"XB.01 -9\x00é'
INTS = [-(10**9), -3, -1, 0, 1, 2, 3, 4, 5, 12, 10**9, 2**64]
SPECS = [
    "ordinal:2", "nominal:3", "contranominal:3", "interordinal:2", "crown:4",
    "ordinal:0", "ordinal:-3", "crown:2", "ordinal", "ordinal:", ":4", "foo:2",
    "ordinal:2:3", "ordinal:x", "nominal:100000", "interordinal:2896",
    "contranominal:20000", "ordinal:2,,nominal:2", ",",
]
FAMILIES = ["nominal,interordinal,contranominal", "crown", "ordinal,crown", ",,", "diagonal"]


def _mutate(rng: Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        kind = rng.randrange(5)
        if kind == 0:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif kind == 1:
            text = text[:at] + text[at + 1:]
        elif kind == 2:
            text = text[:at] + rng.choice(ALPHABET) + text[at + 1:]
        elif kind == 3:
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            lines.insert(i, lines[i])
            text = "\n".join(lines)
        else:
            text = text[:at]
    return text


def _argv(rng: Random, path: str, tmp_path) -> list[str]:
    command = rng.choice(["concepts", "motifs", "cover", "explain", "basis", "scaling-dim"])
    argv = [command, path]
    # Enumeration needs distinct rows, which --clarify makes.
    argv += ["--transpose"] if rng.random() < 0.3 else []
    argv += ["--clarify"] if rng.random() < 0.7 else []
    if command == "concepts":
        argv += [flag for flag in ("--list", "--json") if rng.random() < 0.5]
    elif command == "scaling-dim":
        specs = ",".join(rng.choice(SPECS) for _ in range(rng.randint(1, 2)))
        argv += [f"--scales={specs}"]
        if rng.random() < 0.3:
            argv += [f"--max-d={rng.choice(INTS)}"]
        if rng.random() < 0.5:
            argv += ["--json"]
    else:
        if rng.random() < 0.3:
            argv += [f"--families={rng.choice(FAMILIES)}"]
        for flag in ("--min-size", "--max-size", "--crown-cap"):
            if rng.random() < 0.3:
                argv += [f"{flag}={rng.choice(INTS)}"]
        if command == "motifs":
            argv += [flag for flag in ("--maximal-only", "--json") if rng.random() < 0.5]
        elif command == "basis":
            argv += ["--all-motifs"] if rng.random() < 0.3 else []
            if rng.random() < 0.3:
                argv += [f"--output={tmp_path / 'basis.cxt'}"]
        else:
            argv += [f"--k={rng.choice(INTS)}"]
            argv += ["--heuristic=" + rng.choice(["standard", "normalized"])]
            argv += [flag for flag in ("--all-motifs", "--json") if rng.random() < 0.4]
    return argv


def test_mutated_inputs_and_extreme_flags_exit_0_or_1(capsys, tmp_path):
    rng = Random(SEED)
    bases = []
    for _ in range(4):
        context = random_context(rng, 4, 3, 0.5)
        bases += [(".cxt", to_burmeister(context)), (".csv", to_csv(context))]
    codes = {0: 0, 1: 0}
    for run in range(RUNS):
        suffix, text = rng.choice(bases)
        if rng.random() < 0.6:
            text = _mutate(rng, text)
        path = tmp_path / f"input{suffix}"
        path.write_bytes(text.encode("utf-8"))
        argv = _argv(rng, str(path), tmp_path)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1), (run, argv, text)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (run, argv, err)
            assert out == "", (run, argv)
        codes[code] += 1
    # Both outcomes are common, so the fuzz reaches the commands' work.
    assert min(codes.values()) > RUNS // 5, codes
