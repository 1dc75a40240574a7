import json
import os
import re
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

import ordmotif
from ordmotif import (
    HeuristicKind,
    ScaleFamily,
    build_scale,
    clarify_objects,
    enumerate_motifs,
    greedy_cover,
)
from ordmotif.cli import build_parser, main
from ordmotif.dimension import MAX_COLUMN_SCANS
from ordmotif.io import load_context, parse_burmeister, to_burmeister

from oracles import random_context, random_corpus_item, ratio_curve_oracle

B3 = build_scale(ScaleFamily.CONTRANOMINAL, 3)
N3 = build_scale(ScaleFamily.NOMINAL, 3)


@pytest.fixture
def b3_path(tmp_path):
    path = tmp_path / "b3.cxt"
    path.write_text(to_burmeister(B3), encoding="utf-8")
    return path


@pytest.fixture
def n3_path(tmp_path):
    path = tmp_path / "n3.cxt"
    path.write_text(to_burmeister(N3), encoding="utf-8")
    return path


def run_json(capsys, argv):
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    return payload


def test_concepts_counts_extents(capsys, n3_path):
    assert main(["concepts", str(n3_path)]) == 0
    assert capsys.readouterr().out == "5 extents\n"


def test_concepts_json_lists_extents(capsys, n3_path):
    payload = run_json(capsys, ["concepts", str(n3_path), "--json", "--list"])
    assert payload["count"] == 5
    assert [] in payload["extents"]
    assert ["1", "2", "3"] in payload["extents"]


def test_motifs_table_mentions_all_families(capsys, b3_path):
    assert main(["motifs", str(b3_path)]) == 0
    out = capsys.readouterr().out
    for family in ScaleFamily:
        assert str(family) in out


def test_motifs_json_stats(capsys, b3_path):
    payload = run_json(capsys, ["motifs", str(b3_path), "--json"])
    assert payload["stats"]["contranominal"] == {
        "total": 4,
        "maximal": 1,
        "largest": 3,
    }
    assert payload["stats"]["ordinal"] == {"total": 0, "maximal": 0, "largest": 0}
    assert {"family": "crown", "domain": ["1", "2", "3"]} in payload["motifs"]


def test_cover_text_output(capsys, b3_path):
    assert main(["cover", str(b3_path)]) == 0
    assert capsys.readouterr().out == (
        "step 1: contranominal {1, 2, 3} new=8 cumulative=8\n"
        "covered 8 of 8 extents\n"
    )


def test_cover_csv_side_files(capsys, tmp_path, b3_path):
    coverage = tmp_path / "coverage.csv"
    ratios = tmp_path / "ratios.csv"
    assert (
        main(
            [
                "cover",
                str(b3_path),
                "--coverage-csv",
                str(coverage),
                "--ratios-csv",
                str(ratios),
            ]
        )
        == 0
    )
    assert coverage.read_text(encoding="utf-8") == (
        "step,new_extents,cumulative\n1,8,8\n"
    )
    assert ratios.read_text(encoding="utf-8") == (
        "step,nominal,ordinal,interordinal,contranominal,crown\n"
        "1,0.000000,0.000000,0.000000,0.500000,0.500000\n"
    )


def csv_rows(path):
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def test_ratios_csv_single_family(capsys, tmp_path, b3_path):
    # A chain realizes ordinal alone; a Boolean pair splits three ways.
    o3 = tmp_path / "o3.cxt"
    o3.write_text(to_burmeister(build_scale(ScaleFamily.ORDINAL, 3)), encoding="utf-8")
    ratios = tmp_path / "ratios.csv"
    assert main(["cover", str(o3), "--ratios-csv", str(ratios)]) == 0
    assert csv_rows(ratios)[1:] == [["1", "0.000000", "1.000000", "0.000000", "0.000000", "0.000000"]]
    argv = ["cover", str(b3_path), "--families", "nominal", "--max-size", "2", "--k", "1"]
    assert main(argv + ["--ratios-csv", str(ratios)]) == 0
    assert csv_rows(ratios)[1:] == [["1", "0.333333", "0.000000", "0.333333", "0.333333", "0.000000"]]


def test_ratios_csv_prefix(capsys, tmp_path):
    # An interordinal pick, then a nominal one: row i counts the first i picks.
    path = tmp_path / "two.csv"
    path.write_text(
        ",m1,m2,m3,m4,m5\ng1,0,1,1,0,0\ng2,0,0,0,1,1\ng3,1,1,0,0,0\ng4,0,1,0,1,0\n",
        encoding="utf-8",
    )
    coverage = tmp_path / "coverage.csv"
    ratios = tmp_path / "ratios.csv"
    files = ["--coverage-csv", str(coverage), "--ratios-csv", str(ratios)]
    assert main(["cover", str(path), "--k", "2", *files]) == 0
    assert csv_rows(coverage)[1:] == [["1", "7", "7"], ["2", "1", "8"]]
    assert csv_rows(ratios)[1:] == [
        ["1", "0.000000", "0.000000", "1.000000", "0.000000", "0.000000"],
        ["2", "0.500000", "0.000000", "0.500000", "0.000000", "0.000000"],
    ]
    assert main(["cover", str(path), "--k", "1", *files]) == 0
    assert csv_rows(ratios)[1:] == [["1", "0.000000", "0.000000", "1.000000", "0.000000", "0.000000"]]
    assert main(["cover", str(path), "--k", "0", *files]) == 0
    assert csv_rows(coverage) == [["step", "new_extents", "cumulative"]]
    assert csv_rows(ratios) == [["step", *(str(f) for f in ScaleFamily)]]


def test_csv_side_files_match_the_steps(capsys, tmp_path):
    # Both heuristics, maximal and all motifs, against exact fractions.
    path = tmp_path / "random.cxt"
    coverage = tmp_path / "coverage.csv"
    ratios = tmp_path / "ratios.csv"
    rng = Random(137)
    shared = 0
    for _ in range(50):
        context, _ = clarify_objects(random_corpus_item(rng))
        path.write_text(to_burmeister(context), encoding="utf-8")
        for all_motifs in (False, True):
            pool = enumerate_motifs(context, maximal_only=not all_motifs)
            for heuristic in HeuristicKind:
                argv = ["cover", str(path), "--k", "100", "--heuristic", heuristic.value]
                argv += ["--coverage-csv", str(coverage), "--ratios-csv", str(ratios)]
                assert main(argv + ["--all-motifs"] * all_motifs) == 0
                steps = greedy_cover(context, pool, 100, heuristic)
                assert csv_rows(coverage)[1:] == [
                    [str(i), str(s.new_extents), str(s.cumulative)]
                    for i, s in enumerate(steps, 1)
                ]
                curve = ratio_curve_oracle([s.families for s in steps])
                assert all(sum(ratios.values()) == 1 for ratios in curve)
                rows = csv_rows(ratios)[1:]
                assert rows == [
                    [str(i), *(f"{float(r[f]):.6f}" for f in ScaleFamily)]
                    for i, r in enumerate(curve, 1)
                ]
                assert all(abs(sum(map(float, row[1:])) - 1) < 1e-5 for row in rows)
                shared += sum(len(s.families) > 1 for s in steps)
    capsys.readouterr()
    assert shared > 0


def test_motifs_table_renders_the_json_stats(capsys, b3_path):
    # The JSON keeps the --families order; the table ranks the families.
    for families in (",".join(str(f) for f in ScaleFamily), "crown,nominal"):
        argv = ["motifs", str(b3_path), "--families", families]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        stats = run_json(capsys, argv + ["--json"])["stats"]
        assert list(stats) == families.split(",")
        names = sorted(stats, key=ScaleFamily.from_name)
        assert lines[0].split() == names
        labels = [("motifs", "total"), ("maximal", "maximal"), ("largest size", "largest")]
        for line, (label, key) in zip(lines[1:], labels, strict=True):
            assert line.startswith(label)
            assert line[len(label) :].split() == [str(stats[n][key]) for n in names]
        assert len({len(line) for line in lines}) == 1
    assert lines == [
        "              nominal  crown",
        "motifs              3      1",
        "maximal             3      1",
        "largest size        2      3",
    ]


def test_cover_json_reports_ties_and_families(capsys, b3_path):
    payload = run_json(capsys, ["cover", str(b3_path), "--json"])
    assert payload["total_extents"] == 8
    step = payload["steps"][0]
    assert step["families"] == ["contranominal", "crown"]
    assert step["domain"] == ["1", "2", "3"]
    assert step["tie_count"] == 2


def test_cover_text_and_json_show_the_same_steps(capsys, tmp_path):
    path = tmp_path / "random.cxt"
    context, _ = clarify_objects(random_context(Random(5), 10, 8, 0.35))
    path.write_text(to_burmeister(context), encoding="utf-8")
    assert main(["cover", str(path), "--k", "6"]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    payload = run_json(capsys, ["cover", str(path), "--k", "6", "--json"])
    steps = payload["steps"]
    assert len(steps) > 1
    assert lines == [
        f"step {i}: {s['family']} {{{', '.join(s['domain'])}}}"
        f" new={s['new_extents']} cumulative={s['cumulative']}"
        for i, s in enumerate(steps, 1)
    ]
    assert last == f"covered {steps[-1]['cumulative']} of {payload['total_extents']} extents"


def test_explain_text_has_both_paragraphs(capsys, b3_path):
    assert main(["explain", str(b3_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1. Each combination of the elements 1, 2 and 3")
    assert "closed cycle from 1 over 2 and 3 back to 1" in lines[1]


def test_explain_json_entries(capsys, b3_path):
    payload = run_json(capsys, ["explain", str(b3_path), "--json"])
    entry = payload["entries"][0]
    assert entry["families_rendered"] == ["contranominal", "crown"]
    assert entry["text"].count("\n") == 1


def test_explain_json_reports_the_tie_counts_of_cover(capsys, tmp_path):
    # explain --json gives each entry the tie_count cover --json gives its step.
    context, _ = clarify_objects(random_context(Random(5), 12, 9, 0.35))
    path = tmp_path / "t.cxt"
    path.write_text(to_burmeister(context), encoding="utf-8")
    argv = [str(path), "--json", "--k", "1000000"]
    entries = run_json(capsys, ["explain", *argv])["entries"]
    steps = run_json(capsys, ["cover", *argv])["steps"]
    assert [e["domain"] for e in entries] == [s["domain"] for s in steps]
    assert [e["tie_count"] for e in entries] == [s["tie_count"] for s in steps]
    assert max(s["tie_count"] for s in steps) > 1


def test_basis_round_trips_through_burmeister(capsys, tmp_path, b3_path):
    out_path = tmp_path / "basis.cxt"
    assert main(["basis", str(b3_path), "--output", str(out_path)]) == 0
    rebuilt = parse_burmeister(out_path.read_text(encoding="utf-8"))
    assert rebuilt.objects == B3.objects
    assert set(rebuilt.extents()) == set(B3.extents())


def test_basis_prints_to_stdout_by_default(capsys, b3_path):
    assert main(["basis", str(b3_path)]) == 0
    rebuilt = parse_burmeister(capsys.readouterr().out)
    assert set(rebuilt.extents()) == set(B3.extents())


def test_basis_folds_the_greedy_picks(capsys, b3_path):
    # The pool holds the contranominal and the crown triple; the greedy
    # covering picks only the first, whose block has one column per extent.
    assert main(["basis", str(b3_path)]) == 0
    rebuilt = parse_burmeister(capsys.readouterr().out)
    assert len(rebuilt.attributes) == 8
    assert all(label.startswith("1:") for label in rebuilt.attributes)


def test_scaling_dim_value_and_unknown(capsys, b3_path):
    assert main(["scaling-dim", str(b3_path), "--scales", "ordinal:2"]) == 0
    assert capsys.readouterr().out == "3\n"
    assert (
        main(["scaling-dim", str(b3_path), "--scales", "ordinal:2", "--max-d", "2"])
        == 0
    )
    assert capsys.readouterr().out == (
        "unknown (no full measure with at most 2 scales)\n"
    )


def test_scaling_dim_unknown_when_no_map_is_a_measure(capsys, tmp_path):
    path = tmp_path / "full.csv"
    path.write_text(",m,n\ng,1,1\n", encoding="utf-8")
    assert main(["scaling-dim", str(path), "--scales", "nominal:2"]) == 0
    assert capsys.readouterr().out == "unknown (no full measure with at most 4 scales)\n"


def test_scaling_dim_json(capsys, b3_path):
    payload = run_json(
        capsys,
        ["scaling-dim", str(b3_path), "--scales", "ordinal:2", "--max-d", "2", "--json"],
    )
    assert payload["dimension"] is None
    assert payload["max_d"] == 2


def test_transpose_swaps_sides(capsys, tmp_path):
    chain = build_scale(ScaleFamily.ORDINAL, 3)
    path = tmp_path / "chain.cxt"
    path.write_text(to_burmeister(chain), encoding="utf-8")
    payload = run_json(capsys, ["concepts", str(path), "--json", "--transpose"])
    assert payload["count"] == len(chain.transpose().extents())


def test_clarify_merges_labels_in_explanations(capsys, tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(",p,q\nx,1,0\ny,1,0\nz,0,1\n", encoding="utf-8")
    for command in (
        ["explain"],
        ["explain", "--json"],
        ["cover"],
        ["cover", "--json"],
        ["motifs", "--json"],
        ["concepts", "--list"],
        ["concepts", "--list", "--json"],
    ):
        assert main([command[0], str(path), "--clarify", *command[1:]]) == 0
        out = capsys.readouterr().out
        assert "x/y" in out, command
        # x never appears without the label it absorbed
        assert re.search(r"\bx\b(?!/y)", out) is None, command


def test_max_size_below_the_crown_minimum(capsys, b3_path):
    # Crowns need three objects, so they yield nothing instead of failing.
    payload = run_json(capsys, ["motifs", str(b3_path), "--max-size", "2", "--json"])
    assert payload["stats"]["crown"] == {"total": 0, "maximal": 0, "largest": 0}
    assert payload["stats"]["contranominal"]["largest"] == 2
    payload = run_json(
        capsys,
        ["motifs", str(b3_path), "--families", "nominal", "--max-size", "1", "--json"],
    )
    assert payload["stats"]["nominal"]["total"] == 0
    assert main(["motifs", str(b3_path), "--min-size", "3", "--max-size", "2"]) == 1
    assert "below min size" in capsys.readouterr().err


def _contranominal_path(tmp_path, n):
    path = tmp_path / f"b{n}.cxt"
    path.write_text(to_burmeister(build_scale(ScaleFamily.CONTRANOMINAL, n)), encoding="utf-8")
    return path


def test_scaling_dim_rejects_huge_map_searches(capsys, tmp_path, monkeypatch):
    # 40**6 maps, but nominal:40 is built as nominal 8, |G| + 2, and
    # walked over partitions into extents.
    path = tmp_path / "six.csv"
    path.write_text(
        ",p,q\n" + "".join(f"g{i},{i % 2},{i // 3}\n" for i in range(6)),
        encoding="utf-8",
    )
    start = time.monotonic()
    assert main(["scaling-dim", str(path), "--scales", "nominal:40"]) == 0
    assert time.monotonic() - start < 5
    assert capsys.readouterr().out == "unknown (no full measure with at most 4 scales)\n"
    # Every set is an extent of contranominal 7, so the crown walk drops
    # no block for failing to be one, and passes a low cap.
    monkeypatch.setattr("ordmotif.dimension.MAX_COLUMN_SCANS", 10_000)
    b7 = _contranominal_path(tmp_path, 7)
    start = time.monotonic()
    assert main(["scaling-dim", str(b7), "--scales", "crown:7"]) == 1
    assert time.monotonic() - start < 5
    assert "the cap is 10000 column scans" in capsys.readouterr().err
    # The walk over the chains of an interordinal scale answers under
    # the same cap.
    start = time.monotonic()
    assert main(["scaling-dim", str(b7), "--scales", "interordinal:7"]) == 0
    assert time.monotonic() - start < 1
    assert capsys.readouterr().out == "4\n"


def test_scaling_dim_grows_one_crown_map_per_rotation_and_reflection(capsys, tmp_path):
    # Every set is an extent of contranominal 7, so a search over maps
    # drops none: it scanned 6.7M columns in about 2 s. The crown walk,
    # with object 0 in the first block by rotation, takes 61,591.
    b7 = _contranominal_path(tmp_path, 7)
    start = time.monotonic()
    assert main(["scaling-dim", str(b7), "--scales", "crown:7"]) == 0
    assert time.monotonic() - start < 1
    assert capsys.readouterr().out == "4\n"


def test_scaling_dim_stops_runaway_searches_at_the_real_cap(capsys, tmp_path):
    # Every set is an extent of contranominal 8, so the crown walk drops
    # no block for failing to be one. crown:24, the largest crown walked
    # on eight objects, takes 820,519 column scans, and eleven of them
    # pass the cap.
    b8 = _contranominal_path(tmp_path, 8)
    start = time.monotonic()
    assert main(["scaling-dim", str(b8), "--scales", ",".join(["crown:24"] * 11)]) == 1
    assert f"the cap is {MAX_COLUMN_SCANS} column scans" in capsys.readouterr().err
    # Only a runaway search comes near this; the refusal takes about 9 s.
    assert time.monotonic() - start < 60
    # crown:8 alone answers, where a search over maps stopped at the cap
    # after about 3.5 s and, uncapped, also found 4.
    start = time.monotonic()
    assert main(["scaling-dim", str(b8), "--scales", "crown:8"]) == 0
    assert time.monotonic() - start < 5
    assert capsys.readouterr().out == "4\n"
    # Unbounded, a search over maps onto interordinal:8 took about 130 s,
    # and capped it stopped after about 4 s. The walk over complemented extents finds
    # that one map reaches two co-atoms at most: one in its chain and one
    # as the complement of an atom below it. So the eight need four maps.
    start = time.monotonic()
    assert main(["scaling-dim", str(b8), "--scales", "interordinal:8"]) == 0
    assert time.monotonic() - start < 1
    assert capsys.readouterr().out == "4\n"
    # Its own scale is walked over partitions.
    assert main(["scaling-dim", str(b8), "--scales", "contranominal:8"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_scaling_dim_bounds_the_final_cover(tmp_path):
    # One column per 4-subset of eight objects: all 70 columns are
    # meet-irreducible, and no 4 coverage sets of a crown map reach them.
    # A cover search that tried every combination of up to 4 of the
    # hundreds of coverage sets ran for minutes; a subprocess with a
    # timeout fails on that instead of hanging the suite.
    subsets = list(combinations(range(8), 4))
    path = tmp_path / "k84.csv"
    path.write_text(
        "," + ",".join("m" + "".join(map(str, c)) for c in subsets) + "\n"
        + "".join(f"g{g}," + ",".join(str(int(g in c)) for c in subsets) + "\n" for g in range(8)),
        encoding="utf-8",
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ordmotif.__file__).parents[1])}
    for scale in ("crown:4", "crown:5"):
        done = subprocess.run(
            [sys.executable, "-m", "ordmotif.cli", "scaling-dim", str(path), "--scales", scale],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "unknown (no full measure with at most 4 scales)\n"


def test_a_cold_start_loads_only_what_the_run_uses(tmp_path):
    # dataclasses would pull in inspect, ast, dis and tokenize; json and csv
    # load where --json and CSV files use them. Compared against the modules
    # loaded before, so what a site hook preloads does not count.
    path = tmp_path / "b3.cxt"
    path.write_text(to_burmeister(B3), encoding="utf-8")
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import ordmotif.cli, ordmotif\n"
        "print(*sorted(set(sys.modules) - before))\n"
        "ordmotif.cli.main(['explain', sys.argv[2]])\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(Path(ordmotif.__file__).parents[1]), str(path)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    first, *explained, last = done.stdout.splitlines()
    assert explained and "ordmotif.cli" in first.split()
    unneeded = {"dataclasses", "inspect", "json", "csv"}
    assert not unneeded & set(first.split())
    assert not unneeded & set(last.split())


def test_a_bare_interpreter_imports_the_cli_without_pathlib(tmp_path):
    # Under -S no site hook preloads pathlib, which would pull in fnmatch
    # and urllib.parse; paths stay strings, and a Path still loads.
    code = "import sys; sys.path.insert(0, sys.argv[1]); import ordmotif.cli; print(*sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(Path(ordmotif.__file__).parents[1])],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert "ordmotif.cli" in loaded
    assert not {"pathlib", "fnmatch", "urllib.parse"} & loaded
    path = tmp_path / "b3.cxt"
    path.write_text(to_burmeister(B3), encoding="utf-8")
    assert load_context(path) == load_context(str(path)) == B3


def test_scaling_dim_checks_caps_before_building_scales(capsys, tmp_path, monkeypatch):
    # Each scale is built no larger than the walks need, which give the
    # same answer at that size: crowns at max(4, 3|G|) objects, the other
    # families at |G| + 2.
    built = []
    monkeypatch.setattr("ordmotif.cli.build_scale", lambda f, n: built.append((str(f), n)) or build_scale(f, n))
    two = tmp_path / "two.csv"
    two.write_text(",p\ng0,1\ng1,0\n", encoding="utf-8")
    assert main(["scaling-dim", str(two), "--scales", "nominal:100000"]) == 0
    assert capsys.readouterr().out == "unknown (no full measure with at most 4 scales)\n"
    assert built == [("nominal", 4)]
    one = tmp_path / "one.csv"
    one.write_text(",p\ng0,1\n", encoding="utf-8")
    start = time.monotonic()
    assert main(["scaling-dim", str(one), "--scales", "contranominal:20000"]) == 0
    assert time.monotonic() - start < 5
    assert capsys.readouterr().out == "unknown (no full measure with at most 4 scales)\n"
    # An invalid size is reported as such, and a context of too many
    # objects is refused, before any scale is built.
    built.clear()
    assert main(["scaling-dim", str(two), "--scales", "nominal:-5000"]) == 1
    assert "needs size >= 1" in capsys.readouterr().err
    nine = tmp_path / "nine.csv"
    nine.write_text(",p\n" + "".join(f"g{i},{i % 2}\n" for i in range(9)), encoding="utf-8")
    assert main(["scaling-dim", str(nine), "--scales", "ordinal:2"]) == 1
    assert "capped at 8 objects" in capsys.readouterr().err
    assert built == []
    many = ",".join(["crown:410"] * 50)
    assert main(["scaling-dim", str(one), "--scales", many]) == 0
    assert capsys.readouterr().out == "unknown (no full measure with at most 4 scales)\n"
    assert built == [("crown", 4)] * 50
    # A context without objects builds each scale at two objects.
    built.clear()
    empty = tmp_path / "empty.cxt"
    empty.write_text("B\n\n0\n0\n\n", encoding="utf-8")
    assert main(["scaling-dim", str(empty), "--scales", "nominal:100000"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert built == [("nominal", 2)]
    # A chain of distinct extents of one object has at most two members,
    # so each chain scale is built with three objects.
    built.clear()
    start = time.monotonic()
    assert main(["scaling-dim", str(one), "--scales", "interordinal:2896"]) == 0
    assert time.monotonic() - start < 1
    assert capsys.readouterr().out == "unknown (no full measure with at most 4 scales)\n"
    many = ",".join(["ordinal:2000"] * 50)
    assert main(["scaling-dim", str(one), "--scales", many]) == 0
    assert capsys.readouterr().out == "1\n"
    assert [n for _, n in built] == [3] * 51


def test_scaling_dim_admission_reads_the_cap_in_dimension(capsys, tmp_path, monkeypatch):
    # The command reads both caps where dimension keeps them, when it runs.
    one = tmp_path / "one.csv"
    one.write_text(",p\ng0,1\n", encoding="utf-8")
    # nominal:11 is built as nominal 3 and walked well within 100 column scans.
    monkeypatch.setattr("ordmotif.dimension.MAX_COLUMN_SCANS", 100)
    assert main(["scaling-dim", str(one), "--scales", "nominal:11"]) == 0
    assert capsys.readouterr().out == "unknown (no full measure with at most 4 scales)\n"

    def no_build(family, n):
        raise AssertionError(f"built {family}:{n}")

    monkeypatch.setattr("ordmotif.dimension.MAX_OBJECTS", 0)
    monkeypatch.setattr("ordmotif.cli.build_scale", no_build)
    assert main(["scaling-dim", str(one), "--scales", "nominal:11"]) == 1
    assert "capped at 0 objects" in capsys.readouterr().err


class _ClosedStdout:
    def write(self, text):
        raise BrokenPipeError("stdout is closed")


def test_stdout_failure_exits_cleanly(capsys, monkeypatch, b3_path):
    monkeypatch.setattr("sys.stdout", _ClosedStdout())
    for extra in ([], ["--json"]):
        assert main(["cover", str(b3_path), *extra]) == 1
        assert capsys.readouterr().err == "error: stdout is closed\n"



COMMANDS = ("concepts", "motifs", "cover", "explain", "basis", "scaling-dim")


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["-h"],
        [],
        ["bogus"],
        ["bogus", "small.csv"],
        ["explain"],
        ["explain", "small.csv", "--k", "nope"],
        ["explain", "small.csv", "--bogus"],
        ["scaling-dim", "small.csv"],
        *([command, "--help"] for command in COMMANDS),
    ],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_main_parses_like_the_parser_of_every_command(capsys, monkeypatch, argv):
    # main builds only the named command's parser; help, errors and exit
    # codes must read as they do with all six built.
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(parse):
        with pytest.raises(SystemExit) as stopped:
            parse(argv)
        out, err = capsys.readouterr()
        return stopped.value.code, out, err

    expected = outcome(build_parser().parse_args)
    assert outcome(main) == expected
    assert expected[0] in (0, 2)
    if argv[:1] == ["bogus"]:
        assert "invalid choice" in expected[2]


def test_missing_file_fails_cleanly(capsys, tmp_path):
    assert main(["concepts", str(tmp_path / "absent.cxt")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_family_name_fails_cleanly(capsys, b3_path):
    assert main(["motifs", str(b3_path), "--families", "diagonal"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text",
    [("one.csv", ",m\ng,1\n"), ("empty.cxt", "B\n\n0\n0\n\n")],
)
def test_basis_folds_a_context_whose_only_extent_is_the_top(capsys, tmp_path, name, text):
    # No motif of size 2 or more exists, but the top extent needs no column.
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    out_path = tmp_path / "basis.cxt"
    assert main(["basis", str(path), "--output", str(out_path)]) == 0
    rebuilt = load_context(out_path)
    assert len(rebuilt.extents()) == 1


def test_incomplete_covering_fails_cleanly(capsys, n3_path):
    # pairs cannot reach the three singleton extents of this context
    assert main(["basis", str(n3_path), "--families", "ordinal"]) == 1
    assert "covering misses" in capsys.readouterr().err


def test_basis_refuses_labels_burmeister_cannot_hold(capsys, tmp_path):
    path = tmp_path / "broken_label.csv"
    path.write_text(',m,n\n"a\nb",1,0\nc,0,1\n', encoding="utf-8")
    out_path = tmp_path / "basis.cxt"
    assert main(["basis", str(path), "--output", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line break" in captured.err
    assert not out_path.exists()
    assert main(["basis", str(path)]) == 1
    assert capsys.readouterr().out == ""


def test_malformed_context_fails_cleanly(capsys, tmp_path):
    path = tmp_path / "broken.cxt"
    path.write_text("B\n\n2\n", encoding="utf-8")
    assert main(["concepts", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", [",p,q\ng0,1,0\ng\r1,0,1\n", ",p\ng0,1\ng1," + "1" * 131_073 + "\n"]
)
def test_csv_reader_errors_fail_cleanly(capsys, tmp_path, text):
    # A stray CR ends a row; a cell past the csv module's field limit is refused.
    path = tmp_path / "broken.csv"
    path.write_bytes(text.encode("utf-8"))
    assert main(["concepts", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: ")


def test_bad_scale_spec_fails_cleanly(capsys, b3_path):
    assert main(["scaling-dim", str(b3_path), "--scales", "ordinal4"]) == 1
    assert "scale spec" in capsys.readouterr().err


def test_scale_spec_with_a_bad_size_names_the_spec(capsys, b3_path):
    assert main(["scaling-dim", str(b3_path), "--scales", "ordinal:x"]) == 1
    err = capsys.readouterr().err
    assert "scale spec 'ordinal:x' must look like 'ordinal:4'" in err
    assert "invalid literal" not in err


def test_empty_family_list_fails_cleanly(capsys, b3_path):
    for command in ("motifs", "cover", "explain", "basis"):
        assert main([command, str(b3_path), "--families", ",,"]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no scale family selected" in captured.err


def test_repeated_family_is_enumerated_once(capsys, monkeypatch, b3_path):
    from ordmotif import cli

    assert main(["motifs", str(b3_path), "--families", "nominal"]) == 0
    once = capsys.readouterr().out
    calls = []
    original = cli.enumerate_family

    def counting(context, family, config=None, maximal=False):
        calls.append(family)
        return original(context, family, config, maximal)

    monkeypatch.setattr(cli, "enumerate_family", counting)
    assert main(["motifs", str(b3_path), "--families", "nominal,nominal"]) == 0
    assert calls == [ScaleFamily.NOMINAL]
    assert capsys.readouterr().out == once
    calls.clear()
    assert main(["motifs", str(b3_path), "--families", "crown,nominal,crown"]) == 0
    assert calls == [ScaleFamily.CROWN, ScaleFamily.NOMINAL]


def test_json_output_is_deterministic(capsys, b3_path):
    assert main(["cover", str(b3_path), "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["cover", str(b3_path), "--json"]) == 0
    assert capsys.readouterr().out == first
