"""Self-tests for the benchmark: deterministic inputs, checkers that bite.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import re
import sys

import pytest

import checks
import run
import tracing
import workloads


def _cli(argv):
    from ordmotif.cli import main

    _, code, out, err = run.run_cli(main, argv, None)
    assert code == 0, err
    return out


@pytest.fixture
def small(tmp_path):
    """A planted sum of a contranominal 3 and a crown 4 block, written to disk."""
    rng = random.Random(5)
    ctx = workloads._planted(rng, "small", [("contranominal", 3), ("crown", 4)])
    path = tmp_path / "small.cxt"
    path.write_text(ctx.table.to_burmeister(), encoding="utf-8")
    return ctx, str(path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    first, again = workloads.build(name, 17), workloads.build(name, 17)
    assert [(n, t) for n, t in first.tables()] == [(n, t) for n, t in again.tables()]
    assert first.main.blocks == again.main.blocks
    assert [(d.scales, d.expected) for d in first.dims] == [
        (d.scales, d.expected) for d in again.dims
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_relabel_the_same_structure(name):
    a, b = workloads.build(name, 1), workloads.build(name, 2)
    assert a.tables()[0][1].objects != b.tables()[0][1].objects
    for (_, ta), (_, tb) in zip(a.tables(), b.tables()):
        assert checks.extent_count(ta) == checks.extent_count(tb)


def test_extent_count_matches_known_scales():
    for family, n, expected in [
        ("contranominal", 4, 16),
        ("nominal", 5, 7),
        ("ordinal", 6, 6),
        ("interordinal", 4, 11),
        ("crown", 5, 12),
    ]:
        rows, width = workloads.scale_rows(family, n)
        table = workloads.Table([str(i) for i in range(n)], [str(j) for j in range(width)], rows)
        assert checks.extent_count(table) == expected


def test_cover_checker_rejects_corruption(small):
    ctx, path = small
    extents = checks.extent_count(ctx.table)
    out = _cli(["cover", path, "--clarify", "--k", "1000"])
    assert checks.check_cover(ctx.table, out, extents, full=True) == []
    # A dropped extent: the total no longer matches the brute force.
    assert checks.check_cover(ctx.table, out, extents + 1, full=True)
    # Cumulative counts that stop rising: a second step that gains nothing.
    first = out.splitlines()[0]
    cum = re.search(r"cumulative=(\d+)", first)[1]
    stalled = re.sub(r"new=\d+", "new=0", first.replace("step 1:", "step 2:"))
    total = f"covered {cum} of {extents} extents"
    assert checks.check_cover(ctx.table, "\n".join([first, total]), extents, full=False) == []
    assert checks.check_cover(ctx.table, "\n".join([first, stalled, total]), extents, full=False)
    # A covering that stops short of every extent.
    short = _cli(["cover", path, "--clarify", "--k", "1"])
    assert checks.check_cover(ctx.table, short, extents, full=False) == []
    assert checks.check_cover(ctx.table, short, extents, full=True)


def test_explain_checker_rejects_corruption(small):
    ctx, path = small
    out = _cli(["explain", path, "--clarify"])
    assert checks.check_explain(ctx.table, out, 10) == []
    assert checks.check_explain(ctx.table, out.replace("unique", "single"), 10)
    name = ctx.table.objects[0]
    assert checks.check_explain(ctx.table, out.replace(name, "stranger"), 10)
    assert checks.check_explain(ctx.table, out, 0)


def test_basis_checker_rejects_dropped_column(small):
    ctx, path = small
    extents = checks.extent_count(ctx.table)
    out = _cli(["basis", path, "--clarify"])
    assert checks.check_basis(ctx.table, out, extents) == []
    lines = out.split("\n")
    n, m = int(lines[2]), int(lines[3])
    rows = lines[5 + n + m : 5 + n + m + n]
    # Keep only the first column: the extent system collapses.
    cut = lines[:3] + ["1"] + lines[4 : 5 + n] + [lines[5 + n]] + [r[0] for r in rows] + [""]
    assert checks.check_basis(ctx.table, "\n".join(cut), extents)


def test_planted_checker_rejects_missing_block(small):
    ctx, path = small
    out = _cli(["motifs", path, "--clarify", "--json", "--maximal-only"])
    assert checks.check_planted(ctx.blocks, out) == []
    payload = json.loads(out)
    crown = set(ctx.blocks[1].objects)
    payload["motifs"] = [m for m in payload["motifs"] if set(m["domain"]) != crown]
    assert checks.check_planted(ctx.blocks, json.dumps(payload))


def test_dimension_checker_rejects_wrong_value(tmp_path):
    rows, width = workloads.scale_rows("contranominal", 3)
    table = workloads.Table(["a", "b", "c"], ["x", "y", "z"], rows)
    path = tmp_path / "c3.cxt"
    path.write_text(table.to_burmeister(), encoding="utf-8")
    out = _cli(["scaling-dim", str(path), "--scales", "ordinal:2"])
    assert checks.check_dimension(out, 3) == []
    assert checks.check_dimension(out, 2)


def test_ledger_flags_output_that_changes(small):
    ctx, path = small
    op = run.Op("explain_ref", "explain:small", ["explain", path], lambda out: [])
    ledger = run.Ledger()
    ledger.record(op, 0, "same", "")
    ledger.record(op, 0, "same", "")
    assert ledger.failed == 0
    ledger.record(op, 0, "different", "")
    assert (ledger.attempted, ledger.failed) == (3, 1)


def test_traced_counts_repeat_and_originals_return(small):
    from ordmotif import enumeration
    from ordmotif.cli import main

    ctx, path = small
    original = enumeration.recognize
    tracer = tracing.Tracer()
    counts = []
    for _ in range(2):
        tracer.reset_round()
        with tracing.installed(tracer):
            _, code, _, _ = run.run_cli(main, ["cover", path, "--clarify"], tracer)
        assert code == 0
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["recognition.recognize_calls"] > 0
    assert counts[0]["covering.steps"] > 0
    assert enumeration.recognize is original
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "enumeration.crown", "covering.greedy_cover"} <= names


def test_missing_trace_target_fails_loudly(monkeypatch):
    import ordmotif.cli  # noqa: F401  loads every module the tracer needs

    monkeypatch.delattr(sys.modules["ordmotif.enumeration"], "recognize")
    with pytest.raises(tracing.TracingError, match="recognize"):
        with tracing.installed(tracing.Tracer()):
            pass
