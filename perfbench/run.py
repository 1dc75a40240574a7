"""Benchmark of the ordmotif command line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-random --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from ``--seed`` and written as
Burmeister files under ``.perfbench/``. Each round runs every command of
the workload once through ``ordmotif.cli.main`` in this process with
stdout captured, until ``--seconds`` have passed. Every output is
hashed and checked; the last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end timings, each in multiples
of a fixed reference loop run next to it (see ``reference_seconds``),
as a trimmed mean over rounds (see ``central``), and the set-up time
scaled by the same loop. With ``--trace 1`` untraced and traced rounds
alternate and the metrics are per-layer times (trimmed mean over traced
rounds) and counts (per round, identical in every round). See
README.md for the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks
import tracing
import workloads

# Used only to confirm a claimed gain after the change is written.
HELD_OUT_SEED = 7919

EXPLAIN_K = 10
# At least the size of any candidate pool, so the greedy runs to the end.
FULL_K = 1_000_000
# Cold starts an untraced run times after every round, and fewest in a run.
SETUP_PER_ROUND = 2
SETUP_REPEATS = 9
MIN_ROUNDS = 3
WORK_DIR = Path(".perfbench")

END_TO_END = ("explain_ref", "cover_full_ref", "cover_nested_ref", "basis_ref", "scaling_dim_ref")
REF_UNIT = "x_ref"
# setup_s is in seconds of a machine on which reference_seconds() takes this long.
REF_NOMINAL_S = 0.030

# Child process timing a cold start: import, then load and clarify every input.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ordmotif.cli
from ordmotif.context import clarify_objects
from ordmotif.io import load_context
for path in sys.argv[2:]:
    clarify_objects(load_context(path))
print(repr(time.perf_counter() - start))
"""


_REF_RNG = random.Random(5)
_REF_MASKS = [_REF_RNG.getrandbits(64) for _ in range(512)]
_REF_SETS = [frozenset(_REF_RNG.sample(range(2000), 40)) for _ in range(256)]
_REF_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(1 << 16)}


def reference_seconds() -> float:
    """Time a fixed piece of pure-Python work that never calls ordmotif.

    The shared 2-core VM the benchmark was built on alternates between
    a fast mode and one about 1.7 times slower, each lasting tens of
    seconds. Every pure-Python step slows alike, so a CLI call divided
    by this loop, timed right before and right after it, keeps its size
    while the machine's mode cancels. The loop mixes what ordmotif
    spends its time on: bitmask ints, set differences, dict and tuple
    work, and lookups in a table larger than a core's private cache.
    About 30 ms on that VM.
    """
    start = time.perf_counter()
    acc = 0
    covered: set[int] = set()
    for i in range(3000):
        acc += (_REF_MASKS[i & 511] & _REF_MASKS[i * 7 & 511]).bit_count()
        acc += len(_REF_SETS[i & 255] - covered)
        if i % 97 == 0:
            covered |= _REF_SETS[i & 255]
    pairs = {(i % 3000, i & 7): i for i in range(1500)}
    sorted(pairs.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    for i in range(120_000):
        acc += i * i % 7
    k = 1
    for _ in range(80_000):
        k = _REF_TABLE[k]
        acc += k
    return time.perf_counter() - start


@dataclass
class Op:
    """One CLI call; ``metric`` is None for check-only calls left untimed."""

    metric: Optional[str]
    label: str
    argv: list[str]
    check: Callable[[str], list[str]]


def build_ops(workload: workloads.Workload, paths: dict[str, Path]) -> tuple[list[Op], list[Op]]:
    """Timed ops per round and check-only ops run once."""
    c = workload.main
    p = str(paths[c.name])
    extents = checks.extent_count(c.table)
    timed = [
        Op("explain_ref", f"explain:{c.name}",
           ["explain", p, "--clarify", "--k", str(EXPLAIN_K)],
           lambda out: checks.check_explain(c.table, out, EXPLAIN_K)),
        Op("cover_full_ref", f"cover_full:{c.name}",
           ["cover", p, "--clarify", "--k", str(FULL_K)],
           lambda out: checks.check_cover(c.table, out, extents, full=True)),
        Op("cover_nested_ref", f"cover_nested:{c.name}",
           ["cover", p, "--clarify", "--k", str(FULL_K), "--all-motifs",
            "--heuristic", "normalized"],
           lambda out: checks.check_cover(c.table, out, extents, full=True)),
        Op("basis_ref", f"basis:{c.name}", ["basis", p, "--clarify"],
           lambda out: checks.check_basis(c.table, out, extents)),
    ]
    once = []
    if c.blocks:
        once.append(
            Op(None, f"motifs:{c.name}",
               ["motifs", p, "--clarify", "--json", "--maximal-only"],
               lambda out: checks.check_planted(c.blocks, out))
        )
    for d in workload.dims:
        timed.append(
            Op("scaling_dim_ref", f"scaling_dim:{d.name}",
               ["scaling-dim", str(paths[d.name]), "--scales", d.scales, "--max-d", "4"],
               lambda out, x=d.expected: checks.check_dimension(out, x))
        )
    return timed, once


def run_cli(main, argv: list[str], tracer: Optional[tracing.Tracer]) -> tuple[float, object, str, str]:
    """Time one in-process CLI call; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # every call starts from the same heap state
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.call("cli.main", main, (argv,))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed operation, not a crash
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


class Ledger:
    """Counts operations, verifies outputs, and keeps one digest per op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.failures: list[str] = []

    def record(self, op: Op, code, out: str, err: str) -> None:
        self.attempted += 1
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {err.strip()[:200]}")
        first = self.digests.setdefault(op.label, digest)
        if digest != first:
            problems.append("stdout differs from the first repetition")
        key = (op.label, digest)
        if key not in self.verdicts:
            self.verdicts[key] = op.check(out) if code == 0 else []
        problems += self.verdicts[key]
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.label}: {'; '.join(problems)[:400]}")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def measure_setup(paths: list[Path], ledger: Ledger, count: int,
                  scaled: list[float], raw: list[float]) -> None:
    """Time ``count`` cold starts, each in a child process.

    Appends each one's seconds to ``raw`` and, to ``scaled``, its seconds
    times REF_NOMINAL_S over the mean of the reference loops timed right
    before and after it, so the machine's speed mode cancels as it does
    for the ``*_ref`` metrics.
    """
    before = reference_seconds()
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, "src", *map(str, paths)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        after = reference_seconds()
        ledger.attempted += 1
        try:
            seconds = float(done.stdout.strip())
        except ValueError:
            ledger.fail(f"setup child exited {done.returncode}: {done.stderr.strip()[:200]}")
        else:
            raw.append(seconds)
            scaled.append(seconds * REF_NOMINAL_S / ((before + after) / 2))
        before = after


def central(values: list[float]) -> float:
    """Mean of the rounds after dropping the fastest and slowest tenth.

    On a shared 2-core VM the machine alternates between a fast mode and
    one about 1.7 times slower, each lasting tens of seconds. The median
    of a run then jumps between the two modes (spread across ten runs up
    to 0.5 of the median), while this mean moves with the share of slow
    time (0.3 in the same runs); the trim drops single stalls.
    """
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ordmotif" / "__init__.py").is_file():
        print("error: run from the repository root; src/ordmotif is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import ordmotif.cli

    if Path(ordmotif.cli.__file__).resolve().parent != (root / "src" / "ordmotif").resolve():
        print(f"error: imported ordmotif from {ordmotif.cli.__file__}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed)
    run_name = f"{args.workload}-{args.seed}"
    input_dir = WORK_DIR / f"inputs-{run_name}"
    try:
        paths = workloads.write_inputs(workload, input_dir)
        return _bench(args, workload, paths, run_name, ordmotif.cli.main)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)


def _bench(args, workload, paths, run_name, cli_main) -> int:
    ledger = Ledger()
    timed, once = build_ops(workload, paths)
    # Untraced runs time cold starts after every round, so the samples
    # spread over the run like the rounds do.
    setup: list[float] = []
    setup_raw: list[float] = []

    tracer = tracing.Tracer() if args.trace else None
    # Per untraced round and metric: seconds, and seconds over reference loops.
    plain_s: dict[str, list[float]] = {m: [] for m in END_TO_END}
    plain_ref: dict[str, list[float]] = {m: [] for m in END_TO_END}
    traced_explain: list[float] = []
    layer_rounds: list[tuple[dict, dict]] = []
    min_rounds = 2 * MIN_ROUNDS if args.trace else MIN_ROUNDS
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        traced = tracer is not None and rounds % 2 == 1
        seconds = {m: 0.0 for m in END_TO_END}
        if traced:
            tracer.reset_round()
            with tracing.installed(tracer):
                for op in timed:
                    tracer.run = f"{run_name}/r{rounds}/{op.label}"
                    elapsed, code, out, err = run_cli(cli_main, op.argv, tracer)
                    ledger.record(op, code, out, err)
                    seconds[op.metric] += elapsed
            traced_explain.append(seconds["explain_ref"])
            layer_rounds.append((dict(tracer.times), dict(tracer.counts)))
        else:
            refs = {m: 0.0 for m in END_TO_END}
            before = reference_seconds()
            for op in timed:
                elapsed, code, out, err = run_cli(cli_main, op.argv, None)
                after = reference_seconds()
                ledger.record(op, code, out, err)
                seconds[op.metric] += elapsed
                refs[op.metric] += (before + after) / 2
                before = after
            for m in END_TO_END:
                plain_s[m].append(seconds[m])
                plain_ref[m].append(seconds[m] / refs[m])
        if tracer is None:
            measure_setup(list(paths.values()), ledger, SETUP_PER_ROUND, setup, setup_raw)
        rounds += 1
    if tracer is None and len(setup) < SETUP_REPEATS:
        measure_setup(list(paths.values()), ledger, SETUP_REPEATS - len(setup), setup, setup_raw)
    for op in once:
        _, code, out, err = run_cli(cli_main, op.argv, None)
        ledger.record(op, code, out, err)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "rounds": rounds,
        "digests": ledger.digests,
        "fail_rate": ledger.failed / max(ledger.attempted, 1),
        "failures": ledger.failures,
    }
    if tracer is None:
        metrics = {m: {"value": central(v), "unit": REF_UNIT} for m, v in plain_ref.items()}
        metrics["setup_s"] = {"value": statistics.median(setup) if setup else 0.0, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        report["samples"] = {m: len(v) for m, v in plain_ref.items()} | {"setup_s": len(setup)}
        report["quartiles"] = {m: quartiles(v) for m, v in plain_ref.items()}
        report["quartiles"]["setup_s"] = quartiles(setup) if setup else []
        report["seconds"] = {m: central(v) for m, v in plain_s.items()}
        report["seconds"]["setup_s"] = statistics.median(setup_raw) if setup_raw else 0.0
        report["rounds_ref"] = plain_ref | {"setup_s": setup}
        report["rounds_s"] = plain_s | {"setup_s": setup_raw}
    else:
        metrics = _layer_metrics(layer_rounds, ledger)
        overhead = central(traced_explain) - central(plain_s["explain_ref"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        report["samples"] = {"traced_rounds": len(layer_rounds), "untraced_rounds": len(plain_s["explain_ref"])}
        trace_path = WORK_DIR / f"trace-{run_name}.jsonl"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


COUNT_UNITS = {"io.bytes_written": "bytes"}

LAYER_TIMES = (
    ["io.load_s", "io.write_s", "context.clarify_s", "context.extents_s"]
    + [f"enumeration.{f}_s" for f in workloads.FAMILIES]
    + ["enumeration.maximal_filter_s", "recognition.recognize_s",
       "covering.covered_extents_s", "covering.greedy_s", "explain.render_s",
       "basis.build_s", "dimension.meet_irreducibles_s", "dimension.scaling_dim_s"]
    + [f"{layer}.self_s" for layer in tracing.LAYERS]
)

LAYER_COUNTS = (
    ["io.bytes_written", "context.extent_count"]
    + [f"enumeration.{f}_motifs" for f in workloads.FAMILIES]
    + ["enumeration.pool_size", "recognition.recognize_calls", "recognition.recognized",
       "covering.steps", "covering.tie_steps", "covering.candidates_scanned",
       "basis.columns", "dimension.maps"]
)


def _layer_metrics(layer_rounds: list[tuple[dict, dict]], ledger: Ledger) -> dict:
    """Time (trimmed mean) and exact count per traced round, for every layer metric."""
    metrics = {}
    for name in LAYER_TIMES:
        metrics[name] = {
            "value": central([times.get(name, 0.0) for times, _ in layer_rounds]),
            "unit": "s",
        }
    first = layer_rounds[0][1]
    for _, counts in layer_rounds[1:]:
        if counts != first:
            ledger.fail("layer counters differ between traced rounds")
            break
    for name in LAYER_COUNTS:
        metrics[name] = {"value": first.get(name, 0), "unit": COUNT_UNITS.get(name, "count")}
    calls = first.get("recognition.recognize_calls", 0)
    metrics["recognition.recognized_ratio"] = {
        "value": first.get("recognition.recognized", 0) / calls if calls else 0.0,
        "unit": "ratio",
    }
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
