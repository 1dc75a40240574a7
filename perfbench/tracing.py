"""Spans around the public functions of each ordmotif module.

The package has no instrumentation of its own, so the tracer wraps
module attributes from the outside for the length of one traced round
and restores them afterwards. Each wrapped call records a span (name,
start, end, parent, run id). Functions called once per candidate motif
are "hot": their calls are folded into one aggregate per parent span,
so memory stays bounded while their time still counts as child time
of the caller. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

LAYERS = (
    "cli",
    "io",
    "context",
    "enumeration",
    "recognition",
    "covering",
    "explain",
    "basis",
    "dimension",
)


class TracingError(RuntimeError):
    """A function the benchmark traces is missing from the package."""


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    child: float = 0.0


class Tracer:
    """Keeps spans in memory; per-round times and counters on the side."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[Span] = []
        self.aggregates: dict[tuple[str, int | None, str], list[float]] = {}
        self.stack: list[Span] = []
        self.run = ""
        self.next_id = 0
        self.times: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def reset_round(self) -> None:
        self.times = Counter()
        self.counts = Counter()

    def call(self, name: str, fn, args=(), kwargs=None, *, metric=None, hot=False):
        parent = self.stack[-1] if self.stack else None
        span = Span(
            self.next_id,
            name,
            parent.id if parent else None,
            self.run,
            time.perf_counter() - self.origin,
        )
        self.next_id += 1
        self.stack.append(span)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter() - self.origin
            self.stack.pop()
            duration = span.end - span.start
            if parent is not None:
                parent.child += duration
            self.times[name.split(".")[0] + ".self_s"] += duration - span.child
            if metric is not None:
                self.times[metric] += duration
            if hot:
                key = (span.run, span.parent, name)
                agg = self.aggregates.setdefault(key, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - span.child
            else:
                self.spans.append(span)

    def write(self, path: Path) -> None:
        """Write spans, then hot-call aggregates, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"run": s.run, "id": s.id, "name": s.name, "parent": s.parent,
                         "start": s.start, "end": s.end}
                    )
                    + "\n"
                )
            for (run, parent, name), (count, total, own) in self.aggregates.items():
                fh.write(
                    json.dumps(
                        {"run": run, "parent": parent, "name": name, "count": count,
                         "total_s": total, "self_s": own}
                    )
                    + "\n"
                )


def _wrapper(tracer: Tracer, fn, name, metric, hot, after):
    """``name`` and ``metric`` are strings or functions of the bound arguments.

    Hot calls skip argument binding, so their hooks receive ``None``.
    """
    signature = inspect.signature(fn)

    def traced(*args, **kwargs):
        bound = None if hot else signature.bind(*args, **kwargs).arguments
        span_name = name(bound) if callable(name) else name
        span_metric = metric(bound) if callable(metric) else metric
        result = tracer.call(span_name, fn, args, kwargs, metric=span_metric, hot=hot)
        if after is not None:
            after(tracer.counts, bound, result)
        return result

    return traced


def _greedy_counts(counts, a, steps):
    pool = len(a["motifs"])
    # Every greedy pass scans the whole pool; a run that stops before k
    # steps makes one more pass that finds no gain. Computed, not measured.
    passes = len(steps) + (1 if len(steps) < a["k"] else 0)
    counts["covering.steps"] += len(steps)
    counts["covering.tie_steps"] += sum(1 for s in steps if s.tie_count > 1)
    counts["covering.candidates_scanned"] += pool * passes


def _recognize_counts(counts, a, motif):
    counts["recognition.recognize_calls"] += 1
    counts["recognition.recognized"] += motif is not None


def _dimension_counts(counts, a, result):
    # Maps the exhaustive search would visit: sum of |S|^|G|. Computed.
    n = len(a["context"].objects)
    counts["dimension.maps"] += sum(len(s.objects) ** n for s in a["scales"])


def _targets():
    """(module, attribute, span name, metric, hot, counter hook, patch everywhere)."""
    return [
        ("io", "load_context", "io.load_context", "io.load_s", False, None, True),
        ("io", "to_burmeister", "io.to_burmeister", "io.write_s", False,
         lambda c, a, text: c.update({"io.bytes_written": len(text.encode("utf-8"))}), True),
        ("context", "clarify_objects", "context.clarify_objects", "context.clarify_s",
         False, None, True),
        ("enumeration", "enumerate_motifs", "enumeration.enumerate_motifs", None,
         False, None, True),
        ("enumeration", "enumerate_family",
         lambda a: "enumeration." + str(a["family"]),
         lambda a: "enumeration." + str(a["family"]) + "_s",
         False,
         lambda c, a, motifs: c.update({"enumeration." + str(a["family"]) + "_motifs": len(motifs)}),
         True),
        ("enumeration", "maximal_filter", "enumeration.maximal_filter",
         "enumeration.maximal_filter_s", False,
         lambda c, a, motifs: c.update({"enumeration.pool_size": len(motifs)}), True),
        # Only the reference enumeration holds: recognition counters
        # describe the candidates enumeration tries.
        ("enumeration", "recognize", "recognition.recognize", "recognition.recognize_s",
         True, _recognize_counts, False),
        ("covering", "greedy_cover", "covering.greedy_cover", "covering.greedy_s", False,
         _greedy_counts, True),
        ("covering", "covered_extents", "covering.covered_extents",
         "covering.covered_extents_s", True, None, True),
        ("explain", "explain_covering", "explain.explain_covering", "explain.render_s",
         False, None, True),
        ("basis", "build_basis", "basis.build_basis", "basis.build_s", False,
         lambda c, a, ctx: c.update({"basis.columns": len(ctx.attributes)}), True),
        ("dimension", "scaling_dimension", "dimension.scaling_dimension",
         "dimension.scaling_dim_s", False, _dimension_counts, True),
        ("dimension", "meet_irreducible_extents", "dimension.meet_irreducible_extents",
         "dimension.meet_irreducibles_s", False, None, True),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    modules = [
        m for name, m in sorted(sys.modules.items())
        if name == "ordmotif" or name.startswith("ordmotif.")
    ]
    patches: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, name, metric, hot, after, everywhere in _targets():
            home = sys.modules.get(f"ordmotif.{module_name}")
            if home is None or not hasattr(home, attr):
                raise TracingError(f"ordmotif.{module_name} has no attribute {attr!r}")
            original = getattr(home, attr)
            traced = _wrapper(tracer, original, name, metric, hot, after)
            owners = modules if everywhere else [home]
            for module in owners:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, traced)
        patches.append(_patch_extents(tracer))
        yield
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def _patch_extents(tracer: Tracer):
    """Trace the first extent enumeration of each context object."""
    context_cls = sys.modules["ordmotif.context"].FormalContext
    original = context_cls.extents
    computed: dict[int, object] = {}

    def extents(self):
        if id(self) in computed:
            return original(self)
        computed[id(self)] = self  # keeps the id from being reused
        result = tracer.call("context.extents", original, (self,), metric="context.extents_s")
        tracer.counts["context.extent_count"] += len(result)
        return result

    context_cls.extents = extents
    return (context_cls, "extents", original)
