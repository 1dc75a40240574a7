"""Command line front end for the motif pipeline.

Subcommands: ``concepts``, ``motifs``, ``cover``, ``explain``, ``basis``
and ``scaling-dim``. Inputs are Burmeister ``.cxt`` or CSV context
files. Each command returns one result, a JSON payload and its stdout
text built from the same data, and :func:`main` alone prints it: the
payload with ``--json``, the text otherwise. ``cover`` and ``basis``
can also write CSV or Burmeister files; ``cover`` renders its CSV files
from its payload as well.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .basis import build_basis
from .bitsets import bits
from .context import FormalContext, clarify_objects
from .covering import CoveringStep, HeuristicKind, greedy_cover
from .dimension import check_scale_specs, scaling_dimension
from .enumeration import (
    DEFAULT_CROWN_SIZE_CAP,
    EnumerationConfig,
    enumerate_family,
    enumerate_motifs,
    maximal_filter,
)
from .explain import explain_covering, number_entries
from .io import load_context, to_burmeister
from .recognition import Motif
from .scales import ScaleFamily, build_scale

SCHEMA_VERSION = 1
# A command's JSON payload and its stdout text (None when it writes none).
Result = tuple[dict, Optional[str]]


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="context file (.cxt or .csv)")
    p.add_argument(
        "--transpose", action="store_true", help="swap objects and attributes first"
    )
    p.add_argument(
        "--clarify", action="store_true", help="merge objects with identical rows"
    )


def _add_enumeration_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--families",
        default=",".join(str(f) for f in ScaleFamily),
        help="comma separated family names (default: all five)",
    )
    p.add_argument("--min-size", type=int, default=None, help="smallest domain size")
    p.add_argument("--max-size", type=int, default=None, help="largest domain size")
    p.add_argument(
        "--crown-cap",
        type=int,
        default=DEFAULT_CROWN_SIZE_CAP,
        help=f"crown search size cap (default {DEFAULT_CROWN_SIZE_CAP})",
    )


def _add_pool_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--all-motifs",
        action="store_true",
        help="admit non-maximal motifs as candidates (default: maximal only)",
    )


def _add_cover_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=10, help="number of greedy steps")
    p.add_argument(
        "--heuristic",
        choices=[h.value for h in HeuristicKind],
        default=HeuristicKind.STANDARD.value,
    )


def _load(args: argparse.Namespace) -> tuple[FormalContext, list[str]]:
    """The context and its object names; a clarified object shows its merged labels "x/y"."""
    context = load_context(args.path)
    if args.transpose:
        context = context.transpose()
    if not args.clarify:
        return context, list(context.objects)
    context, groups = clarify_objects(context)
    return context, ["/".join(group) for group in groups]


def _config(args: argparse.Namespace) -> EnumerationConfig:
    families = tuple(ScaleFamily.from_name(part) for part in args.families.split(",") if part)
    return EnumerationConfig(families, args.min_size, args.max_size, args.crown_cap)


def _enumerate(args: argparse.Namespace, context: FormalContext) -> list[Motif]:
    return enumerate_motifs(context, _config(args), maximal_only=not args.all_motifs)


def _lines(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def cmd_concepts(args: argparse.Namespace) -> Result:
    context, labels = _load(args)
    extents = context.extents()
    payload: dict = {"command": "concepts", "count": len(extents)}
    lines = [f"{len(extents)} extents"]
    if args.list:
        payload["extents"] = [[labels[g] for g in bits(e)] for e in extents]
        lines += ["{" + ", ".join(names) + "}" for names in payload["extents"]]
    return payload, _lines(lines)


def _stats_table(stats: dict[str, dict[str, int]]) -> str:
    """Fixed-width table of the ``motifs`` payload stats, families in rank order."""
    names = sorted(stats, key=ScaleFamily.from_name)
    table = [["", *names]]
    for label, key in ("motifs", "total"), ("maximal", "maximal"), ("largest size", "largest"):
        table.append([label, *(str(stats[name][key]) for name in names)])
    widths = [max(len(row[i]) for row in table) for i in range(len(names) + 1)]
    return _lines(
        [
            "  ".join([row[0].ljust(widths[0]), *map(str.rjust, row[1:], widths[1:])])
            for row in table
        ]
    )


def cmd_motifs(args: argparse.Namespace) -> Result:
    context, labels = _load(args)
    config = _config(args)
    stats = {}
    listed: list[Motif] = []
    for family in config.families:
        motifs = enumerate_family(context, family, config)
        maximal = maximal_filter(motifs, family)
        largest = max((m.size for m in motifs), default=0)
        stats[str(family)] = {"total": len(motifs), "maximal": len(maximal), "largest": largest}
        listed += maximal if args.maximal_only else motifs
    payload: dict = {"command": "motifs", "stats": stats}
    if args.json:
        # The searches emit in their own order; only this listing sorts.
        payload["motifs"] = [
            {"family": str(m.family), "domain": [labels[g] for g in m.domain]}
            for m in sorted(listed, key=lambda m: (m.family, len(m.domain), sorted(m.domain)))
        ]
    return payload, _stats_table(stats)


def _run_cover(args: argparse.Namespace) -> tuple[FormalContext, list[str], list[CoveringStep]]:
    context, labels = _load(args)
    motifs = _enumerate(args, context)
    steps = greedy_cover(context, motifs, args.k, HeuristicKind(args.heuristic))
    return context, labels, steps


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    import csv  # here, so a run that writes no CSV file does not load it

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_cover(args: argparse.Namespace) -> Result:
    context, labels, steps = _run_cover(args)
    total = len(context.extents())
    picks = [
        {
            "family": str(s.motif.family),
            "families": [str(f) for f in s.families],
            "domain": [labels[g] for g in s.motif.domain],
            "new_extents": s.new_extents,
            "cumulative": s.cumulative,
            "tie_count": s.tie_count,
        }
        for s in steps
    ]
    if args.coverage_csv:
        _write_csv(
            args.coverage_csv,
            ["step", "new_extents", "cumulative"],
            [[i, p["new_extents"], p["cumulative"]] for i, p in enumerate(picks, 1)],
        )
    if args.ratios_csv:
        # A pick realizing q families gives each 1/q of it. As q <= 5 and
        # lcm(1..5) = 60, shares are whole 60ths, and row i prints the exact
        # ratio share / (60 * i) through one correctly rounded int division.
        names = [str(f) for f in ScaleFamily]
        shares = dict.fromkeys(names, 0)
        rows = []
        for i, p in enumerate(picks, 1):
            for name in p["families"]:
                shares[name] += 60 // len(p["families"])
            rows.append([i] + [f"{shares[name] / (60 * i):.6f}" for name in names])
        _write_csv(args.ratios_csv, ["step", *names], rows)
    lines = [
        f"step {i}: {p['family']} {{{', '.join(p['domain'])}}}"
        f" new={p['new_extents']} cumulative={p['cumulative']}"
        for i, p in enumerate(picks, 1)
    ]
    covered = picks[-1]["cumulative"] if picks else 0
    lines.append(f"covered {covered} of {total} extents")
    payload = {"command": "cover", "heuristic": args.heuristic, "total_extents": total}
    payload["steps"] = picks
    return payload, _lines(lines)


def cmd_explain(args: argparse.Namespace) -> Result:
    _, labels, steps = _run_cover(args)
    texts = explain_covering(steps, labels)
    payload = {
        "command": "explain",
        "heuristic": args.heuristic,
        "entries": [
            {
                "text": text,
                "family": str(s.motif.family),
                "families_rendered": [str(f) for f in s.families],
                "domain": [labels[g] for g in s.motif.domain],
                "tie_count": s.tie_count,
            }
            for text, s in zip(texts, steps)
        ],
    }
    return payload, number_entries(texts) + "\n"


def cmd_basis(args: argparse.Namespace) -> Result:
    context, _ = _load(args)
    motifs = _enumerate(args, context)
    # Greedy picks run to the end cover what the whole pool covers.
    steps = greedy_cover(context, motifs, len(motifs))
    basis = build_basis(context, [s.motif for s in steps])
    text = to_burmeister(basis)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return {"command": "basis"}, None if args.output else text


def _parse_scale_spec(spec: str) -> tuple[ScaleFamily, int]:
    name, _, size = spec.partition(":")
    if not size.removeprefix("-").isdecimal():
        raise ValueError(f"scale spec {spec!r} must look like 'ordinal:4'")
    return ScaleFamily.from_name(name), int(size)


def cmd_scaling_dim(args: argparse.Namespace) -> Result:
    context, _ = _load(args)
    specs = [_parse_scale_spec(s) for s in args.scales.split(",") if s]
    specs = check_scale_specs(len(context.objects), specs)
    scales = [build_scale(family, size) for family, size in specs]
    d = scaling_dimension(context, scales, max_d=args.max_d)
    if d is None:
        text = f"unknown (no full measure with at most {args.max_d} scales)"
    else:
        text = str(d)
    return {"command": "scaling-dim", "dimension": d, "max_d": args.max_d}, text + "\n"


def _concepts_parser(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    p.add_argument("--list", action="store_true", help="print every extent")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_concepts)


def _motifs_parser(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    _add_enumeration_flags(p)
    p.add_argument(
        "--maximal-only", action="store_true", help="list only maximal motifs"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_motifs)


def _cover_parser(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    _add_enumeration_flags(p)
    _add_pool_flag(p)
    _add_cover_flags(p)
    p.add_argument("--coverage-csv", help="write the coverage curve")
    p.add_argument("--ratios-csv", help="write per-step family ratios")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cover)


def _explain_parser(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    _add_enumeration_flags(p)
    _add_pool_flag(p)
    _add_cover_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_explain)


def _basis_parser(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    _add_enumeration_flags(p)
    _add_pool_flag(p)
    p.add_argument("--output", help="write Burmeister output here")
    p.set_defaults(func=cmd_basis, json=False)


def _scaling_dim_parser(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    p.add_argument(
        "--scales",
        required=True,
        help="comma separated specs like 'ordinal:4,nominal:2'",
    )
    p.add_argument("--max-d", type=int, default=4, help="search cap (default 4)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_scaling_dim)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command line parser; only ``command``'s subparser if it names one.

    A run needs the parser of its own subcommand alone, and building all
    six costs more than a small ``scaling-dim`` run. Any other value,
    such as ``--help`` or a misspelt command, builds all six, so help and
    errors list every choice; the usage line lists them either way.
    """
    commands = {
        "concepts": ("count (and list) the extents", _concepts_parser),
        "motifs": ("enumerate motifs and tabulate counts", _motifs_parser),
        "cover": ("greedy extent covering by motifs", _cover_parser),
        "explain": ("textual explanations for a covering", _explain_parser),
        "basis": ("fold a complete covering into one context", _basis_parser),
        "scaling-dim": ("least number of scales that fully measure", _scaling_dim_parser),
    }
    parser = argparse.ArgumentParser(
        prog="ordmotif", description="Ordinal motifs in formal contexts"
    )
    if command in commands:
        choices = "{" + ",".join(commands) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
        commands = {command: commands[command]}
    else:
        sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fill) in commands.items():
        fill(sub.add_parser(name, help=help_text))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        payload, text = args.func(args)
        if args.json:
            import json  # here, so a run without --json does not load it

            print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2))
        elif text is not None:
            print(text, end="")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
