"""Command-line entry points.

Subcommands run the pipeline up to their stage (each stage's checks
are the next stage's preconditions, so earlier sections are included),
print a human-readable check listing, and optionally write the JSON
report, on failures too. Exit codes: 0 all checks pass, 1 verification
mismatch, 2 bad flags (argparse), 3 construction failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import golay as golay_mod
from .errors import VerificationError
from .report import Pipeline, format_row, print_human, run_pipeline, serialize


def _add_common(p: argparse.ArgumentParser, octad: bool = False) -> None:
    p.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="accepted for compatibility; every stage runs in one thread, "
        "so the value changes nothing",
    )
    p.add_argument("--json", metavar="FILE", help="write the JSON report to FILE")
    if octad:
        p.add_argument(
            "--octad-choice",
            choices=["lex", "0", "1", "2", "3"],
            default="lex",
            help="which frame octad to normalize to: the lexicographically "
            "least one, or one of the 4 candidates meeting {1,2,3,4,5} "
            "in {1,2,4,5}",
        )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conics800",
        description="Exact reconstruction and verification of the 800-conic "
        "lattice pipeline: binary code, minimal vectors, conic census, "
        "polarized rank-20 lattice.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("golay", help="build the [24,12,8] code and verify it")
    _add_common(g)
    g.add_argument("--stats", action="store_true", help="print the weight distribution")
    g.add_argument("--steiner", action="store_true", help="print the quintuple-cover check")
    g.add_argument("--export", metavar="FILE", help="write all 4096 codewords to FILE")
    g.add_argument("--export-basis", metavar="FILE", help="write the 12 basis words to FILE")

    l = sub.add_parser("leech", help="enumerate the 196560 minimal vectors")
    _add_common(l)
    l.add_argument("--counts", action="store_true", help="print the shape counts")
    l.add_argument(
        "--heavy",
        action="store_true",
        help="also cross-check the count by independent short-vector "
        "enumeration (about half a second)",
    )

    c = sub.add_parser("conics", help="filter and classify the 800 conic vectors")
    _add_common(c, octad=True)
    c.add_argument(
        "--clique",
        choices=["first", "all"],
        default="first",
        help="report the first 16-clique of disjoint conics, or also "
        "count all of them (exhaustive, a few seconds; a 60 s budget "
        "is kept as a safety stop)",
    )

    n = sub.add_parser("ns", help="build and verify the polarized rank-20 lattice")
    _add_common(n, octad=True)

    v = sub.add_parser("verify-all", help="run every stage and the heavy cross-check")
    _add_common(v, octad=True)
    v.add_argument(
        "--skip-heavy",
        action="store_true",
        help="omit the independent enumeration cross-check",
    )
    return ap


def _print_selected(report: dict, names: set[str]) -> None:
    for stage, section in report["stages"].items():
        for c in section["checks"]:
            if c["name"] in names:
                print(format_row(c, f"{stage}.{c['name']}"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    state = Pipeline(
        octad_choice=getattr(args, "octad_choice", "lex"),
        threads=max(1, args.threads),
    )
    if args.command == "golay":
        rep, ok = run_pipeline(state, "golay")
        if state.error is None:
            if args.export:
                golay_mod.export_codewords(state.code, args.export)
            if args.export_basis:
                golay_mod.export_basis(state.code, args.export_basis)
    elif args.command == "leech":
        rep, ok = run_pipeline(state, "leech", heavy=args.heavy)
    elif args.command == "conics":
        rep, ok = run_pipeline(state, "conics", clique_mode=args.clique)
    elif args.command == "ns":
        rep, ok = run_pipeline(state, "ns")
    else:
        rep, ok = run_pipeline(state, "ns", heavy=not args.skip_heavy)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(serialize(rep))

    selected: set[str] = set()
    if args.command == "golay":
        if args.stats:
            selected |= {"codeword_count", "weight_distribution"}
        if args.steiner:
            selected |= {"steiner_every_quintuple_once"}
    elif args.command == "leech" and args.counts:
        selected |= {"shape_counts", "total_minimal_vectors"}
    if selected:
        _print_selected(rep, selected)
    else:
        print_human(rep, sys.stdout)
    if isinstance(state.error, VerificationError):
        print(f"verification failed: {state.error}", file=sys.stderr)
        return 1
    if state.error is not None:
        print(f"construction failed: {state.error}", file=sys.stderr)
        return 3
    return 0 if ok else 1
