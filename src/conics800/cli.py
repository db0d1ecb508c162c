"""Command-line entry points.

Each subcommand runs the pipeline once, up to its stage (each stage's
checks are the next stage's preconditions, so earlier sections are
included), prints a human-readable check listing, and optionally writes
the JSON report, on failures too. Each subcommand's parser carries the
run's arguments (upto, heavy, clique) as its defaults and dests.

Exit codes: 0 all checks pass; 1 a check failed, or a stage raised
VerificationError; 2 bad flags (argparse, before any stage runs, so no
JSON); 3 a stage raised any other error: ConstructionError, ValueError,
TypeError, MemoryError and the rest. The exit code and the stderr line,
which names the stage, the error's type and its message, are read off
the report's "error" record. The JSON is written before golay's export
files, and an output file that cannot be opened ends the run with 3.
"""

from __future__ import annotations

import argparse
import sys

from . import golay as golay_mod
from .report import Pipeline, format_row, print_human, run_pipeline, serialize


def _add_common(
    p: argparse.ArgumentParser, upto: str, octad: bool = False, heavy: bool = False
) -> None:
    """The options every subcommand takes, after the run's defaults: an
    option added later with the same dest and no default starts at them."""
    p.set_defaults(upto=upto, heavy=heavy, clique="first", octad_choice="lex")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; the value changes nothing: a run "
        "forks its side jobs wherever a second CPU is available",
    )
    p.add_argument("--json", metavar="FILE", help="write the JSON report to FILE")
    if octad:
        p.add_argument(
            "--octad-choice",
            choices=["lex", "0", "1", "2", "3"],
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
    _add_common(g, "golay")
    g.add_argument("--stats", action="store_true", help="print the weight distribution")
    g.add_argument("--steiner", action="store_true", help="print the quintuple-cover check")
    g.add_argument("--export", metavar="FILE", help="write all 4096 codewords to FILE")
    g.add_argument("--export-basis", metavar="FILE", help="write the 12 basis words to FILE")

    l = sub.add_parser("leech", help="enumerate the 196560 minimal vectors")
    _add_common(l, "leech")
    l.add_argument("--counts", action="store_true", help="print the shape counts")
    l.add_argument(
        "--heavy",
        action="store_true",
        help="also cross-check the count by independent short-vector "
        "enumeration (the stage takes about 0.04 s on a 2-vCPU VM)",
    )

    c = sub.add_parser("conics", help="filter and classify the 800 conic vectors")
    _add_common(c, "conics", octad=True)
    c.add_argument(
        "--clique",
        choices=["first", "all"],
        help="report the first 16-clique of disjoint conics, or also "
        "count all of them (exhaustive, about 0.15 s more on a 2-vCPU VM; "
        "a 60 s budget is kept as a safety stop)",
    )

    n = sub.add_parser("ns", help="build and verify the polarized rank-20 lattice")
    _add_common(n, "ns", octad=True)

    v = sub.add_parser("verify-all", help="run every stage and the heavy cross-check")
    _add_common(v, "ns", octad=True, heavy=True)
    v.add_argument(
        "--skip-heavy",
        dest="heavy",
        action="store_false",
        help="omit the independent enumeration cross-check",
    )
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    state = Pipeline(octad_choice=args.octad_choice)
    rep, ok = run_pipeline(state, args.upto, args.heavy, args.clique)
    error = rep.get("error")
    try:
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(serialize(rep))
        if args.command == "golay" and error is None:
            if args.export:
                golay_mod.export_codewords(state.code, args.export)
            if args.export_basis:
                golay_mod.export_basis(state.code, args.export_basis)
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 3

    selected: set[str] = set()
    if args.command == "golay":
        if args.stats:
            selected |= {"codeword_count", "weight_distribution"}
        if args.steiner:
            selected |= {"steiner_every_quintuple_once"}
    elif args.command == "leech" and args.counts:
        selected |= {"shape_counts", "total_minimal_vectors"}
    if selected:
        for stage, section in rep["stages"].items():
            for c in section["checks"]:
                if c["name"] in selected:
                    print(format_row(c, f"{stage}.{c['name']}"))
    else:
        print_human(rep, sys.stdout)
    if error is None:
        return 0 if ok else 1
    failed = "verification" if error["type"] == "VerificationError" else "construction"
    print(
        f"{failed} failed in stage {error['stage']}: {error['type']}: {error['message']}",
        file=sys.stderr,
    )
    return 1 if failed == "verification" else 3
