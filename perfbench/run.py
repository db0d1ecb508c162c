"""The conics800 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
its src/ directory. The workload runs in fresh worker processes, one at
a time (worker.py). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line
before it records the run environment; both are also written to
perfbench/out/. Exit code 0 means a result was printed; any other code
means none was.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("certify_full", "certify_light", "clique_census")

# A --trace 0 run starts this many workers, one after another. The first
# times its set-up and then times iterations for the whole --seconds, so
# all but its first iteration run warm; the others only time their
# set-up. setup_s is the median over all of them.
WORKERS = 3

# The whole run ends within this many seconds or fails.
RUN_DEADLINE_S = 175.0

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("pass_ratio", "ratio", "higher"),
)

# Layers called more than once in some workload get a .calls metric.
CALLS = (
    "golay.build_golay",
    "golay.normalize_frame",
    "leech.all_minimal_vectors",
    "census.find_conics",
    "census.classify_all",
    "lattices.short_vectors.small",
    "lattices.discriminant_form",
    "lattices.fqf_isomorphic",
    "lattices.orthogonal_complement",
    "lattices.IntegralLattice",
    "exact.hnf",
    "exact.det_bareiss",
    "exact.LeftSolver.solve",
    "exact.snf",
    "exact.signature",
    "ns.build_N",
    "ns.bad_vector_scan",
)

# Work counts and memory read at a layer: (layer, counter, unit, better).
COUNTERS = (
    ("leech.census", "rss_mb", "MB", "lower"),
    ("leech.census", "vectors", "count", "higher"),
    ("census.count_disjoint_16", "cliques", "count", "higher"),
    ("census.count_disjoint_16", "exhausted", "count", "higher"),
    (tracing.HEAVY, "rss_mb", "MB", "lower"),
    (tracing.HEAVY, "found", "count", "higher"),
    (tracing.SMALL, "found", "count", "higher"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints."""
    out = []
    for layer in tracing.LAYERS:
        out.append((f"{layer}.s", "s", "lower"))
        if layer in CALLS:
            out.append((f"{layer}.calls", "count", "lower"))
    out += [(f"{layer}.{key}", unit, better) for layer, key, unit, better in COUNTERS]
    out += [("trace.overhead_s", "s", "lower"), ("trace.exceptions", "count", "lower")]
    return out


class WorkerFailed(Exception):
    pass


def run_worker(mode: str, args, part: int, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload,
           str(args.seed), str(part), str(seconds)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed(f"no time left for the {mode} worker")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker passed the run deadline") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    recs = [run_worker("measure", args, part, args.seconds if part == 0 else -1.0, deadline)
            for part in range(WORKERS)]
    walls = [w for rec in recs for w in rec["walls"]]
    setups = [rec["setup_s"] for rec in recs]
    attempted = sum(rec["attempted"] for rec in recs)
    failed = sum(rec["failed"] for rec in recs)
    values = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(rec["peak_rss_mb"] for rec in recs),
        "setup_s": statistics.median(setups),
        "pass_ratio": 1.0 - failed / attempted,
    }
    summary = dict(recs[0], attempted=attempted, failed=failed,
                   problems=[p for rec in recs for p in rec["problems"]])
    detail = {"walls_s": [rec["walls"] for rec in recs], "setups_s": setups}
    return summary, {"values": values, "detail": detail}


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    rec = run_worker("trace", args, 0, args.seconds, deadline)
    layers = rec["layers"]
    empty = {"s": 0.0, "calls": 0}
    values = {}
    for layer in tracing.LAYERS:
        agg = layers.get(layer, empty)
        values[f"{layer}.s"] = agg["s"]
        if layer in CALLS:
            values[f"{layer}.calls"] = agg["calls"]
    for layer, key, _, _ in COUNTERS:
        values[f"{layer}.{key}"] = layers.get(layer, {}).get(key, 0)
    values["trace.overhead_s"] = rec["overhead_s"]
    values["trace.exceptions"] = sum(agg["exceptions"] for agg in layers.values())
    detail = {"cold_iteration_s": rec["cold_iteration_s"], "untraced_s": rec["untraced_s"],
              "traced_s": rec["traced_s"]}
    return rec, {"values": values, "detail": detail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "conics800" / "__init__.py").is_file():
        print(f"no conics800 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        rec, out = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    units = {name: unit for name, unit, _ in
             (per_layer_metrics() if args.trace else END_TO_END)}
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in out["values"].items()},
    }
    env = dict(rec["env"], seconds=args.seconds, trace=args.trace, problems=rec["problems"],
               **out["detail"])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
