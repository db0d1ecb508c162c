"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted: the file it writes,
reference.json, is what later commits must reproduce byte for byte
(reports once timing fields are stripped). It runs the full pipeline at
all five frame choices, so it takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from conics800 import census, report  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    threads = 1
    ref: dict = {"certify": {"full": {}, "light": {}}}
    for frame in workloads.FRAMES:
        for key, heavy in (("light", False), ("full", True)):
            state = report.Pipeline(octad_choice=frame, threads=threads)
            rep, overall = report.run_pipeline(state, "ns", heavy=heavy)
            if not overall:
                raise SystemExit(f"frame {frame} heavy={heavy}: overall is False")
            ref["certify"][key][frame] = workloads.report_digest(rep)
        print(f"frame {frame} done", file=sys.stderr, flush=True)
    masks = census.disjointness_masks(workloads.true_products("lex", threads))
    count, exhausted = census.count_disjoint_16(masks, budget_seconds=workloads.CLIQUE_BUDGET_S)
    if not exhausted:
        raise SystemExit("clique search did not exhaust")
    ref["clique"] = {"count": count}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
