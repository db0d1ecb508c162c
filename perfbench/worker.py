"""One benchmark process: set up a workload, then time or trace it.

    python3 perfbench/worker.py MODE WORKLOAD SEED PART SECONDS

run.py starts it in a fresh process, so no workload's imports, caches
or memory high-water mark leak into another's. The workload's inputs
come from SEED and PART, the worker's index within the run. The last
line of its standard output is one JSON record. MODE is one of

  measure  imports and input generation (the set-up, timed), then, unless
           SECONDS is negative, iterations timed one by one until SECONDS
           have passed (at least one);
  trace    set-up and the first iteration traced (the per-layer numbers
           come from this cold pass), then untraced and traced iterations
           in turn until SECONDS have passed, for the tracing overhead.

Every iteration is checked against the reference.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def threads_for_pipeline() -> int:
    """The CLI's default (available parallelism), never above nproc."""
    return max(1, min(len(os.sched_getaffinity(0)), os.cpu_count() or 1))


class Runner:
    """Runs and checks iterations, counting attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def iteration(self) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            problems = self.workload.iterate()
        except Exception:
            problems = ["raised: " + traceback.format_exc(limit=3)]
        elapsed = time.perf_counter() - start
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            print("\n".join(problems), file=sys.stderr)
        return elapsed


def main(argv: list[str]) -> int:
    mode, name, seed, part, seconds = argv[0], argv[1], int(argv[2]), int(argv[3]), float(argv[4])
    sys.path.insert(0, str(SRC))
    tracer = tracing.Tracer() if mode == "trace" else None
    import numpy
    import workloads

    import conics800

    if SRC.resolve() not in Path(conics800.__file__).resolve().parents:
        print(f"conics800 was imported from {conics800.__file__}, not {SRC}", file=sys.stderr)
        return 2
    threads = threads_for_pipeline()
    env = {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    reference = workloads.load_reference()
    if tracer is not None:
        tracer.install()
    runner = Runner(workloads.WORKLOADS[name](f"{seed}/{part}", threads, reference))
    setup_s = time.perf_counter() - T0
    record: dict = {"env": env, "setup_s": setup_s}

    if mode == "measure":
        walls = []
        start = time.perf_counter()
        while seconds >= 0 and (not walls or time.perf_counter() - start < seconds):
            walls.append(runner.iteration())
            if len(walls) == 1:
                # One set-up and one iteration, as a CLI run: later
                # iterations can grow the heap by how many of them fit.
                record["peak_rss_mb"] = tracing.peak_rss_mb()
        record["walls"] = walls
    elif mode == "trace":
        record["cold_iteration_s"] = runner.iteration()
        record["layers"] = tracer.aggregate()
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            tracer.enabled = False
            untraced.append(runner.iteration())
            tracer.enabled = True
            traced.append(runner.iteration())
        tracer.uninstall()
        record["untraced_s"] = untraced
        record["traced_s"] = traced
        record["overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    record["attempted"] = runner.attempted
    record["failed"] = runner.failed
    record["problems"] = runner.problems[:20]
    record.setdefault("peak_rss_mb", tracing.peak_rss_mb())
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{name}-seed{seed}.json", record)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
