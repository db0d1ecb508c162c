"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/tests

The smoke tests run every workload once in each mode through run.py,
as the benchmark is run, and take a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

from conics800 import exact, lattices, ns, report  # noqa: E402
from conics800.errors import NotPositiveDefiniteError  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m) for m in run.per_layer_metrics()
    ]


def _bindings():
    """Every package-module binding and class attribute the tracer touches."""
    mods = [m for n, m in sys.modules.items() if n.startswith("conics800")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    out["LeftSolver.solve"] = exact.LeftSolver.__dict__["solve"]
    out["IntegralLattice.__init__"] = lattices.IntegralLattice.__dict__["__init__"]
    return out


def test_wrappers_uninstall_to_identical_functions():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        assert ns.short_vectors is not before[("conics800.lattices", "short_vectors")]
        assert report.short_vectors is ns.short_vectors is lattices.short_vectors
        assert report.stage_ns is not before[("conics800.report", "stage_ns")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_self_time_and_exceptions():
    tracer = tracing.Tracer()
    with tracer:
        found = lattices.short_vectors([[2, 1], [1, 2]], 2)
        with pytest.raises(NotPositiveDefiniteError):
            lattices.short_vectors([[1, 2], [2, 1]], 2)
        kind1, _ = ns.bad_vector_scan(ns.PLANTED_KIND1, (1, 0))
    agg = tracer.aggregate()
    small = agg[tracing.SMALL]
    assert found and kind1
    assert small["calls"] == 3 and small["exceptions"] == 1
    assert small["found"] == len(found) + len(kind1)
    scan = agg["ns.bad_vector_scan"]
    total = next(t1 - t0 for n, t0, t1, *_ in tracer.spans if n == "ns.bad_vector_scan")
    assert 0 < scan["s"] < total
    parents = {n: p for n, _, _, p, *_ in tracer.spans}
    assert parents["ns.bad_vector_scan"] == -1
    assert tracer.spans[-1][3] >= 0  # nested calls point at their caller


def _planted(reference: dict, path: tuple, value) -> dict:
    ref = json.loads(json.dumps(reference))
    node = ref
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return ref


def test_planted_wrong_digest_fails_the_iteration():
    ref = workloads.load_reference()
    bad = _planted(ref, ("certify", "light"), {f: "0" * 64 for f in workloads.FRAMES})
    runner = worker.Runner(workloads.WORKLOADS["certify_light"]("1/0", 1, bad))
    runner.iteration()
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "digest differs" in runner.problems[0]


def test_planted_wrong_clique_count_fails_the_iteration():
    ref = workloads.load_reference()
    bad = _planted(ref, ("clique", "count"), ref["clique"]["count"] + 1)
    runner = worker.Runner(workloads.WORKLOADS["clique_census"]("1/0", 1, bad))
    runner.iteration()
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "clique count" in runner.problems[0]


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[key]]
        for m in BENCHMARK[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify_light", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    assert done.returncode != 0 and done.stdout == ""
