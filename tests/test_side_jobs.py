"""The side jobs of a run: where os.fork exists and a second CPU is
available, the other frames' splits and the heavy count run in forked
children, and the report, the error record and the exit code are those
of the in-process run on a platform without os.fork. No run leaves a
child behind."""

import contextlib
import hashlib
import json
import os
import signal
import warnings
from pathlib import Path

import pytest

from conics800 import census, cli, golay, leech, ns, report
from conics800.errors import ConstructionError
from test_cli import _raising_function

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="side jobs fork")

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# Each side job, the library call it makes in its child, the command
# whose run reads it, and the reading stage. report.norm_counts is
# called by S_root_free too, so the heavy job's command runs past no ns
# stage.
JOBS = {
    "frame_splits": ("_frame_split", "conics", "conics"),
    "heavy_counts": ("norm_counts", "leech --heavy", "heavy"),
}

MODES = ("in_process", "forked")


def _assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Two CPUs available, as on the benchmark machine, so a run forks its
    side jobs; yields the pids this process forks while the test runs."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    yield pids
    # Whatever the test found, leave no child running for the next test.
    for pid in pids:
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:
            pass


@contextlib.contextmanager
def _mode(mode: str):
    """In process: as on a platform without os.fork."""
    with pytest.MonkeyPatch.context() as mp:
        if mode == "in_process":
            mp.delattr(os, "fork")
        yield


def _run(frame: str, mode: str):
    with _mode(mode):
        return report.run_pipeline(report.Pipeline(frame), "ns", heavy=True)


def _cli(argv, tmp_path, mode):
    out = tmp_path / f"r-{mode}.json"
    with _mode(mode):
        code = cli.main(argv.split() + ["--json", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("frame", ["lex", "2"])
def test_forked_full_run_is_the_in_process_run(frame, forks):
    """Both jobs run in children, each reading stage records its job under
    the volatile "side_jobs" key, and the stripped report is the
    in-process report and its reference digest, byte for byte."""
    texts = {}
    for mode in MODES:
        rep, ok = _run(frame, mode)
        assert ok
        jobs = {s: [j["job"] for j in sec.get("side_jobs", [])] for s, sec in rep["stages"].items()}
        if mode == "in_process":
            assert not any(jobs.values()) and not forks
        else:
            assert jobs == {"golay": [], "leech": [], "conics": ["frame_splits"], "ns": [],
                            "heavy": ["heavy_counts"]}
            assert len(forks) == 2
            for sec in ("conics", "heavy"):
                [record] = rep["stages"][sec]["side_jobs"]
                assert set(record) == {"job", "child_s", "wait_s", "child_max_rss_mb"}
                assert record["child_max_rss_mb"] > 0
        texts[mode] = report.serialize(report.strip_volatile(rep))
        _assert_no_child()
    assert texts["in_process"] == texts["forked"]
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["certify"]["full"][frame]
    assert hashlib.sha256(texts["forked"].encode("utf-8")).hexdigest() == expected


def _fork_fails():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("fork", [None, _fork_fails])
def test_without_a_fork_the_jobs_run_in_process(fork, monkeypatch):
    """With no os.fork, or a fork that fails, the reading stages compute
    the values themselves, and no pipe is left open."""
    if fork is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    open_fds = len(os.listdir("/proc/self/fd"))
    rep, ok = report.run_pipeline(report.Pipeline("lex"), "ns", heavy=True)
    assert ok
    assert not any("side_jobs" in sec for sec in rep["stages"].values())
    assert len(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.parametrize(
    "affinity, cpu_count, forked",
    [({0}, 2, False), ({0, 1}, 1, True), (None, 1, False), (None, None, False), (None, 2, True)],
)
def test_a_second_cpu_decides_the_fork(affinity, cpu_count, forked, monkeypatch, tmp_path):
    """The CPUs this process may use decide, read from its affinity where
    the platform has one, else from the CPU count; --threads changes
    nothing."""
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    for threads in ("1", "4"):
        out = tmp_path / f"r{threads}.json"
        assert cli.main(["conics", "--threads", threads, "--json", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert ("side_jobs" in data["stages"]["conics"]) is forked
    _assert_no_child()


def test_a_fork_that_warns_still_forks(forks, monkeypatch):
    """CPython >= 3.12 warns in the parent after it forks while another
    thread exists; the tests turn warnings into errors, and the run must
    still read both children and reap them."""
    spy = os.fork

    def warning_fork():
        pid = spy()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    rep, ok = report.run_pipeline(report.Pipeline("lex"), "ns", heavy=True)
    assert ok and len(forks) == 2
    assert [j["job"] for j in rep["stages"]["heavy"]["side_jobs"]] == ["heavy_counts"]
    _assert_no_child()


@pytest.mark.parametrize("error", [ValueError, ConstructionError, MemoryError])
@pytest.mark.parametrize("job", list(JOBS))
def test_a_child_error_is_the_in_process_error(job, error, monkeypatch, tmp_path, forks):
    """A raise in the child leaves its pipe empty, and the reading stage
    raises it again itself: the report, the error record with its
    traceback and the exit code are those of the same raise in process."""
    name, command, stage = JOBS[job]

    def planted(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(report, name, planted)
    runs = {mode: _cli(command, tmp_path, mode) for mode in MODES}
    assert len(forks) == 1
    _assert_no_child()
    for code, data in runs.values():
        assert code == 3
        assert report.strip_volatile(data)["error"] == {
            "stage": stage, "type": error.__name__, "message": "planted"
        }
        assert _raising_function(data["error"]) == "planted"
    assert runs["in_process"][1]["error"] == runs["forked"][1]["error"]
    assert report.strip_volatile(runs["in_process"][1]) == report.strip_volatile(runs["forked"][1])


def _truncated_pickle(job):
    """The value's pickle less its last 3 bytes, as a child killed while
    it writes leaves it."""
    dumps = report.pickle.dumps
    report.pickle.dumps = lambda obj: dumps(obj)[:-3]
    return job()


# How a child ends without sending a value, given its real job.
ENDINGS = {
    "exit": lambda job: os._exit(7),
    "killed": lambda job: os.kill(os.getpid(), signal.SIGKILL),
    "unpicklable": lambda job: lambda: None,
    "truncated": _truncated_pickle,
}


@pytest.mark.parametrize("ending", list(ENDINGS))
@pytest.mark.parametrize("job", list(JOBS))
def test_a_child_that_sends_no_value_is_recomputed(job, ending, monkeypatch, tmp_path, forks):
    """The reading stage computes the value itself: the run passes, it is
    the in-process run, and the stage has no side_jobs record."""
    name, command, stage = JOBS[job]
    parent = os.getpid()
    real = getattr(report, name)

    def planted(*args, **kwargs):
        if os.getpid() == parent:
            return real(*args, **kwargs)
        return ENDINGS[ending](lambda: real(*args, **kwargs))

    monkeypatch.setattr(report, name, planted)
    runs = {mode: _cli(command, tmp_path, mode) for mode in MODES}
    assert len(forks) == 1
    _assert_no_child()
    for code, data in runs.values():
        assert code == 0
        assert "side_jobs" not in data["stages"][stage]
    assert report.strip_volatile(runs["in_process"][1]) == report.strip_volatile(runs["forked"][1])


def _raise_value_error(*args):
    raise ValueError("planted")


_normalize_frame = golay.normalize_frame


def _pause_other_frames(code, octad_choice=None):
    """The run's own frame (lex) normalizes; the splits child never returns."""
    if octad_choice is not None:
        signal.pause()
    return _normalize_frame(code, octad_choice)


# A stage error before a job is read, by the stage that fails: (its
# plants, the jobs forked before it).
UNREAD = {
    "leech": ([(leech, "extract_basis", _raise_value_error)], 1),
    "ns": ([(ns, "build_N", _raise_value_error)], 2),
    "conics": (
        [(golay, "normalize_frame", _pause_other_frames),
         (census, "intersection_data", _raise_value_error)],
        2,
    ),
}


@pytest.mark.parametrize("stage", list(UNREAD))
def test_a_job_never_read_is_killed_and_reaped(stage, monkeypatch, tmp_path, forks):
    """A stage error ends a verify-all run while a child still runs, or
    before its value is read: the child is killed and reaped, and the
    report is the in-process report."""
    plants, forked = UNREAD[stage]
    for module, name, planted in plants:
        monkeypatch.setattr(module, name, planted)
    runs = {mode: _cli("verify-all", tmp_path, mode) for mode in reversed(MODES)}
    assert len(forks) == forked
    _assert_no_child()
    for code, data in runs.values():
        assert code == 3 and data["error"]["stage"] == stage
    assert report.strip_volatile(runs["in_process"][1]) == report.strip_volatile(runs["forked"][1])


def test_keyboard_interrupt_leaves_no_child(monkeypatch, tmp_path, forks):
    def planted(conics):
        raise KeyboardInterrupt

    monkeypatch.setattr(census, "intersection_data", planted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["verify-all", "--json", str(tmp_path / "r.json")])
    assert len(forks) == 2
    _assert_no_child()
