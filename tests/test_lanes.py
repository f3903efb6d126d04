import gc
import os
import pickle
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

import graphdenoise.lanes
from graphdenoise.lanes import WorkerTraceback, in_lanes, workers

# the test process: jobs see another pid in a worker
PARENT = os.getpid()


def run_bounded(fn, timeout=60.0):
    """fn() in a thread, which must finish within timeout; its result or error."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except Exception as exc:  # handed to the test thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box["result"]


def logged_square(log, i, failing=()):
    """i * i, once i is appended to the file log, which every process
    appends to; raises ValueError for i in failing."""
    with open(log, "a") as f:
        f.write(f"{i}\n")
    if i in failing:
        raise ValueError(f"job {i}")
    return i * i


def logged(log) -> list[int]:
    return sorted(map(int, log.read_text().split()))


def same(k):
    return k


def pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


def exit_in_worker(code):
    """Ends a worker process with code; in the test process, sleeps so that
    the worker's lane takes a job."""
    if os.getpid() != PARENT:
        os._exit(code)
    time.sleep(0.01)


class Unpicklable(Exception):
    pass


class NeedsTwoArguments(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def raise_unpicklable():
    error = Unpicklable("holds a lock")
    error.lock = threading.Lock()
    raise error


def raise_needs_two():
    raise NeedsTwoArguments("one", "two")


@pytest.fixture
def six_lanes(monkeypatch):
    # more lanes than cores, and a switch interval short enough to preempt
    # the lanes between any two bytecodes of in_lanes
    interval = sys.getswitchinterval()
    monkeypatch.setattr(graphdenoise.lanes, "LANES", 6)
    # forked here, in the test's only thread; run_bounded's cannot fork
    assert len(workers(5)) == 5
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_every_job_runs_once_and_results_keep_job_order(six_lanes, tmp_path):
    jobs = [partial(logged_square, tmp_path / "log", i) for i in range(3000)]
    assert run_bounded(lambda: in_lanes(jobs)) == [i * i for i in range(3000)]
    assert logged(tmp_path / "log") == list(range(3000))


@pytest.mark.parametrize("failing", [(0,), (7,), (7, 8), (900, 30), (2999,)])
def test_first_failing_job_in_order_wins_and_earlier_jobs_all_ran(six_lanes, tmp_path, failing):
    jobs = [partial(logged_square, tmp_path / "log", i, failing) for i in range(3000)]
    with pytest.raises(ValueError, match=f"^job {min(failing)}$"):
        run_bounded(lambda: in_lanes(jobs))
    assert set(range(min(failing))) <= set(logged(tmp_path / "log"))


def test_each_extra_lane_is_a_worker_process(six_lanes):
    pids = set(run_bounded(lambda: in_lanes([partial(pid_after, 0.05)] * 30)))
    assert pids == {PARENT, *(worker.pid for worker in graphdenoise.lanes.WORKERS)}
    assert len(pids) == 6


def test_a_job_may_call_in_lanes_itself(monkeypatch):
    # the inner call runs serially in its caller's lane, in either process
    monkeypatch.setattr(graphdenoise.lanes, "LANES", 2)
    workers(1)
    inner = [partial(same, k) for k in range(4)]
    outer = [partial(in_lanes, inner) for _ in range(3)]
    assert run_bounded(lambda: in_lanes(outer), timeout=20.0) == [[0, 1, 2, 3]] * 3


def test_a_worker_that_dies_mid_job_fails_it_and_the_next_batch_forks_afresh(monkeypatch):
    monkeypatch.setattr(graphdenoise.lanes, "LANES", 2)
    workers(1)
    with pytest.raises(ChildProcessError, match=r"^lane worker (\d+) ended mid-job \(exit code 7\)$"):
        run_bounded(lambda: in_lanes([partial(exit_in_worker, 7)] * 20))
    [dead] = graphdenoise.lanes.WORKERS
    with pytest.raises(ChildProcessError):
        os.waitpid(dead.pid, os.WNOHANG)  # reaped, not a zombie
    pids = set(in_lanes([partial(pid_after, 0.05)] * 6))  # forks: the only thread
    [fresh] = graphdenoise.lanes.WORKERS
    assert pids == {PARENT, fresh.pid} and fresh.pid != dead.pid


@pytest.mark.parametrize(
    "job, message",
    [(raise_unpicklable, "^Unpicklable: holds a lock$"), (raise_needs_two, "^NeedsTwoArguments: one and two$")],
)
def test_an_error_that_does_not_pickle_comes_back_by_type_and_message(monkeypatch, job, message):
    monkeypatch.setattr(graphdenoise.lanes, "LANES", 2)
    [worker] = workers(1)
    with pytest.raises(RuntimeError, match=message) as raised:
        worker.run(job)
    assert isinstance(raised.value.__cause__, WorkerTraceback)
    assert f"in {job.__name__}" in str(raised.value.__cause__)
    with pytest.raises((pickle.PicklingError, AttributeError)):
        worker.run(lambda: 0)  # a job that does not pickle fails before it is sent
    assert worker.run(partial(same, 5)) == 5


def test_shutdown_reaps_every_worker(monkeypatch):
    monkeypatch.setattr(graphdenoise.lanes, "LANES", 3)
    pids = [worker.pid for worker in workers(2)]
    assert gc.get_freeze_count() > 0  # the parent's objects, while workers share them
    graphdenoise.lanes.shutdown()
    assert graphdenoise.lanes.WORKERS == []
    assert gc.get_freeze_count() == 0
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_a_batch_beside_another_thread_forks_no_worker(monkeypatch):
    # a fork could copy a lock the other thread holds; the batch runs serially
    monkeypatch.setattr(graphdenoise.lanes, "LANES", 2)
    assert set(run_bounded(lambda: in_lanes([partial(pid_after, 0.01)] * 6))) == {PARENT}
    assert graphdenoise.lanes.WORKERS == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_the_fork_leaves_the_parent_one_os_thread(monkeypatch):
    # Python 3.12+ warns when the parent has other threads right after a
    # fork; numpy's OpenBLAS stops its pool for the fork
    np.ones((300, 300)) @ np.ones((300, 300))  # wakes the BLAS threads, if any
    threads, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            threads.append(len(os.listdir("/proc/self/task")))
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(graphdenoise.lanes, "LANES", 2)
    assert len(set(in_lanes([partial(pid_after, 0.05)] * 6))) == 2
    assert threads == [1]
