import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import graphdenoise.lanes
from graphdenoise.lanes import in_lanes


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


@pytest.fixture
def six_lanes(monkeypatch):
    # more lanes than cores, and a switch interval short enough to preempt
    # the lanes between any two bytecodes of in_lanes
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(5) as pool:
        monkeypatch.setattr(graphdenoise.lanes, "LANES", 6)
        monkeypatch.setattr(graphdenoise.lanes, "POOL", pool)
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)


def test_every_job_runs_once_and_results_keep_job_order(six_lanes):
    calls = [0] * 3000
    jobs = [lambda i=i: calls.__setitem__(i, calls[i] + 1) or i * i for i in range(3000)]
    assert run_bounded(lambda: in_lanes(jobs)) == [i * i for i in range(3000)]
    assert calls == [1] * 3000


@pytest.mark.parametrize("failing", [(0,), (7,), (7, 8), (900, 30), (2999,)])
def test_first_failing_job_in_order_wins_and_earlier_jobs_all_ran(six_lanes, failing):
    ran = [False] * 3000

    def job(i):
        ran[i] = True
        if i in failing:
            raise ValueError(f"job {i}")
        return i

    jobs = [lambda i=i: job(i) for i in range(3000)]
    with pytest.raises(ValueError, match=f"^job {min(failing)}$"):
        run_bounded(lambda: in_lanes(jobs))
    assert all(ran[: min(failing)])


def test_a_job_may_call_in_lanes_itself(monkeypatch):
    # the inner call must not wait on a pool thread that is running its caller
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(graphdenoise.lanes, "LANES", 2)
    monkeypatch.setattr(graphdenoise.lanes, "POOL", pool)
    inner = [lambda k=k: k for k in range(4)]
    outer = [lambda: in_lanes(inner) for _ in range(3)]
    try:
        assert run_bounded(lambda: in_lanes(outer), timeout=20.0) == [[0, 1, 2, 3]] * 3
    finally:
        pool.shutdown(wait=False)  # a deadlocked pool must not hang the suite
