"""Solve lanes: the calling thread plus one worker process per extra core.

LANES is the number of cores this process may run on, so up to LANES jobs
run at once: one in the calling thread, the others each in a worker
process. A patch job is mostly numpy calls on 4096-element vectors, each
of which releases and re-takes the GIL, so threads sharing one
interpreter get little from a second core; processes share nothing.
Every parallel job goes through in_lanes, the one scheduler: training's
gradient pairs, calibration's analytic solves and validation, and the
patch jobs of denoise and eval, each one call of a maker that builds its
patch's Psi and filters or solves with it on the lane
(cli._map_patches, train.analytic_solve). denoise maps its image in one
batch; eval maps each test image in one batch covering every sigma, so a
long job of one sigma overlaps the jobs of the next.

A worker is forked at the first batch that needs it, so it inherits the
imported numpy and scipy, and is kept for the life of the process: a
train op runs several batches, and a fork per batch costs more than its
batch gains. Jobs and their results are pickled, so a job is a
module-level function, bound to its arguments with functools.partial. A
worker exits when its pipe closes, at shutdown (registered with atexit)
or when the parent dies; one that dies mid-job fails that job with
ChildProcessError (exit 2 from the CLI), and the next batch forks a fresh
one.

A worker is forked only while the calling thread is the process's one
Python thread, before any proxy thread starts, so no other thread can
hold a lock the worker inherits; numpy's OpenBLAS stops its own threads
for the fork. A batch run beside other threads uses the workers already
forked, or none. The fork is also arranged to copy little memory: every
object alive at the fork is frozen out of the parent's cyclic collector
(gc.freeze) until shutdown, since a full collection writes to every
object it visits and so would copy each of their pages into the worker.
A reference cycle among those objects is not reclaimed while they are
frozen. A job builds nothing that it keeps for later jobs (a patch's Psi
is its own), so the worker shares nothing more if a job runs before the
fork.
"""
from __future__ import annotations

import atexit
import gc
import os
import pickle
import threading
import traceback
from collections import deque
from multiprocessing import Pipe

# (sched_getaffinity is Linux-only; elsewhere every core counts.)
LANES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Held by the batch that uses the workers. A batch that cannot take it (a
# job calling in_lanes, or a second thread) runs serially in its own lane;
# a worker is forked holding it, so the same holds for its jobs.
_BATCH = threading.Lock()


class WorkerTraceback(Exception):
    """The traceback, as text, of an error a job raised in a worker; set as
    that error's __cause__."""


class Worker:
    """One forked worker process and the parent's end of its pipe."""

    def __init__(self):
        self.conn, child = Pipe()
        self.status = None  # the wait status, once the worker has been reaped
        gc.freeze()
        self.pid = os.fork()
        if self.pid == 0:  # the worker: it never returns from here
            code = 1
            try:
                self.conn.close()
                for worker in WORKERS:
                    worker.conn.close()
                _serve(child)
                code = 0
            finally:
                os._exit(code)
        child.close()

    def run(self, job):
        """job() run in the worker: its result, or the error it raised."""
        try:
            self.conn.send(job)  # pickled whole before anything is sent
            ok, value, worker_traceback = self.conn.recv()
        except (EOFError, OSError):
            raise ChildProcessError(
                f"lane worker {self.pid} ended mid-job ({self.reap()})"
            ) from None
        if ok:
            return value
        raise value from WorkerTraceback(worker_traceback)

    def alive(self) -> bool:
        """Whether the worker still runs; one that has ended is reaped."""
        if self.status is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.status = status
                self.conn.close()
        return self.status is None

    def reap(self) -> str:
        """Close the pipe and wait for the worker to end; how it ended."""
        self.conn.close()
        if self.status is None:
            self.status = os.waitpid(self.pid, 0)[1]
        code = os.waitstatus_to_exitcode(self.status)
        return f"killed by signal {-code}" if code < 0 else f"exit code {code}"


def _serve(conn) -> None:
    """Run the jobs that come down conn until it closes, sending back each
    result or error. An error that does not survive pickling comes back as
    a RuntimeError naming its type and message."""
    while True:
        try:
            job = conn.recv_bytes()
        except EOFError:
            return
        try:
            job = pickle.loads(job)  # its bytes are freed before it runs
            reply = pickle.dumps((True, job(), None))
        except Exception as exc:
            worker_traceback = "".join(traceback.format_exception(exc))
            try:
                reply = pickle.dumps((False, exc, worker_traceback))
                pickle.loads(reply)
            except Exception:
                error = RuntimeError(f"{type(exc).__name__}: {exc}")
                reply = pickle.dumps((False, error, worker_traceback))
        conn.send_bytes(reply)
        del job, reply  # not held while the next job runs


WORKERS: list[Worker] = []


def workers(count: int) -> list[Worker]:
    """Up to count live workers: the first count, forked as needed while
    the calling thread is the only Python thread."""
    WORKERS[:] = [worker for worker in WORKERS if worker.alive()]
    while len(WORKERS) < count and threading.active_count() == 1:
        WORKERS.append(Worker())
    return WORKERS[:count]


@atexit.register
def shutdown() -> None:
    """Close every worker's pipe and reap it; the next batch forks afresh."""
    while WORKERS:
        WORKERS.pop().reap()
    gc.unfreeze()


def in_lanes(jobs) -> list:
    """Run no-argument callables on the lanes; their results, in job order.

    Each lane takes the next job in order until none is left, so at most
    LANES jobs are running at a time; a worker's lane is a thread in this
    process that sends it the job and waits for the outcome. A job computes
    what it would serially, so the results do not depend on LANES. When
    jobs fail, the error raised is the one a serial loop would raise, that
    of the first failing job. Lanes start no job after a failure; every
    earlier job has started by then, since jobs are taken in order.
    """
    queue = deque(enumerate(jobs))
    results = [None] * len(queue)
    errors = {}

    def lane(run):
        """Run the next job until none is left or one has failed."""
        while not errors:
            try:
                index, job = queue.popleft()
            except IndexError:  # another lane took the last one
                return
            try:
                results[index] = run(job)
            except Exception as exc:
                errors[index] = exc

    def call(job):
        return job()

    extra = min(LANES, len(results)) - 1
    if extra > 0 and _BATCH.acquire(blocking=False):
        try:
            proxies = [threading.Thread(target=lane, args=(w.run,)) for w in workers(extra)]
            for proxy in proxies:
                proxy.start()
            try:
                lane(call)
            finally:
                queue.clear()  # an interrupted caller starts no further job
                for proxy in proxies:
                    proxy.join()
        finally:
            _BATCH.release()
    else:
        lane(call)
    if errors:
        raise errors[min(errors)]
    return results
