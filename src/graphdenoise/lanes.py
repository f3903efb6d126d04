"""Solve lanes: the calling thread plus one shared thread pool.

LANES is the number of cores this process may run on. POOL holds LANES - 1
threads, so with the calling thread up to LANES jobs run at once. scipy's
CSR matvec, most of a solve, releases the GIL, so the lanes overlap. The
program has this one pool: every pool thread adds a malloc arena, and a
second pool added its memory to the peak. Every parallel job goes through
in_lanes, the one scheduler: training's gradient pairs, calibration and
validation, and the patch jobs of denoise and eval, each of which builds
and solves its patch's system on its lane (cli._map_patches). denoise
maps its image in one batch; eval maps each test image in one batch
covering every sigma, so a long job of one sigma overlaps the jobs of the
next.
"""
from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

# (sched_getaffinity is Linux-only; elsewhere every core counts.)
LANES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
POOL = ThreadPoolExecutor(LANES - 1, thread_name_prefix="lane") if LANES > 1 else None


def in_lanes(jobs) -> list:
    """Run no-argument callables on the lanes; their results, in job order.

    Each lane takes the next job in order until none is left, so at most
    LANES jobs are running at a time. A job computes what it would serially,
    so the results do not depend on LANES. When jobs fail, the error raised
    is the one a serial loop would raise, that of the first failing job.
    Lanes start no job after a failure; every earlier job has started by
    then, since jobs are taken in order.
    """
    queue = deque(enumerate(jobs))
    results = [None] * len(queue)
    errors = {}

    def lane():
        while not errors:
            try:
                index, job = queue.popleft()
            except IndexError:
                return
            try:
                results[index] = job()
            except Exception as exc:
                errors[index] = exc

    futures = [POOL.submit(lane) for _ in range(min(LANES, len(results)) - 1)]
    try:
        lane()
    finally:
        # a helper that has not started has nothing left to do; cancelling
        # it also lets a job that itself calls in_lanes finish on a busy pool
        for future in futures:
            if not future.cancel():
                future.result()
    if errors:
        raise errors[min(errors)]
    return results
