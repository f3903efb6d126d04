"""The traced peak memory of work run on the lanes, over every process."""
import tracemalloc

import graphdenoise.lanes


def start_tracing():
    tracemalloc.start()


def stop_tracing() -> int:
    """The traced peak since tracing started in this process."""
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def lanes_peak(monkeypatch, lanes, run) -> int:
    """The traced peak of run() on `lanes` lanes: the test process's peak
    plus each worker's own, read inside it, of what it allocated while run()
    ran. The workers are forked afresh, after any patch the test has made."""
    monkeypatch.setattr(graphdenoise.lanes, "LANES", lanes)
    graphdenoise.lanes.shutdown()
    workers = graphdenoise.lanes.workers(lanes - 1)
    for worker in workers:
        worker.run(start_tracing)
    tracemalloc.start()
    try:
        run()
        return stop_tracing() + sum(worker.run(stop_tracing) for worker in workers)
    finally:
        tracemalloc.stop()
