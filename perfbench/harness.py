"""Timing loop, set-up, and the reduction of a run to its metrics.

A run is one closed-loop client: the next operation starts when the
previous one has finished. Operations are timed one by one; checking an
output happens outside its timed region.

The machine's speed is not steady: on a shared 2-core host it drifts by
up to half for tens of seconds at a time, in CPU time as much as in wall
time. A speed probe, a fixed numpy/scipy kernel that uses no graphdenoise
code, is therefore timed between operations, and each operation's time is
also reported at the probe's reference speed:
adjusted = measured * REFERENCE_S / (mean of the probes on either side).
The end-to-end timing metrics use the adjusted times; the record keeps the
measured ones.
"""
from __future__ import annotations

import math
import resource
import statistics
import time
from pathlib import Path

import numpy as np
from scipy import sparse

from tracer import Tracer, per_layer_metrics
from workloads import Outcome, run_cli

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile leaves this many samples beyond it
DIFFERS = "output differs from the first run of the same input"


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum while too few samples leave it above the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n - TAIL_BEYOND > n / 2:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return ordered[-1], 100.0


class SpeedProbe:
    """Times a kernel shaped like the program's hot loop: sparse matvecs
    with a 64x64-grid, radius-3 window matrix (about 190k entries, like one
    patch's Psi) and an elementwise exp over as many values."""

    REFERENCE_S = 0.016  # the probe's time on the idle tuning machine

    def __init__(self):
        side = 64
        n = side * side
        rng = np.random.default_rng(0)
        offsets = [dr * side + dc for dr in range(-3, 4) for dc in range(-3, 4)]
        self.matrix = sparse.diags(
            [rng.random(n - abs(o)) for o in offsets], offsets, format="csr")
        self.vector = rng.random(n)
        self.values = rng.random(self.matrix.nnz)

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(100):
            self.matrix @ self.vector
        for _ in range(5):
            np.exp(-self.values * self.values)
        return time.perf_counter() - start


class Runner:
    """Runs a workload's operations, times them and checks every output."""

    def __init__(self, workload, probe: SpeedProbe):
        self.workload = workload
        self.probe = probe
        self.records: list[dict] = []
        self.outcomes: list[Outcome] = []
        self.attempted = 0
        self.failed = 0
        self.first_outputs: dict[str, dict[str, bytes]] = {}

    def run_op(self, op, tracer: Tracer | None = None) -> tuple[float, Outcome]:
        """Time one operation and check it; a failure is returned, not raised.
        Every output must equal, byte for byte, the first one of its input."""
        start = time.perf_counter()
        try:
            if tracer is None:
                code, stdout, stderr = run_cli(list(op.argv))
            else:
                with tracer.span("op"):
                    code, stdout, stderr = run_cli(list(op.argv))
            seconds = time.perf_counter() - start
            outcome = self.workload.check(op, code, stdout, stderr)
        except Exception as exc:  # a crashing operation is a failed one
            seconds = time.perf_counter() - start
            outcome = Outcome(ok=False, reason=f"{type(exc).__name__}: {exc}")
        if outcome.ok:
            reference = self.first_outputs.setdefault(op.label, outcome.outputs)
            if reference != outcome.outputs:
                outcome.ok = False
                outcome.reason = DIFFERS
        return seconds, outcome

    def attempt(self, op, tracer: Tracer | None = None) -> tuple[Outcome, dict]:
        """Run, time and check one operation, count it, and return its record."""
        seconds, outcome = self.run_op(op, tracer)
        self.attempted += 1
        self.failed += not outcome.ok
        self.outcomes.append(outcome)
        record = {
            "op": op.label, "seconds": seconds, "ok": outcome.ok,
            "reason": outcome.reason, "given_px": op.given_px,
            "out_px": outcome.out_px, "work_px": outcome.work_px,
            "traced": tracer is not None,
        }
        self.records.append(record)
        return outcome, record

    def measure(self, seconds: float) -> list[tuple[float, int]]:
        """Run whole cycles until `seconds` have passed, with the speed probe
        between operations. Returns the adjusted seconds and the work pixels
        of each cycle."""
        cycles = []
        started = time.perf_counter()
        probe_before = self.probe()
        while not cycles or time.perf_counter() - started < seconds:
            cycle_seconds = cycle_px = 0
            for op in self.workload.cycle():
                outcome, record = self.attempt(op)
                probe_after = self.probe()
                record["probe_s"] = (probe_before + probe_after) / 2
                record["adjusted_s"] = record["seconds"] * SpeedProbe.REFERENCE_S / record["probe_s"]
                probe_before = probe_after
                cycle_seconds += record["adjusted_s"]
                cycle_px += outcome.work_px
            cycles.append((cycle_seconds, cycle_px))
        return cycles


def setup(workload, runner: Runner) -> tuple[float, float]:
    """Write the inputs (and checkpoint), then one untimed warm-up operation.
    Returns the measured seconds and the probe's mean time around them."""
    probe_before = runner.probe()
    start = time.perf_counter()
    workload.prepare()
    runner.run_op(workload.cycle()[0])
    seconds = time.perf_counter() - start
    return seconds, (probe_before + runner.probe()) / 2


def end_to_end(workload, runner: Runner, import_s: float, setup_times, cycles):
    """The end-to-end metrics of an untraced run, as (value, unit). Timing
    metrics are at the speed probe's reference speed; `setup_times` are
    (measured seconds, probe seconds) pairs."""
    ok = [o for o in runner.outcomes if o.ok]
    latencies = [r["adjusted_s"] for r in runner.records]
    tail_s, tail_pct = tail(latencies)
    reference_error = ""
    try:
        psnr_init, psnr_bilateral = workload.reference_psnr(runner.outcomes)
    except (RuntimeError, OSError, ValueError) as exc:  # one more failed operation
        runner.attempted += 1
        runner.failed += 1
        psnr_init = psnr_bilateral = math.nan
        reference_error = str(exc)
    given = sum(r["given_px"] for r in runner.records if r["ok"])
    covered = sum(r["out_px"] for r in runner.records if r["ok"])
    metrics = {
        "setup_s": (import_s + statistics.median(
            seconds * SpeedProbe.REFERENCE_S / probe for seconds, probe in setup_times), "s"),
        "mpix_per_s": (statistics.median(px / s for s, px in cycles) / 1e6, "Mpx/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "psnr_db": (statistics.fmean(o.psnr for o in ok) if ok else math.nan, "dB"),
        "psnr_init_db": (psnr_init, "dB"),
        "psnr_bilateral_db": (psnr_bilateral, "dB"),
        "output_px_frac": (covered / given if given else math.nan, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_frac": ((runner.attempted - runner.failed) / runner.attempted, "fraction"),
    }
    details = {
        "import_s": import_s,
        "probe_s_median": statistics.median(r["probe_s"] for r in runner.records),
        "cycles": len(cycles),
        "latency_samples": len(latencies),
        "op_tail_percentile": tail_pct,
        "failed_frac": runner.failed / runner.attempted,
        "reference_error": reference_error,
    }
    return metrics, details


def traced(workload, runner: Runner, seconds: float, spans_path: Path):
    """The per-layer metrics of a traced run.

    Every operation runs untraced and traced back to back, in alternating
    order, so that both runs of a pair see the same machine state; the
    pairs give the tracing overhead. The first run of each input is
    untraced, and every traced output must equal its bytes.
    """
    tracer = Tracer()
    pairs = []  # (untraced seconds, traced seconds)
    probes = []
    traced_px = 0
    cycles = 0
    started = time.perf_counter()
    while not pairs or time.perf_counter() - started < seconds:
        order = (False, True) if cycles % 2 == 0 else (True, False)
        cycles += 1
        for op in workload.cycle():
            probes.append(runner.probe())
            took = {}
            for with_tracer in order:
                if with_tracer:
                    with tracer:
                        outcome, record = runner.attempt(op, tracer)
                    traced_px += outcome.work_px
                else:
                    _, record = runner.attempt(op)
                took[with_tracer] = record["seconds"]
            pairs.append((took[False], took[True]))
    identical = not any(r["reason"] == DIFFERS for r in runner.records if r["traced"])
    metrics = per_layer_metrics(tracer, len(pairs), traced_px / 1e6)
    metrics["trace.overhead_frac"] = (
        statistics.median(t / u for u, t in pairs) - 1.0, "fraction")
    metrics["trace.overhead_ms"] = (1e3 * statistics.median(t - u for u, t in pairs), "ms/op")
    # per-layer times are as measured; this says how fast the machine was
    metrics["machine.probe_ms"] = (1e3 * statistics.median(probes), "ms")
    tracer.write(spans_path)
    details = {
        "traced_ops": len(pairs),
        "untraced_s": sum(u for u, _ in pairs),
        "traced_s": sum(t for _, t in pairs),
        "outputs_identical": identical,
        "spans": len(tracer.spans),
    }
    return metrics, details, identical
