#!/usr/bin/env python3
"""graphdenoise benchmark: `train`, `denoise` and `eval` through the CLI.

    python3 perfbench/run.py --workload denoise --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Each run is one process and one closed-loop client: the next operation
starts when the previous one has finished. BLAS threads are pinned to 1
before numpy is imported.

--trace 0 sets up several times (setup_s is the median), then runs whole
cycles of the workload's operations for --seconds and reports the
end-to-end metrics. --trace 1 sets up once, then runs every operation
twice back to back, untraced and traced, checks that the traced outputs
are bitwise identical, and reports the per-layer metrics and the tracing
overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The full record (environment, every operation, the tail
percentile) is written to .bench_work/results/, with the spans of a traced
run beside it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import sys
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "denoise", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import graphdenoise from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import graphdenoise  # noqa: F401  (raises ImportError when src/ is absent)

    if src.resolve() not in Path(graphdenoise.__file__).resolve().parents:
        raise ImportError(f"graphdenoise was imported from {graphdenoise.__file__}, not {src}")
    import graphdenoise.cli  # noqa: F401


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def environment(args) -> dict:
    import numpy
    import scipy

    caches = _caches()
    return {
        "cores": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_id(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"  # before numpy is imported
    start = time.perf_counter()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import harness
    import workloads

    import_s = time.perf_counter() - start
    env = environment(args)
    work = WORK / run_id(args)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    runner = harness.Runner(workload, harness.SpeedProbe())
    try:
        if args.trace:
            setup_times = [harness.setup(workload, runner)]
            spans_path = WORK / "results" / f"{run_id(args)}-spans.json.gz"
            metrics, details, identical = harness.traced(workload, runner, args.seconds, spans_path)
            details["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            setup_times = [harness.setup(workload, runner) for _ in range(harness.SETUP_REPEATS)]
            cycles = runner.measure(args.seconds)
            metrics, details = harness.end_to_end(workload, runner, import_s, setup_times, cycles)
            identical = True
    except RuntimeError as exc:  # set-up could not run the program
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    finite = all(math.isfinite(value) for value, _ in metrics.values())
    result = {
        "correct": runner.failed == 0 and identical and finite,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"environment": env, "result": result, "details": details,
              "setup_repeats": [{"seconds": t, "probe_s": p} for t, p in setup_times],
              "operations": runner.records}
    record_path = WORK / "results" / f"{run_id(args)}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print("environment: " + json.dumps(env))
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
