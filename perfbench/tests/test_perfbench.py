"""Tests of the benchmark itself: seeded inputs, the tracer, the tail rule,
and one short run of every workload in both modes.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import graphdenoise  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from graphdenoise import ParamVector, PipelineConfig, forward, synthesize_image  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(folder: Path) -> dict[str, bytes]:
    return {str(p.relative_to(folder)): p.read_bytes() for p in sorted(folder.rglob("*.pgm"))}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    made = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        workload = workloads.WORKLOADS[name](tmp_path / label, seed)
        workload.make_inputs()
        made[label] = _files(tmp_path / label)
    assert made["a"] and made["a"] == made["b"]
    assert made["a"].keys() == made["c"].keys()
    assert all(made["a"][key] != made["c"][key] for key in made["a"])


def test_tracer_records_spans_and_restores_the_program():
    hyper = PipelineConfig(window_radius=2, degree_K=3, depth_T=4)
    theta = ParamVector.initial(hyper)
    patch = synthesize_image(16, 16, seed=3).pixels.ravel()
    originals = {(m, a): getattr(sys.modules[m], a) for _, m, a in tracer.FUNCTIONS}
    untraced = forward(theta, patch, 16, hyper)

    with tracer.Tracer() as t:
        assert graphdenoise.train.forward is not originals[("graphdenoise.train", "forward")]
        traced = forward(theta, patch, 16, hyper)  # the name bound in this test module
        traced_via_module = graphdenoise.train.forward(theta, patch, 16, hyper)

    assert untraced.tobytes() == traced.tobytes() == traced_via_module.tobytes()
    for (module, attr), original in originals.items():
        assert getattr(sys.modules[module], attr) is original
    assert graphdenoise.cli.forward is originals[("graphdenoise.train", "forward")]
    assert "apply" in graphdenoise.graph_filter.DenoiserOperator.__dict__
    assert not hasattr(graphdenoise.graph_filter.DenoiserOperator.apply, "__wrapped__")

    stats = t.reduce()
    # only the call through the module namespace enters the traced forward,
    # but both calls reach the traced names that forward looks up
    assert stats["train.forward"]["calls"] == 1
    assert stats["cg_unroll.unrolled_cg"]["calls"] == 2
    # learned-mode CG never skips a step: T + 1 system applies per solve
    assert stats["taylor_system.apply"]["in_cg"] == t.counters["cg_step_slots"] == 2 * 5
    assert stats["graph_filter.psi_apply"]["calls"] >= stats["taylor_system.apply"]["calls"]
    assert t.counters["edges"] > 0
    for row in stats.values():
        assert row["self"] <= row["total"] + 1e-12


def test_tail_leaves_ten_samples_beyond_it():
    samples = list(np.arange(1.0, 41.0))  # 40 samples
    value, percentile = harness.tail(samples)
    assert sum(s > value for s in samples) == harness.TAIL_BEYOND
    assert percentile == 75.0
    value, percentile = harness.tail(samples[:15])
    assert (value, percentile) == (15.0, 100.0)


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_reports_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "denoise", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
