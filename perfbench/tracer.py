"""Outside-in tracing of graphdenoise's public functions.

While a `Tracer` is installed, the functions and methods listed below are
replaced, in every graphdenoise module namespace that binds them, by
wrappers that record one span per call: (name, start, end, parent). Spans
are kept in memory and written out when the run ends; `reduce` turns them
into per-operation totals and self times (a span's duration minus the part
covered by its child spans). Leaving the tracer restores every original
object, so untraced runs execute exactly the program's own code.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute): module-level functions. Every module of
# the package that imported the same object under some name is patched too,
# so `from .graph_filter import normalize` inside train.py is traced as well.
FUNCTIONS = (
    ("graph_filter.extract_features", "graphdenoise.graph_filter", "extract_features"),
    ("graph_filter.build_filter_matrix", "graphdenoise.graph_filter", "build_filter_matrix"),
    ("graph_filter.normalize", "graphdenoise.graph_filter", "normalize"),
    ("cg_unroll.unrolled_cg", "graphdenoise.cg_unroll", "unrolled_cg"),
    ("cg_unroll.calibrate_cg_params", "graphdenoise.cg_unroll", "calibrate_cg_params"),
    ("train.forward", "graphdenoise.train", "forward"),
    ("train.loss_and_grad", "graphdenoise.train", "loss_and_grad"),
    ("train.adam_step", "graphdenoise.train", "adam_step"),
    ("train.evaluate_psnr", "graphdenoise.train", "evaluate_psnr"),
    ("train.save_checkpoint", "graphdenoise.train", "save_checkpoint"),
    ("train.load_checkpoint", "graphdenoise.train", "load_checkpoint"),
    ("imaging.load_image", "graphdenoise.imaging", "load_image"),
    ("imaging.save_image", "graphdenoise.imaging", "save_image"),
    ("imaging.partition", "graphdenoise.imaging", "partition"),
    ("imaging.reassemble", "graphdenoise.imaging", "reassemble"),
    ("imaging.add_awgn", "graphdenoise.imaging", "add_awgn"),
    ("imaging.psnr", "graphdenoise.imaging", "psnr"),
    ("cli.cmd_train", "graphdenoise.cli", "cmd_train"),
    ("cli.cmd_denoise", "graphdenoise.cli", "cmd_denoise"),
    ("cli.cmd_eval", "graphdenoise.cli", "cmd_eval"),
)

# (span name, module, class, method): patched on the class itself.
# `apply_truncated_inverse_with_cache` is the one method every system apply
# funnels through, in learned and analytic mode alike.
METHODS = (
    ("graph_filter.psi_apply", "graphdenoise.graph_filter", "DenoiserOperator", "apply"),
    (
        "taylor_system.apply",
        "graphdenoise.taylor_system",
        "TaylorSystemOperator",
        "apply_truncated_inverse_with_cache",
    ),
)

def _psi_bytes(op, v, out) -> int:
    """Bytes one sparse matvec touches, computed from the stored arrays:
    the CSR values, column indices and row pointers, the input and output
    vectors. Cache reuse is ignored, so the figure is computed, not measured."""
    matrix = getattr(op, "_matrix", None)
    if matrix is not None and hasattr(matrix, "indptr"):
        stored = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    else:
        stored = op.values.nbytes + op.rows.nbytes + op.cols.nbytes
    return stored + getattr(v, "nbytes", 0) + getattr(out, "nbytes", 0)


def _observe_build(counters, args, kwargs, result):
    counters["edges"] += int(getattr(result, "nnz", 0))


def _observe_psi(counters, args, kwargs, result):
    v = args[1] if len(args) > 1 else kwargs.get("v")
    counters["psi_bytes"] += _psi_bytes(args[0], v, result)


def _observe_cg(counters, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    counters["cg_step_slots"] += cfg.depth_T + 1  # initial residual + T steps


def _observe_grad(counters, args, kwargs, result):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    counters["grad_pairs"] += len(batch)


OBSERVERS = {
    "graph_filter.build_filter_matrix": _observe_build,
    "graph_filter.psi_apply": _observe_psi,
    "cg_unroll.unrolled_cg": _observe_cg,
    "train.loss_and_grad": _observe_grad,
}


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent index or -1)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        return _Span(self, self._name_id(name))

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "graphdenoise"]
        try:
            for name, module, attr in FUNCTIONS:
                original = getattr(sys.modules[module], attr)
                traced = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, traced)
            for name, module, cls, attr in METHODS:
                owner = getattr(sys.modules[module], cls)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as gzip-compressed JSON."""
        payload = {"fields": ["name", "start", "end", "parent"], "names": self.names,
                   "spans": self.spans}
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(payload, fh, separators=(",", ":"))

    def reduce(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds, plus the
        calls that ran inside an unrolled_cg span (system applies per solve)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        cg_id = self._name_ids.get("cg_unroll.unrolled_cg")
        stats: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total": 0.0, "self": 0.0, "in_cg": 0} for name in self.names
        }
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            row = stats[self.names[name_id]]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child[index]
            while parent >= 0:
                if self.spans[parent][0] == cg_id:
                    row["in_cg"] += 1
                    break
                parent = self.spans[parent][3]
        return stats


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        spans, stack = self.tracer.spans, self.tracer._stack
        self.index = len(spans)
        spans.append(None)
        self.parent = stack[-1] if stack else -1
        stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans[self.index] = (self.name_id, self.start, end, self.parent)


# (layer, metric suffix, statistic): seconds per operation. "s" is the
# layer's whole time, "self_s" its time minus the traced calls it made.
_TIMES = (
    ("graph_filter.extract_features", "s", "total"),
    ("graph_filter.build_filter_matrix", "s", "total"),
    ("graph_filter.normalize", "s", "total"),
    ("graph_filter.psi_apply", "s", "total"),
    ("taylor_system.apply", "self_s", "self"),
    ("cg_unroll.unrolled_cg", "self_s", "self"),
    ("cg_unroll.calibrate_cg_params", "s", "total"),
    ("train.forward", "self_s", "self"),
    ("train.loss_and_grad", "self_s", "self"),
    ("train.adam_step", "s", "total"),
    ("train.evaluate_psnr", "s", "total"),
    ("train.save_checkpoint", "s", "total"),
    ("train.load_checkpoint", "s", "total"),
    ("imaging.load_image", "s", "total"),
    ("imaging.save_image", "s", "total"),
    ("imaging.partition", "s", "total"),
    ("imaging.reassemble", "s", "total"),
    ("imaging.add_awgn", "s", "total"),
    ("imaging.psnr", "s", "total"),
    ("cli.cmd_train", "self_s", "self"),
    ("cli.cmd_denoise", "self_s", "self"),
    ("cli.cmd_eval", "self_s", "self"),
)
_CALLS = (
    "graph_filter.build_filter_matrix",
    "graph_filter.psi_apply",
    "taylor_system.apply",
    "cg_unroll.unrolled_cg",
    "train.loss_and_grad",
)
# milliseconds per call, comparable with per-patch figures measured by hand
_MS_PER_CALL = (
    "train.forward",
    "graph_filter.build_filter_matrix",
    "graph_filter.normalize",
    "taylor_system.apply",
)


def per_layer_metrics(tracer: Tracer, ops: int, work_mpix: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), per traced operation or per
    megapixel of the workload's work. A layer that did not run reads 0."""
    stats = tracer.reduce()
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "in_cg": 0}

    def row(layer):
        return stats.get(layer, empty)

    def ms_per(total, count):
        return 1e3 * total / count if count else 0.0

    counters = tracer.counters
    metrics = {}
    for layer, suffix, statistic in _TIMES:
        metrics[f"{layer}.{suffix}"] = (row(layer)[statistic] / ops, "s/op")
    for layer in _CALLS:
        metrics[f"{layer}.calls"] = (row(layer)["calls"] / ops, "count/op")
    for layer in _MS_PER_CALL:
        metrics[f"{layer}.ms_per_call"] = (ms_per(row(layer)["total"], row(layer)["calls"]), "ms")
    grad = row("train.loss_and_grad")
    metrics["train.loss_and_grad.ms_per_pair"] = (ms_per(grad["total"], counters["grad_pairs"]), "ms")

    psi = row("graph_filter.psi_apply")
    system = row("taylor_system.apply")
    skipped = counters["cg_step_slots"] - system["in_cg"]
    metrics["graph_filter.build_filter_matrix.edges"] = (counters["edges"] / ops, "count/op")
    metrics["graph_filter.build_filter_matrix.edges_per_mpix"] = (
        counters["edges"] / work_mpix, "count/Mpx")
    metrics["graph_filter.psi_apply.per_mpix"] = (psi["calls"] / work_mpix, "count/Mpx")
    metrics["graph_filter.psi_apply.bytes_computed"] = (counters["psi_bytes"] / ops, "B/op")
    metrics["graph_filter.psi_apply.gbps_computed"] = (
        counters["psi_bytes"] / psi["total"] / 1e9 if psi["total"] else 0.0, "GB/s")
    metrics["taylor_system.apply.per_mpix"] = (system["calls"] / work_mpix, "count/Mpx")
    metrics["cg_unroll.steps_skipped"] = (skipped / ops, "count/op")
    metrics["cg_unroll.steps_skipped_per_mpix"] = (skipped / work_mpix, "count/Mpx")
    return metrics
