"""The benchmark's workloads: inputs made from a seed, one CLI call per
operation, and the checks every operation's output must pass.

Every operation goes through `graphdenoise.cli.main`, the entry point a
user calls. Inputs are synthetic (`synthesize_image`, `add_awgn`,
`save_image`), so no dataset is needed and the same seed writes the same
bytes. The CLI runs at its defaults (64x64 patches, K = 10, T = 15).
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import graphdenoise.cli
from graphdenoise import GrayImage, add_awgn, partition, save_image, synthesize_image

PATCH_SIDE = 64  # the CLI's default patch side
SIGMA = 15.0
EVAL_SIGMAS = (10.0, 15.0, 25.0, 50.0)  # wider than the CLI default (10, 15, 25)
TRAIN_EPOCHS = 2
CHECKPOINT_SEED = 0  # CLI seed of the set-up checkpoint, the same for every workload seed


def subseed(seed: int, *keys: int) -> int:
    """A per-file seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One call of the CLI entry point, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = graphdenoise.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def nominal_noisy_psnr(sigma: float) -> float:
    """PSNR of unclipped Gaussian noise of this sigma (0..255 scale).

    Clipping to [0, 1] only lowers the noise, so an output that beats this
    figure by the margins seen here beats the noisy input as well.
    """
    return 20.0 * math.log10(255.0 / sigma)


def read_pgm(path: Path) -> np.ndarray:
    """Binary PGM (P5, maxval <= 255) as floats on [0, 1]; the benchmark's
    own reader, so checks do not rely on the code they check."""
    data = path.read_bytes()
    tokens, pos = [], 0
    while len(tokens) < 4:
        while data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    magic, width, height, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if magic != b"P5" or not 0 < maxval <= 255:
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    raster = np.frombuffer(data[pos + 1 : pos + 1 + width * height], dtype=np.uint8)
    if raster.size != width * height:
        raise ValueError(f"{path}: truncated raster")
    return raster.reshape(height, width) / 255.0


def psnr(reference: np.ndarray, test: np.ndarray) -> float:
    mse = float(np.mean((reference - test) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


def covered_pixels(image: GrayImage) -> int:
    """Pixels the CLI's patch grid covers (train and eval crop to it)."""
    grid = partition(image, PATCH_SIDE)
    return grid.grid_height * grid.grid_width


def read_eval_table(path: Path) -> list[dict[str, float]]:
    with path.open(newline="", encoding="ascii") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


@dataclass(frozen=True)
class Op:
    """One CLI call; `given_px` are the pixels handed to it."""

    label: str
    argv: tuple[str, ...]
    given_px: int


@dataclass
class Outcome:
    """A checked operation. `work_px` are the pixels of work it completed
    (the numerator of mpix_per_s); `out_px` the pixels its output covers."""

    ok: bool
    reason: str = ""
    work_px: int = 0
    out_px: int = 0
    psnr: float = math.nan
    psnr_init: float = math.nan
    psnr_bilateral: float = math.nan
    outputs: dict[str, bytes] = field(default_factory=dict)


def _fail(reason: str) -> Outcome:
    return Outcome(ok=False, reason=reason)


def _write(image: GrayImage, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    save_image(image, path)


def _check_eval_rows(rows, sigmas) -> str:
    """Empty string when the table is complete and finite and the trained
    model beats the noise. The bilateral and init columns are baselines;
    at sigma 10 the bilateral one can come within 0.2 dB of the noise."""
    if [row.get("sigma") for row in rows] != list(sigmas):
        return f"eval table sigmas {[row.get('sigma') for row in rows]} != {list(sigmas)}"
    for row in rows:
        for column in ("psnr_bilateral", "psnr_init", "psnr_trained"):
            if not math.isfinite(row.get(column, math.nan)):
                return f"non-finite {column} at sigma {row['sigma']}"
        if not row["psnr_trained"] > nominal_noisy_psnr(row["sigma"]):
            return f"trained PSNR {row['psnr_trained']:.3f} dB does not beat the noise"
    return ""


class Workload:
    """Inputs under `work`, made from `seed`; a cycle of operations."""

    name = ""
    needs_checkpoint = True

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.checkpoint = work / "checkpoint" / "checkpoint.json"

    def make_inputs(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Write the inputs and, for inference workloads, train the small
        checkpoint they use with the CLI's `train` command."""
        if self.work.exists():
            shutil.rmtree(self.work)
        self.make_inputs()
        if not self.needs_checkpoint:
            return
        for index, (width, height) in enumerate([(192, 64), (64, 64)]):
            folder = "ckpt_train" if index == 0 else "ckpt_val"
            image = synthesize_image(width, height, subseed(self.seed, 9, index))
            _write(image, self.work / folder / "image.pgm")
        code, _, err = run_cli([
            "train",
            "--train_dir", str(self.work / "ckpt_train"),
            "--test_dir", str(self.work / "ckpt_val"),
            "--out", str(self.checkpoint.parent),
            "--sigma_train", str(SIGMA),
            "--epochs", "1",
            "--batch_size", "3",
            "--seed", str(CHECKPOINT_SEED),
        ])
        if code != 0:
            raise RuntimeError(f"set-up checkpoint training failed ({code}): {err.strip()}")

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, code: int, stdout: str, stderr: str) -> Outcome:
        raise NotImplementedError

    def reference_psnr(self, outcomes) -> tuple[float, float]:
        """(init, bilateral) PSNR on this workload's own images, from the
        CLI's `eval` at the workload's sigma."""
        raise NotImplementedError

    def _eval_reference(self, test_dir: Path, checkpoint: Path) -> tuple[float, float]:
        out = self.work / "reference"
        code, _, err = run_cli([
            "eval",
            "--checkpoint", str(checkpoint),
            "--test_dir", str(test_dir),
            "--sigma_test", str(SIGMA),
            "--out", str(out),
            "--seed", str(self.seed),
        ])
        if code != 0:
            raise RuntimeError(f"reference eval failed ({code}): {err.strip()}")
        rows = read_eval_table(out / "eval.csv")
        problem = _check_eval_rows(rows, [SIGMA])
        if problem:
            raise RuntimeError(f"reference eval: {problem}")
        return rows[0]["psnr_init"], rows[0]["psnr_bilateral"]


class TrainWorkload(Workload):
    """One `train` run: three 64x64 training images, sigma 15, batch 3, two
    epochs, two 64x64 validation images."""

    name = "train"
    needs_checkpoint = False
    TRAIN_SIZES = [(64, 64)] * 3
    VAL_SIZES = [(64, 64)] * 2

    def make_inputs(self) -> None:
        self.given_px = self.covered_px = 0
        for index, (width, height) in enumerate(self.TRAIN_SIZES):
            image = synthesize_image(width, height, subseed(self.seed, 1, index))
            _write(image, self.work / "train" / f"train{index}.pgm")
            self.given_px += width * height
            self.covered_px += covered_pixels(image)
        for index, (width, height) in enumerate(self.VAL_SIZES):
            image = synthesize_image(width, height, subseed(self.seed, 2, index))
            _write(image, self.work / "val" / f"val{index}.pgm")

    def cycle(self) -> list[Op]:
        argv = (
            "train",
            "--train_dir", str(self.work / "train"),
            "--test_dir", str(self.work / "val"),
            "--out", str(self.work / "out"),
            "--sigma_train", str(SIGMA),
            "--epochs", str(TRAIN_EPOCHS),
            "--batch_size", "3",
            "--seed", str(self.seed),
        )
        return [Op("train", argv, self.given_px)]

    def check(self, op, code, stdout, stderr):
        if code != 0:
            return _fail(f"exit code {code}: {stderr.strip()}")
        out = self.work / "out"
        try:
            checkpoint = (out / "checkpoint.json").read_bytes()
            history = (out / "history.csv").read_bytes()
        except OSError as exc:
            return _fail(f"missing output: {exc}")
        params = json.loads(checkpoint)
        values = [v for key in ("metric_factor", "tse_coeffs", "cg_alpha", "cg_beta")
                  for v in params.get(key, [math.nan])]
        if not all(math.isfinite(v) for v in values):
            return _fail("checkpoint holds a non-finite or missing parameter")
        rows = list(csv.DictReader(io.StringIO(history.decode("ascii"))))
        if len(rows) != TRAIN_EPOCHS:
            return _fail(f"history has {len(rows)} rows, expected {TRAIN_EPOCHS}")
        val_psnr = float(rows[-1]["val_psnr"])
        loss = float(rows[-1]["train_loss"])
        if not (math.isfinite(val_psnr) and math.isfinite(loss)):
            return _fail("non-finite loss or validation PSNR")
        if not val_psnr > nominal_noisy_psnr(SIGMA):
            return _fail(f"validation PSNR {val_psnr:.3f} dB does not beat the noise")
        return Outcome(ok=True, work_px=TRAIN_EPOCHS * self.covered_px,
                       out_px=self.covered_px, psnr=val_psnr,
                       outputs={"checkpoint.json": checkpoint, "history.csv": history})

    def reference_psnr(self, outcomes):
        return self._eval_reference(self.work / "val", self.work / "out" / "checkpoint.json")


class DenoiseWorkload(Workload):
    """`denoise --truth` on three noisy images of mixed sizes: a small one,
    one whose sides are not multiples of 64, and one 256x256 image whose
    whole-image graph (about 50 MB) exceeds the L2 cache."""

    name = "denoise"
    SIZES = [(80, 72), (200, 136), (256, 256)]

    def make_inputs(self) -> None:
        self.images = {}
        for index, (width, height) in enumerate(self.SIZES):
            clean = synthesize_image(width, height, subseed(self.seed, 3, index))
            noisy = add_awgn(clean, SIGMA, subseed(self.seed, 4, index))
            _write(clean, self.work / "clean" / f"d{index}.pgm")
            _write(noisy, self.work / "noisy" / f"d{index}.pgm")
            # compare against what was written, which is what the CLI reads
            self.images[f"d{index}"] = (
                read_pgm(self.work / "clean" / f"d{index}.pgm"),
                read_pgm(self.work / "noisy" / f"d{index}.pgm"),
            )

    def cycle(self) -> list[Op]:
        ops = []
        for stem, (clean, _) in self.images.items():
            argv = (
                "denoise", str(self.work / "noisy" / f"{stem}.pgm"),
                "--checkpoint", str(self.checkpoint),
                "--truth", str(self.work / "clean" / f"{stem}.pgm"),
                "--out", str(self.work / "out"),
            )
            ops.append(Op(stem, argv, clean.size))
        return ops

    def check(self, op, code, stdout, stderr):
        if code != 0:
            return _fail(f"exit code {code}: {stderr.strip()}")
        target = self.work / "out" / f"{op.label}_denoised.pgm"
        try:
            raw = target.read_bytes()
            denoised = read_pgm(target)
        except (OSError, ValueError) as exc:
            return _fail(f"unreadable output: {exc}")
        clean, noisy = self.images[op.label]
        height, width = denoised.shape
        if height > clean.shape[0] or width > clean.shape[1]:
            return _fail(f"output {denoised.shape} is larger than the input {clean.shape}")
        match = re.search(r"^psnr = (\S+)$", stdout, re.MULTILINE)
        if match is None:
            return _fail("no PSNR reported")
        reported = float(match.group(1))
        measured = psnr(clean[:height, :width], denoised)
        if not (math.isfinite(reported) and abs(reported - measured) <= 1e-9 * measured):
            return _fail(f"reported PSNR {reported} != {measured} measured on the output")
        noisy_psnr = psnr(clean[:height, :width], noisy[:height, :width])
        if not reported > noisy_psnr:
            return _fail(f"PSNR {reported:.3f} dB does not beat the noisy input's {noisy_psnr:.3f}")
        # output pixels, so returning the whole image is not penalized
        return Outcome(ok=True, work_px=denoised.size, out_px=denoised.size, psnr=reported,
                       outputs={target.name: raw, "stdout": stdout.encode()})

    def reference_psnr(self, outcomes):
        return self._eval_reference(self.work / "clean", self.checkpoint)


class EvalWorkload(Workload):
    """`eval` on a one-image test directory (64x64), sigmas 10 to 50, giving
    the bilateral, init (analytic CG) and trained columns. Four directories
    with different images take turns, so the PSNR means cover four images."""

    name = "eval"
    SIZES = [(64, 64)] * 4

    def make_inputs(self) -> None:
        self.pixels = {}
        for index, (width, height) in enumerate(self.SIZES):
            image = synthesize_image(width, height, subseed(self.seed, 5, index))
            _write(image, self.work / f"e{index}" / "image.pgm")
            self.pixels[f"e{index}"] = (width * height, covered_pixels(image))

    def cycle(self) -> list[Op]:
        ops = []
        for label, (given, _) in self.pixels.items():
            argv = (
                "eval",
                "--checkpoint", str(self.checkpoint),
                "--test_dir", str(self.work / label),
                "--sigma_test", ",".join(str(s) for s in EVAL_SIGMAS),
                "--out", str(self.work / "out"),
                "--seed", str(self.seed),
            )
            ops.append(Op(label, argv, given))
        return ops

    def check(self, op, code, stdout, stderr):
        if code != 0:
            return _fail(f"exit code {code}: {stderr.strip()}")
        table = self.work / "out" / "eval.csv"
        try:
            raw = table.read_bytes()
            rows = read_eval_table(table)
        except (OSError, ValueError) as exc:
            return _fail(f"unreadable eval table: {exc}")
        problem = _check_eval_rows(rows, EVAL_SIGMAS)
        if problem:
            return _fail(problem)
        return Outcome(
            ok=True,
            work_px=op.given_px * len(EVAL_SIGMAS),
            out_px=self.pixels[op.label][1],
            psnr=float(np.mean([row["psnr_trained"] for row in rows])),
            psnr_init=float(np.mean([row["psnr_init"] for row in rows])),
            psnr_bilateral=float(np.mean([row["psnr_bilateral"] for row in rows])),
            outputs={"eval.csv": raw},
        )

    def reference_psnr(self, outcomes):
        good = [o for o in outcomes if o.ok]
        return (float(np.mean([o.psnr_init for o in good])) if good else math.nan,
                float(np.mean([o.psnr_bilateral for o in good])) if good else math.nan)


WORKLOADS = {w.name: w for w in (TrainWorkload, DenoiseWorkload, EvalWorkload)}
