#!/usr/bin/env python3
"""Print digests of everything a fixed-seed command-line run writes, and
of the training gradient and compiled filter at the default network.

Runs corrupt -> train (2 epochs, --patch_side 16 --K 4 --T 5) ->
denoise --truth -> eval -> inspect --test_dir (these three at --patch_side
16; they read the network's shape from the checkpoint) through
graphdenoise.cli.main in a temporary directory, on synthetic images. Prints one "sha256 path"
line per output file (paths relative to the run directory, sorted), then
the PSNR line that denoise prints. Then three "sha256 default/<name>"
lines at PipelineConfig() on 64x64 patches: loss_and_grad's loss and
gradient bytes on 3 calibrated pairs, the compiled filter's output on one
more patch, and eval's analytic CG solve of that patch at the initial
parameters. Last, "sha256 underflow/psi_apply": Psi of that patch under a
metric that underflows its weights across edges to 0, applied to a fixed
vector. A change that must not move any output prints the same lines
before and after it (tests/data/output_digests.txt holds them).

It imports graphdenoise from the src/ of its own checkout, whatever
PYTHONPATH says.

Example:
    python3 scripts/output_digests.py
"""
import contextlib
import hashlib
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import graphdenoise  # noqa: E402

if SRC not in Path(graphdenoise.__file__).resolve().parents:
    raise ImportError(f"graphdenoise was imported from {graphdenoise.__file__}, not {SRC}")

from graphdenoise import (  # noqa: E402
    ParamVector,
    PipelineConfig,
    add_awgn,
    analytic_solve,
    build_psi,
    calibrated_initial,
    compile_filter,
    loss_and_grad,
    partition,
    save_image,
    synthesize_image,
)
from graphdenoise.cli import main as cli_main  # noqa: E402

PATCH = ["--patch_side", "16"]
NETWORK = [*PATCH, "--window_radius", "2", "--K", "4", "--T", "5"]


def run(argv: list[str]) -> str:
    """cli.main(argv)'s stdout; a nonzero exit stops the script."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"graphdenoise {' '.join(argv)} exited with {code}")
    return stdout.getvalue()


def digests(root: Path) -> list[str]:
    root.mkdir()
    for directory, sizes, seed in (
        ("train", [(64, 48), (48, 64), (40, 40)], 10),
        ("test", [(200, 136), (50, 70)], 20),
    ):
        (root / directory).mkdir()
        for index, (width, height) in enumerate(sizes):
            image = synthesize_image(width, height, seed=seed + index)
            save_image(image, root / directory / f"img_{index}.pgm")
    train, test = str(root / "train"), str(root / "test")
    checkpoint = str(root / "run" / "checkpoint.json")
    run(["corrupt", test, "--sigma", "20", "--seed", "5", "--out", str(root / "noisy")])
    run(
        ["train", "--train_dir", train, "--epochs", "2", "--batch_size", "4", "--seed", "3"]
        + ["--out", str(root / "run"), *NETWORK]
    )
    printed = run(
        ["denoise", str(root / "noisy" / "img_0.pgm"), "--truth", str(root / "test" / "img_0.pgm")]
        + ["--checkpoint", checkpoint, "--out", str(root / "denoised"), *PATCH]
    )
    run(
        ["eval", "--test_dir", test, "--sigma_test", "10,30", "--seed", "7"]
        + ["--checkpoint", checkpoint, "--out", str(root / "eval"), *PATCH]
    )
    run(
        ["inspect", "--test_dir", test, "--checkpoint", checkpoint]
        + ["--out", str(root / "inspect"), *PATCH]
    )
    inputs = {root / "train", root / "test"}
    lines = [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()} {path.relative_to(root).as_posix()}"
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.parent not in inputs
    ]
    return lines + [line for line in printed.splitlines() if line.startswith("psnr = ")]


def default_network_digests() -> list[str]:
    """The gradient, compiled-filter, analytic-CG and underflow-Psi lines
    at PipelineConfig()."""
    hyper = PipelineConfig()
    clean = synthesize_image(128, 128, seed=31)
    noisy = add_awgn(clean, 15.0, seed=32)
    pairs = list(zip(partition(noisy, 64).patches, partition(clean, 64).patches))
    theta = calibrated_initial(hyper, [y for y, _ in pairs[:3]], 64)
    loss, gradient = loss_and_grad(theta, pairs[:3], 64, hyper)
    patch = pairs[3][0]
    denoised = compile_filter(theta).apply(build_psi(theta, patch, 64, hyper), patch)
    initial = ParamVector.initial(hyper)
    _, solved, _ = analytic_solve(initial, patch, 64, hyper)
    underflow = np.diag([0.0, 0.0, 100.0, 0.0, 0.0])[np.tril_indices(5)]
    psi = build_psi(replace(initial, metric_factor=underflow), patch, 64, hyper)
    smoothed = psi.apply(np.random.default_rng(33).standard_normal(patch.size))
    return [
        f"{hashlib.sha256(data).hexdigest()} {name}"
        for name, data in (
            ("default/loss_and_grad", np.float64(loss).tobytes() + gradient.pack().tobytes()),
            ("default/compiled_filter", denoised.tobytes()),
            ("default/analytic_cg", solved.tobytes()),
            ("underflow/psi_apply", smoothed.tobytes()),
        )
    ]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(digests(Path(tmp) / "chain") + default_network_digests()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
