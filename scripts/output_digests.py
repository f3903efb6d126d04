#!/usr/bin/env python3
"""Print digests of everything a fixed-seed command-line run writes.

Runs corrupt -> train (2 epochs, --patch_side 16 --K 4 --T 5) ->
denoise --truth -> eval -> inspect --test_dir through graphdenoise.cli.main
in a temporary directory, on synthetic images. Prints one "sha256 path"
line per output file (paths relative to the run directory, sorted), then
the PSNR line that denoise prints. A change that must not move any output
prints the same lines before and after it.

Example:
    PYTHONPATH=src python3 scripts/output_digests.py
"""
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from graphdenoise import save_image, synthesize_image
from graphdenoise.cli import main as cli_main

NETWORK = ["--patch_side", "16", "--window_radius", "2", "--K", "4", "--T", "5"]


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
        + ["--checkpoint", checkpoint, "--out", str(root / "denoised"), *NETWORK]
    )
    run(
        ["eval", "--test_dir", test, "--sigma_test", "10,30", "--seed", "7"]
        + ["--checkpoint", checkpoint, "--out", str(root / "eval"), *NETWORK]
    )
    run(
        ["inspect", "--test_dir", test, "--checkpoint", checkpoint]
        + ["--out", str(root / "inspect"), *NETWORK]
    )
    inputs = {root / "train", root / "test"}
    lines = [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()} {path.relative_to(root).as_posix()}"
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.parent not in inputs
    ]
    return lines + [line for line in printed.splitlines() if line.startswith("psnr = ")]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(digests(Path(tmp) / "chain")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
