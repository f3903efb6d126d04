"""scripts/output_digests.py: the fixed-seed command-line chain and the
default-network gradient and filter whose digests show a change leaves
every output byte as it was."""
import os
import subprocess
import sys
from pathlib import Path

import graphdenoise

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(graphdenoise.__file__).resolve().parents[1]


def digest_lines() -> list[str]:
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py")],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return done.stdout.splitlines()


def test_two_runs_print_the_same_lines():
    first = digest_lines()
    assert first == digest_lines()
    *files, psnr_line, gradient_line, filter_line, cg_line, psi_line = first
    names = [line.split(" ", 1)[1] for line in files]
    assert names == sorted(names)
    written = {"run/checkpoint.json", "run/history.csv", "denoised/img_0_denoised.pgm"}
    written |= {"eval/eval.csv", "inspect/inspect.txt", "noisy/manifest.csv"}
    assert written <= set(names)
    assert psnr_line.startswith("psnr = ")
    assert gradient_line.endswith(" default/loss_and_grad")
    assert filter_line.endswith(" default/compiled_filter")
    assert cg_line.endswith(" default/analytic_cg")
    assert psi_line.endswith(" underflow/psi_apply")
    digests = files + [gradient_line, filter_line, cg_line, psi_line]
    assert all(len(line.split(" ", 1)[0]) == 64 for line in digests)
