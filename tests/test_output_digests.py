"""scripts/output_digests.py: the fixed-seed command-line chain and the
default-network gradient and filter print the committed digests in
tests/data/output_digests.txt, so a change that moves any output byte fails
here. A change that moves an output on purpose updates that file."""
import os
import subprocess
import sys
from pathlib import Path

import graphdenoise

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(graphdenoise.__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "data" / "output_digests.txt"


def test_prints_the_committed_digests():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    # one BLAS thread, as the benchmark runs, so no reduction order can vary
    env.update(dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], "1"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py")],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert done.stdout.splitlines() == DIGESTS.read_text(encoding="ascii").splitlines()
