import json
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import graphdenoise
from graphdenoise import (
    GrayImage,
    add_awgn,
    build_system,
    forward,
    load_image,
    partition,
    psnr,
    reassemble,
    save_image,
    synthesize_image,
)
from graphdenoise import cli
from graphdenoise.cli import main
from graphdenoise.config import build_config, parse_config_file
from graphdenoise.errors import CliUsageError, NumericDivergenceError
from graphdenoise.train import (
    ParamVector,
    PipelineConfig,
    load_checkpoint,
    save_checkpoint,
    train_loop,
)

TINY = [
    "--patch_side", "16",
    "--window_radius", "2",
    "--K", "4",
    "--T", "4",
]


@pytest.fixture
def image_dir(tmp_path):
    d = tmp_path / "clean"
    d.mkdir()
    for i in range(3):
        save_image(synthesize_image(32, 32, seed=60 + i), d / f"img{i}.pgm")
    return d


@pytest.fixture
def test_dir(tmp_path):
    d = tmp_path / "test"
    d.mkdir()
    for i in range(2):
        save_image(synthesize_image(32, 32, seed=90 + i), d / f"test{i}.pgm")
    return d


def train_tiny(tmp_path, image_dir, test_dir, epochs, seed=0, name="run"):
    out = tmp_path / name
    code = main(
        [
            "train",
            "--train_dir", str(image_dir),
            "--test_dir", str(test_dir),
            "--out", str(out),
            "--epochs", str(epochs),
            "--batch_size", "3",
            "--sigma_train", "15",
            "--seed", str(seed),
            *TINY,
        ]
    )
    assert code == 0
    return out / "checkpoint.json", out / "history.csv"


class TestCorrupt:
    def test_sigma_zero_preserves_bytes(self, tmp_path, image_dir):
        out = tmp_path / "noisy"
        code = main(["corrupt", str(image_dir), "--out", str(out), "--sigma", "0", "--seed", "5"])
        assert code == 0
        for src in sorted(image_dir.iterdir()):
            assert (out / src.name).read_bytes() == src.read_bytes()

    def test_manifest_rows_match_file_count(self, tmp_path, image_dir):
        out = tmp_path / "noisy"
        assert main(["corrupt", str(image_dir), "--out", str(out), "--sigma", "10"]) == 0
        lines = (out / "manifest.csv").read_text().strip().splitlines()
        assert lines[0] == "file,seed,sigma"
        assert len(lines) - 1 == 3

    def test_same_seed_reproduces_outputs(self, tmp_path, image_dir):
        out1, out2 = tmp_path / "n1", tmp_path / "n2"
        for out in (out1, out2):
            assert main(
                ["corrupt", str(image_dir), "--out", str(out), "--sigma", "10", "--seed", "3"]
            ) == 0
        assert (out1 / "manifest.csv").read_bytes() == (out2 / "manifest.csv").read_bytes()
        for src in image_dir.iterdir():
            assert (out1 / src.name).read_bytes() == (out2 / src.name).read_bytes()

    def test_noise_changes_pixels(self, tmp_path, image_dir):
        out = tmp_path / "noisy"
        assert main(["corrupt", str(image_dir), "--out", str(out), "--sigma", "25"]) == 0
        src = sorted(image_dir.iterdir())[0]
        assert (out / src.name).read_bytes() != src.read_bytes()


class TestTrain:
    def test_zero_epochs_checkpoint_is_initialization(self, tmp_path, image_dir, test_dir):
        ckpt, history = train_tiny(tmp_path, image_dir, test_dir, epochs=0)
        payload = json.loads(ckpt.read_text())
        assert payload["tse_coeffs"] == [1.0, -1.0, 1.0, -1.0, 1.0]
        assert payload["metric_factor"][0] == 0.5  # 1 / sigma_spatial
        assert history.read_text().strip() == "epoch,train_loss,val_psnr"

    def test_history_has_one_row_per_epoch(self, tmp_path, image_dir, test_dir):
        _, history = train_tiny(tmp_path, image_dir, test_dir, epochs=2, name="e2")
        lines = history.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "epoch,train_loss,val_psnr"

    def test_same_seed_identical_checkpoint_bytes(self, tmp_path, image_dir, test_dir):
        c1, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=1, seed=4, name="r1")
        c2, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=1, seed=4, name="r2")
        assert c1.read_bytes() == c2.read_bytes()

    def test_requires_train_dir(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "o")]) == 1


class TestDenoise:
    def test_depth_zero_is_identity(self, tmp_path, image_dir):
        hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=0)
        ckpt = tmp_path / "identity.json"
        save_checkpoint(ckpt, ParamVector.initial(hyper), hyper)
        src = sorted(image_dir.iterdir())[0]
        out = tmp_path / "out"
        code = main(
            ["denoise", str(src), "--checkpoint", str(ckpt), "--out", str(out), *TINY]
        )
        assert code == 0
        result = out / (src.stem + "_denoised.pgm")
        assert result.read_bytes() == src.read_bytes()

    def test_reported_psnr_matches_recomputation(self, tmp_path, image_dir, test_dir, capsys):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=0, name="ps")
        noisy_dir = tmp_path / "noisy"
        assert main(
            ["corrupt", str(image_dir), "--out", str(noisy_dir), "--sigma", "15", "--seed", "8"]
        ) == 0
        src = sorted(image_dir.iterdir())[0]
        noisy = noisy_dir / src.name
        out = tmp_path / "den"
        code = main(
            [
                "denoise", str(noisy),
                "--checkpoint", str(ckpt),
                "--truth", str(src),
                "--out", str(out),
                *TINY,
            ]
        )
        assert code == 0
        reported = None
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("psnr = "):
                reported = float(line.split("=")[1])
        assert reported is not None
        denoised = load_image(out / (noisy.stem + "_denoised.pgm"))
        clean = load_image(src)
        recomputed = psnr(
            GrayImage(width=32, height=32, pixels=clean.pixels), denoised
        )
        assert reported == pytest.approx(recomputed, abs=1e-9)

    def test_output_dims_match_cropped_input(self, tmp_path, image_dir, test_dir):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=0, name="dims")
        src = sorted(image_dir.iterdir())[0]
        out = tmp_path / "den2"
        assert main(
            ["denoise", str(src), "--checkpoint", str(ckpt), "--out", str(out), *TINY]
        ) == 0
        img = load_image(out / (src.stem + "_denoised.pgm"))
        assert (img.width, img.height) == (32, 32)  # 32 is a multiple of 16


class TestEval:
    def test_table_shape_and_baseline_property(self, tmp_path, image_dir, test_dir):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=3, name="ev")
        out = tmp_path / "evalout"
        code = main(
            [
                "eval",
                "--checkpoint", str(ckpt),
                "--test_dir", str(test_dir),
                "--out", str(out),
                "--sigma_test", "10,15",
                "--sigma_train", "15",
                "--seed", "2",
                *TINY,
            ]
        )
        assert code == 0
        lines = (out / "eval.csv").read_text().strip().splitlines()
        assert lines[0] == "sigma,psnr_bilateral,psnr_init,psnr_trained"
        assert len(lines) - 1 == 2
        rows = {float(l.split(",")[0]): [float(v) for v in l.split(",")[1:]] for l in lines[1:]}
        for sigma, (bilateral, init, trained) in rows.items():
            assert abs(init - bilateral) < 0.5  # initialization tracks the smoother
        # regression property at the training sigma
        assert rows[15.0][2] >= rows[15.0][1]

    def test_deterministic_eval(self, tmp_path, image_dir, test_dir):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=1, name="de")
        outs = []
        for name in ("ea", "eb"):
            out = tmp_path / name
            assert main(
                [
                    "eval",
                    "--checkpoint", str(ckpt),
                    "--test_dir", str(test_dir),
                    "--out", str(out),
                    "--sigma_test", "15",
                    "--seed", "2",
                    *TINY,
                ]
            ) == 0
            outs.append((out / "eval.csv").read_bytes())
        assert outs[0] == outs[1]


class TestInspect:
    def test_untrained_coefficients_printed_exactly(self, tmp_path, image_dir, test_dir, capsys):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=0, name="ins")
        capsys.readouterr()  # drain the training chatter
        assert main(["inspect", "--checkpoint", str(ckpt), *TINY]) == 0
        out = capsys.readouterr().out
        assert "tse_coeff_0 = 1.0" in out
        assert "tse_coeff_1 = -1.0" in out

    def test_report_is_key_value_text_with_psd_metric(self, tmp_path, image_dir, test_dir, capsys):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=1, name="ins2")
        capsys.readouterr()  # drain the training chatter
        assert main(
            ["inspect", "--checkpoint", str(ckpt), "--test_dir", str(test_dir), *TINY]
        ) == 0
        out = capsys.readouterr().out
        eigen = []
        for line in out.strip().splitlines():
            assert re.fullmatch(r"[A-Za-z0-9_]+ = \S+", line), line
            key, _, value = line.partition(" = ")
            if key.startswith("metric_eigenvalue_"):
                eigen.append(float(value))
        assert eigen and min(eigen) >= -1e-10
        assert "patch_0_lambda_max" in out


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["train"]) == 1  # missing --train_dir

    def test_unknown_command_is_one(self):
        assert main(["polish"]) == 1

    def test_io_error_is_two(self, tmp_path, image_dir, test_dir):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=0, name="io")
        bad = tmp_path / "broken.pgm"
        bad.write_bytes(b"P5\n8 8\n255\n")  # truncated raster
        out = tmp_path / "o"
        assert main(
            ["denoise", str(bad), "--checkpoint", str(ckpt), "--out", str(out), *TINY]
        ) == 2

    def test_numeric_error_is_three(self, tmp_path, image_dir):
        hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=4)
        theta = ParamVector.initial(hyper)
        theta.cg_alpha[1] = float("nan")
        ckpt = tmp_path / "nan.json"
        save_checkpoint(ckpt, theta, hyper)
        src = sorted(image_dir.iterdir())[0]
        out = tmp_path / "o3"
        assert main(
            ["denoise", str(src), "--checkpoint", str(ckpt), "--out", str(out), *TINY]
        ) == 3

    def test_negative_depth_is_one_line_usage_error(self, tmp_path, image_dir, capsys):
        out = str(tmp_path / "neg")
        code = main(
            ["train", "--train_dir", str(image_dir), "--out", out, "--patch_side", "16", "--T", "-1"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: depth_T must be >= 0, got -1"]

    @pytest.mark.parametrize("command", ["corrupt", "train", "eval"])
    def test_negative_seed_is_one_line_usage_error(
        self, tmp_path, image_dir, test_dir, capsys, command
    ):
        ckpt = tmp_path / "c.json"
        hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=4)
        save_checkpoint(ckpt, ParamVector.initial(hyper), hyper)
        argv = {
            "corrupt": ["corrupt", str(image_dir)],
            "train": ["train", "--train_dir", str(image_dir)],
            "eval": ["eval", "--test_dir", str(test_dir), "--checkpoint", str(ckpt)],
        }[command]
        out = tmp_path / "neg"
        assert main([*argv, "--out", str(out), "--seed", "-3", *TINY]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -3"]
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: "[]",
            lambda payload: json.dumps({k: v for k, v in payload.items() if k != "depth_T"}),
            lambda payload: json.dumps({**payload, "degree_K": "ten"}),
            lambda payload: json.dumps({**payload, "cg_alpha": {"a": 1}}),
            lambda payload: "\u00e9",
        ],
        ids=["not-an-object", "missing-key", "bad-int", "bad-array", "not-ascii"],
    )
    def test_malformed_checkpoint_is_one_line_usage_error(self, tmp_path, capsys, edit):
        hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=4)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, ParamVector.initial(hyper), hyper)
        ckpt.write_text(edit(json.loads(ckpt.read_text())), encoding="utf-8")
        capsys.readouterr()
        assert main(["inspect", "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: checkpoint")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--s", "nan"], "s must be finite, got nan"),
            (["train", "--sigma_train", "nan"], "sigma_train must be finite, got nan"),
            (["train", "--learning_rate", "nan"], "learning_rate must be finite, got nan"),
            (["train", "--learning_rate", "-1"], "learning_rate must be > 0, got -1.0"),
            (["train", "--learning_rate", "0"], "learning_rate must be > 0, got 0.0"),
            (["eval", "--sigma_test", "10,nan"], "sigma_test must be finite, got (10.0, nan)"),
            (["eval", "--sigma_test", ","], "sigma_test must list at least one sigma"),
        ],
        ids=[
            "s-nan",
            "sigma_train-nan",
            "lr-nan",
            "lr-negative",
            "lr-zero",
            "sigma_test-nan",
            "sigma_test-empty",
        ],
    )
    def test_bad_config_float_is_one_line_usage_error(
        self, tmp_path, image_dir, test_dir, capsys, argv, message
    ):
        out = tmp_path / "bad"
        inputs = ["--train_dir", str(image_dir), "--test_dir", str(test_dir)]
        code = main([*argv, *inputs, "--checkpoint", str(tmp_path / "c.json"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()  # rejected before any work


class TestConfigFile:
    def test_parse_and_override_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment\npatch_side = 32\nsigma_test = 10, 20\nlearning_rate = 0.01\n"
        )
        parsed = parse_config_file(cfg_file)
        assert parsed == {"patch_side": 32, "sigma_test": (10.0, 20.0), "learning_rate": 0.01}
        cfg = build_config(str(cfg_file), {"patch_side": "16"})
        assert cfg.patch_side == 16  # flag wins over file
        assert cfg.sigma_test == (10.0, 20.0)
        assert cfg.learning_rate == 0.01
        assert cfg.K == 10  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("patchside = 32\n")
        with pytest.raises(CliUsageError):
            parse_config_file(cfg_file)

    def test_malformed_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("patch_side 32\n")
        with pytest.raises(CliUsageError):
            parse_config_file(cfg_file)

    def test_bad_value_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("patch_side = big\n")
        with pytest.raises(CliUsageError):
            parse_config_file(cfg_file)

    def test_cg_mode_is_not_a_config_key(self, tmp_path, image_dir):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("cg_mode = learned\n")
        with pytest.raises(CliUsageError, match="unknown config key"):
            parse_config_file(cfg_file)
        out = str(tmp_path / "o")
        assert main(["train", "--train_dir", str(image_dir), "--out", out, "--cg_mode", "learned"]) == 1

    def test_feature_dim_is_not_a_config_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("feature_dim = 5\n")
        with pytest.raises(CliUsageError, match="unknown config key"):
            parse_config_file(cfg_file)


SRC = Path(graphdenoise.__file__).resolve().parents[1]
CPUS = sorted(os.sched_getaffinity(0))


def run_subprocess(args, cpu=None):
    """The CLI in a child process, pinned to one CPU when cpu is given; the
    affinity call runs in the child only."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu})),
    )


def serial_eval_csv(ckpt, test_dir, sigmas, seed, side):
    """cmd_eval's table computed patch by patch with forward, in one thread."""
    params, hyper = load_checkpoint(ckpt)
    init_hyper = replace(hyper, cg_mode="analytic")
    init = ParamVector.initial(init_hyper)
    lines = ["sigma,psnr_bilateral,psnr_init,psnr_trained"]
    for sigma_index, sigma in enumerate(sigmas):
        scores = [[], [], []]
        for image_index, path in enumerate(sorted(test_dir.iterdir())):
            grid = partition(load_image(path), side)
            clean = reassemble(grid)
            noisy = partition(add_awgn(clean, sigma, seed + 1000 * sigma_index + image_index), side)
            columns = np.clip(
                [
                    [
                        build_system(init, patch, side, init_hyper)[2].psi.apply(patch),
                        forward(init, patch, side, init_hyper),
                        forward(params, patch, side, hyper),
                    ]
                    for patch in noisy.patches
                ],
                0.0,
                1.0,
            )
            for i, score in enumerate(scores):
                score.append(psnr(clean, reassemble(replace(noisy, patches=columns[:, i]))))
        lines.append(",".join(repr(float(v)) for v in [sigma, *map(np.mean, scores)]))
    return "\n".join(lines) + "\n"


class TestSolveLanes:
    @pytest.mark.skipif(len(CPUS) < 2, reason="needs two available CPUs")
    def test_outputs_do_not_depend_on_the_lane_count(self, tmp_path, image_dir, test_dir):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=1, name="lanes")
        clean = synthesize_image(48, 32, seed=70)  # six 16x16 patches
        save_image(clean, tmp_path / "clean.pgm")
        save_image(add_awgn(clean, 15.0, 3), tmp_path / "noisy.pgm")
        count = "from graphdenoise.lanes import LANES; print(LANES)"
        assert run_subprocess(["-c", count], cpu=CPUS[0]).stdout == "1\n"
        assert run_subprocess(["-c", count]).stdout == f"{len(CPUS)}\n"

        # serial per-patch reference
        params, hyper = load_checkpoint(ckpt)
        grid = partition(load_image(tmp_path / "noisy.pgm"), 16)
        patches = np.clip([forward(params, patch, 16, hyper) for patch in grid.patches], 0.0, 1.0)
        save_image(reassemble(replace(grid, patches=patches)), tmp_path / "reference.pgm")
        reference_psnr = psnr(clean, load_image(tmp_path / "reference.pgm"))
        reference_csv = serial_eval_csv(ckpt, test_dir, (10.0, 25.0), 2, 16)

        for name, cpu in (("pinned", CPUS[0]), ("default", None)):
            out = tmp_path / name
            den = run_subprocess(
                [
                    "-m", "graphdenoise", "denoise", str(tmp_path / "noisy.pgm"),
                    "--truth", str(tmp_path / "clean.pgm"),
                    "--checkpoint", str(ckpt), "--out", str(out), *TINY,
                ],
                cpu,
            )
            assert den.returncode == 0, den.stderr
            assert den.stdout.splitlines()[-1] == f"psnr = {reference_psnr!r}"
            denoised = (out / "noisy_denoised.pgm").read_bytes()
            assert denoised == (tmp_path / "reference.pgm").read_bytes()
            ev = run_subprocess(
                [
                    "-m", "graphdenoise", "eval", "--checkpoint", str(ckpt),
                    "--test_dir", str(test_dir), "--out", str(out),
                    "--sigma_test", "10,25", "--seed", "2", *TINY,
                ],
                cpu,
            )
            assert ev.returncode == 0, ev.stderr
            assert (out / "eval.csv").read_text() == reference_csv

    @pytest.mark.skipif(len(CPUS) < 2, reason="needs two available CPUs")
    def test_training_does_not_depend_on_the_lane_count(
        self, tmp_path, monkeypatch, image_dir, test_dir
    ):
        # serial in-process reference: cmd_train's pairs and files, one lane
        def pairs(folder, seed):
            out = []
            for index, path in enumerate(sorted(folder.iterdir())):
                clean = load_image(path)
                noisy = add_awgn(clean, 15.0, seed + index)
                out += zip(partition(noisy, 16).patches, partition(clean, 16).patches)
            return out

        hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=4)
        monkeypatch.setattr(graphdenoise.lanes, "LANES", 1)
        state, history = train_loop(
            pairs(image_dir, 5), 16, epochs=2, batch_size=3, seed=5, hyper=hyper,
            val_pairs=pairs(test_dir, 10_005),
        )
        save_checkpoint(tmp_path / "reference.json", state.params, hyper)
        lines = ["epoch,train_loss,val_psnr"]
        lines += [f"{h.epoch},{h.train_loss!r},{h.val_psnr!r}" for h in history]

        for name, cpu in (("pinned", CPUS[0]), ("default", None)):
            out = tmp_path / name
            done = run_subprocess(
                [
                    "-m", "graphdenoise", "train", "--train_dir", str(image_dir),
                    "--test_dir", str(test_dir), "--out", str(out), "--epochs", "2",
                    "--batch_size", "3", "--sigma_train", "15", "--seed", "5", *TINY,
                ],
                cpu,
            )
            assert done.returncode == 0, done.stderr
            checkpoint = (out / "checkpoint.json").read_bytes()
            assert checkpoint == (tmp_path / "reference.json").read_bytes()
            assert (out / "history.csv").read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("command", ["denoise", "eval"])
    def test_failing_lane_is_one_line_numeric_error(self, tmp_path, image_dir, test_dir, command):
        hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=4)
        theta = ParamVector.initial(hyper)
        theta.cg_alpha[:] = 1e300  # every learned solve overflows at its first step
        ckpt = tmp_path / "huge.json"
        save_checkpoint(ckpt, theta, hyper)
        if command == "denoise":
            inputs = [str(sorted(image_dir.iterdir())[0])]
        else:
            inputs = ["--test_dir", str(test_dir), "--sigma_test", "10,25"]
        done = run_subprocess(
            ["-m", "graphdenoise", command, *inputs,
             "--checkpoint", str(ckpt), "--out", str(tmp_path / "o"), *TINY]
        )
        assert done.returncode == 3
        assert done.stderr.splitlines() == ["numeric error: non-finite CG state at iteration 0"]

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    @pytest.mark.parametrize(
        "build_fails, job_fails",
        [
            ((), ()),
            ((), (1, 2)),
            ((), (2, 3)),
            ((4,), (3,)),
            ((2,), (1,)),
            ((5,), (7,)),
            ((0,), (0,)),
        ],
    )
    def test_first_failing_item_in_raster_order_wins(
        self, monkeypatch, lanes, build_fails, job_fails
    ):
        # four constant 2x2 patches, patch p valued p / 10; item 2 * p + maker,
        # as cmd_eval maps two systems per patch; the second maker gives two outputs
        pixels = np.repeat(np.arange(4) / 10, 2)[None, :].repeat(2, axis=0)
        image = GrayImage(width=8, height=2, pixels=pixels)

        def maker(offset):
            def build(patch):
                item = 2 * round(10 * patch[0]) + offset
                if item in build_fails:
                    raise NumericDivergenceError(f"build {item}")

                def job():
                    if item in job_fails:
                        raise NumericDivergenceError(f"job {item}")
                    return [patch + 0.1 * k for k in range(offset + 1)]

                return job

            return build

        monkeypatch.setattr(graphdenoise.lanes, "LANES", lanes)
        with ThreadPoolExecutor(max(lanes - 1, 1)) as pool:
            monkeypatch.setattr(graphdenoise.lanes, "POOL", pool)
            if not (build_fails or job_fails):
                images = cli._map_patches(image, 2, [maker(0), maker(1)])
                expected = [pixels, pixels, pixels + 0.1]
                assert [i.pixels.tolist() for i in images] == [e.tolist() for e in expected]
                return
            first = min([*build_fails, *job_fails])
            message = f"build {first}" if first in build_fails else f"job {first}"
            with pytest.raises(NumericDivergenceError, match=f"^{message}$"):
                cli._map_patches(image, 2, [maker(0), maker(1)])

    def test_lanes_add_at_most_one_system_each_to_peak_memory(self, tmp_path, monkeypatch):
        hyper = PipelineConfig()
        theta = ParamVector.initial(hyper)
        save_checkpoint(tmp_path / "c.json", theta, hyper)
        noisy = add_awgn(synthesize_image(128, 128, seed=5), 15.0, 1)  # four 64x64 patches
        save_image(noisy, tmp_path / "n.pgm")
        _, _, system = build_system(theta, noisy.pixels[:64, :64].ravel(), 64, hyper)
        csr = system.psi._matrix
        psi_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        del system, csr
        argv = ["denoise", str(tmp_path / "n.pgm"), "--checkpoint", str(tmp_path / "c.json"),
                "--out", str(tmp_path / "o")]

        def peak(lanes):
            monkeypatch.setattr(graphdenoise.lanes, "LANES", lanes)
            with ThreadPoolExecutor(max(lanes - 1, 1)) as pool:
                monkeypatch.setattr(graphdenoise.lanes, "POOL", pool)
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(1)  # warm-up: lazy imports and caches
        serial = peak(1)
        # margin per extra lane: its solve's vectors (K + 1 cached Taylor terms
        # and the CG state, about 0.5 MB at 64x64), doubled
        margin = 2**20
        for lanes in (2, 3):
            assert peak(lanes) <= serial + (lanes - 1) * (psi_bytes + margin)
