import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import graphdenoise
from graphdenoise import (
    DenoiserOperator,
    GrayImage,
    add_awgn,
    build_system,
    calibrated_initial,
    compile_filter,
    load_image,
    partition,
    psnr,
    reassemble,
    save_image,
    synthesize_image,
    unrolled_cg,
)
from graphdenoise import cli
from graphdenoise.cli import main
from graphdenoise.config import RunConfig, build_config, parse_config_file
from graphdenoise.errors import CliUsageError, NumericDivergenceError
from graphdenoise.train import (
    ParamVector,
    PipelineConfig,
    load_checkpoint,
    save_checkpoint,
    train_loop,
)
from oracles import analytic_forward

# every command but corrupt reads the patch side; only train reads the
# network's shape, which the others take from the checkpoint
TINY = ["--patch_side", "16"]
TINY_TRAIN = [*TINY, "--window_radius", "2", "--K", "4", "--T", "4"]


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
            *TINY_TRAIN,
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

    def test_two_inputs_writing_one_output_are_rejected(self, tmp_path, image_dir, capsys):
        # img0.pgm and img0.pnm both map to img0.pgm
        (image_dir / "img0.pnm").write_bytes((image_dir / "img0.pgm").read_bytes())
        out = tmp_path / "noisy"
        assert main(["corrupt", str(image_dir), "--out", str(out), "--sigma", "10"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out / 'img0.pgm'} (the noisy copy of img0.pnm) would overwrite "
            f"{out / 'img0.pgm'} (the noisy copy of img0.pgm)"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["same", "dotdot"])
    def test_output_that_replaces_an_input_is_rejected(self, tmp_path, image_dir, capsys, spelling):
        out = image_dir if spelling == "same" else tmp_path / "other" / ".." / image_dir.name
        before = {path.name: path.read_bytes() for path in image_dir.iterdir()}
        assert main(["corrupt", str(image_dir), "--out", str(out), "--sigma", "10"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out / 'img0.pgm'} (the noisy copy of img0.pgm) would overwrite "
            f"{image_dir / 'img0.pgm'} (the input)"
        ]
        assert {path.name: path.read_bytes() for path in image_dir.iterdir()} == before


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

    def test_failed_replace_keeps_the_previous_checkpoint(
        self, tmp_path, monkeypatch, image_dir, test_dir, capsys
    ):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=1, name="dur")
        before = {path.name: path.read_bytes() for path in ckpt.parent.iterdir()}
        replaced = []

        def failing_replace(src, dst):
            replaced.append(Path(dst).name)
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        code = main([
            "train", "--train_dir", str(image_dir), "--out", str(ckpt.parent),
            "--epochs", "1", "--sigma_train", "25", *TINY_TRAIN,
        ])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["i/o error: replace failed"]
        assert replaced == ["checkpoint.json"]  # a new checkpoint was ready to replace it
        assert {path.name: path.read_bytes() for path in ckpt.parent.iterdir()} == before

    def test_missing_checkpoint_directory_is_made_before_training(
        self, tmp_path, monkeypatch, image_dir
    ):
        ckpt = tmp_path / "missing" / "dir" / "ck.json"

        def train_loop_after_the_directory(*args, **kwargs):
            assert ckpt.parent.is_dir()
            return train_loop(*args, **kwargs)

        monkeypatch.setattr(cli, "train_loop", train_loop_after_the_directory)
        code = main([
            "train", "--train_dir", str(image_dir), "--out", str(tmp_path / "o"),
            "--checkpoint", str(ckpt), "--epochs", "1", *TINY_TRAIN,
        ])
        assert code == 0
        load_checkpoint(ckpt)

    @pytest.mark.parametrize("case", ["directory", "under-a-file"])
    def test_bad_checkpoint_path_fails_before_training(
        self, tmp_path, monkeypatch, image_dir, capsys, case
    ):
        if case == "directory":
            ckpt = tmp_path / "ck"
            ckpt.mkdir()
            code, err = 1, f"error: {ckpt} (the checkpoint) is a directory"
        else:
            (tmp_path / "file").write_text("")
            ckpt = tmp_path / "file" / "ck.json"
            code, err = 2, "i/o error: "

        def unreachable(*args, **kwargs):
            pytest.fail("train_loop was reached")

        monkeypatch.setattr(cli, "train_loop", unreachable)
        out = tmp_path / "o"
        argv = ["train", "--train_dir", str(image_dir), "--out", str(out), "--checkpoint", str(ckpt)]
        assert main([*argv, *TINY_TRAIN]) == code
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(err)
        if case == "directory":
            assert not out.exists()

    @pytest.mark.parametrize("collision", ["out", "history", "train-image", "test-image"])
    def test_checkpoint_that_is_an_input_or_output_fails_before_training(
        self, tmp_path, monkeypatch, image_dir, test_dir, capsys, collision
    ):
        out = tmp_path / "o"
        ckpt, role = {
            "out": (out, "output directory"),
            "history": (out / "history.csv", "history"),
            "train-image": (image_dir / "img0.pgm", "training image"),
            "test-image": (test_dir / "test1.pgm", "test image"),
        }[collision]
        error = f"{ckpt} (the checkpoint) would overwrite {ckpt} (the {role})"
        if collision == "history":  # the history is written after the checkpoint
            error = f"{ckpt} (the history) would overwrite {ckpt} (the checkpoint)"
        before = {path: path.read_bytes() for path in [*image_dir.iterdir(), *test_dir.iterdir()]}

        def unreachable(*args, **kwargs):
            pytest.fail("train_loop was reached")

        monkeypatch.setattr(cli, "train_loop", unreachable)
        argv = ["train", "--train_dir", str(image_dir), "--test_dir", str(test_dir)]
        assert main([*argv, "--out", str(out), "--checkpoint", str(ckpt), *TINY_TRAIN]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {error}"
        ]
        assert not out.exists()
        assert {path: path.read_bytes() for path in before} == before

    def test_requires_train_dir(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "o")]) == 1


class TestDenoise:
    def test_depth_zero_is_identity(self, tmp_path, monkeypatch, image_dir):
        hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=0)
        ckpt = tmp_path / "identity.json"
        save_checkpoint(ckpt, ParamVector.initial(hyper), hyper)
        src = sorted(image_dir.iterdir())[0]
        out = tmp_path / "out"
        calls = []
        real_apply = DenoiserOperator.apply
        monkeypatch.setattr(
            DenoiserOperator, "apply", lambda psi, v: calls.append(1) or real_apply(psi, v)
        )
        code = main(
            ["denoise", str(src), "--checkpoint", str(ckpt), "--out", str(out), *TINY]
        )
        assert code == 0
        assert calls == []  # the identity filter costs no matvec
        result = out / (src.stem + "_denoised.pgm")
        assert result.read_bytes() == src.read_bytes()

    def test_expansion_point_one_in_an_older_file_is_ignored(self, tmp_path, image_dir, test_dir):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=1, name="s1")
        older = tmp_path / "older.json"
        payload = {**json.loads(ckpt.read_text()), "expansion_s": 1.0}
        older.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        (theta, hyper), (older_theta, older_hyper) = load_checkpoint(ckpt), load_checkpoint(older)
        assert np.array_equal(older_theta.pack(), theta.pack()) and older_hyper == hyper
        src = sorted(image_dir.iterdir())[0]
        denoised = []
        for path in (ckpt, older):
            out = tmp_path / f"den_{path.stem}"
            assert main(["denoise", str(src), "--checkpoint", str(path), "--out", str(out), *TINY]) == 0
            denoised.append((out / (src.stem + "_denoised.pgm")).read_bytes())
        assert denoised[0] == denoised[1]

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
            GrayImage(clean.pixels), denoised
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

    @pytest.mark.parametrize(
        "truth, code, error",
        [
            ("missing.pgm", 2, "i/o error: {path}: no such file"),
            ("wide.pgm", 1, "error: the truth crops to 48x32, the image to 32x32"),
            ("x.png", 2, "i/o error: {path}: unsupported image format '.png'"),
        ],
        ids=["missing", "other-size", "png"],
    )
    def test_bad_truth_fails_before_anything_is_written(
        self, tmp_path, image_dir, test_dir, capsys, truth, code, error
    ):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=0, name="truth")
        # crops to 48x32 at patch side 16, the 32x32 input to 32x32
        save_image(synthesize_image(48, 32, seed=1), tmp_path / "wide.pgm")
        (tmp_path / "x.png").write_bytes(b"\x89PNG\r\n\x1a\n")
        src = sorted(image_dir.iterdir())[0]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([
            "denoise", str(src), "--truth", str(tmp_path / truth),
            "--checkpoint", str(ckpt), "--out", str(out), *TINY,
        ]) == code
        assert capsys.readouterr().err.splitlines() == [error.format(path=tmp_path / truth)]
        assert not out.exists()

    @pytest.mark.parametrize("taken", ["truth", "image"])
    def test_output_that_is_an_input_is_rejected(
        self, tmp_path, image_dir, test_dir, capsys, taken
    ):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=0, name="taken")
        src = sorted(image_dir.iterdir())[0]
        noisy = tmp_path / "n.pgm"
        noisy.write_bytes(src.read_bytes())
        out = tmp_path / "o"
        out.mkdir()
        target = out / "n_denoised.pgm"
        if taken == "truth":
            target.write_bytes(src.read_bytes())
            argv, path = ["--truth", str(target)], target
        else:
            target.symlink_to(noisy)  # the output would be written through it
            argv, path = [], noisy
        before = {p: p.read_bytes() for p in (noisy, target)}
        capsys.readouterr()
        code = main([
            "denoise", str(noisy), *argv, "--checkpoint", str(ckpt), "--out", str(out), *TINY,
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {target} (the output) would overwrite {path} (the {taken})"
        ]
        assert {p: p.read_bytes() for p in (noisy, target)} == before


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

    def test_failed_replace_keeps_the_previous_table(
        self, tmp_path, monkeypatch, image_dir, test_dir, capsys
    ):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=0, name="dur")
        out = tmp_path / "evalout"
        argv = ["eval", "--checkpoint", str(ckpt), "--test_dir", str(test_dir), "--out", str(out)]
        assert main([*argv, "--sigma_test", "15", *TINY]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        replaced = []

        def failing_replace(src, dst):
            replaced.append(Path(dst).name)
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        capsys.readouterr()
        assert main([*argv, "--sigma_test", "25", *TINY]) == 2
        assert capsys.readouterr().err.splitlines() == ["i/o error: replace failed"]
        assert replaced == ["eval.csv"]  # a new table was ready to replace it
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


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
        # Psi is positive definite: no per-patch guard or path to report
        assert re.search(r"^compiled_max_abs_q = \S+$", out, re.M)
        assert "patch_0_pd = yes" in out and "_path" not in out and "guard" not in out


# (command, what collides): one row for each way a command could overwrite
# a file it reads or writes
COLLISIONS = [
    ("corrupt", "two-inputs-one-copy"),
    ("corrupt", "out-is-the-input-dir"),
    ("corrupt", "out-is-the-input-dir-via-dotdot"),
    ("train", "checkpoint-is-a-directory"),
    ("train", "checkpoint-is-out"),
    ("train", "checkpoint-is-the-history"),
    ("train", "checkpoint-is-a-training-image"),
    ("train", "checkpoint-is-a-test-image"),
    ("train", "checkpoint-is-the-config"),
    ("denoise", "output-is-the-truth"),
    ("denoise", "output-is-the-image"),
    ("denoise", "output-is-the-checkpoint"),
    ("denoise", "out-is-the-image"),
    ("eval", "table-is-the-checkpoint"),
    ("eval", "table-is-the-config"),
    ("inspect", "report-is-the-checkpoint"),
]


def collision(case, tmp_path, image_dir, test_dir):
    """The argv, --out and error line of one COLLISIONS row, with the files
    it needs. A checkpoint named like a file the command writes sits in d."""
    hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=4)
    d, out, img0 = tmp_path / "d", tmp_path / "o", image_dir / "img0.pgm"
    d.mkdir()
    ckpt = {
        "output-is-the-checkpoint": d / "img0_denoised.pgm",
        "table-is-the-checkpoint": d / "eval.csv",
        "report-is-the-checkpoint": d / "inspect.txt",
    }.get(case, tmp_path / "c.json")
    save_checkpoint(ckpt, ParamVector.initial(hyper), hyper)
    train = ["train", "--train_dir", str(image_dir), "--test_dir", str(test_dir), *TINY_TRAIN]
    denoise = ["denoise", str(img0), "--checkpoint", str(ckpt), *TINY]
    evaluate = ["eval", "--test_dir", str(test_dir), "--checkpoint", str(ckpt), *TINY]
    if case == "two-inputs-one-copy":
        (image_dir / "img0.pnm").write_bytes(img0.read_bytes())
        copy = f"{out / 'img0.pgm'} (the noisy copy of"
        error = f"{copy} img0.pnm) would overwrite {copy} img0.pgm)"
        return ["corrupt", str(image_dir)], out, error
    if case.startswith("out-is-the-input-dir"):
        out = image_dir if case.endswith("dir") else tmp_path / "other" / ".." / image_dir.name
        error = f"{out / 'img0.pgm'} (the noisy copy of img0.pgm) would overwrite {img0} (the input)"
        return ["corrupt", str(image_dir)], out, error
    if case == "checkpoint-is-a-directory":
        return [*train, "--checkpoint", str(d)], out, f"{d} (the checkpoint) is a directory"
    if case == "checkpoint-is-the-history":
        history = out / "history.csv"
        error = f"{history} (the history) would overwrite {history} (the checkpoint)"
        return [*train, "--checkpoint", str(history)], out, error
    if case == "checkpoint-is-the-config":
        config = tmp_path / "run.cfg"
        config.write_text(f"checkpoint = {config}\n")
        error = f"{config} (the checkpoint) would overwrite {config} (the config)"
        return [*train, "--config", str(config)], out, error
    if case.startswith("checkpoint-is-"):
        path, what = {
            "checkpoint-is-out": (out, "output directory"),
            "checkpoint-is-a-training-image": (img0, "training image"),
            "checkpoint-is-a-test-image": (test_dir / "test1.pgm", "test image"),
        }[case]
        error = f"{path} (the checkpoint) would overwrite {path} (the {what})"
        return [*train, "--checkpoint", str(path)], out, error
    target = d / "img0_denoised.pgm"
    if case == "output-is-the-truth":
        target.write_bytes(img0.read_bytes())
        error = f"{target} (the output) would overwrite {target} (the truth)"
        return [*denoise, "--truth", str(target)], d, error
    if case == "output-is-the-image":
        noisy = tmp_path / "img0.pgm"
        noisy.write_bytes(img0.read_bytes())
        (d / "img0_denoised.pgm").symlink_to(noisy)  # the output would be written through it
        argv = ["denoise", str(noisy), "--checkpoint", str(ckpt), *TINY]
        return argv, d, f"{target} (the output) would overwrite {noisy} (the image)"
    if case == "output-is-the-checkpoint":
        return denoise, d, f"{ckpt} (the output) would overwrite {ckpt} (the checkpoint)"
    if case == "out-is-the-image":
        return denoise, img0, f"{img0} (the output directory) would overwrite {img0} (the image)"
    if case == "table-is-the-checkpoint":
        return evaluate, d, f"{ckpt} (the table) would overwrite {ckpt} (the checkpoint)"
    if case == "table-is-the-config":
        config = d / "eval.csv"
        config.write_text(f"out = {d}\n")
        error = f"{config} (the table) would overwrite {config} (the config)"
        return [*evaluate, "--config", str(config)], None, error
    assert case == "report-is-the-checkpoint"
    argv = ["inspect", "--checkpoint", str(ckpt), *TINY]
    return argv, d, f"{ckpt} (the report) would overwrite {ckpt} (the checkpoint)"


class TestPathCollisions:
    """No command overwrites a file it reads or writes: each collision is
    exit 1 with one line, before any work and before --out is made."""

    @pytest.mark.parametrize("command, case", COLLISIONS, ids=[case for _, case in COLLISIONS])
    def test_collision_is_one_line_before_any_work(
        self, tmp_path, monkeypatch, image_dir, test_dir, capsys, command, case
    ):
        argv, out, error = collision(case, tmp_path, image_dir, test_dir)
        assert argv[0] == command

        def unreachable(*args, **kwargs):
            pytest.fail("work started")

        for work in ("train_loop", "_map_patches", "save_image", "write_text_durably"):
            monkeypatch.setattr(cli, work, unreachable)
        files = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        outs = {path: path.exists() for path in tmp_path.rglob("*")}
        capsys.readouterr()
        assert main([*argv, *(["--out", str(out)] if out else [])]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
        assert {path: path.read_bytes() for path in files} == files
        assert {path: path.exists() for path in tmp_path.rglob("*")} == outs

    def test_every_command_has_requirements_and_a_collision_row(self):
        assert set(cli.REQUIRES) == set(cli.READS)
        assert {command for command, _ in COLLISIONS} == set(cli.READS)
        for command, required in cli.REQUIRES.items():
            assert set(required) <= set(cli.READS[command]), command

    @pytest.mark.parametrize(
        "command, field",
        [(command, field) for command, required in cli.REQUIRES.items() for field in required],
    )
    def test_missing_required_field_is_one_line(
        self, tmp_path, image_dir, every_field, capsys, command, field
    ):
        given = [f for f in cli.READS[command] if f != field]
        argv = [command, *positionals(command, image_dir)]
        argv += [arg for f in given for arg in (f"--{f}", every_field[f])]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --{field} is required for {command}"
        ]
        assert not Path(every_field["out"]).exists()


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
        assert not out.exists()  # the image is read before the output directory is made

    def test_sample_above_maxval_is_an_io_error(self, tmp_path, capsys):
        hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=4)
        ckpt = tmp_path / "c.json"
        save_checkpoint(ckpt, ParamVector.initial(hyper), hyper)
        bad = tmp_path / "over.pgm"
        bad.write_bytes(b"P5\n8 8\n15\n" + bytes([200] * 64))
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["denoise", str(bad), "--checkpoint", str(ckpt), "--out", str(out), *TINY]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"i/o error: {bad}: PNM sample above maxval 15"
        ]
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["denoise", "eval", "inspect"])
    def test_checkpoint_that_does_not_compile_fails_before_the_output_directory(
        self, tmp_path, image_dir, test_dir, capsys, command
    ):
        hyper = PipelineConfig()  # uncalibrated: the learned network does not compile
        ckpt = tmp_path / "uncalibrated.json"
        save_checkpoint(ckpt, ParamVector.initial(hyper), hyper)
        argv = {
            "denoise": ["denoise", str(sorted(image_dir.iterdir())[0])],
            "eval": ["eval", "--test_dir", str(test_dir)],
            "inspect": ["inspect"],
        }[command]
        out = tmp_path / "out"
        code = main([*argv, "--checkpoint", str(ckpt), "--out", str(out), *TINY])
        captured = capsys.readouterr()
        if command == "inspect":
            assert code == 0
            assert "compiled_degree = none" in captured.out.splitlines()
            return
        assert code == 3
        [line] = captured.err.splitlines()
        assert line.startswith("numeric error: the learned network does not compile")
        assert not out.exists()

    def test_abbreviated_flag_is_not_accepted(self, tmp_path, image_dir, capsys):
        # `--learn` would otherwise be read as `--learning_rate`
        out = tmp_path / "abbrev"
        argv = ["train", "--train_dir", str(image_dir), "--out", str(out), "--learn", "0.1"]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: unrecognized arguments: --learn 0.1"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--patch_side", "1"], "patch_side must be >= 2, got 1"),
            (["train", "--batch_size", "0"], "batch_size must be >= 1, got 0"),
            (["train", "--epochs", "-1"], "epochs must be >= 0, got -1"),
            (["train", "--T", "-1"], "depth_T must be >= 0, got -1"),
            (["train", "--K", "0"], "degree_K must be >= 1, got 0"),
            (["train", "--train_dir", "{small}"], "image 8x8 is smaller than one 16x16 patch"),
            (["denoise", "{small}/s.pgm"], "image 8x8 is smaller than one 16x16 patch"),
            (["eval", "--test_dir", "{small}"], "image 8x8 is smaller than one 16x16 patch"),
            (["train", "--train_dir", "{png}"], "no images found under {png}"),
            (["eval", "--test_dir", "{png}"], "no images found under {png}"),
        ],
        ids=[
            "patch_side-1",
            "batch_size-0",
            "epochs-negative",
            "T-negative",
            "K-0",
            "train-small-image",
            "denoise-small-image",
            "eval-small-image",
            "train-png-only",
            "eval-png-only",
        ],
    )
    def test_bad_setting_or_small_image_fails_before_the_output_directory(
        self, tmp_path, image_dir, test_dir, capsys, argv, message
    ):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=0, name="ok")
        small = tmp_path / "small"
        small.mkdir()
        save_image(synthesize_image(8, 8, seed=3), small / "s.pgm")
        png = tmp_path / "png"  # PNG files are not images to the CLI
        png.mkdir()
        (png / "x.png").write_bytes(b"\x89PNG\r\n\x1a\n")
        argv = [arg.format(small=small, png=png) for arg in argv]
        message = message.format(png=png)
        out = tmp_path / "out"
        inputs = {
            "train": ["--train_dir", str(image_dir), "--test_dir", str(test_dir), *TINY_TRAIN],
            "denoise": TINY,
            "eval": ["--test_dir", str(test_dir), *TINY],
        }[argv[0]]
        capsys.readouterr()
        # a flag given twice takes its last value, so argv's come last
        argv = [argv[0], *inputs, "--checkpoint", str(ckpt), "--out", str(out), *argv[1:]]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["corrupt", "train", "eval"])
    def test_negative_seed_is_one_line_usage_error(
        self, tmp_path, image_dir, test_dir, capsys, command
    ):
        ckpt = tmp_path / "c.json"
        hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=4)
        save_checkpoint(ckpt, ParamVector.initial(hyper), hyper)
        argv = {
            "corrupt": ["corrupt", str(image_dir)],
            "train": ["train", "--train_dir", str(image_dir), *TINY_TRAIN],
            "eval": ["eval", "--test_dir", str(test_dir), "--checkpoint", str(ckpt), *TINY],
        }[command]
        out = tmp_path / "neg"
        assert main([*argv, "--out", str(out), "--seed", "-3"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -3"]
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize(
        "command, flag",
        [("train", "--train_dir"), ("train", "--test_dir"), ("eval", "--test_dir"), ("corrupt", None)],
        ids=["train-train_dir", "train-test_dir", "eval-test_dir", "corrupt-input_dir"],
    )
    def test_missing_input_directory_is_rejected_before_the_output_directory(
        self, tmp_path, image_dir, test_dir, capsys, command, flag
    ):
        ckpt = tmp_path / "c.json"
        hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=4)
        save_checkpoint(ckpt, ParamVector.initial(hyper), hyper)
        missing = str(tmp_path / "missing")
        argv = {
            "train": ["train", "--train_dir", str(image_dir), *TINY_TRAIN],
            "eval": ["eval", "--checkpoint", str(ckpt), "--test_dir", str(test_dir), *TINY],
            "corrupt": ["corrupt"],
        }[command]
        # a flag given twice takes its last value
        argv += [flag, missing] if flag else [missing]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: not a directory: {missing}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: "[]",
            lambda payload: json.dumps({k: v for k, v in payload.items() if k != "depth_T"}),
            lambda payload: json.dumps({**payload, "degree_K": "ten"}),
            lambda payload: json.dumps({**payload, "cg_alpha": {"a": 1}}),
            lambda payload: "\u00e9",
            lambda payload: json.dumps({**payload, "expansion_s": 0.5}),
            lambda payload: json.dumps({**payload, "expansion_s": True}),
            lambda payload: json.dumps({**payload, "window_radius": 0}),
            lambda payload: json.dumps({**payload, "window_radius": -2}),
            lambda payload: json.dumps(
                {**payload, "degree_K": 0, "tse_coeffs": payload["tse_coeffs"][:1]}
            ),
            lambda payload: json.dumps({**payload, "window_radius": 2.7}),
            lambda payload: json.dumps({**payload, "window_radius": True}),
            lambda payload: json.dumps({**payload, "degree_K": 4.0}),
            lambda payload: json.dumps({**payload, "depth_T": "4"}),
            lambda payload: json.dumps(
                {**payload, "metric_factor": [float("inf"), *payload["metric_factor"][1:]]}
            ),
            lambda payload: json.dumps(
                {**payload, "metric_factor": [*payload["metric_factor"][:3], float("nan")]
                 + payload["metric_factor"][4:]}
            ),
            # a block of the right total length that is not flat
            lambda payload: json.dumps(
                {**payload, "tse_coeffs": [[v] for v in payload["tse_coeffs"]]}
            ),
            lambda payload: json.dumps(
                {**payload, "cg_alpha": [payload["cg_alpha"][:2], payload["cg_alpha"][2:]]}
            ),
        ],
        ids=[
            "not-an-object",
            "missing-key",
            "bad-int",
            "bad-array",
            "not-ascii",
            "s-half",
            "s-bool",
            "radius-zero",
            "radius-negative",
            "K-zero",
            "radius-float",
            "radius-bool",
            "K-integral-float",
            "T-string",
            "metric-inf",
            "metric-nan",
            "tse-nested",
            "alpha-nested",
        ],
    )
    @pytest.mark.parametrize("command", ["inspect", "denoise", "eval"])
    def test_malformed_checkpoint_is_one_line_usage_error(
        self, tmp_path, image_dir, test_dir, capsys, edit, command
    ):
        hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=4)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, ParamVector.initial(hyper), hyper)
        ckpt.write_text(edit(json.loads(ckpt.read_text())), encoding="utf-8")
        argv = {
            "inspect": ["inspect"],
            "denoise": ["denoise", str(sorted(image_dir.iterdir())[0])],
            "eval": ["eval", "--test_dir", str(test_dir)],
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, "--checkpoint", str(ckpt), "--out", str(out), *TINY]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: checkpoint")
        assert "Traceback" not in err
        assert not out.exists()  # rejected before the output directory is made

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["corrupt", "--sigma", "nan"], "sigma must be finite, got nan"),
            (["train", "--sigma_train", "nan"], "sigma_train must be finite, got nan"),
            (["train", "--learning_rate", "nan"], "learning_rate must be finite, got nan"),
            (["train", "--learning_rate", "-1"], "learning_rate must be > 0, got -1.0"),
            (["train", "--learning_rate", "0"], "learning_rate must be > 0, got 0.0"),
            (["eval", "--sigma_test", "10,nan"], "sigma_test must be finite, got (10.0, nan)"),
            (["eval", "--sigma_test", ","], "sigma_test must list at least one sigma"),
            (["corrupt", "--sigma", "-5"], "sigma must be >= 0, got -5.0"),
            (["train", "--sigma_train", "-1"], "sigma_train must be >= 0, got -1.0"),
            (["eval", "--sigma_test", "10,-5"], "sigma_test must be >= 0, got (10.0, -5.0)"),
        ],
        ids=[
            "sigma-nan",
            "sigma_train-nan",
            "lr-nan",
            "lr-negative",
            "lr-zero",
            "sigma_test-nan",
            "sigma_test-empty",
            "sigma-negative",
            "sigma_train-negative",
            "sigma_test-negative",
        ],
    )
    def test_bad_config_float_is_one_line_usage_error(
        self, tmp_path, image_dir, test_dir, capsys, argv, message
    ):
        out = tmp_path / "bad"
        ckpt = ["--checkpoint", str(tmp_path / "c.json")]
        inputs = {
            "corrupt": [str(image_dir)],
            "train": ["--train_dir", str(image_dir), "--test_dir", str(test_dir), *ckpt],
            "eval": ["--test_dir", str(test_dir), *ckpt],
        }[argv[0]]
        assert main([*argv, *inputs, "--out", str(out)]) == 1
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

    def test_config_that_is_not_utf8_is_one_line_usage_error(self, tmp_path, capsys):
        config = tmp_path / "im0.pgm"
        config.write_bytes(b"P5\n2 1\n255\n\xff\x80")  # a binary image, not a config
        out = tmp_path / "o"
        assert main(["eval", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {config}: not a UTF-8 config file"
        ]
        assert not out.exists()

    def test_bad_value_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("patch_side = big\n")
        with pytest.raises(CliUsageError):
            parse_config_file(cfg_file)

    @pytest.mark.parametrize(
        "key, value", [("cg_mode", "learned"), ("feature_dim", "5"), ("s", "1.0")]
    )
    def test_removed_settings_are_not_config_keys(self, tmp_path, image_dir, key, value):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        with pytest.raises(CliUsageError, match=f"unknown config key {key!r}"):
            parse_config_file(cfg_file)
        out = tmp_path / "o"
        assert main(["train", "--train_dir", str(image_dir), "--out", str(out), f"--{key}", value]) == 1
        assert not out.exists()


@pytest.fixture
def every_field(tmp_path, image_dir, test_dir):
    """A value for every RunConfig field with which each command of
    cli.READS runs, in that order: train fits a tiny network for one epoch
    and the commands after it read its checkpoint."""
    return {
        "patch_side": "16", "window_radius": "2", "K": "4", "T": "4",
        "sigma": "15", "sigma_train": "15", "sigma_test": "10,25",
        "epochs": "1", "batch_size": "3", "learning_rate": "0.001", "seed": "1",
        "train_dir": str(image_dir), "test_dir": str(test_dir),
        "checkpoint": str(tmp_path / "c.json"), "out": str(tmp_path / "out"),
    }


def positionals(command, image_dir):
    return {"corrupt": [str(image_dir)], "denoise": [str(image_dir / "img0.pgm")]}.get(command, [])


class TestFlags:
    """Each command takes --config and a flag for each RunConfig field it
    reads (cli.READS), and no other."""

    @pytest.mark.parametrize("command", list(cli.READS))
    def test_help_lists_config_and_exactly_the_fields_read(self, capsys, command):
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        flags = set(re.findall(r"--(\w+)", capsys.readouterr().out))
        truth = {"truth"} if command == "denoise" else set()
        assert flags == {"help", "config", *cli.READS[command], *truth}

    def test_each_command_reads_exactly_its_fields(self, monkeypatch, image_dir, every_field):
        class ReadRecorder:
            """The config, with the names of the fields read from it."""

            def __init__(self, cfg):
                self.cfg, self.read = cfg, set()

            def __getattr__(self, name):
                self.read.add(name)
                return getattr(self.cfg, name)

        recorders = []

        def recording_build_config(*args):
            recorders.append(ReadRecorder(build_config(*args)))
            return recorders[-1]

        monkeypatch.setattr(cli, "build_config", recording_build_config)
        for command, reads in cli.READS.items():
            flags = [arg for field in reads for arg in (f"--{field}", every_field[field])]
            assert main([command, *positionals(command, image_dir), *flags]) == 0
            assert recorders[-1].read == set(reads), command

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("train", "--sigma", "25"),
            ("corrupt", "--sigma_train", "10"),
            ("denoise", "--K", "4"),
            ("eval", "--epochs", "3"),
            ("inspect", "--seed", "1"),
        ],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(
        self, tmp_path, image_dir, test_dir, capsys, command, flag, value
    ):
        inputs = {
            "train": ["--train_dir", str(image_dir)],
            "eval": ["--test_dir", str(test_dir), "--checkpoint", str(tmp_path / "c.json")],
            "denoise": ["--checkpoint", str(tmp_path / "c.json")],
            "inspect": ["--checkpoint", str(tmp_path / "c.json")],
        }.get(command, [])
        out = tmp_path / "out"
        argv = [command, *positionals(command, image_dir), *inputs, "--out", str(out)]
        assert main([*argv, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: unrecognized arguments: {flag} {value}"]
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_file_with_every_field_runs_every_command(
        self, tmp_path, image_dir, every_field
    ):
        assert set(every_field) == {f.name for f in fields(RunConfig)}
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in every_field.items()))
        for command in cli.READS:
            argv = [command, *positionals(command, image_dir), "--config", str(config)]
            assert main(argv) == 0, command
        out = Path(every_field["out"])
        written = {"img0.pgm", "manifest.csv", "history.csv", "img0_denoised.pgm"}
        assert written | {"eval.csv", "inspect.txt"} <= {path.name for path in out.iterdir()}
        assert Path(every_field["checkpoint"]).is_file()


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


def learned_solver(params, hyper, side):
    """The learned network as denoise and eval run it on one patch: the
    compiled filter of the checkpoint."""
    compiled = compile_filter(params)

    def solve(patch):
        return compiled.apply(build_system(params, patch, side, hyper).psi, patch)

    return solve


def serial_eval_csv(ckpt, test_dir, sigmas, seed, side):
    """cmd_eval's table computed patch by patch, in one thread."""
    params, hyper = load_checkpoint(ckpt)
    init = ParamVector.initial(hyper)
    solve = learned_solver(params, hyper, side)
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
                        build_system(init, patch, side, hyper).psi.apply(patch),
                        analytic_forward(init, patch, side, hyper),
                        solve(patch),
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
        solve = learned_solver(params, hyper, 16)
        patches = np.clip([solve(patch) for patch in grid.patches], 0.0, 1.0)
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
                    "--batch_size", "3", "--sigma_train", "15", "--seed", "5", *TINY_TRAIN,
                ],
                cpu,
            )
            assert done.returncode == 0, done.stderr
            checkpoint = (out / "checkpoint.json").read_bytes()
            assert checkpoint == (tmp_path / "reference.json").read_bytes()
            assert (out / "history.csv").read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("command", ["denoise", "eval"])
    def test_diverging_network_fails_to_compile_with_one_line_numeric_error(
        self, tmp_path, image_dir, test_dir, command
    ):
        hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=4)
        theta = ParamVector.initial(hyper)
        theta.cg_alpha[:] = 1e300  # the network's response overflows at its first step
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
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    @pytest.mark.parametrize(
        "fails",
        [(), (1, 2), (2, 3), (4, 3), (2, 1), (5, 7), (0,), (9, 8), (8, 11), (11, 9), (10, 3)],
    )
    def test_first_failing_item_in_raster_order_wins(self, monkeypatch, lanes, fails):
        # constant 2x2 patches, patch p valued p / 10: the first image holds
        # patches 0 to 3 and the second 4 and 5; item 2 * p + maker, as
        # cmd_eval maps two systems per patch, so items run in (image, patch,
        # maker) order; the second maker gives two outputs
        first = np.repeat(np.arange(4) / 10, 2)[None, :].repeat(2, axis=0)
        second = np.repeat(np.arange(4, 6) / 10, 2)[None, :].repeat(2, axis=0)
        images = [GrayImage(first), GrayImage(second)]

        def maker(offset):
            def solve(patch):
                item = 2 * round(10 * patch[0]) + offset
                if item in fails:
                    raise NumericDivergenceError(f"item {item}")
                return [patch + 0.1 * k for k in range(offset + 1)]

            return solve

        monkeypatch.setattr(graphdenoise.lanes, "LANES", lanes)
        with ThreadPoolExecutor(max(lanes - 1, 1)) as pool:
            monkeypatch.setattr(graphdenoise.lanes, "POOL", pool)
            if not fails:
                mapped = cli._map_patches(images, 2, [maker(0), maker(1)])
                for outputs, pixels in zip(mapped, (first, second), strict=True):
                    expected = [pixels, pixels, pixels + 0.1]
                    assert [i.pixels.tolist() for i in outputs] == [e.tolist() for e in expected]
                return
            with pytest.raises(NumericDivergenceError, match=f"^item {min(fails)}$"):
                cli._map_patches(images, 2, [maker(0), maker(1)])

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_eval_whose_job_fails_exits_three_without_a_table(
        self, tmp_path, monkeypatch, image_dir, test_dir, capsys, lanes
    ):
        ckpt, _ = train_tiny(tmp_path, image_dir, test_dir, epochs=0, name="fail")
        solves = []

        def failing_cg(*args):
            solves.append(None)
            if len(solves) == 6:  # an analytic solve of the first image's batch
                raise NumericDivergenceError("solve failed")
            return unrolled_cg(*args)

        monkeypatch.setattr(cli, "unrolled_cg", failing_cg)
        out = tmp_path / "o"
        capsys.readouterr()
        denoise_in_lanes(monkeypatch, lanes, [
            "eval", "--test_dir", str(test_dir), "--sigma_test", "10,25",
            "--checkpoint", str(ckpt), "--out", str(out), *TINY,
        ], code=3)
        assert capsys.readouterr().err.splitlines() == ["numeric error: solve failed"]
        assert not (out / "eval.csv").exists()


def assert_lanes_add_at_most_one_system_each(tmp_path, monkeypatch, theta, noisy, argv):
    """The traced peak memory of the command argv at 2 and 3 lanes exceeds
    the serial peak by at most one patch system per extra lane. theta is
    saved as the checkpoint and noisy as images/n.pgm under tmp_path."""
    hyper = PipelineConfig()
    save_checkpoint(tmp_path / "c.json", theta, hyper)
    (tmp_path / "images").mkdir()
    save_image(noisy, tmp_path / "images" / "n.pgm")
    system = build_system(theta, noisy.pixels[:64, :64].ravel(), 64, hyper)
    csr = system.psi._matrix
    psi_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    del system, csr
    argv = [*argv, "--checkpoint", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")]

    def peak(lanes):
        tracemalloc.start()
        try:
            denoise_in_lanes(monkeypatch, lanes, argv)
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


def denoise_in_lanes(monkeypatch, lanes, argv, code=0):
    """cli.main(argv), which must exit with code, on `lanes` lanes."""
    monkeypatch.setattr(graphdenoise.lanes, "LANES", lanes)
    with ThreadPoolExecutor(max(lanes - 1, 1)) as pool:
        monkeypatch.setattr(graphdenoise.lanes, "POOL", pool)
        assert main(argv) == code


class TestCompiledLanes:
    """denoise at the default K and T with calibrated CG scalars."""

    @pytest.fixture
    def noisy(self):
        return add_awgn(synthesize_image(128, 128, seed=5), 15.0, 1)  # four 64x64 patches

    @pytest.fixture
    def theta(self, noisy):
        hyper = PipelineConfig()
        theta = calibrated_initial(hyper, partition(noisy, 64).patches[:3], 64)
        compile_filter(theta)  # raises when it does not compile
        return theta

    def test_denoise_bytes_do_not_depend_on_the_lane_count(
        self, tmp_path, monkeypatch, noisy, theta
    ):
        save_checkpoint(tmp_path / "c.json", theta, PipelineConfig())
        save_image(noisy, tmp_path / "n.pgm")
        outputs = []
        for lanes in (1, 2, 3):
            out = tmp_path / f"lanes{lanes}"
            denoise_in_lanes(monkeypatch, lanes, [
                "denoise", str(tmp_path / "n.pgm"), "--checkpoint", str(tmp_path / "c.json"),
                "--out", str(out),
            ])
            outputs.append((out / "n_denoised.pgm").read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_eval_table_does_not_depend_on_the_lane_count(
        self, tmp_path, monkeypatch, noisy, theta
    ):
        ckpt = tmp_path / "c.json"
        save_checkpoint(ckpt, theta, PipelineConfig())
        test_dir = tmp_path / "test"
        test_dir.mkdir()
        save_image(noisy, test_dir / "a.pgm")  # four patches
        save_image(synthesize_image(64, 64, seed=6), test_dir / "b.pgm")  # one
        tables = []
        for lanes in (1, 2, 3):
            out = tmp_path / f"lanes{lanes}"
            denoise_in_lanes(monkeypatch, lanes, [
                "eval", "--test_dir", str(test_dir), "--sigma_test", "10,25", "--seed", "4",
                "--checkpoint", str(ckpt), "--out", str(out),
            ])
            tables.append((out / "eval.csv").read_bytes())
        assert tables[1] == tables[0] and tables[2] == tables[0]
        assert tables[0] == serial_eval_csv(ckpt, test_dir, (10.0, 25.0), 4, 64).encode()

    def test_lanes_add_at_most_one_system_each_to_peak_memory(
        self, tmp_path, monkeypatch, noisy, theta
    ):
        assert_lanes_add_at_most_one_system_each(
            tmp_path, monkeypatch, theta, noisy, ["denoise", str(tmp_path / "images" / "n.pgm")]
        )

    def test_eval_lanes_add_at_most_one_system_each_to_peak_memory(
        self, tmp_path, monkeypatch, noisy, theta
    ):
        assert_lanes_add_at_most_one_system_each(
            tmp_path, monkeypatch, theta, noisy,
            ["eval", "--test_dir", str(tmp_path / "images"), "--sigma_test", "10,25"],
        )

    @pytest.mark.parametrize("command", ["denoise", "eval"])
    def test_overlapping_builds_add_at_most_one_system_per_lane(
        self, tmp_path, monkeypatch, noisy, theta, command
    ):
        # builds take no lock: forced to overlap, they still leave the peak
        # within assert_lanes_add_at_most_one_system_each's bound
        building, most = [0], {}
        count = threading.Lock()

        def sleeping_build(*args):
            lanes = graphdenoise.lanes.LANES
            with count:
                building[0] += 1
                most[lanes] = max(most.get(lanes, 0), building[0])
            # long enough that the builds of every lane overlap
            time.sleep(0.05)
            try:
                return build_system(*args)
            finally:
                with count:
                    building[0] -= 1

        monkeypatch.setattr(cli, "build_system", sleeping_build)
        if command == "denoise":
            argv = ["denoise", str(tmp_path / "images" / "n.pgm")]  # four patches
        else:
            # four per sigma and system; one batch maps both sigmas
            argv = ["eval", "--test_dir", str(tmp_path / "images"), "--sigma_test", "10,25"]
        assert_lanes_add_at_most_one_system_each(tmp_path, monkeypatch, theta, noisy, argv)
        assert most[1] == 1
        assert most[2] == 2 and most[3] >= 2

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_zero_image_denoises_to_zeros_without_warnings(
        self, tmp_path, monkeypatch, theta, lanes
    ):
        save_checkpoint(tmp_path / "c.json", theta, PipelineConfig())
        save_image(GrayImage(np.zeros((64, 128))), tmp_path / "z.pgm")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            denoise_in_lanes(monkeypatch, lanes, [
                "denoise", str(tmp_path / "z.pgm"), "--checkpoint", str(tmp_path / "c.json"),
                "--out", str(tmp_path / "o"),
            ])
        assert not load_image(tmp_path / "o" / "z_denoised.pgm").pixels.any()
