import json
import re

import pytest

from graphdenoise import GrayImage, load_image, psnr, save_image, synthesize_image
from graphdenoise.cli import main
from graphdenoise.config import build_config, parse_config_file
from graphdenoise.errors import CliUsageError
from graphdenoise.train import ParamVector, PipelineConfig, save_checkpoint

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

    def test_bad_cg_mode_rejected(self):
        with pytest.raises(CliUsageError):
            build_config(None, {"cg_mode": "psychic"})

    def test_feature_dim_is_not_a_config_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("feature_dim = 5\n")
        with pytest.raises(CliUsageError, match="unknown config key"):
            parse_config_file(cfg_file)
