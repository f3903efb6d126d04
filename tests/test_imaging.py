import importlib.util
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdenoise import (
    GrayImage,
    ImageFormatError,
    InvalidInputError,
    add_awgn,
    load_image,
    partition,
    psnr,
    reassemble,
    save_image,
    synthesize_image,
)
from oracles import loop_partition, loop_reassemble


def random_image(seed, width, height):
    pixels = np.random.default_rng(seed).random((height, width))
    return GrayImage(pixels)


class TestPgmRoundTrip:
    def test_quantization_bound(self, tmp_path):
        img = random_image(0, 37, 23)
        path = tmp_path / "img.pgm"
        save_image(img, path)
        loaded = load_image(path)
        assert loaded.width == 37 and loaded.height == 23
        assert np.max(np.abs(loaded.pixels - img.pixels)) <= 0.5 / 255

    def test_quantized_image_round_trips_exactly(self, tmp_path):
        img = synthesize_image(24, 16, seed=1)  # already on the 8-bit grid
        path = tmp_path / "img.pgm"
        save_image(img, path)
        assert np.array_equal(load_image(path).pixels, img.pixels)

    def test_pure_white(self, tmp_path):
        img = GrayImage(np.ones((3, 4)))
        path = tmp_path / "white.pgm"
        save_image(img, path)
        assert np.all(load_image(path).pixels == 1.0)

    def test_header_comments_and_whitespace(self, tmp_path):
        raster = bytes(range(6))
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5 # magic\n# a comment line\n 3\t2 # dims\n255\n" + raster)
        img = load_image(path)
        assert img.width == 3 and img.height == 2
        assert np.array_equal(img.pixels, np.arange(6).reshape(2, 3) / 255.0)

    def test_ppm_reduces_to_luma(self, tmp_path):
        # one pure-red pixel: luma weight 0.299
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img = load_image(path)
        assert img.pixels[0, 0] == pytest.approx(0.299, abs=1e-12)

    def test_pgm_scales_by_its_maxval(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 1\n15\n" + bytes([0, 5, 10, 15]))
        assert np.array_equal(load_image(path).pixels, np.array([[0, 5, 10, 15]]) / 15.0)

    def test_ppm_scales_by_its_maxval(self, tmp_path):
        # a gray pixel at half of maxval 100 is luma 0.5
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 1\n100\n" + bytes([50, 50, 50, 100, 0, 0]))
        img = load_image(path)
        assert img.pixels[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert img.pixels[0, 1] == pytest.approx(0.299, abs=1e-15)

    @pytest.mark.parametrize(
        "name, data",
        [
            ("img.pgm", b"P5\n2 1\n15\n" + bytes([15, 200])),
            ("img.ppm", b"P6\n1 1\n100\n" + bytes([0, 101, 0])),
        ],
        ids=["pgm", "ppm"],
    )
    def test_sample_above_maxval_rejected(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ImageFormatError, match="sample above maxval"):
            load_image(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ImageFormatError):
            load_image(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + bytes(2))
        with pytest.raises(ImageFormatError):
            load_image(path)

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P3\n1 1\n255\n0")
        with pytest.raises(ImageFormatError):
            load_image(path)

    def test_unsupported_suffix_rejected(self, tmp_path):
        path = tmp_path / "img.tiff"
        path.write_bytes(b"II*\x00")
        with pytest.raises(ImageFormatError):
            load_image(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ImageFormatError):
            load_image(tmp_path / "nope.pgm")

    @pytest.mark.skipif(importlib.util.find_spec("PIL") is not None, reason="pillow reads PNG")
    def test_png_without_pillow_names_pillow(self, tmp_path):
        path = tmp_path / "x.png"
        path.write_bytes(b"\x89PNG\r\n\x1a\n")
        with pytest.raises(ImageFormatError, match="pillow"):
            load_image(path)


class TestAddAwgn:
    def test_zero_sigma_is_identity(self):
        img = random_image(1, 16, 16)
        noisy = add_awgn(img, 0.0, seed=3)
        assert np.array_equal(noisy.pixels, img.pixels)

    def test_empirical_std_matches_sigma(self):
        # mid-gray content: clipping never activates at sigma = 10
        img = GrayImage(np.full((512, 512), 0.5))
        noisy = add_awgn(img, 10.0, seed=4)
        measured = float(np.std(noisy.pixels - img.pixels))
        assert measured == pytest.approx(10.0 / 255.0, rel=0.02)

    def test_same_seed_bitwise_identical(self):
        img = random_image(2, 32, 32)
        a = add_awgn(img, 15.0, seed=9)
        b = add_awgn(img, 15.0, seed=9)
        assert np.array_equal(a.pixels, b.pixels)

    def test_distinct_seeds_near_zero_mean_difference(self):
        img = GrayImage(np.full((512, 512), 0.5))
        a = add_awgn(img, 10.0, seed=10)
        b = add_awgn(img, 10.0, seed=11)
        assert abs(float(np.mean(a.pixels - b.pixels))) < 1e-3

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(InvalidInputError, match="noise sigma must be finite"):
            add_awgn(random_image(3, 8, 8), sigma, seed=0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidInputError):
            add_awgn(random_image(3, 8, 8), -1.0, seed=0)

    def test_output_stays_in_range(self):
        img = random_image(4, 64, 64)
        noisy = add_awgn(img, 50.0, seed=12)
        assert noisy.pixels.min() >= 0.0 and noisy.pixels.max() <= 1.0


class TestPartitionReassemble:
    def test_single_patch(self):
        img = random_image(5, 64, 64)
        grid = partition(img, 64)
        assert grid.patches.shape == (1, 64 * 64)

    def test_crop_counts(self):
        img = random_image(6, 100, 70)
        grid = partition(img, 32)
        assert grid.patches.shape[0] == 6  # 3 across, 2 down
        assert (grid.grid_width, grid.grid_height) == (96, 64)

    def test_round_trip_exact(self):
        img = random_image(7, 40, 24)
        grid = partition(img, 8)
        back = reassemble(grid)
        assert np.array_equal(back.pixels, img.pixels[:24, :40])

    def test_round_trip_with_crop(self):
        img = random_image(8, 37, 29)
        grid = partition(img, 8)
        back = reassemble(grid)
        assert np.array_equal(back.pixels, img.pixels[:24, :32])

    def test_patch_side_below_two_rejected(self):
        with pytest.raises(InvalidInputError):
            partition(random_image(9, 8, 8), 1)

    def test_image_smaller_than_patch_rejected(self):
        with pytest.raises(InvalidInputError):
            partition(random_image(10, 8, 8), 16)

    @given(st.integers(2, 9), st.integers(10, 40), st.integers(10, 40))
    @settings(max_examples=20)
    def test_round_trip_property(self, side, width, height):
        if width < side or height < side:
            return
        img = random_image(11, width, height)
        back = reassemble(partition(img, side))
        gh = (height // side) * side
        gw = (width // side) * side
        assert np.array_equal(back.pixels, img.pixels[:gh, :gw])

    @given(st.integers(1, 200), st.integers(1, 200), st.integers(2, 64))
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    def test_reshapes_match_the_per_patch_loops(self, width, height, side):
        img = random_image(width * 1000 + height, width, height)
        if width < side or height < side:
            with pytest.raises(InvalidInputError) as info:
                partition(img, side)
            assert str(info.value) == (
                f"image {width}x{height} is smaller than one {side}x{side} patch"
            )
            return
        grid = partition(img, side)
        expected = loop_partition(img.pixels, side)
        assert grid.patches.shape == expected.shape and grid.patches.tobytes() == expected.tobytes()
        gh, gw = (height // side) * side, (width // side) * side
        assert (grid.grid_height, grid.grid_width) == (gh, gw)
        back = reassemble(grid).pixels
        assert np.array_equal(back, loop_reassemble(expected, side, width // side))
        assert back.tobytes() == img.pixels[:gh, :gw].tobytes()


class TestPsnr:
    def test_identical_images_give_inf(self):
        img = random_image(12, 16, 16)
        other = GrayImage(img.pixels.copy())
        assert psnr(img, other) == float("inf")

    def test_uniform_difference_closed_form(self):
        base = GrayImage(np.full((10, 10), 0.4))
        shifted = GrayImage(np.full((10, 10), 0.4 + 10.0 / 255.0))
        expected = 10.0 * math.log10(255.0**2 / 100.0)
        assert psnr(base, shifted) == pytest.approx(expected, abs=1e-9)

    def test_awgn_psnr_near_sigma_prediction(self):
        img = GrayImage(np.full((512, 512), 0.5))
        noisy = add_awgn(img, 10.0, seed=13)
        expected = 10.0 * math.log10(255.0**2 / 100.0)
        assert psnr(img, noisy) == pytest.approx(expected, abs=0.1)

    def test_symmetry(self):
        a = random_image(14, 12, 12)
        b = random_image(15, 12, 12)
        assert psnr(a, b) == psnr(b, a)

    def test_strictly_decreasing_with_noise_level(self):
        img = synthesize_image(64, 64, seed=16)
        means = []
        for sigma in (5.0, 10.0, 20.0, 40.0):
            vals = [psnr(img, add_awgn(img, sigma, seed=s)) for s in range(3)]
            means.append(np.mean(vals))
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            psnr(random_image(17, 8, 8), random_image(18, 9, 8))


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_image(32, 24, seed=5)
        b = synthesize_image(32, 24, seed=5)
        assert np.array_equal(a.pixels, b.pixels)

    def test_range_and_quantization(self):
        img = synthesize_image(48, 48, seed=6)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0
        scaled = img.pixels * 255.0
        assert np.max(np.abs(scaled - np.rint(scaled))) < 1e-9

    def test_has_structure(self):
        img = synthesize_image(64, 64, seed=7)
        assert float(np.std(img.pixels)) > 0.05


class TestGrayImage:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            GrayImage(np.array([[0.0, 0.5], [1.2, 0.1]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_non_finite_pixel(self, bad):
        with pytest.raises(InvalidInputError, match=r"must lie in \[0, 1\]"):
            GrayImage(np.array([[0.0, 0.5], [bad, 0.1]]))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4,), (2, 2, 1)])
    def test_rejects_empty_or_non_2d_pixels(self, shape):
        with pytest.raises(InvalidInputError, match="nonempty 2-D"):
            GrayImage(np.zeros(shape))

    def test_size_is_the_pixel_array_shape(self):
        img = GrayImage(np.zeros((3, 5)))
        assert (img.width, img.height) == (5, 3)
