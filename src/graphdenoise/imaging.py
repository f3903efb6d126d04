"""Image I/O, noise synthesis, patching, reassembly and quality metrics.

Grayscale images live on [0, 1] as float64. Binary PGM (P5) is the native
format; P6 color inputs are reduced to luma with the BT.601 weights
(0.299, 0.587, 0.114). PNG reading is optional and only available when
pillow is importable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ImageFormatError, InvalidInputError

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Row-major grayscale image with pixels in [0, 1]."""

    pixels: np.ndarray  # (height, width) float64

    def __post_init__(self):
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise InvalidInputError(f"pixels must be a nonempty 2-D array, got {self.pixels.shape}")
        # NaN compares false, so the test is phrased to fail on it
        if not (self.pixels.min() >= 0.0 and self.pixels.max() <= 1.0):
            raise InvalidInputError("pixel values must lie in [0, 1]")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True, eq=False)
class PatchGrid:
    """Non-overlapping square patches tiling the cropped image exactly."""

    patch_side: int
    patches: np.ndarray  # (num_patches, patch_side**2), row-major blocks in raster order
    grid_height: int
    grid_width: int


def _parse_pnm_header(data: bytes, path) -> tuple[bytes, int, int, int, int]:
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                nl = data.find(b"\n", pos)
                pos = len(data) if nl < 0 else nl + 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
            pos += 1
        if start == pos:
            raise ImageFormatError(f"{path}: truncated PNM header")
        return data[start:pos]

    magic = next_token()
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise ImageFormatError(f"{path}: malformed PNM header") from exc
    pos += 1  # single whitespace byte separates header from raster
    return magic, width, height, maxval, pos


def _load_pnm(path) -> GrayImage:
    data = Path(path).read_bytes()
    magic, width, height, maxval, offset = _parse_pnm_header(data, path)
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"{path}: unsupported PNM magic {magic!r}")
    if width < 1 or height < 1 or not 0 < maxval <= 255:
        raise ImageFormatError(f"{path}: bad PNM dimensions or maxval")
    channels = 1 if magic == b"P5" else 3
    count = width * height * channels
    raster = data[offset : offset + count]
    if len(raster) != count:
        raise ImageFormatError(f"{path}: PNM raster is truncated")
    samples = np.frombuffer(raster, dtype=np.uint8)
    if samples.max() > maxval:
        raise ImageFormatError(f"{path}: PNM sample above maxval {maxval}")
    arr = samples.astype(float) / float(maxval)
    if channels == 1:
        pixels = arr.reshape(height, width)
    else:
        rgb = arr.reshape(height, width, 3)
        wr, wg, wb = LUMA_WEIGHTS
        pixels = wr * rgb[:, :, 0] + wg * rgb[:, :, 1] + wb * rgb[:, :, 2]
    return GrayImage(pixels)


def _load_png(path) -> GrayImage:
    try:
        from PIL import Image
    except ImportError as exc:  # PNG support is feature-flagged on pillow
        raise ImageFormatError(f"{path}: PNG reading requires pillow") from exc
    with Image.open(path) as im:
        arr = np.asarray(im.convert("RGB"), dtype=float) / 255.0
    wr, wg, wb = LUMA_WEIGHTS
    pixels = wr * arr[:, :, 0] + wg * arr[:, :, 1] + wb * arr[:, :, 2]
    return GrayImage(pixels)


def load_image(path) -> GrayImage:
    """Read a PGM/PPM (or, with pillow, PNG) file as luma on [0, 1]."""
    path = Path(path)
    if not path.exists():
        raise ImageFormatError(f"{path}: no such file")
    suffix = path.suffix.lower()
    if suffix in (".pgm", ".ppm", ".pnm"):
        return _load_pnm(path)
    if suffix == ".png":
        return _load_png(path)
    raise ImageFormatError(f"{path}: unsupported image format {suffix!r}")


def save_image(image: GrayImage, path) -> None:
    """Write binary PGM (P5, maxval 255), quantizing by round(v * 255)."""
    raster = np.rint(image.pixels * 255.0).clip(0, 255).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + raster.tobytes())


def add_awgn(image: GrayImage, sigma_8bit: float, seed: int) -> GrayImage:
    """Additive white Gaussian noise, sigma quoted on the 0..255 scale.

    Deterministic per seed; the result is clamped back to [0, 1] so it
    remains a valid intensity image.
    """
    if not 0.0 <= sigma_8bit < math.inf:
        raise InvalidInputError("noise sigma must be finite and >= 0")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma_8bit / 255.0, size=image.pixels.shape)
    pixels = np.clip(image.pixels + noise, 0.0, 1.0)
    return GrayImage(pixels)


def partition(image: GrayImage, patch_side: int) -> PatchGrid:
    """Split into non-overlapping patches, cropping excess rows/columns."""
    if patch_side < 2:
        raise InvalidInputError("patch_side must be >= 2")
    rows = image.height // patch_side
    cols = image.width // patch_side
    if rows < 1 or cols < 1:
        raise InvalidInputError(
            f"image {image.width}x{image.height} is smaller than one {patch_side}x{patch_side} patch"
        )
    gh, gw = rows * patch_side, cols * patch_side
    # axes (patch row, pixel row, patch col, pixel col), swapped to put each
    # patch's pixels last; the copy lays the patches out in raster order
    blocks = image.pixels[:gh, :gw].reshape(rows, patch_side, cols, patch_side).swapaxes(1, 2)
    return PatchGrid(
        patch_side=patch_side,
        patches=blocks.copy().reshape(rows * cols, patch_side * patch_side),
        grid_height=gh,
        grid_width=gw,
    )


def reassemble(grid: PatchGrid) -> GrayImage:
    """Inverse of partition on the cropped image (exact round trip)."""
    side = grid.patch_side
    rows, cols = grid.grid_height // side, grid.grid_width // side
    blocks = grid.patches.reshape(rows, cols, side, side).swapaxes(1, 2)
    return GrayImage(blocks.astype(float, order="C").reshape(grid.grid_height, grid.grid_width))


def psnr(reference: GrayImage, test: GrayImage) -> float:
    """10 log10(1 / MSE) on [0, 1] pixels; +inf for identical images."""
    if (reference.width, reference.height) != (test.width, test.height):
        raise InvalidInputError("PSNR requires images of identical dimensions")
    diff = reference.pixels - test.pixels
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return 10.0 * math.log10(1.0 / mse)


def synthesize_image(width: int, height: int, seed: int) -> GrayImage:
    """Deterministic piecewise-smooth test image, quantized to the 8-bit grid.

    A mix of low-frequency sinusoids, smooth bumps and one soft edge gives
    the denoiser realistic structure without any external dataset. The
    quantization makes save/load round trips exact.
    """
    if width < 1 or height < 1:
        raise InvalidInputError("image dimensions must be positive")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width]
    xn = xx / max(width, 1)
    yn = yy / max(height, 1)
    img = np.zeros((height, width))
    for _ in range(5):
        fx, fy = rng.uniform(0.5, 3.0, size=2)
        px, py = rng.uniform(0.0, 1.0, size=2)
        img += rng.uniform(0.2, 1.0) * np.sin(2 * np.pi * (fx * xn + px)) * np.sin(
            2 * np.pi * (fy * yn + py)
        )
    for _ in range(4):
        cx, cy = rng.uniform(0.1, 0.9, size=2)
        rad = rng.uniform(0.08, 0.3)
        img += rng.uniform(-1.2, 1.2) * np.exp(
            -((xn - cx) ** 2 + (yn - cy) ** 2) / (2.0 * rad**2)
        )
    nx, ny = rng.standard_normal(2)
    nn = math.hypot(nx, ny) + 1e-9
    t = ((xn - 0.5) * nx + (yn - 0.5) * ny) / nn
    img += rng.uniform(0.3, 0.8) * np.tanh(t / 0.05)
    lo, hi = img.min(), img.max()
    img = 0.05 + 0.9 * (img - lo) / max(hi - lo, 1e-12)
    img = np.rint(img * 255.0) / 255.0
    return GrayImage(img)
