"""Generalized bilateral filter construction and symmetric normalization.

The smoothing operator is assembled in three steps. Per-pixel feature
vectors (grid coordinates, intensity, intensity gradients) are extracted
from the noisy patch; pairwise weights

    b_ij = w(dr) w(dc) exp(-(f_i - f_j)^T C^T C (f_i - f_j))

are evaluated for pixel pairs (dr, dc) apart within a Chebyshev window of
radius r, under the triangle taper w(d) = 1 - |d| / (r + 1); and the weight
matrix B is normalized as Psi = S^{-1/2} B S^{-1/2} with S the diagonal of
row sums.

Psi is positive definite with its spectrum in (0, 1], for every metric C
and patch. The exponential is a Gaussian kernel on the mapped features
C f_i, so over all pixel pairs it is a positive semi-definite matrix with
unit diagonal. The taper is the autocorrelation of a box of r + 1 ones, so
its symbol (a product of two Fejer kernels) is >= 0 and the window matrix
W_ij = w(dr) w(dc) is positive definite. By the Schur product theorem B,
their entrywise product, is positive definite; Psi is congruent to B, so
it is too. It is non-expansive by similarity to the row-stochastic
S^{-1} B. (An untapered box window is not positive semi-definite, and
neither is B under it.) The symmetric normalization keeps the operator
symmetric, at the cost of rows no longer summing exactly to one.

Every edge joins a pixel to one of the window's grid offsets, and B and
Psi share one layout: diagonals indexed by the flat offset
f = dr * side + dc, the format of Psi's matvec. B keeps its positive
diagonals only (upper), each unordered pair once, with the unit diagonal
implied. The weights, B's row sums, normalize and the gradient's sums
and reverse pass (train) each loop once over these rows, on contiguous
shifted slices [:n - f] and [f:]; the taper of each pair's own coordinate
differences zeros the pairs such a slice joins across the grid's edge.
normalize writes each of Psi's diagonals once: the diagonal, then for
each positive offset f its row, and the mirror -f as the same values
shifted by f. scipy's compiled DIA kernel adds Psi's diagonals in
ascending order, which is the column order of a sorted CSR row, so the
matvec is bitwise the CSR one. The kernel is loaded without importing
scipy.sparse (_load_dia_matvec).

The metric is parameterized through its factor C so that M = C^T C is
positive semi-definite for any real C, which keeps later optimization of
the metric unconstrained.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMatrixError, InvalidInputError

logger = logging.getLogger(__name__)

FEATURE_DIM = 5

# Classic bilateral starting point: spatial / intensity scales plus a tiny
# gradient-feature contribution so those metric rows stay trainable.
DEFAULT_SIGMA_SPATIAL = 2.0
DEFAULT_SIGMA_INTENSITY = 0.1
DEFAULT_GRADIENT_SCALE = 1e-3


def bilateral_factor() -> np.ndarray:
    """C = diag(1/sigma_l, 1/sigma_l, 1/sigma_x, eps_g, eps_g) from the
    DEFAULT_* constants.

    Up to the tiny eps_g this is the classic bilateral weight
    exp(-|dl|^2/sigma_l^2) * exp(-|dx|^2/sigma_x^2).
    """
    return np.diag(
        [
            1.0 / DEFAULT_SIGMA_SPATIAL,
            1.0 / DEFAULT_SIGMA_SPATIAL,
            1.0 / DEFAULT_SIGMA_INTENSITY,
            DEFAULT_GRADIENT_SCALE,
            DEFAULT_GRADIENT_SCALE,
        ]
    )


@dataclass(eq=False)
class SparseFilterMatrix:
    """Symmetric positive filter weights on a Chebyshev-window grid graph,
    held in Psi's diagonal layout.

    upper has one row per positive diagonal of Psi (upper_offsets, flat
    offsets f = dr * side + dc in ascending order), of n entries each: row
    f holds B_{j - f, j} at column j, and 0 wherever pixel j - f is not in
    j's window. On a grid with side <= 2r two window offsets share a row, on
    disjoint pixels. The mirror B_ji = B_ij and the unit diagonal are
    implied, so each unordered pair is stored once.

    row_sums, computed once here for normalize and the gradient, holds B's
    (side, side) row sums S: 1, plus each row's weights at their pixel i
    (S[:n - f] += row[f:]) in ascending f, then at j (S += row). That adds
    each pixel's weights in window_blocks order, and exact zeros.
    """

    side: int
    window_radius: int
    upper: np.ndarray = field(repr=False)  # (len(offsets), n)
    offsets: tuple[int, ...] = field(init=False)
    row_sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.offsets = upper_offsets(self.side, self.window_radius)
        n = self.n
        if self.upper.dtype != np.float64 or self.upper.shape != (len(self.offsets), n):
            raise InvalidInputError(
                f"upper must be float64 of shape ({len(self.offsets)}, {n}): "
                "one row per positive diagonal of the window"
            )
        sums = np.ones(n)
        for f, row in zip(self.offsets, self.upper):
            sums[: n - f] += row[f:]
        for row in self.upper:
            sums += row
        self.row_sums = sums.reshape(self.side, self.side)

    @property
    def n(self) -> int:
        return self.side * self.side

    @property
    def nnz(self) -> int:
        """Stored entries of B as a sparse matrix, its in-window pairs: the
        square of a 1-D window's count, in which offset d has side - |d|."""
        reach = min(self.window_radius, self.side - 1)
        pairs = (2 * reach + 1) * self.side - reach * (reach + 1)
        return pairs * pairs

    def to_dense(self) -> np.ndarray:
        dense = np.eye(self.n)
        for f, row in zip(self.offsets, self.upper):
            cols = np.arange(f, self.n)
            dense[cols - f, cols] = row[f:]
            dense[cols, cols - f] = row[f:]
        return dense


def _load_dia_matvec():
    """scipy's compiled DIA matvec kernel, dia_matvec(n_row, n_col, n_diags,
    L, offsets, data, x, y), which adds A x into y.

    It is private scipy API, in the extension scipy.sparse._sparsetools.
    That is loaded from its file alone when no import has loaded it yet, so
    that scipy.sparse/__init__ (about 20 MB and 0.1 s of imports) never
    runs; if that fails, it is imported through scipy.sparse.
    """
    name = "scipy.sparse._sparsetools"
    module = sys.modules.get(name)
    if module is None:
        try:
            scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
            sparse_dir = os.path.join(scipy_dir, "sparse")
            spec = importlib.machinery.PathFinder.find_spec(name, [sparse_dir])
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except Exception:
            from scipy.sparse import _sparsetools as module
    return module.dia_matvec


_dia_matvec = _load_dia_matvec()


@dataclass(eq=False)
class DenoiserOperator:
    """Sparse symmetric normalized smoother Psi with matrix-free apply.

    Psi is held by diagonals, as in scipy's DIA format: data[k, j] =
    Psi_{j - offsets[k], j}, with offsets strictly ascending and data zero
    wherever that row is outside the matrix or the pair outside the
    window; a weight whose exp underflows is a 0 like those. apply runs
    scipy's compiled DIA kernel (_load_dia_matvec), which adds the
    diagonals into a zeroed output one after another, so each output
    entry sums its row in ascending column order: the order of a CSR row
    with sorted indices, whose matvec this one therefore equals bitwise
    for finite inputs.
    """

    data: np.ndarray = field(repr=False)  # (len(offsets), n)
    offsets: np.ndarray

    def __post_init__(self):
        # the kernel trusts both arrays, and the order of offsets is the
        # order of every output's sum
        if (
            self.data.ndim != 2
            or self.offsets.shape != (self.data.shape[0],)
            or np.any(np.diff(self.offsets) <= 0)
        ):
            raise InvalidInputError(
                "Psi needs one row of data per offset, offsets strictly ascending"
            )

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def apply(self, v: np.ndarray) -> np.ndarray:
        n = self.n
        v = np.asarray(v, dtype=float)
        if v.shape != (n,):
            raise InvalidInputError(f"expected a vector of length {n}, got shape {v.shape}")
        out = np.zeros(n)
        _dia_matvec(n, n, self.offsets.size, n, self.offsets, self.data, v, out)
        return out

    def to_dense(self) -> np.ndarray:
        n = self.n
        dense = np.zeros((n, n))
        for offset, values in zip(self.offsets.tolist(), self.data):
            cols = np.arange(max(offset, 0), n + min(offset, 0))
            dense[cols - offset, cols] = values[cols]
        return dense

    @functools.cached_property
    def _matrix(self):
        """Psi as a scipy CSR array, made on first use and kept. Only the
        benchmark's tracer reads it (for the bytes a matvec touches); it
        goes when the program counts those bytes itself (ROADMAP item 1a)."""
        from scipy import sparse

        n = self.n
        return sparse.dia_array((self.data, self.offsets), shape=(n, n)).tocsr()


def central_gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal/vertical gradients: central differences, one-sided at borders.

    Works on any 2D array; returns (gx, gy) with gx differencing along
    columns (x) and gy along rows (y). Arrays with a singleton dimension get
    zero gradient along it.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise InvalidInputError(f"expected a 2D array, got shape {img.shape}")
    gx = np.gradient(img, axis=1) if img.shape[1] >= 2 else np.zeros_like(img)
    gy = np.gradient(img, axis=0) if img.shape[0] >= 2 else np.zeros_like(img)
    return gx, gy


def extract_features(noisy_patch: np.ndarray, patch_side: int) -> np.ndarray:
    """Per-pixel 5-vectors (x, y, intensity, grad_x, grad_y) from a noisy
    patch, as a (patch_side, patch_side, FEATURE_DIM) array.

    x runs along columns and y along rows of the row-major patch.
    Coordinates are raw pixel units; any rescaling lives in the metric.
    Features are always computed from the noisy input: the filter is
    pseudo-linear, i.e. its weights are a function of the observation and
    are held fixed when the operator is applied or differentiated.
    """
    patch = np.asarray(noisy_patch, dtype=float).ravel()
    if patch_side < 1 or patch.size != patch_side * patch_side:
        raise InvalidInputError(
            f"patch length {patch.size} is not patch_side**2 = {patch_side * patch_side}"
        )
    # NaN compares false, so the test is phrased to fail on it
    if not (patch.min() >= 0.0 and patch.max() <= 1.0):
        raise InvalidInputError("patch intensities must lie in [0, 1]")
    img = patch.reshape(patch_side, patch_side)
    grid_y, grid_x = np.indices((patch_side, patch_side))
    return np.stack([grid_x, grid_y, img, *central_gradients(img)], axis=-1)


def window_blocks(side: int, radius: int):
    """The grid blocks of the half-window offsets, in B's plane order.

    Yields (dr, dc, block_i, block_j) for every offset of half the Chebyshev
    window whose block is nonempty on a side x side grid. block_i and
    block_j are (row slice, column slice) pairs; pixel (r, c) of block_i is
    joined to pixel (r + dr, c + dc), the same position of block_j.
    """
    # the other half of the window is the mirror (-dr, -dc) of these offsets;
    # an offset of side or more has an empty block, so the loops stop short
    reach = min(radius, side - 1)
    for dr in range(0, reach + 1):
        for dc in range(-reach, reach + 1):
            r0, r1 = max(0, -dr), side - max(0, dr)
            c0, c1 = max(0, -dc), side - max(0, dc)
            if (dr > 0 or dc > 0) and r0 < r1 and c0 < c1:
                yield (
                    dr,
                    dc,
                    (slice(r0, r1), slice(c0, c1)),
                    (slice(r0 + dr, r1 + dr), slice(c0 + dc, c1 + dc)),
                )


@functools.lru_cache(maxsize=64)
def upper_offsets(side: int, radius: int) -> tuple[int, ...]:
    """Psi's positive diagonals: the distinct flat offsets dr * side + dc of
    window_blocks, ascending. Each is at least 1, since |dc| < side."""
    return tuple(sorted({dr * side + dc for dr, dc, _, _ in window_blocks(side, radius)}))


def build_filter_matrix(
    features: np.ndarray, factor: np.ndarray, window_radius: int
) -> SparseFilterMatrix:
    """Evaluate tapered filter weights for all grid pairs within the
    Chebyshev window, from a (side, side, FEATURE_DIM) feature array
    (extract_features) and the FEATURE_DIM x FEATURE_DIM metric factor C.

    Each unordered pair (j - f, j) is evaluated once, at column j of row f
    of upper, so B is exactly symmetric; its diagonal is exactly 1. A row
    comes from shifted slices of the feature-major features: q, the squares
    of C (f_{j-f} - f_j) summed in order, then exp(-q) times the taper of
    the pair's coordinate differences, 0 for a pair across the grid's edge.
    """
    if window_radius < 1:
        raise InvalidInputError("window_radius must be >= 1")
    side = features.shape[0] if features.ndim == 3 else 0
    if side < 1 or features.shape != (side, side, FEATURE_DIM):
        raise InvalidInputError(
            f"features must have shape (side, side, {FEATURE_DIM}), got {features.shape}"
        )
    if factor.shape != (FEATURE_DIM, FEATURE_DIM):
        raise InvalidInputError(
            f"metric factor must be {FEATURE_DIM}x{FEATURE_DIM}, got shape {factor.shape}"
        )
    if not np.all(np.isfinite(factor)):
        raise InvalidInputError("metric factor entries must be finite")
    width = window_radius + 1
    n = side * side
    offsets = upper_offsets(side, window_radius)
    upper = np.zeros((len(offsets), n))
    rows = np.ascontiguousarray(features.reshape(n, FEATURE_DIM).T)
    diff, scaled = np.empty((2, FEATURE_DIM, n))
    q = np.empty(n)
    for f, row in zip(offsets, upper):
        m = n - f
        d, s, q_m = diff[:, :m], scaled[:, :m], q[:m]
        np.subtract(rows[:, :m], rows[:, f:], out=d)
        np.square(np.matmul(factor, d, out=s), out=s)
        np.negative(np.add.reduce(s, axis=0, out=q_m), out=q_m)
        # max(width - |dx|, 0) max(width - |dy|, 0) / width^2, in s's first rows
        t = np.subtract(width, np.abs(d[:2], out=s[:2]), out=s[:2])
        np.maximum(t, 0.0, out=t)
        w = np.divide(np.multiply(t[0], t[1], out=t[0]), width * width, out=t[0])
        np.multiply(np.exp(q_m, out=q_m), w, out=row[f:])
    return SparseFilterMatrix(side=side, window_radius=window_radius, upper=upper)


def normalize(filt: SparseFilterMatrix) -> DenoiserOperator:
    """Psi = S^{-1/2} B S^{-1/2} with S_ii the row sums of B. filt is not
    modified: the training gradient reads B after this."""
    if np.any(filt.row_sums <= 0.0):
        raise DegenerateMatrixError("filter matrix has a non-positive row sum")
    inv_sqrt = 1.0 / np.sqrt(filt.row_sums.ravel())
    n, half = inv_sqrt.size, len(filt.offsets)
    # Psi's diagonals: the mirrors -f descending, the diagonal, then f; each
    # entry of data is written once
    offsets = np.array([*(-f for f in reversed(filt.offsets)), 0, *filt.offsets], dtype=np.int32)
    data = np.empty((offsets.size, n))
    np.multiply(inv_sqrt, inv_sqrt, out=data[half])
    for k, (f, row) in enumerate(zip(filt.offsets, filt.upper)):
        # Psi_{j-f, j} = (inv_sqrt[j - f] * inv_sqrt[j]) * B_{j-f, j} at column
        # j of +f; the same value is Psi_{j, j-f}, at column j - f of -f, so
        # Psi is exactly symmetric
        plus, minus = data[half + 1 + k], data[half - 1 - k]
        plus[:f] = 0.0
        np.multiply(inv_sqrt[: n - f], inv_sqrt[f:], out=plus[f:])
        plus[f:] *= row[f:]
        minus[: n - f] = plus[f:]
        minus[n - f :] = 0.0
    return DenoiserOperator(data=data, offsets=offsets)


# A Lanczos step breaks down when its new direction is at most this times
# the norm of the matvec it came from: the Krylov space is then invariant
# up to round-off, whatever the scale of Psi or of the start vector.
LANCZOS_BREAKDOWN = 1e-12


def estimate_spectrum(op: DenoiserOperator, iterations: int) -> tuple[float, float]:
    """Lanczos estimates of the extremal eigenvalues of Psi.

    The estimates are the extreme Ritz values after up to `iterations`
    Lanczos steps from a random start of seed 0, which has a component along
    every eigenvector. They lie inside the spectrum and converge to its
    ends, but carry no exactness guarantee. There is no reorthogonalization
    (two basis vectors are held at a time); lost orthogonality shows as
    repeated Ritz values, not as wrong extremes. After a breakdown
    (LANCZOS_BREAKDOWN) the Ritz values are exact. A non-positive minimum
    estimate is logged as a positive-definiteness violation.
    """
    if iterations < 1:
        raise InvalidInputError(f"iterations must be >= 1, got {iterations}")
    v = np.random.default_rng(0).standard_normal(op.n)
    # scaled by its largest entry before it is normalized: these roundings
    # fix the last bits of the estimates, which inspect prints
    v /= np.max(np.abs(v))
    v /= np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    alphas, betas = [], []
    beta = 0.0
    for _ in range(iterations):
        w = op.apply(v)
        scale = np.linalg.norm(w)
        alpha = float(v @ w)
        w -= alpha * v
        w -= beta * v_prev
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        if beta <= LANCZOS_BREAKDOWN * scale:
            break
        betas.append(beta)
        v_prev, v = v, w / beta
    # the tridiagonal Lanczos matrix is at most iterations x iterations:
    # dense is cheap
    off = betas[: len(alphas) - 1]
    values, _ = np.linalg.eigh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))
    lam_min, lam_max = float(values[0]), float(values[-1])
    if lam_min <= 0.0:
        logger.warning(
            "operator is not positive definite: lambda_min estimate %.3e", lam_min
        )
    return lam_min, lam_max
