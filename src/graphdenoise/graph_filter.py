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

Every edge joins a pixel to one of the window's grid offsets, so B is
stored as one weight plane per half-window offset (window_blocks), each
unordered pair once, with the unit diagonal implied; its row sums are
computed once, with the planes. normalize writes Psi's values straight
into the data array of a CSR matrix, the format of its matvec. The CSR
pattern of a grid (side, radius), its row pointers, column indices and the
data positions of every plane's entries, is computed once and cached;
every operator on that grid shares its read-only index arrays, and a
weight whose exp underflows is stored as an explicit 0.

The metric is parameterized through its factor C so that M = C^T C is
positive semi-definite for any real C, which keeps later optimization of
the metric unconstrained.
"""
from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

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
    """Symmetric positive filter weights on a Chebyshev-window grid graph.

    planes[k] holds the weights of the k-th block of window_blocks(side,
    window_radius): entry (r, c) joins pixel (r, c) of block_i to the same
    position of block_j. The mirror B_ji = B_ij and the unit diagonal are
    implied, so each unordered pair is stored once.

    row_sums, computed once here for normalize and the gradient, holds B's
    (side, side) row sums S: each starts at the unit diagonal and adds its
    pixel's weights in plane order, first where it is block_i, then block_j.
    """

    side: int
    window_radius: int
    planes: list[np.ndarray]
    row_sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shapes = [(ri.stop - ri.start, ci.stop - ci.start) for _, _, (ri, ci), _ in self.blocks()]
        if [np.shape(plane) for plane in self.planes] != shapes:
            raise InvalidInputError(f"weight planes must have the window block shapes {shapes}")
        self.row_sums = np.ones((self.side, self.side))
        for (_, _, block_i, _), plane in zip(self.blocks(), self.planes):
            self.row_sums[block_i] += plane
        for (_, _, _, block_j), plane in zip(self.blocks(), self.planes):
            self.row_sums[block_j] += plane

    @property
    def n(self) -> int:
        return self.side * self.side

    @property
    def nnz(self) -> int:
        """Stored entries of B as a sparse matrix: the diagonal and both halves."""
        return self.n + 2 * sum(plane.size for plane in self.planes)

    def blocks(self):
        return window_blocks(self.side, self.window_radius)

    def to_dense(self) -> np.ndarray:
        dense = np.eye(self.n)
        idx = np.arange(self.n).reshape(self.side, self.side)
        for (_, _, block_i, block_j), plane in zip(self.blocks(), self.planes):
            dense[idx[block_i], idx[block_j]] = plane
            dense[idx[block_j], idx[block_i]] = plane
        return dense


@dataclass(eq=False)
class DenoiserOperator:
    """Sparse symmetric normalized smoother Psi with matrix-free apply.

    Psi is held as a scipy CSR matrix with sorted column indices. Its
    index arrays are its grid's cached, read-only pattern (_CsrLayout),
    with every window pair stored: a weight whose exp underflows is an
    explicit 0.
    """

    _matrix: sparse.csr_array = field(repr=False)

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise InvalidInputError(f"expected a vector of length {self.n}, got shape {v.shape}")
        return self._matrix @ v

    def to_dense(self) -> np.ndarray:
        return self._matrix.toarray()


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


def build_filter_matrix(
    features: np.ndarray, factor: np.ndarray, window_radius: int
) -> SparseFilterMatrix:
    """Evaluate tapered filter weights for all grid pairs within the
    Chebyshev window, from a (side, side, FEATURE_DIM) feature array
    (extract_features) and the FEATURE_DIM x FEATURE_DIM metric factor C.

    Each unordered pair is evaluated once, into the plane of its half-window
    offset, so B is exactly symmetric; its diagonal is exactly 1. Each
    plane is scaled by its offset's taper w(dr) w(dc).
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
    planes = []
    for dr, dc, block_i, block_j in window_blocks(side, window_radius):
        d = features[block_i] - features[block_j]
        scaled = d.reshape(-1, FEATURE_DIM) @ factor.T
        plane = np.exp(-np.einsum("ij,ij->i", scaled, scaled)).reshape(d.shape[:2])
        # w(dr) w(dc) with w(d) = (width - |d|) / width, dr >= 0
        plane *= (width - dr) * (width - abs(dc)) / (width * width)
        planes.append(plane)
    return SparseFilterMatrix(side=side, window_radius=window_radius, planes=planes)


@dataclass(frozen=True, eq=False)
class _CsrLayout:
    """The CSR pattern of Psi on a side x side grid with every window pair
    stored, and where normalize writes each value.

    indptr and indices are read-only and shared by every operator on the
    grid. A pixel's row lists its window's offsets sorted by column, i.e.
    by (dr, dc). diagonal holds the (side, side) data positions of the
    diagonal entries; halves[k] and mirrors[k] hold those of the k-th
    window_blocks block's entries (i, j) and (j, i), i in block_i and j in
    block_j, in the block's shape.
    """

    indptr: np.ndarray
    indices: np.ndarray
    diagonal: np.ndarray
    halves: list[np.ndarray]
    mirrors: list[np.ndarray]

    @classmethod
    def build(cls, side: int, reach: int) -> "_CsrLayout":
        # the offsets of pixel (r, c) run over rows lo[r] .. lo[r] + count[r] - 1
        # and columns lo[c] .. lo[c] + count[c] - 1, so its row has
        # count[r] * count[c] entries, (dr, dc) at (dr - lo[r]) * count[c] + dc - lo[c]
        k = np.arange(side)
        lo = np.maximum(-reach, -k)
        count = np.minimum(reach, side - 1 - k) - lo + 1
        nnz = int(count.sum()) ** 2
        index_dtype = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(side * side + 1, index_dtype)
        np.cumsum(np.multiply.outer(count, count), out=indptr[1:])
        start = indptr[:-1].reshape(side, side)

        def slots(block, dr, dc):
            rows, cols = block
            at = start[rows, cols] + (dr - lo[rows])[:, None] * count[cols] + (dc - lo[cols])
            return at.astype(index_dtype)

        pixel = np.arange(side * side, dtype=index_dtype).reshape(side, side)
        indices = np.empty(nnz, index_dtype)
        diagonal = slots((slice(None), slice(None)), 0, 0)
        indices[diagonal] = pixel
        halves, mirrors = [], []
        for dr, dc, block_i, block_j in window_blocks(side, reach):
            halves.append(slots(block_i, dr, dc))
            mirrors.append(slots(block_j, -dr, -dc))
            indices[halves[-1]] = pixel[block_j]
            indices[mirrors[-1]] = pixel[block_i]
        indptr.flags.writeable = False
        indices.flags.writeable = False
        return cls(indptr, indices, diagonal, halves, mirrors)


_LAYOUTS: dict[tuple[int, int], _CsrLayout] = {}
_LAYOUTS_LOCK = threading.Lock()


def _csr_layout(side: int, radius: int) -> _CsrLayout:
    """The cached _CsrLayout of the grid; every call with the same side and
    window reach min(radius, side - 1) returns the same object."""
    key = (side, min(radius, side - 1))
    with _LAYOUTS_LOCK:
        if key not in _LAYOUTS:
            _LAYOUTS[key] = _CsrLayout.build(*key)
        return _LAYOUTS[key]


def normalize(filt: SparseFilterMatrix) -> DenoiserOperator:
    """Psi = S^{-1/2} B S^{-1/2} with S_ii the row sums of B."""
    if np.any(filt.row_sums <= 0.0):
        raise DegenerateMatrixError("filter matrix has a non-positive row sum")
    inv_sqrt = 1.0 / np.sqrt(filt.row_sums)
    layout = _csr_layout(filt.side, filt.window_radius)
    data = np.empty(layout.indices.size)
    # the cached positions have the index dtype, half the size of intp; an
    # intp copy of a block's scatters faster than numpy's cast of the narrower
    data[layout.diagonal.astype(np.intp)] = inv_sqrt * inv_sqrt
    for (_, _, block_i, block_j), plane, half_slots, mirror_slots in zip(
        filt.blocks(), filt.planes, layout.halves, layout.mirrors
    ):
        # (inv_sqrt[i] * inv_sqrt[j]) is commutative, so one value serves
        # Psi_ij and Psi_ji, and Psi is exactly symmetric.
        half = plane * (inv_sqrt[block_i] * inv_sqrt[block_j])
        data[half_slots.astype(np.intp)] = half
        data[mirror_slots.astype(np.intp)] = half
    n = filt.n
    return DenoiserOperator(
        _matrix=sparse.csr_array((data, layout.indices, layout.indptr), shape=(n, n))
    )


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
