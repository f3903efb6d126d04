"""Generalized bilateral filter construction and symmetric normalization.

The smoothing operator is assembled in three steps. Per-pixel feature
vectors (grid coordinates, intensity, intensity gradients) are extracted
from the noisy patch; pairwise weights

    b_ij = exp(-(f_i - f_j)^T C^T C (f_i - f_j))

are evaluated for pixel pairs within a Chebyshev window; and the weight
matrix B is normalized as Psi = S^{-1/2} B S^{-1/2} with S the diagonal of
row sums. The symmetric normalization keeps the operator symmetric and
non-expansive (spectral radius <= 1, by similarity to the row-stochastic
S^{-1} B), at the cost of rows no longer summing exactly to one.

The metric is parameterized through its factor C so that M = C^T C is
positive semi-definite for any real C, which keeps later optimization of
the metric unconstrained.
"""
from __future__ import annotations

import logging
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


@dataclass(frozen=True, eq=False)
class FeatureField:
    """Per-pixel feature vectors for one square patch.

    Feature order is (x coordinate, y coordinate, intensity, horizontal
    gradient, vertical gradient), with x running along columns and y along
    rows of the row-major patch. Coordinates are raw pixel units; any
    rescaling lives in the metric.
    """

    patch_side: int
    feature_dim: int
    features: np.ndarray  # (patch_side**2, feature_dim)

    def __post_init__(self):
        n = self.patch_side * self.patch_side
        if self.patch_side < 1:
            raise InvalidInputError("patch_side must be positive")
        if self.features.shape != (n, self.feature_dim):
            raise InvalidInputError(
                f"features must have shape {(n, self.feature_dim)}, "
                f"got {self.features.shape}"
            )
        intensity = self.features[:, 2]
        if intensity.min() < 0.0 or intensity.max() > 1.0:
            raise InvalidInputError("intensity features must lie in [0, 1]")
        coords = self.features[:, :2]
        if np.any(coords != np.rint(coords)) or coords.min() < 0 or coords.max() >= self.patch_side:
            raise InvalidInputError("coordinate features must be integers in [0, patch_side)")


@dataclass(frozen=True, eq=False)
class MetricFactor:
    """Factor C of the PSD metric M = C^T C used in the filter weights."""

    dim: int
    entries: np.ndarray  # (dim, dim), lower-triangular by convention

    def __post_init__(self):
        if self.entries.shape != (self.dim, self.dim):
            raise InvalidInputError(f"metric factor must be {self.dim}x{self.dim}")

    def metric(self) -> np.ndarray:
        """The induced metric M = C^T C (symmetric PSD by construction)."""
        return self.entries.T @ self.entries

    def lower_triangle(self) -> np.ndarray:
        """Row-major lower-triangular entries (the free parameters)."""
        return self.entries[np.tril_indices(self.dim)].copy()

    @classmethod
    def from_lower_triangle(cls, values, dim: int) -> "MetricFactor":
        values = np.asarray(values, dtype=float)
        idx = np.tril_indices(dim)
        if values.shape != idx[0].shape:
            raise InvalidInputError(
                f"expected {idx[0].size} lower-triangular entries, got {values.size}"
            )
        entries = np.zeros((dim, dim))
        entries[idx] = values
        return cls(dim=dim, entries=entries)

    @classmethod
    def diagonal(cls, values) -> "MetricFactor":
        values = np.asarray(values, dtype=float)
        return cls(dim=values.size, entries=np.diag(values))

    @classmethod
    def bilateral_default(
        cls,
        sigma_spatial: float = DEFAULT_SIGMA_SPATIAL,
        sigma_intensity: float = DEFAULT_SIGMA_INTENSITY,
        gradient_scale: float = DEFAULT_GRADIENT_SCALE,
    ) -> "MetricFactor":
        """C = diag(1/sigma_l, 1/sigma_l, 1/sigma_x, eps_g, eps_g).

        With a zero gradient_scale this reproduces the classic bilateral
        weight exp(-|dl|^2/sigma_l^2) * exp(-|dx|^2/sigma_x^2) exactly.
        """
        return cls.diagonal(
            [
                1.0 / sigma_spatial,
                1.0 / sigma_spatial,
                1.0 / sigma_intensity,
                gradient_scale,
                gradient_scale,
            ]
        )


@dataclass(eq=False)
class SparseFilterMatrix:
    """Symmetric positive filter weights on a Chebyshev-window grid graph.

    Entries are stored in COO form over all ordered pairs (both (i, j) and
    (j, i), plus the unit diagonal).
    """

    n: int
    window_radius: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    @property
    def nnz(self) -> int:
        return self.rows.size

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        dense[self.rows, self.cols] = self.weights
        return dense

    def validate(self) -> None:
        """Check the symmetry / diagonal / range invariants (test hook)."""
        if np.any(self.weights <= 0.0) or np.any(self.weights > 1.0):
            raise InvalidInputError("filter weights must lie in (0, 1]")
        diag = self.rows == self.cols
        if not np.array_equal(np.sort(self.rows[diag]), np.arange(self.n)):
            raise InvalidInputError("every node needs exactly one diagonal entry")
        if np.any(self.weights[diag] != 1.0):
            raise InvalidInputError("diagonal entries must equal 1 exactly")
        dense = self.to_dense()
        if not np.array_equal(dense, dense.T):
            raise InvalidInputError("filter matrix must be exactly symmetric")

    @classmethod
    def from_dense(cls, dense: np.ndarray, window_radius: int = 0) -> "SparseFilterMatrix":
        """Wrap a dense symmetric matrix (hand-built fixtures, oracles)."""
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise InvalidInputError("dense filter matrix must be square")
        if not np.array_equal(dense, dense.T):
            raise InvalidInputError("dense filter matrix must be symmetric")
        rows, cols = np.nonzero(dense)
        return cls(
            n=dense.shape[0],
            window_radius=window_radius,
            rows=rows,
            cols=cols,
            weights=dense[rows, cols].astype(float),
        )


@dataclass(eq=False)
class DenoiserOperator:
    """Sparse symmetric normalized smoother Psi with matrix-free apply."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    row_sums: np.ndarray | None = None
    _matrix: sparse.csr_array = field(init=False, repr=False)

    def __post_init__(self):
        self._matrix = sparse.csr_array(
            (self.values, (self.rows, self.cols)), shape=(self.n, self.n)
        )

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise InvalidInputError(f"expected a vector of length {self.n}, got shape {v.shape}")
        return self._matrix @ v

    def to_dense(self) -> np.ndarray:
        return self._matrix.toarray()

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "DenoiserOperator":
        """Wrap a dense symmetric matrix (synthetic spectra in tests)."""
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise InvalidInputError("operator matrix must be square")
        if np.max(np.abs(dense - dense.T), initial=0.0) > 1e-12:
            raise InvalidInputError("operator matrix must be symmetric")
        rows, cols = np.nonzero(dense)
        return cls(n=dense.shape[0], rows=rows, cols=cols, values=dense[rows, cols].astype(float))


def central_gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal/vertical gradients: central differences, one-sided at borders.

    Works on any 2D array; returns (gx, gy) with gx differencing along
    columns (x) and gy along rows (y). Arrays with a singleton dimension get
    zero gradient along it.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise InvalidInputError(f"expected a 2D array, got shape {img.shape}")
    h, w = img.shape
    gx = np.zeros((h, w))
    gy = np.zeros((h, w))
    if w >= 2:
        gx[:, 1:-1] = 0.5 * (img[:, 2:] - img[:, :-2])
        gx[:, 0] = img[:, 1] - img[:, 0]
        gx[:, -1] = img[:, -1] - img[:, -2]
    if h >= 2:
        gy[1:-1, :] = 0.5 * (img[2:, :] - img[:-2, :])
        gy[0, :] = img[1, :] - img[0, :]
        gy[-1, :] = img[-1, :] - img[-2, :]
    return gx, gy


def extract_features(noisy_patch: np.ndarray, patch_side: int) -> FeatureField:
    """Per-pixel 5-vectors (x, y, intensity, grad_x, grad_y) from a noisy patch.

    Features are always computed from the noisy input: the filter is
    pseudo-linear, i.e. its weights are a function of the observation and
    are held fixed when the operator is applied or differentiated.
    """
    patch = np.asarray(noisy_patch, dtype=float).ravel()
    if patch_side < 1 or patch.size != patch_side * patch_side:
        raise InvalidInputError(
            f"patch length {patch.size} is not patch_side**2 = {patch_side * patch_side}"
        )
    if patch.size and (patch.min() < 0.0 or patch.max() > 1.0):
        raise InvalidInputError("patch intensities must lie in [0, 1]")
    img = patch.reshape(patch_side, patch_side)
    gx, gy = central_gradients(img)
    grid_y, grid_x = np.indices((patch_side, patch_side))
    features = np.stack(
        [
            grid_x.ravel().astype(float),
            grid_y.ravel().astype(float),
            patch,
            gx.ravel(),
            gy.ravel(),
        ],
        axis=1,
    )
    return FeatureField(patch_side=patch_side, feature_dim=FEATURE_DIM, features=features)


def filter_weight(f_i: np.ndarray, f_j: np.ndarray, metric: MetricFactor) -> float:
    """exp(-||C (f_i - f_j)||^2); equals 1 iff C(f_i - f_j) = 0."""
    f_i = np.asarray(f_i, dtype=float)
    f_j = np.asarray(f_j, dtype=float)
    if f_i.shape != (metric.dim,) or f_j.shape != (metric.dim,):
        raise InvalidInputError(
            f"feature vectors must have length {metric.dim}, got {f_i.shape} and {f_j.shape}"
        )
    scaled = metric.entries @ (f_i - f_j)
    return float(np.exp(-(scaled @ scaled)))


def window_blocks(side: int, radius: int):
    """The grid blocks of build_filter_matrix's half-window edges, in COO order.

    Yields (dr, dc, block_i, block_j) for every offset of half the Chebyshev
    window whose block is nonempty on a side x side grid. block_i and
    block_j are (row slice, column slice) pairs; pixel (r, c) of block_i is
    joined to pixel (r + dr, c + dc), the same position of block_j.
    """
    # fixed order; the mirrored half follows it, so each unordered pair is computed once
    for dr in range(0, radius + 1):
        for dc in range(-radius, radius + 1):
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
    field_: FeatureField, metric: MetricFactor, window_radius: int
) -> SparseFilterMatrix:
    """Evaluate filter weights for all grid pairs within the Chebyshev window.

    Each unordered pair is evaluated once and mirrored, so the stored matrix
    is exactly symmetric; the diagonal is exactly 1.
    """
    if window_radius < 1:
        raise InvalidInputError("window_radius must be >= 1")
    if metric.dim != field_.feature_dim:
        raise InvalidInputError(
            f"metric dimension {metric.dim} != feature dimension {field_.feature_dim}"
        )
    side = field_.patch_side
    n = side * side
    feats = field_.features
    idx = np.arange(n).reshape(side, side)

    rows_parts = [np.arange(n)]
    cols_parts = [np.arange(n)]
    weight_parts = [np.ones(n)]
    for _, _, block_i, block_j in window_blocks(side, window_radius):
        i_block = idx[block_i].ravel()
        j_block = idx[block_j].ravel()
        d = feats[i_block] - feats[j_block]
        scaled = d @ metric.entries.T
        w = np.exp(-np.einsum("ij,ij->i", scaled, scaled))
        rows_parts.append(i_block)
        cols_parts.append(j_block)
        weight_parts.append(w)

    # the mirrored half, (j, i) for every (i, j) above, follows in the same order
    return SparseFilterMatrix(
        n=n,
        window_radius=window_radius,
        rows=np.concatenate(rows_parts + cols_parts[1:]),
        cols=np.concatenate(cols_parts + rows_parts[1:]),
        weights=np.concatenate(weight_parts + weight_parts[1:]),
    )


def normalize(filt: SparseFilterMatrix, diagonal_load: float = 0.0) -> DenoiserOperator:
    """Psi = S^{-1/2} B S^{-1/2} with S_ii the row sums of B.

    diagonal_load epsilon replaces Psi by (1 - eps) Psi + eps I, a convex
    shift toward the identity for patches whose spectrum dips below zero.
    The default 0 leaves Psi untouched.
    """
    row_sums = np.bincount(filt.rows, weights=filt.weights, minlength=filt.n)
    if np.any(row_sums <= 0.0):
        raise DegenerateMatrixError("filter matrix has a non-positive row sum")
    inv_sqrt = 1.0 / np.sqrt(row_sums)
    # (inv_sqrt[i] * inv_sqrt[j]) is commutative, so mirrored entries stay
    # bitwise equal and Psi is exactly symmetric.
    values = filt.weights * (inv_sqrt[filt.rows] * inv_sqrt[filt.cols])
    if diagonal_load != 0.0:
        if not 0.0 <= diagonal_load < 1.0:
            raise InvalidInputError("diagonal_load must lie in [0, 1)")
        values = (1.0 - diagonal_load) * values
        values = values + diagonal_load * (filt.rows == filt.cols)
    return DenoiserOperator(
        n=filt.n, rows=filt.rows, cols=filt.cols, values=values, row_sums=row_sums
    )


def estimate_spectrum(
    op: DenoiserOperator, iterations: int, seed: int = 0
) -> tuple[float, float]:
    """Power-iteration estimates of the extremal eigenvalues of Psi.

    The maximum comes from plain power iteration (the positive weights make
    the dominant eigenvalue positive); the minimum from power iteration on
    the shifted operator lambda_max * I - Psi. Estimates carry no exactness
    guarantee; they converge at the usual eigengap-dependent rate. A
    non-positive minimum estimate is logged as a positive-definiteness
    violation.
    """
    if iterations < 1:
        raise InvalidInputError("iterations must be >= 1")
    n = op.n
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(iterations):
        w = op.apply(v)
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            break
        v = w / norm
    lam_max = float(v @ op.apply(v))

    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    for _ in range(iterations):
        w = lam_max * u - op.apply(u)
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            break
        u = w / norm
    gap = float(u @ (lam_max * u - op.apply(u)))
    lam_min = lam_max - gap
    if lam_min <= 0.0:
        logger.warning(
            "operator is not positive definite: lambda_min estimate %.3e", lam_min
        )
    return lam_min, lam_max
