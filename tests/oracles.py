"""Independent brute-force oracles: slow, loop-based, dense on purpose.

Everything here recomputes quantities by a different route than the
production code (explicit stencils, per-pair weights, dense matrices,
matrix powers, direct solves, finite differences), so agreement is
meaningful. The package exports only what the pipeline and scripts use;
the helpers that only tests need live here too: the batch loss and its
finite-difference gradient, a dense-matrix smoother for synthetic
spectra, and the one-pass form of EdgeOuterSum.
"""
import numpy as np
from scipy import sparse

from graphdenoise import (
    FEATURE_DIM,
    DenoiserOperator,
    EdgeOuterSum,
    FeatureField,
    InvalidInputError,
    MetricFactor,
    NumericDivergenceError,
    ParamVector,
    PipelineConfig,
    forward,
)


def stencil_gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise central/one-sided differences via explicit loops."""
    h, w = img.shape
    gx = np.zeros((h, w))
    gy = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            if w >= 2:
                if c == 0:
                    gx[r, c] = img[r, 1] - img[r, 0]
                elif c == w - 1:
                    gx[r, c] = img[r, w - 1] - img[r, w - 2]
                else:
                    gx[r, c] = (img[r, c + 1] - img[r, c - 1]) / 2.0
            if h >= 2:
                if r == 0:
                    gy[r, c] = img[1, c] - img[0, c]
                elif r == h - 1:
                    gy[r, c] = img[h - 1, c] - img[h - 2, c]
                else:
                    gy[r, c] = (img[r + 1, c] - img[r - 1, c]) / 2.0
    return gx, gy


def filter_weight(f_i: np.ndarray, f_j: np.ndarray, metric: MetricFactor) -> float:
    """exp(-||C (f_i - f_j)||^2) for one pair; equals 1 iff C(f_i - f_j) = 0."""
    f_i = np.asarray(f_i, dtype=float)
    f_j = np.asarray(f_j, dtype=float)
    if f_i.shape != (FEATURE_DIM,) or f_j.shape != (FEATURE_DIM,):
        raise InvalidInputError(
            f"feature vectors must have length {FEATURE_DIM}, got {f_i.shape} and {f_j.shape}"
        )
    scaled = metric.entries @ (f_i - f_j)
    return float(np.exp(-(scaled @ scaled)))


def dense_filter_matrix(field: FeatureField, metric: MetricFactor, radius: int) -> np.ndarray:
    """Dense weight matrix: every pair checked against the Chebyshev window."""
    side = field.patch_side
    n = side * side
    dense = np.zeros((n, n))
    for i in range(n):
        ri, ci = divmod(i, side)
        for j in range(n):
            rj, cj = divmod(j, side)
            if max(abs(ri - rj), abs(ci - cj)) <= radius:
                dense[i, j] = filter_weight(field.features[i], field.features[j], metric)
    return dense


def dense_normalize(dense_b: np.ndarray) -> np.ndarray:
    s = dense_b.sum(axis=1)
    inv_sqrt = np.diag(1.0 / np.sqrt(s))
    return inv_sqrt @ dense_b @ inv_sqrt


def dense_truncated_inverse_matrix(
    psi_dense: np.ndarray, degree_K: int, s: float, coeffs: np.ndarray
) -> np.ndarray:
    """sum_k a_k / s^{k+1} (Psi - s I)^k accumulated from explicit powers."""
    n = psi_dense.shape[0]
    shifted = psi_dense - s * np.eye(n)
    result = np.zeros((n, n))
    term = np.eye(n)
    for k in range(degree_K + 1):
        result += coeffs[k] / s ** (k + 1) * term
        term = term @ shifted
    return result


def random_spd(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Symmetric matrix with eigenvalues drawn uniformly from [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(lo, hi, n)
    a = (q * lam) @ q.T
    return (a + a.T) / 2.0


def operator_from_dense(dense: np.ndarray) -> DenoiserOperator:
    """A smoother whose Psi is the given dense symmetric matrix."""
    dense = np.asarray(dense, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise InvalidInputError("operator matrix must be square")
    if np.max(np.abs(dense - dense.T), initial=0.0) > 1e-12:
        raise InvalidInputError("operator matrix must be symmetric")
    return DenoiserOperator(n=dense.shape[0], _matrix=sparse.csr_array(dense))


def operator_with_spectrum(
    rng: np.random.Generator, n: int, lo: float, hi: float
) -> DenoiserOperator:
    return operator_from_dense(random_spd(rng, n, lo, hi))


def random_patch(seed: int, side: int) -> np.ndarray:
    return np.random.default_rng(seed).random(side * side)


def loss(theta: ParamVector, batch, patch_side: int, hyper: PipelineConfig = PipelineConfig()) -> float:
    """Summed squared error of forward over (noisy, clean) pairs (sum, not mean)."""
    batch = list(batch)
    if not batch:
        raise InvalidInputError("batch must be nonempty")
    total = 0.0
    for noisy, clean in batch:
        d = np.asarray(clean, dtype=float) - forward(theta, noisy, patch_side, hyper)
        total += float(d @ d)
    return total


def central_difference(fn, theta0: np.ndarray, h_rel: float = 1e-5) -> np.ndarray:
    """Central finite differences with per-coordinate step h*max(|x_i|, 1)."""
    if h_rel <= 0.0:
        raise InvalidInputError("finite-difference step must be positive")
    theta0 = np.asarray(theta0, dtype=float)
    g = np.zeros_like(theta0)
    for i in range(theta0.size):
        h = h_rel * max(abs(theta0[i]), 1.0)
        plus = theta0.copy()
        plus[i] += h
        minus = theta0.copy()
        minus[i] -= h
        f_plus = fn(plus)
        f_minus = fn(minus)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericDivergenceError(f"non-finite loss while differencing parameter {i}")
        g[i] = (f_plus - f_minus) / (2.0 * h)
    return g


def grad_fd(
    theta: ParamVector,
    batch,
    patch_side: int,
    hyper: PipelineConfig = PipelineConfig(),
    h: float = 1e-5,
) -> ParamVector:
    """Finite-difference gradient of loss (2 * n_params forward passes)."""
    batch = list(batch)

    def fn(flat):
        return loss(ParamVector.unpack(flat, hyper.degree_K, hyper.depth_T), batch, patch_side, hyper)

    g = central_difference(fn, theta.pack(), h)
    return ParamVector.unpack(g, hyper.degree_K, hyper.depth_T)


def edge_outer_sum(g_stack: np.ndarray, t_stack: np.ndarray, side: int, radius: int):
    """EdgeOuterSum.planes() after one fold of all the terms at once."""
    sums = EdgeOuterSum(side, radius, len(g_stack))
    sums.g_terms[:] = g_stack
    t = np.empty((len(t_stack) + 1, side * side))
    t[1:] = t_stack
    sums.fold(t)
    return sums.planes()
