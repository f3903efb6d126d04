"""Independent brute-force oracles: slow, loop-based, dense on purpose.

Everything here recomputes quantities by a different route than the
production code (explicit stencils, per-pair weights, dense matrices,
matrix powers, direct solves, finite differences), so agreement is
meaningful. The package exports only what the pipeline and scripts use;
the helpers that only tests need live here too: per-patch partition and
reassembly loops, the batch loss and its finite-difference gradient, a
dense-matrix smoother for synthetic spectra, the compiled filter's
Chebyshev terms by eigendecomposition, the one-pass form of EdgeOuterSum,
the patch system solved by classic CG, and the gradient of the unrolled
network by dense matrices. The block forms of the weights and of their
reverse pass walk B as one strided 2-D plane per half-window offset
(window_blocks), as the package did before it moved to B's flat rows.
"""
import numpy as np

from graphdenoise import (
    FEATURE_DIM,
    CgConfig,
    DenoiserOperator,
    EdgeOuterSum,
    InvalidInputError,
    NumericDivergenceError,
    ParamVector,
    PipelineConfig,
    TaylorSystemOperator,
    build_psi,
    extract_features,
    forward,
    learned_cg_vjp,
    unrolled_cg,
    window_blocks,
)
from graphdenoise.graph_filter import upper_offsets


def loop_partition(pixels: np.ndarray, side: int) -> np.ndarray:
    """The whole side x side patches of an image, cropped at its bottom and
    right edges, each raveled row-major, in raster order: one slice a patch."""
    rows, cols = pixels.shape[0] // side, pixels.shape[1] // side
    patches = []
    for pr in range(rows):
        for pc in range(cols):
            r0, c0 = pr * side, pc * side
            patches.append(pixels[r0 : r0 + side, c0 : c0 + side].ravel())
    return np.array(patches)


def loop_reassemble(patches: np.ndarray, side: int, cols: int) -> np.ndarray:
    """Inverse of loop_partition: the patches written back one at a time."""
    out = np.zeros(((len(patches) // cols) * side, cols * side))
    for index, patch in enumerate(patches):
        r0, c0 = (index // cols) * side, (index % cols) * side
        out[r0 : r0 + side, c0 : c0 + side] = patch.reshape(side, side)
    return out


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


def filter_weight(f_i: np.ndarray, f_j: np.ndarray, factor: np.ndarray) -> float:
    """exp(-||C (f_i - f_j)||^2) for one pair; equals 1 iff C(f_i - f_j) = 0."""
    f_i = np.asarray(f_i, dtype=float)
    f_j = np.asarray(f_j, dtype=float)
    if f_i.shape != (FEATURE_DIM,) or f_j.shape != (FEATURE_DIM,):
        raise InvalidInputError(
            f"feature vectors must have length {FEATURE_DIM}, got {f_i.shape} and {f_j.shape}"
        )
    scaled = factor @ (f_i - f_j)
    return float(np.exp(-(scaled @ scaled)))


def lower_factor(values) -> np.ndarray:
    """The metric factor with the given row-major lower-triangular entries,
    zeros above them."""
    factor = np.zeros((FEATURE_DIM, FEATURE_DIM))
    factor[np.tril_indices(FEATURE_DIM)] = values
    return factor


def window_taper(dr: int, dc: int, radius: int) -> float:
    """The triangle taper (1 - |dr| / (r + 1)) (1 - |dc| / (r + 1)) of a
    pixel offset inside the Chebyshev window."""
    return (1.0 - abs(dr) / (radius + 1)) * (1.0 - abs(dc) / (radius + 1))


def dense_filter_matrix(features: np.ndarray, factor: np.ndarray, radius: int) -> np.ndarray:
    """Dense weight matrix of a (side, side, FEATURE_DIM) feature array:
    every pair checked against the Chebyshev window and its weight tapered
    by the pair's offset."""
    side = features.shape[0]
    n = side * side
    rows = features.reshape(n, FEATURE_DIM)
    dense = np.zeros((n, n))
    for i in range(n):
        ri, ci = divmod(i, side)
        for j in range(n):
            rj, cj = divmod(j, side)
            if max(abs(ri - rj), abs(ci - cj)) <= radius:
                weight = filter_weight(rows[i], rows[j], factor)
                dense[i, j] = window_taper(ri - rj, ci - cj, radius) * weight
    return dense


def block_planes(rows: np.ndarray, side: int, radius: int):
    """(dr, dc, block_i, block_j, plane) per block of window_blocks, plane
    the 2-D view of rows (an array in B's layout, SparseFilterMatrix.upper)
    whose entry (r, c) belongs to the pair of pixel (r, c) of block_i and
    the same position of block_j."""
    grids = dict(zip(upper_offsets(side, radius), rows.reshape(-1, side, side)))
    return [
        (dr, dc, block_i, block_j, grids[dr * side + dc][block_j])
        for dr, dc, block_i, block_j in window_blocks(side, radius)
    ]


def block_filter_matrix(features: np.ndarray, factor: np.ndarray, radius: int) -> np.ndarray:
    """B's rows (SparseFilterMatrix.upper) built block by block: per
    window_blocks block the difference of its strided feature views, one
    GEMM, a per-pixel einsum of the squares, exp, then the offset's taper."""
    side = features.shape[0]
    width = radius + 1
    upper = np.zeros((len(upper_offsets(side, radius)), side * side))
    for dr, dc, block_i, block_j, plane in block_planes(upper, side, radius):
        d = features[block_i] - features[block_j]
        scaled = d.reshape(-1, FEATURE_DIM) @ factor.T
        weights = np.exp(-np.einsum("ij,ij->i", scaled, scaled)).reshape(d.shape[:2])
        weights *= (width - dr) * (width - abs(dc)) / (width * width)
        plane[...] = weights
    return upper


def block_metric_adjoint(filt, features, factor, diag_bar, half_bar, mirror_bar) -> np.ndarray:
    """The metric factor's adjoint (5 x 5) from dL/dPsi in B's layout
    (EdgeOuterSum's sums), reversed block by block through the symmetric
    normalization and the weights of filt, a SparseFilterMatrix."""
    side, radius = filt.side, filt.window_radius
    blocks = block_planes(filt.upper, side, radius)
    half = [plane for *_, plane in block_planes(half_bar, side, radius)]
    mirror = [plane for *_, plane in block_planes(mirror_bar, side, radius)]
    S = filt.row_sums
    inv_sqrt = 1.0 / np.sqrt(S)
    pairs = [inv_sqrt[bi] * inv_sqrt[bj] for _, _, bi, bj, _ in blocks]
    weight_bars = [h + m for h, m in zip(half, mirror)]
    gS = 2.0 * diag_bar.reshape(side, side) * (inv_sqrt * inv_sqrt)
    for (_, _, bi, bj, b), pair, bar in zip(blocks, pairs, weight_bars):
        tmp = bar * (b * pair)
        gS[bi] += tmp
        gS[bj] += tmp
    gS *= -0.5 / S
    scatter = np.zeros((FEATURE_DIM, FEATURE_DIM))
    for (_, _, bi, bj, b), pair, bar in zip(blocks, pairs, weight_bars):
        gq = (-b * (pair * bar + gS[bi] + gS[bj])).reshape(-1, 1)
        d = (features[bi] - features[bj]).reshape(-1, FEATURE_DIM)
        scatter += d.T @ (d * gq)
    return 2.0 * factor @ scatter


def in_window_pairs(side: int, radius: int) -> int:
    """The ordered pixel pairs (i, j), i = j among them, within a Chebyshev
    window of the radius on a side x side grid, counted pair by pair."""
    cells = [divmod(i, side) for i in range(side * side)]
    return sum(
        max(abs(ri - rj), abs(ci - cj)) <= radius for ri, ci in cells for rj, cj in cells
    )


def dense_normalize(dense_b: np.ndarray) -> np.ndarray:
    s = dense_b.sum(axis=1)
    inv_sqrt = np.diag(1.0 / np.sqrt(s))
    return inv_sqrt @ dense_b @ inv_sqrt


def dense_truncated_inverse_matrix(
    psi_dense: np.ndarray, degree_K: int, coeffs: np.ndarray
) -> np.ndarray:
    """sum_k a_k (Psi - I)^k accumulated from explicit powers."""
    n = psi_dense.shape[0]
    shifted = psi_dense - np.eye(n)
    result = np.zeros((n, n))
    term = np.eye(n)
    for k in range(degree_K + 1):
        result += coeffs[k] * term
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
    n = dense.shape[0]
    # DIA storage: data[k, j] = dense[j - offsets[k], j], one row per
    # nonzero diagonal, ascending
    offsets = np.array([k for k in range(1 - n, n) if np.any(np.diagonal(dense, k))], np.int32)
    data = np.zeros((offsets.size, n))
    for row, k in zip(data, offsets.tolist()):
        row[max(k, 0) : n + min(k, 0)] = np.diagonal(dense, k)
    return DenoiserOperator(data=data, offsets=offsets)


def operator_with_spectrum(
    rng: np.random.Generator, n: int, lo: float, hi: float
) -> DenoiserOperator:
    return operator_from_dense(random_spd(rng, n, lo, hi))


def dense_chebyshev_terms(psi_dense: np.ndarray, y: np.ndarray, degree: int) -> list[np.ndarray]:
    """T_k(2 Psi - I) y for k = 0 .. degree, from the eigendecomposition of
    the dense Psi: T_k(cos t) = cos(k t) at each eigenvalue 2 lam - 1 = cos t
    of 2 Psi - I, with no recurrence."""
    lam, vectors = np.linalg.eigh(psi_dense)
    angles = np.arccos(np.clip(2.0 * lam - 1.0, -1.0, 1.0))
    coordinates = vectors.T @ y
    return [vectors @ (np.cos(k * angles) * coordinates) for k in range(degree + 1)]


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
    """EdgeOuterSum's diagonal, half and mirror after one fold of all the
    terms at once."""
    sums = EdgeOuterSum(side, radius, len(g_stack))
    sums.g_terms[:] = g_stack
    sums.fold(t_stack)
    return sums.diagonal, sums.half, sums.mirror


def analytic_forward(
    theta: ParamVector,
    patch: np.ndarray,
    side: int,
    hyper: PipelineConfig,
    epsilon_guard: float = CgConfig.epsilon_guard,
) -> np.ndarray:
    """theta's truncated-inverse system of the patch's Psi (build_psi)
    solved by depth_T steps of classic CG, whose alpha and beta follow the
    data, under epsilon_guard."""
    system = TaylorSystemOperator(build_psi(theta, patch, side, hyper), theta.tse_coeffs)
    cfg = CgConfig(depth_T=hyper.depth_T, epsilon_guard=epsilon_guard)
    x, _ = unrolled_cg(system.apply_system, patch, cfg)
    return x


def unrolled_loss_and_grad(
    theta: ParamVector, batch, patch_side: int, hyper: PipelineConfig = PipelineConfig()
) -> tuple[float, ParamVector]:
    """loss and its reverse-mode gradient through the unrolled network
    (forward), by dense matrices: learned_cg_vjp over the truncated-inverse
    system, whose apply_vjp reverses the Taylor recurrence into a dense
    dL/dPsi, then the dense normalization and weight adjoints into C. The
    reference of the compiled-filter gradient (loss_and_grad)."""
    K = hyper.degree_K
    a = theta.tse_coeffs
    factor = theta.metric()
    cfg = theta.cg_config()
    total_loss = 0.0
    total = np.zeros(theta.size)
    for noisy, clean in batch:
        noisy = np.asarray(noisy, dtype=float)
        features = extract_features(noisy, patch_side)
        dense_b = dense_filter_matrix(features, factor, hyper.window_radius)
        s = 1.0 / np.sqrt(dense_b.sum(axis=1))
        psi = s[:, None] * dense_b * s[None, :]

        def powers(v):  # (Psi - I)^k v for k = 0..K
            t = [v]
            for _ in range(K):
                t.append(psi @ t[-1] - t[-1])
            return t

        inputs, outputs = [], []

        def matvec(v):
            inputs.append(v)
            outputs.append(sum(a_k * t_k for a_k, t_k in zip(a, powers(v))))
            return outputs[-1]

        x, _ = unrolled_cg(matvec, noisy, cfg)
        resid = x - np.asarray(clean, dtype=float)
        g_tse = np.zeros(K + 1)
        psi_bar = np.zeros_like(psi)

        def apply_vjp(j, g):
            t = powers(inputs[j])
            g_tse[:] += [g @ t_k for t_k in t]
            gt = a[K] * g
            for k in range(K, 0, -1):  # t_k = Psi t_{k-1} - t_{k-1}
                psi_bar[:] += np.outer(gt, t[k - 1])
                gt = psi @ gt - gt + a[k - 1] * g
            return gt

        g_alpha, g_beta = learned_cg_vjp(apply_vjp, inputs, outputs, 2.0 * resid, cfg)
        # Psi_kl = s_k B_kl s_l with s = S^{-1/2} and S_k = sum_l B_kl
        s_bar = np.sum(psi_bar * dense_b * s[None, :], axis=1)
        s_bar += np.sum(psi_bar * dense_b * s[:, None], axis=0)
        b_bar = s[:, None] * psi_bar * s[None, :] + (-0.5 * s**3 * s_bar)[:, None]
        # B_kl = w_kl exp(-|C d_kl|^2): dB_kl/dC = -2 B_kl C d_kl d_kl^T
        rows = features.reshape(-1, FEATURE_DIM)
        diffs = rows[:, None, :] - rows[None, :, :]
        scatter = np.einsum("ij,ijk,ijl->kl", b_bar * dense_b, diffs, diffs)
        g_metric = (-2.0 * factor @ scatter)[np.tril_indices(FEATURE_DIM)]
        total_loss += float(resid @ resid)
        total += np.concatenate([g_metric, g_tse, g_alpha, g_beta])
    return total_loss, ParamVector.unpack(total, K, hyper.depth_T)
