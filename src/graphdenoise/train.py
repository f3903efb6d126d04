"""End-to-end pipeline, exact reverse-mode gradients, and Adam training.

The trainable parameter vector theta stacks, in this fixed order:

    [ metric factor C lower triangle (15) |
      Taylor coefficients a_0..a_K (K+1)  |
      CG alphas (T)                       |
      CG betas (T-1) ]

forward rebuilds the filter operator from theta (Psi depends on the
metric), runs the truncated-inverse system through the learned-mode
unrolled CG, and returns the depth-T iterate: the network as the paper
unrolls it, kept as the reference the compiled filter stands in for.

Training differentiates the network that validation, denoise and eval
run: its compiled Chebyshev filter P (compiled.py), compiled once per
loss_and_grad call at GRADIENT_TOLERANCE, a tighter tail than inference's
FIT_TOLERANCE so that the gradient also matches the unrolled network's
(acceptance criterion 4). Per pair the gradient runs the three-term
recurrence of P(Psi) y, keeping its vectors, and reverses it by Clenshaw's
recurrence run backward, folding each matvec's (adjoint, input) pair into
the smoother-weight sums (EdgeOuterSum); from there it is hand-derived
through the symmetric normalization and the exponential weights into C.
The coefficient adjoints of the batch reach the Taylor and CG scalars by
one reverse pass of the scalar network (compiled_filter_vjp). Feature
extraction is deliberately treated as a constant of the noisy input
(pseudo-linear convention), so no gradient flows into the features.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .cg_unroll import CgConfig, calibrate_cg_params, unrolled_cg
from .compiled import GRADIENT_TOLERANCE, CompiledFilter, compile_filter, compiled_filter_vjp
from .errors import InvalidInputError, NumericDivergenceError
from .graph_filter import (
    FEATURE_DIM,
    bilateral_factor,
    build_filter_matrix,
    extract_features,
    normalize,
    window_blocks,
)
from .lanes import in_lanes
from .taylor_system import TaylorSystemOperator, default_coefficients

_TRIL = np.tril_indices(FEATURE_DIM)
N_METRIC_PARAMS = _TRIL[0].size  # 15

# 2: the tapered window; a version-1 file describes a box-window network
CHECKPOINT_VERSION = 2

# Adam's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class PipelineConfig:
    """Structural hyperparameters of the denoising network."""

    window_radius: int = 3
    degree_K: int = 10
    depth_T: int = 15

    def __post_init__(self):
        for name, least in (("window_radius", 1), ("degree_K", 1), ("depth_T", 0)):
            value = getattr(self, name)
            if value < least:
                raise InvalidInputError(f"{name} must be >= {least}, got {value}")


@dataclass(eq=False)
class ParamVector:
    """Trainable parameters; pack/unpack use the documented fixed layout."""

    metric_factor: np.ndarray  # lower triangle of C, row-major (15)
    tse_coeffs: np.ndarray     # K+1
    cg_alpha: np.ndarray       # T
    cg_beta: np.ndarray        # T-1

    def __post_init__(self):
        for name in ("metric_factor", "tse_coeffs", "cg_alpha", "cg_beta"):
            block = np.asarray(getattr(self, name), dtype=float)
            if block.ndim != 1:
                raise InvalidInputError(f"{name} must be a flat array, got shape {block.shape}")
            setattr(self, name, block)
        if self.metric_factor.shape != (N_METRIC_PARAMS,):
            raise InvalidInputError(f"metric_factor must have length {N_METRIC_PARAMS}")
        if self.cg_beta.shape != (max(self.cg_alpha.size - 1, 0),):
            raise InvalidInputError("cg_beta must be one entry shorter than cg_alpha")

    @property
    def size(self) -> int:
        return (
            self.metric_factor.size
            + self.tse_coeffs.size
            + self.cg_alpha.size
            + self.cg_beta.size
        )

    def pack(self) -> np.ndarray:
        return np.concatenate(
            [self.metric_factor, self.tse_coeffs, self.cg_alpha, self.cg_beta]
        )

    @classmethod
    def unpack(cls, flat: np.ndarray, degree_K: int, depth_T: int) -> "ParamVector":
        flat = np.asarray(flat, dtype=float)
        sizes = [N_METRIC_PARAMS, degree_K + 1, depth_T, max(depth_T - 1, 0)]
        if flat.shape != (sum(sizes),):
            raise InvalidInputError(
                f"expected a flat vector of length {sum(sizes)}, got {flat.shape}"
            )
        bounds = np.cumsum(sizes)[:-1]
        parts = np.split(flat, bounds)
        return cls(*parts)

    @classmethod
    def initial(cls, hyper: PipelineConfig) -> "ParamVector":
        """Classic-filter metric, alternating-sign coefficients, neutral CG.

        The CG scalars are placeholders (alpha = 1, beta = 0) until
        calibrate_cg_params seeds them from analytic runs.
        """
        return cls(
            metric_factor=bilateral_factor()[_TRIL],
            tse_coeffs=default_coefficients(hyper.degree_K),
            cg_alpha=np.ones(hyper.depth_T),
            cg_beta=np.zeros(max(hyper.depth_T - 1, 0)),
        )

    def metric(self) -> np.ndarray:
        """The metric factor C: metric_factor on its lower triangle, zeros
        above it."""
        factor = np.zeros((FEATURE_DIM, FEATURE_DIM))
        factor[_TRIL] = self.metric_factor
        return factor

    def cg_config(self) -> CgConfig:
        """The learned-mode unrolled CG of these scalars."""
        return CgConfig(
            depth_T=self.cg_alpha.size,
            learned_alpha=self.cg_alpha,
            learned_beta=self.cg_beta,
        )


def _check_sizes(theta: ParamVector, hyper: PipelineConfig) -> None:
    """Reject a theta without hyper's degree_K + 1 coefficients and depth_T
    CG steps."""
    for count, what, name, value in (
        (theta.tse_coeffs.size, "Taylor coefficients", "degree_K + 1", hyper.degree_K + 1),
        (theta.cg_alpha.size, "CG steps", "depth_T", hyper.depth_T),
    ):
        if count != value:
            raise InvalidInputError(f"theta has {count} {what}, {name} is {value}")


def build_system(
    theta: ParamVector, noisy: np.ndarray, patch_side: int, hyper: PipelineConfig
) -> tuple[np.ndarray, TaylorSystemOperator]:
    """The patch system of theta: its feature array (extract_features) and
    the truncated-inverse system, whose smoother Psi is `system.psi`. theta
    must have hyper's degree_K + 1 coefficients and depth_T CG steps."""
    _check_sizes(theta, hyper)
    features = extract_features(noisy, patch_side)
    filt = build_filter_matrix(features, theta.metric(), hyper.window_radius)
    return features, TaylorSystemOperator(psi=normalize(filt), coefficients=theta.tse_coeffs)


def calibrated_initial(hyper: PipelineConfig, noisy_patches, patch_side: int) -> ParamVector:
    """ParamVector.initial with the CG scalars calibrated by analytic runs
    on the given noisy patches (calibrate_cg_params); each patch's system
    is built in the lane that solves it."""
    theta = ParamVector.initial(hyper)

    def patch_system(noisy):
        return build_system(theta, noisy, patch_side, hyper)[1].apply_system, noisy

    builds = [partial(patch_system, noisy) for noisy in noisy_patches]
    alpha, beta = calibrate_cg_params(builds, hyper.depth_T)
    return replace(theta, cg_alpha=alpha, cg_beta=beta)


def forward(
    theta: ParamVector,
    noisy_patch: np.ndarray,
    patch_side: int,
    hyper: PipelineConfig = PipelineConfig(),
) -> np.ndarray:
    """Denoise one patch: features -> weights -> normalize -> unrolled CG."""
    noisy = np.asarray(noisy_patch, dtype=float)
    _, system = build_system(theta, noisy, patch_side, hyper)
    x, _ = unrolled_cg(system.apply_system, noisy, theta.cg_config())
    return x


class EdgeOuterSum:
    """Running sums of g_m[i] * t_m[j] over terms m, for every stored entry
    (i, j) of B on a side x side grid, fed up to `chunk` terms at a time.

    The training gradient's terms are the Chebyshev vectors u_j = T_j(L) y
    it applies Psi to (t) and the adjoints of those matvecs' outputs (g),
    so the sums are dL/dPsi on B's pattern. A chunk's g terms go into rows
    0..count-1 of g_terms; fold(t) adds them with the t terms in rows
    1..count of t. planes() returns the diagonal
    (side x side), then per window_blocks block a half plane (i in block_i,
    j in block_j) and a mirror plane (i in block_j, j in block_i). However
    the terms are chunked, every sum is bitwise the in-order sum over m:
    each block is one einsum over strided grid views with m as the outer
    loop, and row 0 of both operands is reserved, with t = 1 and g holding
    the block's running sum, so the reduction carries on from that sum.
    """

    def __init__(self, side: int, radius: int, chunk: int):
        n = side * side
        self.side = side
        self._blocks = [(bi, bj) for _, _, bi, bj in window_blocks(side, radius)]
        self._g = np.empty((chunk + 1, n))
        self.g_terms = self._g[1:]
        grid = self._g[0].reshape(side, side)
        self._diagonal = np.zeros(n)
        self._half = [np.zeros(grid[bi].shape) for bi, _ in self._blocks]
        self._mirror = [np.zeros(grid[bj].shape) for _, bj in self._blocks]

    def fold(self, t: np.ndarray) -> None:
        """Add the first len(t) - 1 g terms, paired with t[1:]; t is a
        (count + 1, n) array whose row 0 is scratch (set to 1 here)."""
        count = len(t) - 1
        # a loop: on a 1-pixel grid the term axis is contiguous, and einsum
        # sums a contiguous axis with several partial accumulators
        for g_m, t_m in zip(self.g_terms[:count], t[1:]):
            self._diagonal += g_m * t_m
        t[0] = 1.0
        g_grid = self._g[: count + 1].reshape(-1, self.side, self.side)
        t_grid = t.reshape(-1, self.side, self.side)
        running = g_grid[0]
        for b, ((ri, ci), (rj, cj)) in enumerate(self._blocks):
            running[ri, ci] = self._half[b]
            self._half[b] = np.einsum("mij,mij->ij", g_grid[:, ri, ci], t_grid[:, rj, cj])
            running[rj, cj] = self._mirror[b]
            self._mirror[b] = np.einsum("mij,mij->ij", g_grid[:, rj, cj], t_grid[:, ri, ci])

    def planes(self) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        return self._diagonal.reshape(self.side, self.side), self._half, self._mirror


def _grad_single(
    theta: ParamVector,
    compiled: CompiledFilter,
    noisy: np.ndarray,
    clean: np.ndarray,
    patch_side: int,
    hyper: PipelineConfig,
) -> tuple[float, np.ndarray, np.ndarray]:
    """One pair's loss |P(Psi) y - clean|^2 through the compiled filter P
    and its adjoints of the metric factor's 15 entries and of P's
    coefficients."""
    noisy = np.asarray(noisy, dtype=float)
    clean = np.asarray(clean, dtype=float)
    # B's planes are kept through the pass for its adjoint below
    features = extract_features(noisy, patch_side)
    factor = theta.metric()
    filt = build_filter_matrix(features, factor, hyper.window_radius)
    psi = normalize(filt)
    c = compiled.coefficients
    degree = compiled.degree
    K = hyper.degree_K
    # u_k = T_k(L) y with L = 2 Psi - I, the vectors of the recurrence
    # CompiledFilter.apply runs (by the same operations, so x is its output
    # bitwise), u_k in row 1 + k % K of u_blocks[k // K]: the (K + 1)-row
    # blocks EdgeOuterSum.fold takes, whose row 0 is its scratch
    u_blocks = [np.empty((K + 1, noisy.size)) for _ in range(degree // K + 1)]

    def u(k: int) -> np.ndarray:
        return u_blocks[k // K][1 + k % K]

    u(0)[:] = noisy
    x = c[0] * noisy
    for k in range(1, degree + 1):
        out = u(k)
        np.multiply(psi.apply(u(k - 1)), 2.0, out=out)
        np.subtract(out, u(k - 1), out=out)
        if k > 1:
            out *= 2.0
            out -= u(k - 2)
        x += c[k] * out
    resid = x - clean
    pair_loss = float(resid @ resid)
    if not np.isfinite(pair_loss):
        raise NumericDivergenceError("non-finite training loss")

    g = 2.0 * resid
    c_bar = np.array([g @ u(k) for k in range(degree + 1)])
    # dL/dPsi_ij sums w_bar_j[i] * u_j[j] over the matvecs w_j = Psi u_j,
    # j = degree - 1 .. 0. Clenshaw run backward gives the adjoint of u_k,
    # b_k = c_k g + 2 L b_{k+1} - b_{k+2}, and w_j enters u_{j+1} as
    # 4 w_j (2 w_0 for j = 0). b_0, the adjoint of the constant y, is never
    # formed: degree - 1 matvecs
    psi_sums = EdgeOuterSum(patch_side, hyper.window_radius, K)
    b, b_next = c[degree] * g, 0.0
    for j in range(degree - 1, -1, -1):
        block, row = divmod(j, K)
        np.multiply(b, 4.0 if j else 2.0, out=psi_sums.g_terms[row])
        if row == 0:
            psi_sums.fold(u_blocks[block][: min(K, degree - j) + 1])
            u_blocks[block] = None
        if j:
            b, b_next = c[j] * g + 4.0 * psi.apply(b) - 2.0 * b - b_next, b
    del u_blocks
    diag_bar, half_bar, mirror_bar = psi_sums.planes()
    del psi_sums

    # --- reverse through Psi = S^{-1/2} B S^{-1/2} ---
    # a shared weight b_ij enters Psi_ij and Psi_ji, so its adjoint is the
    # sum of the two directions'; the unit diagonal enters S_i twice
    blocks = list(filt.blocks())
    S = filt.row_sums()
    inv_sqrt = 1.0 / np.sqrt(S)
    pairs = [inv_sqrt[bi] * inv_sqrt[bj] for _, _, bi, bj in blocks]
    weight_bars = [h + m for h, m in zip(half_bar, mirror_bar)]
    gS = 2.0 * diag_bar * (inv_sqrt * inv_sqrt)
    for (_, _, bi, bj), b, pair, bar in zip(blocks, filt.planes, pairs, weight_bars):
        tmp = bar * (b * pair)
        gS[bi] += tmp
        gS[bj] += tmp
    gS *= -0.5 / S

    # --- reverse through b_ij = w_ij exp(-||C d_ij||^2) into the factor C ---
    # db/dq = -b for q = ||C d_ij||^2, with the taper w_ij inside the stored b
    scatter = np.zeros((FEATURE_DIM, FEATURE_DIM))
    for (_, _, bi, bj), b, pair, bar in zip(blocks, filt.planes, pairs, weight_bars):
        gq = (-b * (pair * bar + gS[bi] + gS[bj])).reshape(-1, 1)
        d = (features[bi] - features[bj]).reshape(-1, FEATURE_DIM)
        scatter += d.T @ (d * gq)
    gC = 2.0 * factor @ scatter
    return pair_loss, gC[_TRIL], c_bar


def loss_and_grad(
    theta: ParamVector, batch, patch_side: int, hyper: PipelineConfig = PipelineConfig()
) -> tuple[float, ParamVector]:
    """Batch loss of the compiled filter P of theta at GRADIENT_TOLERANCE
    (compile_filter) and its exact reverse-mode gradient.

    The pairs run on the lanes (in_lanes), each through P(Psi) and back:
    2 d - 1 Psi matvecs at P's degree d >= 1. Their losses, metric adjoints
    and coefficient adjoints are summed in batch order, so the result does
    not depend on the lanes, and the coefficient adjoint reaches the
    Taylor and CG scalars by one scalar reverse pass (compiled_filter_vjp).
    Raises NumericDivergenceError when theta does not compile.
    """
    batch = list(batch)
    if not batch:
        raise InvalidInputError("batch must be nonempty")
    _check_sizes(theta, hyper)
    compiled = compile_filter(theta, GRADIENT_TOLERANCE)
    pairs = in_lanes(
        [
            partial(_grad_single, theta, compiled, noisy, clean, patch_side, hyper)
            for noisy, clean in batch
        ]
    )
    total_loss = 0.0
    metric_bar = np.zeros(N_METRIC_PARAMS)
    coefficient_bar = np.zeros(compiled.degree + 1)
    for pair_loss, pair_metric_bar, pair_coefficient_bar in pairs:
        total_loss += pair_loss
        metric_bar += pair_metric_bar
        coefficient_bar += pair_coefficient_bar
    return total_loss, ParamVector(metric_bar, *compiled_filter_vjp(theta, coefficient_bar))


@dataclass(eq=False)
class TrainState:
    """Parameters plus Adam first/second moments."""

    params: ParamVector
    adam_m: np.ndarray
    adam_v: np.ndarray
    step_count: int = 0
    learning_rate: float = 0.001

    def __post_init__(self):
        if self.adam_m.shape != (self.params.size,) or self.adam_v.shape != (self.params.size,):
            raise InvalidInputError("moment vectors must match the parameter count")
        if self.step_count < 0:
            raise InvalidInputError("step_count must be >= 0")

    @classmethod
    def fresh(cls, params: ParamVector, learning_rate: float = 0.001) -> "TrainState":
        zeros = np.zeros(params.size)
        return cls(params=params, adam_m=zeros.copy(), adam_v=zeros.copy(), learning_rate=learning_rate)


def adam_step(state: TrainState, gradient) -> TrainState:
    """One bias-corrected Adam update; the gradient is expected to be
    pre-divided by the batch size by the caller."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != (state.params.size,):
        raise InvalidInputError("gradient length does not match parameters")
    if not np.all(np.isfinite(g)):
        raise NumericDivergenceError("non-finite gradient passed to adam_step")
    t = state.step_count + 1
    m = ADAM_BETA1 * state.adam_m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.adam_v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    flat = state.params.pack() - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    degree_K = state.params.tse_coeffs.size - 1
    depth_T = state.params.cg_alpha.size
    params = ParamVector.unpack(flat, degree_K, depth_T)
    return replace(state, params=params, adam_m=m, adam_v=v, step_count=t)


def _patch_psnr(theta, compiled, noisy, clean, patch_side, hyper) -> float:
    noisy = np.asarray(noisy, dtype=float)
    _, system = build_system(theta, noisy, patch_side, hyper)
    out = np.clip(compiled.apply(system.psi, noisy), 0.0, 1.0)
    err = np.asarray(clean, dtype=float) - out
    mse = float(err @ err) / err.size
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


def evaluate_psnr(
    theta: ParamVector, pairs, patch_side: int, hyper: PipelineConfig = PipelineConfig()
) -> float:
    """Mean patch PSNR of the denoised outputs against the clean patches.

    Each patch is denoised as denoise and eval denoise it: by the compiled
    filter of theta, applied to the patch's own Psi. The patches run on the
    lanes (in_lanes). Raises NumericDivergenceError when theta's network
    does not compile (compile_filter).
    """
    pairs = list(pairs)
    if not pairs:
        raise InvalidInputError("evaluation set must be nonempty")
    compiled = compile_filter(theta)
    vals = in_lanes(
        [
            partial(_patch_psnr, theta, compiled, noisy, clean, patch_side, hyper)
            for noisy, clean in pairs
        ]
    )
    return float(np.mean(vals))


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float  # mean per-patch summed-square loss over the epoch
    val_psnr: float


def train_loop(
    train_pairs,
    patch_side: int,
    epochs: int,
    batch_size: int,
    seed: int,
    hyper: PipelineConfig = PipelineConfig(),
    val_pairs=None,
    learning_rate: float = 0.001,
) -> tuple[TrainState, list[EpochStats]]:
    """Deterministic Adam training over (noisy, clean) patch pairs.

    Initialization: classic-filter metric, alternating-sign Taylor
    coefficients, and CG scalars calibrated by analytic runs on the first
    batch (in dataset order). Shuffling and batching are driven by a single
    seeded generator, and gradients accumulate in a fixed order, so a fixed
    seed reproduces the run bit for bit. Validation PSNR uses val_pairs when
    given, else the training pairs.
    """
    train_pairs = [(np.asarray(y, dtype=float), np.asarray(x, dtype=float)) for y, x in train_pairs]
    if not train_pairs:
        raise InvalidInputError("training dataset must be nonempty")
    if epochs < 0:
        raise InvalidInputError("epochs must be >= 0")
    if batch_size < 1:
        raise InvalidInputError("batch_size must be >= 1")

    theta = calibrated_initial(hyper, [noisy for noisy, _ in train_pairs[:batch_size]], patch_side)
    state = TrainState.fresh(theta, learning_rate=learning_rate)
    eval_pairs = list(val_pairs) if val_pairs else train_pairs
    rng = np.random.default_rng(seed)
    history: list[EpochStats] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(train_pairs))
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            batch = [train_pairs[i] for i in order[start : start + batch_size]]
            batch_loss, g = loss_and_grad(state.params, batch, patch_side, hyper)
            epoch_loss += batch_loss
            state = adam_step(state, g.pack() / len(batch))
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=epoch_loss / len(train_pairs),
                val_psnr=evaluate_psnr(state.params, eval_pairs, patch_side, hyper),
            )
        )
    return state, history


def save_checkpoint(path, params: ParamVector, hyper: PipelineConfig) -> None:
    """Versioned JSON checkpoint: parameters plus structural hyperparameters.

    Floats are serialized with repr-exact round-tripping, so identical
    parameters always produce identical bytes. params must have hyper's
    sizes (build_system), so that load_checkpoint accepts the file.
    """
    _check_sizes(params, hyper)
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "feature_dim": FEATURE_DIM,
        "window_radius": hyper.window_radius,
        "degree_K": hyper.degree_K,
        "depth_T": hyper.depth_T,
        "metric_factor": [float(v) for v in params.metric_factor],
        "tse_coeffs": [float(v) for v in params.tse_coeffs],
        "cg_alpha": [float(v) for v in params.cg_alpha],
        "cg_beta": [float(v) for v in params.cg_beta],
    }
    write_text_durably(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_text_durably(path, text: str) -> None:
    """Write ASCII text to path through a temporary file in the same
    directory, synced and then renamed over path: a reader sees the old file
    or the new one, never a part. On failure the temporary file is removed
    and path is left as it was."""
    path = Path(path)
    # opened as path itself would be, so it gets the same (umask) permissions
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[ParamVector, PipelineConfig]:
    """Inverse of save_checkpoint. Any malformed payload raises
    InvalidInputError, among them a structural integer that is not a JSON
    integer (3.7, true or "3" would load another network). Unknown keys
    are ignored, and so is the "expansion_s": 1.0 that files written while
    the Taylor expansion point was a setting carry; any other value
    describes another network and is rejected."""
    try:
        payload = json.loads(Path(path).read_text(encoding="ascii"))
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise InvalidInputError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidInputError(f"checkpoint {path} does not hold a JSON object")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise InvalidInputError(f"unsupported checkpoint version {version!r}")
    if payload.get("feature_dim") != FEATURE_DIM:
        raise InvalidInputError("checkpoint feature_dim does not match this build")
    expansion_s = payload.get("expansion_s", 1.0)
    if type(expansion_s) not in (int, float) or expansion_s != 1.0:
        raise InvalidInputError(
            f"checkpoint {path} expands about s = {expansion_s!r}; only s = 1 is supported"
        )
    try:
        structure = {key: payload[key] for key in ("window_radius", "degree_K", "depth_T")}
        for key, value in structure.items():
            # bool is a subclass of int, so the type is compared exactly
            if type(value) is not int:
                raise TypeError(f"{key} must be a JSON integer, got {value!r}")
        hyper = PipelineConfig(**structure)
        params = ParamVector(
            metric_factor=np.asarray(payload["metric_factor"], dtype=float),
            tse_coeffs=np.asarray(payload["tse_coeffs"], dtype=float),
            cg_alpha=np.asarray(payload["cg_alpha"], dtype=float),
            cg_beta=np.asarray(payload["cg_beta"], dtype=float),
        )
        if not np.all(np.isfinite(params.metric_factor)):
            raise ValueError("metric_factor entries must be finite")
        _check_sizes(params, hyper)
    except KeyError as exc:
        raise InvalidInputError(f"checkpoint {path} is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"checkpoint {path} has an invalid value: {exc}") from exc
    return params, hyper
