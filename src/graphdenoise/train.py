"""End-to-end pipeline, exact reverse-mode gradients, and Adam training.

The trainable parameter vector theta stacks, in this fixed order:

    [ metric factor C lower triangle (15) |
      Taylor coefficients a_0..a_K (K+1)  |
      CG alphas (T)                       |
      CG betas (T-1) ]

Each patch computation is one function here; the CLI maps them onto the
lanes. build_psi builds a patch's smoother Psi from theta's metric.
analytic_solve runs classic CG on the truncated-inverse system of Psi: the
initialization baseline of calibration and of eval's init column. forward
runs that system through the learned-mode unrolled CG: the network as the
paper unrolls it, kept as the reference the compiled filter stands in for.

Training differentiates the network that validation, denoise and eval
run: its compiled Chebyshev filter P (compiled.py), compiled once per
loss_and_grad call at GRADIENT_TOLERANCE, a tighter tail than inference's
FIT_TOLERANCE so that the gradient also matches the unrolled network's
(acceptance criterion 4). Per pair the gradient keeps the Chebyshev terms
of P(Psi) y (CompiledFilter.terms) and reverses them by Clenshaw's
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
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .cg_unroll import CgConfig, CgTrace, calibrate_cg_params, unrolled_cg
from .compiled import GRADIENT_TOLERANCE, CompiledFilter, compile_filter, compiled_filter_vjp
from .errors import InvalidInputError, NumericDivergenceError
from .graph_filter import (
    FEATURE_DIM,
    DenoiserOperator,
    bilateral_factor,
    build_filter_matrix,
    extract_features,
    normalize,
    upper_offsets,
)
from .imaging import write_durably
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


def build_psi(
    theta: ParamVector, noisy: np.ndarray, patch_side: int, hyper: PipelineConfig
) -> DenoiserOperator:
    """The smoother Psi of theta's metric on the patch, built from the
    patch's features (extract_features). theta must have hyper's
    degree_K + 1 coefficients and depth_T CG steps."""
    _check_sizes(theta, hyper)
    # the features are freed before normalize, where a lane's memory peaks
    features = extract_features(noisy, patch_side)
    filt = build_filter_matrix(features, theta.metric(), hyper.window_radius)
    del features
    return normalize(filt)


def analytic_solve(
    theta: ParamVector, noisy: np.ndarray, patch_side: int, hyper: PipelineConfig
) -> tuple[DenoiserOperator, np.ndarray, CgTrace]:
    """The patch's Psi (build_psi), and the solve and trace of depth_T
    classic CG steps, at the default breakdown guard, on theta's
    truncated-inverse system of it: calibrated_initial averages the traces'
    scalars, and eval's init column is the solve."""
    psi = build_psi(theta, noisy, patch_side, hyper)
    system = TaylorSystemOperator(psi=psi, coefficients=theta.tse_coeffs)
    x, trace = unrolled_cg(system.apply_system, noisy, CgConfig(depth_T=hyper.depth_T))
    return psi, x, trace


def calibrated_initial(hyper: PipelineConfig, noisy_patches, patch_side: int) -> ParamVector:
    """ParamVector.initial with the CG scalars calibrated on the given noisy
    patches: the per-depth means of their analytic solves' scalars
    (analytic_solve, calibrate_cg_params), each solved on the lane that
    runs it."""
    theta = ParamVector.initial(hyper)
    solves = [partial(_analytic_trace, theta, noisy, patch_side, hyper) for noisy in noisy_patches]
    alpha, beta = calibrate_cg_params(solves)
    return replace(theta, cg_alpha=alpha, cg_beta=beta)


def _analytic_trace(theta, noisy, patch_side, hyper) -> CgTrace:
    return analytic_solve(theta, noisy, patch_side, hyper)[2]


# Nothing in the package calls forward; it stays, and stays in this module,
# because the benchmark's tracer times `train.forward` and its tests call it.
def forward(
    theta: ParamVector,
    noisy_patch: np.ndarray,
    patch_side: int,
    hyper: PipelineConfig = PipelineConfig(),
) -> np.ndarray:
    """Denoise one patch: features -> weights -> normalize -> unrolled CG."""
    noisy = np.asarray(noisy_patch, dtype=float)
    system = TaylorSystemOperator(build_psi(theta, noisy, patch_side, hyper), theta.tse_coeffs)
    x, _ = unrolled_cg(system.apply_system, noisy, theta.cg_config())
    return x


class EdgeOuterSum:
    """Running sums of g_m[i] * t_m[j] over terms m, for every stored entry
    (i, j) of B on a side x side grid, fed up to `chunk` terms at a time.

    The training gradient's terms are the Chebyshev vectors u_j = T_j(L) y
    it applies Psi to (t) and the adjoints of those matvecs' outputs (g),
    so the sums are dL/dPsi on B's pattern. A chunk's g terms go into rows
    0..count-1 of g_terms; fold(t_terms) adds them with its count t terms.
    The sums are in B's layout (SparseFilterMatrix.upper): diagonal sums
    g[j] t[j], and column j of row f of half and mirror g[j - f] t[j] and
    g[j] t[j - f]; where B is 0 outside the window, they do not count.
    However the terms are chunked, every sum is bitwise the in-order sum
    over m: each row is one einsum over contiguous shifted slices of a g
    stack and a t stack of chunk + 1 rows each, m the outer loop, whose row
    0 is reserved, with t = 1 and g holding the row's running sum, so the
    reduction carries on from that sum. The gradient folds its terms in
    chunks of degree_K, highest chunk first, each chunk in ascending order:
    the chunk size thus sets the order of the sums over m, and with it the
    gradient's bits.
    """

    def __init__(self, side: int, radius: int, chunk: int):
        n = side * side
        self.offsets = upper_offsets(side, radius)
        self._g = np.empty((chunk + 1, n))
        self.g_terms = self._g[1:]
        self._t = np.ones((chunk + 1, n))  # row 0 stays 1
        self.diagonal = np.zeros(n)
        self.half = np.zeros((len(self.offsets), n))
        self.mirror = np.zeros((len(self.offsets), n))

    def fold(self, t_terms) -> None:
        """Add the first len(t_terms) g terms, each paired with its t term."""
        count = len(t_terms)
        # a loop: on a 1-pixel grid the term axis is contiguous, and einsum
        # sums a contiguous axis with several partial accumulators
        for g_m, t_m, row in zip(self.g_terms, t_terms, self._t[1:]):
            self.diagonal += g_m * t_m
            row[:] = t_m
        g, t = self._g[: count + 1], self._t[: count + 1]
        running = g[0]
        for f, half, mirror in zip(self.offsets, self.half, self.mirror):
            m = running.size - f
            running[:m] = half[f:]
            np.einsum("mj,mj->j", g[:, :m], t[:, f:], out=half[f:])
            running[f:] = mirror[f:]
            np.einsum("mj,mj->j", g[:, f:], t[:, :m], out=mirror[f:])


def _metric_adjoint(filt, features, factor, sums) -> np.ndarray:
    """dL/dC from dL/dPsi in B's layout (sums, an EdgeOuterSum), reversed
    through Psi = S^{-1/2} B S^{-1/2} and the weights B of C on the
    features, each pass one loop over B's rows; sums.half is overwritten."""
    S = filt.row_sums.ravel()
    n = S.size
    inv_sqrt = 1.0 / np.sqrt(S)
    # a shared weight b_ij enters Psi_ij and Psi_ji, so its adjoint through
    # Psi is pair * (half + mirror) with pair = S_i^{-1/2} S_j^{-1/2}, kept
    # in half; the unit diagonal enters S_i twice
    gS = 2.0 * sums.diagonal * (inv_sqrt * inv_sqrt)
    tmp = np.empty(n)
    for f, b, bar, mirror in zip(filt.offsets, filt.upper, sums.half, sums.mirror):
        m = n - f
        bar[f:] += mirror[f:]
        bar[f:] *= np.multiply(inv_sqrt[:m], inv_sqrt[f:], out=tmp[:m])
        np.multiply(b[f:], bar[f:], out=tmp[:m])
        gS[:m] += tmp[:m]
        gS[f:] += tmp[:m]
    gS *= -0.5 / S

    # b_ij = w_ij exp(-q), q = ||C d_ij||^2: db/dq = -b, the taper w_ij (0
    # outside the window) inside the stored b; the sign is taken at the end
    rows = np.ascontiguousarray(features.reshape(n, FEATURE_DIM).T)
    diff, weighted = np.empty((2, FEATURE_DIM, n))
    scatter = np.zeros((FEATURE_DIM, FEATURE_DIM))
    for f, b, bar in zip(filt.offsets, filt.upper, sums.half):
        m = n - f
        gq = np.add(bar[f:], gS[:m], out=tmp[:m])
        gq += gS[f:]
        gq *= b[f:]
        d = np.subtract(rows[:, :m], rows[:, f:], out=diff[:, :m])
        scatter += d @ np.multiply(d, gq, out=weighted[:, :m]).T
    return -2.0 * factor @ scatter


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
    coefficients. The matvecs' (adjoint, input) pairs are folded into
    EdgeOuterSum in chunks of degree_K, highest chunk first: that order is
    part of the gradient's bits; _metric_adjoint takes the sums into C."""
    noisy = np.asarray(noisy, dtype=float)
    clean = np.asarray(clean, dtype=float)
    # B is kept through the pass for its adjoint below
    features = extract_features(noisy, patch_side)
    factor = theta.metric()
    filt = build_filter_matrix(features, factor, hyper.window_radius)
    psi = normalize(filt)
    c = compiled.coefficients
    degree = compiled.degree
    K = hyper.degree_K
    # the terms u_k = T_k(L) y of P(Psi) y (CompiledFilter.terms), summed as
    # CompiledFilter.apply sums them, so x is its output bitwise
    u = list(compiled.terms(psi, noisy))
    x = c[0] * u[0]
    for c_k, u_k in zip(c[1:], u[1:]):
        x += c_k * u_k
    resid = np.subtract(x, clean, out=x)  # one vector is x, resid and g
    pair_loss = float(resid @ resid)
    if not np.isfinite(pair_loss):
        raise NumericDivergenceError("non-finite training loss")

    g = np.multiply(resid, 2.0, out=resid)
    c_bar = np.array([g @ u_k for u_k in u])
    # dL/dPsi_ij sums w_bar_j[i] * u_j[j] over the matvecs w_j = Psi u_j,
    # j = degree - 1 .. 0. Clenshaw run backward gives the adjoint of u_k,
    # b_k = c_k g + 2 L b_{k+1} - b_{k+2}, and w_j enters u_{j+1} as
    # 4 w_j (2 w_0 for j = 0). b_0, the adjoint of the constant y, is never
    # formed: degree - 1 matvecs. u_degree enters no matvec, and each
    # chunk's terms are freed once folded
    del u[degree]
    psi_sums = EdgeOuterSum(patch_side, hyper.window_radius, K)
    b, b_next = c[degree] * g, 0.0
    for j in range(degree - 1, -1, -1):
        np.multiply(b, 4.0 if j else 2.0, out=psi_sums.g_terms[j % K])
        if j % K == 0:
            psi_sums.fold(u[j:])
            del u[j:]
        if j:
            b, b_next = c[j] * g + 4.0 * psi.apply(b) - 2.0 * b - b_next, b
    return pair_loss, _metric_adjoint(filt, features, factor, psi_sums)[_TRIL], c_bar


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
    psi = build_psi(theta, noisy, patch_side, hyper)
    out = np.clip(compiled.apply(psi, noisy), 0.0, 1.0)
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
    sizes (build_psi), so that load_checkpoint accepts the file.
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
    write_durably(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii"))


def load_checkpoint(path) -> tuple[ParamVector, PipelineConfig]:
    """Inverse of save_checkpoint. Any malformed payload raises
    InvalidInputError, among them a structural integer that is not a JSON
    integer (3.7, true or "3" would load another network) and a parameter
    entry that is not a JSON number or does not fit a float. Unknown keys
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
        blocks = {}
        for key in ("metric_factor", "tse_coeffs", "cg_alpha", "cg_beta"):
            block = payload[key]
            # numpy would read "1" and true as 1.0
            if type(block) is not list or any(type(v) not in (int, float) for v in block):
                raise TypeError(f"{key} must be a list of JSON numbers")
            blocks[key] = np.asarray(block, dtype=float)  # OverflowError past 1.8e308
        params = ParamVector(**blocks)
        if not np.all(np.isfinite(params.metric_factor)):
            raise ValueError("metric_factor entries must be finite")
        _check_sizes(params, hyper)
    except KeyError as exc:
        raise InvalidInputError(f"checkpoint {path} is missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"checkpoint {path} has an invalid value: {exc}") from exc
    return params, hyper
