"""Fixed-depth unrolled conjugate gradient with analytic or learned scalars.

Each depth step performs the classic CG update

    v_{k+1} = A p_k
    x_{k+1} = x_k + alpha_k p_k
    r_{k+1} = r_k - alpha_k v_{k+1}
    p_{k+1} = r_{k+1} + beta_k p_k

starting from the warm start x_0 = y, r_0 = y - A y, p_0 = r_0. In analytic
mode alpha_k = r_k.r_k / p_k.v_{k+1} and beta_k = r_{k+1}.r_{k+1} / r_k.r_k
are data-dependent; in learned mode (CgConfig given learned_alpha and
learned_beta) they are fixed per-depth scalars shared across all inputs,
which is what makes the unrolled solver a trainable feed-forward network.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidInputError, NumericDivergenceError
from .lanes import in_lanes


@dataclass(eq=False)
class CgConfig:
    """Depth, learned scalars and breakdown guard for the unrolled solver.

    The solver runs in learned mode when learned_alpha and learned_beta are
    given (both or neither), else in analytic mode.
    """

    depth_T: int = 15
    learned_alpha: np.ndarray | None = None
    learned_beta: np.ndarray | None = None
    epsilon_guard: float = 1e-12

    def __post_init__(self):
        if self.depth_T < 0:
            raise InvalidInputError("depth_T must be >= 0")
        if self.epsilon_guard <= 0.0:
            raise InvalidInputError("epsilon_guard must be positive")
        if (self.learned_alpha is None) != (self.learned_beta is None):
            raise InvalidInputError("learned_alpha and learned_beta must be given together")
        if self.learned_alpha is not None:
            self.learned_alpha = np.asarray(self.learned_alpha, dtype=float)
            self.learned_beta = np.asarray(self.learned_beta, dtype=float)
            if self.learned_alpha.shape != (self.depth_T,):
                raise InvalidInputError(f"learned_alpha must have length {self.depth_T}")
            beta_length = max(self.depth_T - 1, 0)
            if self.learned_beta.shape != (beta_length,):
                raise InvalidInputError(f"learned_beta must have length {beta_length}")


@dataclass(eq=False)
class CgTrace:
    """Realized residual norms and scalars of one unrolled solve."""

    residual_norms: list[float]      # ||r_0|| .. ||r_T||
    used_alphas: np.ndarray          # length T
    used_betas: np.ndarray           # length max(T - 1, 0)


# an overflow surfaces as a non-finite state, which is raised as an error
@np.errstate(over="ignore", invalid="ignore")
def unrolled_cg(matvec, y: np.ndarray, cfg: CgConfig) -> tuple[np.ndarray, CgTrace]:
    """Run T unrolled CG steps on A x = y, A v = matvec(v); returns (x, trace).

    Analytic mode guards against breakdown: once r_k.r_k or |p_k.v_{k+1}|
    is at most epsilon_guard * r_0.r_0, every remaining step is an identity
    pass-through with alpha = beta = 0 (a converged patch must not abort a
    batch). Being relative, the guard lets scaling y by a power of two scale
    x by exactly that. Learned mode applies the stored scalars
    unconditionally and raises NumericDivergenceError if the state stops
    being finite.
    """
    if not callable(matvec):
        raise InvalidInputError("matvec must be a callable v -> A v")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise InvalidInputError(f"right-hand side must be a vector, got shape {y.shape}")

    T = cfg.depth_T
    analytic = cfg.learned_alpha is None
    x = y.copy()
    r = y - matvec(y)
    if r.shape != y.shape:
        raise InvalidInputError("system output shape does not match the input")
    p = r.copy()
    rr_0 = float(r @ r)
    # relative breakdown threshold; an overflowed r_0.r_0 is not a breakdown,
    # the first step then raises on its non-finite state
    guard = cfg.epsilon_guard * rr_0

    alphas = np.zeros(T)
    betas = np.zeros(max(T - 1, 0))
    res_norms = [float(np.sqrt(rr_0))]

    for k in range(T):
        if analytic:
            rr_old = float(r @ r)
            if rr_old <= guard < np.inf:
                break
            v = matvec(p)
            pv = float(p @ v)
            if abs(pv) <= guard < np.inf:
                break
            alpha = rr_old / pv
        else:
            v = matvec(p)
            alpha = float(cfg.learned_alpha[k])
        x = x + alpha * p
        r = r - alpha * v
        rr_new = float(r @ r)
        if not (np.isfinite(alpha) and np.isfinite(rr_new)):
            raise NumericDivergenceError(
                f"non-finite CG state at iteration {k}", iteration=k
            )
        alphas[k] = alpha
        if k < T - 1:
            beta = rr_new / rr_old if analytic else float(cfg.learned_beta[k])
            betas[k] = beta
            p = r + beta * p
        res_norms.append(float(np.sqrt(rr_new)))
    # after a breakdown the remaining steps are identity pass-throughs
    res_norms += [res_norms[-1]] * (T + 1 - len(res_norms))

    if not np.all(np.isfinite(x)):
        raise NumericDivergenceError(f"non-finite CG output after {T} iterations", iteration=T)
    return x, CgTrace(res_norms, alphas, betas)


def learned_cg_vjp(apply_vjp, inputs, outputs, x_bar: np.ndarray, cfg: CgConfig):
    """Reverse of a learned-mode unrolled_cg at the adjoint x_bar of its
    output; returns the adjoints of cfg's learned_alpha and learned_beta.

    inputs[j] and outputs[j] are the j-th system apply's input and output
    in the solve: j = 0 is the initial residual's (y, A y), j = k + 1 step
    k's (p_k, v_{k+1}). apply_vjp(j, g) is the system's vector-Jacobian
    product of the j-th apply at the output adjoint g: it returns g pulled
    back to the apply's input and accumulates the adjoints of the system's
    own parameters. The last step's apply has a zero adjoint and is not
    reversed, nor is its output read; the initial residual's apply is
    reversed last, and its input adjoint (that of y) is dropped.
    """
    T = cfg.depth_T
    gx = x_bar
    gr = np.zeros_like(x_bar)
    gp = np.zeros_like(x_bar)
    g_alpha = np.zeros(T)
    g_beta = np.zeros(max(T - 1, 0))
    for k in range(T - 1, -1, -1):
        alpha = float(cfg.learned_alpha[k])
        p_k = inputs[k + 1]
        if k < T - 1:
            # p_{k+1} = r_{k+1} + beta_k p_k; gp holds d/dp_{k+1}
            g_beta[k] = float(gp @ p_k)
            gr = gr + gp
            gp = float(cfg.learned_beta[k]) * gp
            # r_{k+1} = r_k - alpha_k v_{k+1}, v_{k+1} = A p_k
            g_alpha[k] = -float(gr @ outputs[k + 1])
            gp = gp + apply_vjp(k + 1, -alpha * gr)
        # x_{k+1} = x_k + alpha_k p_k
        g_alpha[k] += float(gx @ p_k)
        gp = gp + alpha * gx
    # p_0 = r_0 and r_0 = y - A y
    apply_vjp(0, -(gr + gp))
    return g_alpha, g_beta


def calibrate_cg_params(system_batch, depth_T: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed learned-mode scalars: per-depth means of analytic alpha/beta.

    system_batch is a sequence of no-argument callables that return a
    (matvec, y) pair, so that each system is built in the lane that solves
    it. Every element is solved in analytic mode under the default
    breakdown guard, on the lanes (in_lanes), and the realized scalars (0
    after a breakdown) are averaged elementwise in batch order.
    """
    system_batch = list(system_batch)
    if not system_batch:
        raise InvalidInputError("calibration batch must be nonempty")
    cfg = CgConfig(depth_T=depth_T)

    def used_scalars(element):
        matvec, y = element()
        _, trace = unrolled_cg(matvec, y, cfg)
        return trace.used_alphas, trace.used_betas

    runs = in_lanes([partial(used_scalars, element) for element in system_batch])
    return np.mean([a for a, _ in runs], axis=0), np.mean([b for _, b in runs], axis=0)
