"""Learned-mode inference compiled into one Chebyshev filter of Psi.

Learned CG applies the same scalars to every input, so the trained network
is one fixed polynomial of the smoother, x = Q(Psi) y, of degree K * T,
which costs K * (T + 1) matvecs unrolled. Its scalar response Q(lambda) is
the unrolled CG itself run on scalars (network_response), on the system's
own truncated_inverse (taylor_system) run with lambda in place of Psi.
compile_filter interpolates Q on [0, 1] at K * T + 1 Chebyshev points (at
most 513), which is exact, and the compiled filter is applied by the
three-term Chebyshev recurrence in Psi, one matvec per degree. It is the
only path learned inference takes: denoise, eval and training's validation
(evaluate_psnr).

The series is cut at one of two tails. Inference drops coefficients
summing to at most FIT_TOLERANCE (1e-8). The training gradient
(train.loss_and_grad) differentiates the filter cut at GRADIENT_TOLERANCE
(1e-10): at 1e-8 the filter is as good a denoiser, but its gradient misses
the unrolled network's finite differences by up to 2.7e-3 relative, always
at cg_alpha[0] (acceptance criterion 4 allows 1e-4), and a few more
degrees bring that to at most about 2.3e-5 (degree 54 instead of 49 at the
benchmark's calibrated start). Both filters are checked against
Q to FIT_TOLERANCE. compiled_filter_vjp carries the gradient from the
coefficients back to theta's scalars: the coefficients are linear in Q at
the interpolation nodes, and Q there is the scalar network, reversed by
learned_cg_vjp.

The interval holds every patch's spectrum: Psi is positive definite and
non-expansive by construction (graph_filter: the tapered window's Fejer
symbol is >= 0, the Schur product with the Gaussian kernel keeps it
positive definite, and Psi is congruent to that product), so its
eigenvalues lie in (0, 1]. The filter is therefore valid on every patch
with no per-patch check. The interval is also as tight as it can be: Q may
explode below 0, where no eigenvalue lies.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import chebyshev

from .cg_unroll import learned_cg_vjp, unrolled_cg
from .errors import NumericDivergenceError
from .graph_filter import DenoiserOperator
from .taylor_system import truncated_inverse

if TYPE_CHECKING:  # train imports this module, so the import runs one way
    from .train import ParamVector

# largest sum |c_k| of the dropped coefficients of an inference filter,
# and largest |Q - P| / max(|Q|, 1) any filter may leave on the check grid
FIT_TOLERANCE = 1e-8
# largest sum |c_k| of the dropped coefficients of the filter the training
# gradient differentiates (why it is tighter: the module docstring)
GRADIENT_TOLERANCE = 1e-10
# the fit is checked at the extrema of the Chebyshev polynomial of this
# degree: on them the maximum of a polynomial of degree n is at least
# cos(n pi / (2 CHECK_DEGREE)) times its maximum on the interval, so the
# interpolation degree stays at or below CHECK_DEGREE // 2, where that
# factor is at least cos(pi / 4)
CHECK_DEGREE = 1024


def network_response(theta: ParamVector, lam) -> np.ndarray:
    """Q(lam): the learned network's gain on an eigenvector of Psi with
    eigenvalue lam, for each entry of lam.

    unrolled_cg runs in learned mode on the right-hand side 1 with the
    system v -> p(lam) v, where p is the system apply's own
    truncated_inverse, run with lam in place of Psi. Raises
    NumericDivergenceError where the CG state stops being finite.
    """
    lam = np.asarray(lam, dtype=float)
    # a non-finite p is caught by unrolled_cg
    with np.errstate(over="ignore", invalid="ignore"):
        p, _ = truncated_inverse(theta.tse_coeffs, lambda t: lam * t, np.ones_like(lam))
    x, _ = unrolled_cg(lambda v: p * v, np.ones_like(lam), theta.cg_config())
    return x


def _nodes(theta: ParamVector) -> np.ndarray:
    """The first-kind Chebyshev points at which compile_filter
    interpolates Q, in [-1, 1]: min(K * T, CHECK_DEGREE // 2) + 1 of them."""
    degree = min((theta.tse_coeffs.size - 1) * theta.cg_alpha.size, CHECK_DEGREE // 2)
    return chebyshev.chebpts1(degree + 1)


@dataclass(frozen=True, eq=False)
class CompiledFilter:
    """A Chebyshev series P on [0, 1] that matches the learned network's
    response Q there to fit_error (max |Q - P| / max(|Q|, 1))."""

    coefficients: np.ndarray  # c_0 .. c_degree
    fit_error: float

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def terms(self, psi: DenoiserOperator, y: np.ndarray) -> Iterator[np.ndarray]:
        """u_k = T_k(L) y for k = 0 .. degree, with L = 2 Psi - I, which
        maps [0, 1] onto [-1, 1]: u_0 = y itself, then u_{k+1} = 2 L u_k -
        u_{k-1} (u_1 = L y), one matvec of Psi per term, each a new array.
        The one recurrence of the filter: apply sums its terms, and the
        training gradient keeps them for its reverse pass."""
        yield y
        if self.degree:
            previous, term = y, psi.apply(y)
            term *= 2.0
            term -= y
            yield term
            for _ in range(self.degree - 1):
                # 2 (2 Psi u_k - u_k) - u_{k-1}, in place on the matvec's output
                w = psi.apply(term)
                w *= 2.0
                w -= term
                w *= 2.0
                w -= previous
                previous, term = term, w
                yield term

    def apply(self, psi: DenoiserOperator, y: np.ndarray) -> np.ndarray:
        """P(Psi) y = combine(terms(psi, y)): one matvec of Psi per degree,
        none at degree 0; y is not modified."""
        return self.combine(self.terms(psi, y))

    def combine(self, terms: Iterable[np.ndarray]) -> np.ndarray:
        """sum_k c_k u_k over the terms u_0 .. u_degree, added in order of
        k, each c_k u_k formed in one reused scratch vector; a non-finite
        sum raises NumericDivergenceError."""
        c = self.coefficients
        with np.errstate(over="ignore", invalid="ignore"):
            terms = iter(terms)
            out = c[0] * next(terms)
            scaled = np.empty_like(out)
            for c_k, term in zip(c[1:], terms):
                np.multiply(term, c_k, out=scaled)
                out += scaled
        if not np.all(np.isfinite(out)):
            raise NumericDivergenceError("non-finite output of the compiled filter")
        return out


def compile_filter(theta: ParamVector, tail: float = FIT_TOLERANCE) -> CompiledFilter:
    """The learned network of theta as a Chebyshev filter on [0, 1].

    Q is interpolated at the first-kind Chebyshev points of degree
    min(K * T, CHECK_DEGREE // 2) (_nodes), with K = tse_coeffs.size - 1
    and T = cg_alpha.size, exactly up to rounding since Q has degree K * T,
    and the series is cut to the shortest prefix whose dropped tail has
    sum |c_k| <= tail: FIT_TOLERANCE for inference, GRADIENT_TOLERANCE for
    the training gradient. The degree is thus at most K * T, below the
    K * (T + 1) matvecs of the unrolled network. Raises
    NumericDivergenceError when Q is not finite on the interval, or when
    the filter misses Q by more than FIT_TOLERANCE on the check grid,
    whatever the tail: a tighter check would measure the rounding of Q
    itself, so that a network that validates could fail its gradient.
    """
    nodes = _nodes(theta)
    check = chebyshev.chebpts2(CHECK_DEGREE + 1)
    response = network_response(theta, (1.0 + np.concatenate([nodes, check])) / 2.0)
    at_nodes, q = response[: nodes.size], response[nodes.size :]
    # discrete orthogonality of T_0 .. T_degree at the nodes
    coefficients = chebyshev.chebvander(nodes, nodes.size - 1).T @ at_nodes * (2.0 / nodes.size)
    coefficients[0] /= 2.0
    # tails[k] = sum |c_j| over j >= k, nonincreasing in k
    tails = np.cumsum(np.abs(coefficients[::-1]))[::-1]
    coefficients = coefficients[: max(np.count_nonzero(tails > tail), 1)]
    fitted = chebyshev.chebvander(check, coefficients.size - 1) @ coefficients
    fit_error = float(np.max(np.abs(q - fitted) / np.maximum(np.abs(q), 1.0)))
    if not fit_error <= FIT_TOLERANCE:
        raise NumericDivergenceError(
            f"the learned network does not compile: fit error {fit_error:.3g} "
            f"on the check grid exceeds {FIT_TOLERANCE:g}"
        )
    return CompiledFilter(coefficients, fit_error)


def compiled_filter_vjp(
    theta: ParamVector, coefficient_bar: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The adjoints of theta's tse_coeffs, cg_alpha and cg_beta, given the
    adjoint coefficient_bar of compile_filter(theta, tail)'s coefficients
    (one entry per kept coefficient).

    The kept coefficients are a fixed linear map of Q at the nodes (the
    cut moves only where a tail sum crosses the tolerance), so
    coefficient_bar is pulled back to the nodes by that map's transpose,
    then through one reverse pass of network_response's unrolled CG
    (learned_cg_vjp) there. Its system v -> p v pulls g back to p g and
    adds g v to the adjoint of p, which reaches a_k through the powers
    (lam - 1)^k.
    """
    nodes = _nodes(theta)
    # transpose of c = (2 / N) V^T Q(nodes), c_0 halved, cut to a prefix
    scaled = coefficient_bar * (2.0 / nodes.size)
    scaled[0] /= 2.0
    q_bar = chebyshev.chebvander(nodes, coefficient_bar.size - 1) @ scaled
    lam = (1.0 + nodes) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        p, powers = truncated_inverse(theta.tse_coeffs, lambda t: lam * t, np.ones_like(lam))
    inputs, outputs = [], []

    def matvec(v):
        inputs.append(v)
        outputs.append(p * v)
        return outputs[-1]

    cfg = theta.cg_config()
    unrolled_cg(matvec, np.ones_like(p), cfg)
    p_bar = np.zeros_like(p)

    def apply_vjp(j, g):
        np.add(p_bar, g * inputs[j], out=p_bar)
        return p * g

    alpha_bar, beta_bar = learned_cg_vjp(apply_vjp, inputs, outputs, q_bar, cfg)
    return np.array([p_bar @ power for power in powers]), alpha_bar, beta_bar
