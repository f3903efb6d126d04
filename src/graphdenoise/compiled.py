"""Learned-mode inference compiled into one Chebyshev filter of Psi.

Learned CG applies the same scalars to every input, so the trained network
is one fixed polynomial of the smoother, x = Q(Psi) y, of degree K * T,
which costs K * (T + 1) matvecs unrolled. Its scalar response Q(lambda) is
the unrolled CG itself run on scalars (network_response). compile_filter
fits Q on [LOWER, 1] = [0, 1] with the lowest-degree Chebyshev interpolant
that matches it to FIT_TOLERANCE, and the compiled filter is applied by
the three-term Chebyshev recurrence in Psi, one matvec per degree.

The interval holds every patch's spectrum: Psi is positive definite and
non-expansive by construction (graph_filter: the tapered window's Fejer
symbol is >= 0, the Schur product with the Gaussian kernel keeps it
positive definite, and Psi is congruent to that product), so its
eigenvalues lie in (0, 1]. The fit is therefore valid on every patch, and
a checkpoint that compiles takes the compiled filter for every patch with
no per-patch check. The interval is also as tight as it can be: Q may
explode below 0, where no eigenvalue lies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .cg_unroll import unrolled_cg
from .errors import NumericDivergenceError
from .graph_filter import DenoiserOperator
from .taylor_system import TaylorSystemOperator
from .train import ParamVector, PipelineConfig, solve_system

# lower end of the fitted interval [LOWER, 1]: Psi's spectrum lies in (0, 1]
LOWER = 0.0
# largest |Q - P| / max(|Q|, 1) the fit may leave on the check grid
FIT_TOLERANCE = 1e-8
# candidate degrees are the multiples of DEGREE_STEP
DEGREE_STEP = 8
# the fit is checked at the extrema of the Chebyshev polynomial of this
# degree: on them the maximum of a polynomial of degree n is at least
# cos(n pi / (2 CHECK_DEGREE)) times its maximum on the interval, so
# candidate degrees stay below CHECK_DEGREE // 2, where that factor is
# above cos(pi / 4)
CHECK_DEGREE = 1024

# [-1, 1] onto [LOWER, 1] and back
_HALF_WIDTH = (1.0 - LOWER) / 2.0
_CENTER = (1.0 + LOWER) / 2.0


def network_response(theta: ParamVector, hyper: PipelineConfig, lam) -> np.ndarray:
    """Q(lam): the learned network's gain on an eigenvector of Psi with
    eigenvalue lam, for each entry of lam.

    unrolled_cg runs in learned mode on the right-hand side 1 with the
    system v -> p(lam) v, where p is the truncated-inverse polynomial
    evaluated by the system apply's own recurrence. Raises
    NumericDivergenceError where the CG state stops being finite.
    """
    lam = np.asarray(lam, dtype=float)
    s = hyper.expansion_s
    scaled = theta.tse_coeffs / s ** np.arange(1, hyper.degree_K + 2)
    # a non-finite p is caught by unrolled_cg
    with np.errstate(over="ignore", invalid="ignore"):
        term = np.ones_like(lam)
        p = scaled[0] * term
        for c in scaled[1:]:
            term = lam * term - s * term
            p = p + c * term
    x, _ = unrolled_cg(lambda v: p * v, np.ones_like(lam), theta.cg_config())
    return x


@dataclass(frozen=True, eq=False)
class CompiledFilter:
    """A Chebyshev series P on [LOWER, 1] that matches the learned network's
    response Q there to fit_error (max |Q - P| / max(|Q|, 1))."""

    coefficients: np.ndarray  # c_0 .. c_degree
    fit_error: float

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def apply(self, psi: DenoiserOperator, y: np.ndarray) -> np.ndarray:
        """P(Psi) y, by T_{k+1} = 2 L T_k - T_{k-1} with L = (Psi - CENTER I)
        / HALF_WIDTH, which maps [LOWER, 1] onto [-1, 1]: one matvec of
        Psi per degree."""
        c = self.coefficients
        with np.errstate(over="ignore", invalid="ignore"):
            previous = y
            term = (psi.apply(y) - _CENTER * y) / _HALF_WIDTH
            out = c[0] * previous + c[1] * term
            for c_k in c[2:]:
                step = (psi.apply(term) - _CENTER * term) * (2.0 / _HALF_WIDTH)
                previous, term = term, step - previous
                out += c_k * term
        if not np.all(np.isfinite(out)):
            raise NumericDivergenceError("non-finite output of the compiled filter")
        return out


def compile_filter(theta: ParamVector, hyper: PipelineConfig) -> CompiledFilter | None:
    """The learned network of theta as a Chebyshev filter on [LOWER, 1].

    The degree is the smallest multiple of DEGREE_STEP whose interpolant
    at the first-kind Chebyshev points matches Q to FIT_TOLERANCE on the
    check grid. Returns None, and the unrolled network stays the only
    path, when Q is not finite on the interval or when no degree fits
    below both CHECK_DEGREE // 2 (the check grid bounds the fit no higher)
    and the K * (T + 1) matvecs of solve_system (the compiled filter must
    beat the unrolled cost).
    """
    unrolled_matvecs = hyper.degree_K * (hyper.depth_T + 1)
    degrees = range(DEGREE_STEP, min(unrolled_matvecs, CHECK_DEGREE // 2), DEGREE_STEP)
    if not degrees:
        return None
    check = chebyshev.chebpts2(CHECK_DEGREE + 1)
    nodes = [chebyshev.chebpts1(degree + 1) for degree in degrees]
    points = np.concatenate([check, *nodes])
    try:
        response = network_response(theta, hyper, _CENTER + _HALF_WIDTH * points)
    except NumericDivergenceError:
        return None
    q, *at_nodes = np.split(response, np.cumsum([check.size, *map(len, nodes)])[:-1])
    # T_0 .. T_{max degree} at the check points, one column each
    check_vander = chebyshev.chebvander(check, degrees[-1])
    for degree, t, q_t in zip(degrees, nodes, at_nodes):
        # discrete orthogonality of T_0 .. T_degree at these points
        coefficients = chebyshev.chebvander(t, degree).T @ q_t * (2.0 / t.size)
        coefficients[0] /= 2.0
        fitted = check_vander[:, : degree + 1] @ coefficients
        fit_error = float(np.max(np.abs(q - fitted) / np.maximum(np.abs(q), 1.0)))
        if fit_error <= FIT_TOLERANCE:
            return CompiledFilter(coefficients, fit_error)
    return None


def solve_patch(
    theta: ParamVector,
    system: TaylorSystemOperator,
    noisy: np.ndarray,
    compiled: CompiledFilter | None,
) -> np.ndarray:
    """The learned network of theta on a built patch system: the compiled
    filter when there is one, else the unrolled solve_system."""
    if compiled is not None:
        return compiled.apply(system.psi, noisy)
    return solve_system(theta, system, noisy)
