"""Learned-mode inference compiled into one Chebyshev filter of Psi.

Learned CG applies the same scalars to every input, so the trained network
is one fixed polynomial of the smoother, x = Q(Psi) y, of degree K * T,
which costs K * (T + 1) matvecs unrolled. Its scalar response Q(lambda) is
the unrolled CG itself run on scalars (network_response). compile_filter
interpolates Q on [0, 1] at K * T + 1 Chebyshev points (at most 513), which
is exact, and the compiled filter is applied by the three-term Chebyshev
recurrence in Psi, one matvec per degree. It is the only path learned
inference takes: denoise, eval and training's validation (evaluate_psnr).

The interval holds every patch's spectrum: Psi is positive definite and
non-expansive by construction (graph_filter: the tapered window's Fejer
symbol is >= 0, the Schur product with the Gaussian kernel keeps it
positive definite, and Psi is congruent to that product), so its
eigenvalues lie in (0, 1]. The filter is therefore valid on every patch
with no per-patch check. The interval is also as tight as it can be: Q may
explode below 0, where no eigenvalue lies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import chebyshev

from .cg_unroll import unrolled_cg
from .errors import NumericDivergenceError
from .graph_filter import DenoiserOperator

if TYPE_CHECKING:  # train imports this module, so the import runs one way
    from .train import ParamVector

# largest sum |c_k| of the dropped coefficients, and largest
# |Q - P| / max(|Q|, 1) the filter may leave on the check grid
FIT_TOLERANCE = 1e-8
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
    system v -> p(lam) v, where p is the truncated-inverse polynomial
    evaluated by the system apply's own recurrence. Raises
    NumericDivergenceError where the CG state stops being finite.
    """
    lam = np.asarray(lam, dtype=float)
    # a non-finite p is caught by unrolled_cg
    with np.errstate(over="ignore", invalid="ignore"):
        term = np.ones_like(lam)
        p = theta.tse_coeffs[0] * term
        for c in theta.tse_coeffs[1:]:
            term = lam * term - term
            p = p + c * term
    x, _ = unrolled_cg(lambda v: p * v, np.ones_like(lam), theta.cg_config())
    return x


@dataclass(frozen=True, eq=False)
class CompiledFilter:
    """A Chebyshev series P on [0, 1] that matches the learned network's
    response Q there to fit_error (max |Q - P| / max(|Q|, 1))."""

    coefficients: np.ndarray  # c_0 .. c_degree
    fit_error: float

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def apply(self, psi: DenoiserOperator, y: np.ndarray) -> np.ndarray:
        """P(Psi) y, by T_{k+1} = 2 L T_k - T_{k-1} with L = 2 Psi - I,
        which maps [0, 1] onto [-1, 1]: one matvec of Psi per degree, none
        at degree 0."""
        c = self.coefficients
        with np.errstate(over="ignore", invalid="ignore"):
            out = c[0] * y
            if self.degree:
                previous, term = y, 2.0 * psi.apply(y) - y
                out += c[1] * term
                for c_k in c[2:]:
                    previous, term = term, 2.0 * (2.0 * psi.apply(term) - term) - previous
                    out += c_k * term
        if not np.all(np.isfinite(out)):
            raise NumericDivergenceError("non-finite output of the compiled filter")
        return out


def compile_filter(theta: ParamVector) -> CompiledFilter:
    """The learned network of theta as a Chebyshev filter on [0, 1].

    Q is interpolated at the first-kind Chebyshev points of degree
    min(K * T, CHECK_DEGREE // 2), with K = tse_coeffs.size - 1 and
    T = cg_alpha.size, exactly up to rounding since Q has degree K * T,
    and the series is cut to the shortest prefix whose dropped tail
    has sum |c_k| <= FIT_TOLERANCE. The degree is thus at most K * T, below
    the K * (T + 1) matvecs of the unrolled network. Raises
    NumericDivergenceError when Q is not finite on the interval, or when
    the filter misses Q by more than FIT_TOLERANCE on the check grid.
    """
    degree = min((theta.tse_coeffs.size - 1) * theta.cg_alpha.size, CHECK_DEGREE // 2)
    nodes = chebyshev.chebpts1(degree + 1)
    check = chebyshev.chebpts2(CHECK_DEGREE + 1)
    response = network_response(theta, (1.0 + np.concatenate([nodes, check])) / 2.0)
    at_nodes, q = response[: nodes.size], response[nodes.size :]
    # discrete orthogonality of T_0 .. T_degree at the nodes
    coefficients = chebyshev.chebvander(nodes, degree).T @ at_nodes * (2.0 / nodes.size)
    coefficients[0] /= 2.0
    # tail[k] = sum |c_j| over j >= k, nonincreasing in k
    tail = np.cumsum(np.abs(coefficients[::-1]))[::-1]
    coefficients = coefficients[: max(np.count_nonzero(tail > FIT_TOLERANCE), 1)]
    fitted = chebyshev.chebvander(check, coefficients.size - 1) @ coefficients
    fit_error = float(np.max(np.abs(q - fitted) / np.maximum(np.abs(q), 1.0)))
    if not fit_error <= FIT_TOLERANCE:
        raise NumericDivergenceError(
            f"the learned network does not compile: fit error {fit_error:.3g} "
            f"on the check grid exceeds {FIT_TOLERANCE:g}"
        )
    return CompiledFilter(coefficients, fit_error)
