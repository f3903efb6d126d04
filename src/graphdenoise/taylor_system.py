"""Regularized system operator as a truncated Taylor polynomial of the smoother.

The smoothing MAP problem solves (I + mu*L) x = y, where the generalized
graph Laplacian is tied to the smoother by L = mu^{-1}(Psi^{-1} - I).
Expanding f(x) = 1/x around 1 gives the Neumann series

    Psi^{-1} ~= sum_{k=0}^{K} a_k (Psi - I)^k,   a_k = (-1)^k,

so the Laplacian is a degree-K polynomial of Psi and never needs to be
materialized. The expansion point is fixed: the spectrum of Psi lies in
(0, 1] (graph_filter), inside the series' interval of convergence (0, 2),
and since the a_k are trained, the powers of (x - s) about any other point
s would span the same degree-K polynomials.

Because the same mu appears in the Laplacian definition and in the
system, it cancels:

    (I + mu*L) v = v + (Psi^{-1}_K v - v) = Psi^{-1}_K v.

apply_system is therefore the truncated inverse itself. truncated_inverse
is the one recurrence of the polynomial: the system applies it with Psi,
and the compiled network (compiled.py) with an eigenvalue, to get Q(lambda).
It also returns the terms, which compiled_filter_vjp reads as the powers
(lambda - 1)^k; the system's apply keeps the name
apply_truncated_inverse_with_cache because the benchmark's tracer wraps
that method. mu is kept only for the Laplacian / regularizer diagnostics.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .graph_filter import DenoiserOperator


def default_coefficients(degree_K: int) -> np.ndarray:
    """Alternating-sign Taylor coefficients a_k = (-1)^k for f(x) = 1/x."""
    if degree_K < 1:
        raise InvalidInputError("degree_K must be >= 1")
    return (-1.0) ** np.arange(degree_K + 1)


def truncated_inverse(
    coefficients: np.ndarray, apply: Callable[[np.ndarray], np.ndarray], v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sum_k a_k (A - I)^k v for the map apply: v -> A v, and its terms.

    t_0 = v, t_{k+1} = apply(t_k) - t_k, and the sum adds a_k t_k in order
    of k, so it makes len(coefficients) - 1 applies. The terms come back as
    one (K+1, *v.shape) array, row k = t_k.
    """
    terms = np.empty((coefficients.size, *v.shape))
    terms[0] = v
    out = coefficients[0] * terms[0]
    for k in range(1, coefficients.size):
        np.subtract(apply(terms[k - 1]), terms[k - 1], out=terms[k])
        out = out + coefficients[k] * terms[k]
    return out, terms


@dataclass(eq=False)
class TaylorSystemOperator:
    """Matrix-free (I + mu*L) realized as the degree-K truncated inverse of Psi."""

    psi: DenoiserOperator
    coefficients: np.ndarray  # a_0..a_K
    mu: float = 1.0

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.ndim != 1 or self.coefficients.size < 2:
            raise InvalidInputError(
                f"need K + 1 >= 2 coefficients, got shape {self.coefficients.shape}"
            )
        if self.mu <= 0.0:
            raise InvalidInputError("mu must be positive")

    # apply_system's one caller; a method of its own only because the
    # benchmark's tracer wraps it by this name
    def apply_truncated_inverse_with_cache(
        self, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """truncated_inverse of the coefficients in Psi: the apply's output,
        exactly K applies of Psi, and its terms (K+1, n), row k = t_k."""
        return truncated_inverse(self.coefficients, self.psi.apply, np.asarray(v, dtype=float))

    def apply_system(self, v: np.ndarray) -> np.ndarray:
        """(I + mu*L) v. The shared-mu cancellation makes this the truncated
        inverse itself, so the output is bitwise independent of mu."""
        return self.apply_truncated_inverse_with_cache(v)[0]

    def apply_laplacian(self, v: np.ndarray) -> np.ndarray:
        """mu^{-1} (Psi^{-1}_K - I) v; diagnostic path only."""
        return (self.apply_system(v) - np.asarray(v, dtype=float)) / self.mu

    def glr_value(self, x: np.ndarray) -> float:
        """Smoothness diagnostic x^T L x.

        Truncation can make this slightly negative; callers log the value
        rather than asserting positivity.
        """
        x = np.asarray(x, dtype=float)
        return float(x @ self.apply_laplacian(x))

