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

apply_system is therefore the truncated inverse itself, and every apply
goes through apply_truncated_inverse_with_cache, which also returns the
recurrence terms for the reverse pass. mu is kept only for the Laplacian /
regularizer diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .graph_filter import DenoiserOperator


def default_coefficients(degree_K: int) -> np.ndarray:
    """Alternating-sign Taylor coefficients a_k = (-1)^k for f(x) = 1/x."""
    if degree_K < 1:
        raise InvalidInputError("degree_K must be >= 1")
    return (-1.0) ** np.arange(degree_K + 1)


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

    @property
    def degree_K(self) -> int:
        return self.coefficients.size - 1

    @property
    def n(self) -> int:
        return self.psi.n

    def _check(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise InvalidInputError(f"expected a vector of length {self.n}, got shape {v.shape}")
        return v

    def apply_truncated_inverse_with_cache(
        self, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """sum_k a_k (Psi - I)^k v, exactly K applies of Psi, and the
        recurrence terms t_k as one (K+1, n) array, newest first: row K - k
        holds t_k, row K the input v.

        t_0 = v, t_{k+1} = Psi t_k - t_k; the terms enable exact
        reverse-mode differentiation through the polynomial.
        """
        v = self._check(v)
        K = self.degree_K
        terms = np.empty((K + 1, v.size))
        terms[K] = v
        for row in range(K - 1, -1, -1):
            t = terms[row + 1]
            np.subtract(self.psi.apply(t), t, out=terms[row])
        return self.combine(terms), terms

    def combine(self, terms: np.ndarray) -> np.ndarray:
        """sum_k a_k t_k over one apply's terms (newest first, as
        apply_truncated_inverse_with_cache returns them), added in order of
        k; rebuilds the apply's output bitwise."""
        c = self.coefficients
        K = self.degree_K
        acc = c[0] * terms[K]
        for k in range(1, K + 1):
            acc = acc + c[k] * terms[K - k]
        return acc

    def apply_system(self, v: np.ndarray) -> np.ndarray:
        """(I + mu*L) v. The shared-mu cancellation makes this the truncated
        inverse itself, so the output is bitwise independent of mu."""
        return self.apply_truncated_inverse_with_cache(v)[0]

    def apply_laplacian(self, v: np.ndarray) -> np.ndarray:
        """mu^{-1} (Psi^{-1}_K - I) v; diagnostic path only."""
        return (self.apply_system(v) - self._check(v)) / self.mu

    def glr_value(self, x: np.ndarray) -> float:
        """Smoothness diagnostic x^T L x.

        Truncation can make this slightly negative; callers log the value
        rather than asserting positivity.
        """
        x = self._check(x)
        return float(x @ self.apply_laplacian(x))

