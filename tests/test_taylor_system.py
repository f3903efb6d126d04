import numpy as np
import pytest

from graphdenoise import (
    InvalidInputError,
    TaylorSystemOperator,
    bilateral_factor,
    build_filter_matrix,
    default_coefficients,
    extract_features,
    normalize,
)
from oracles import (
    dense_truncated_inverse_matrix,
    operator_from_dense,
    operator_with_spectrum,
    random_patch,
)


def make_system(psi_dense, degree_K=10, mu=1.0, coeffs=None):
    op = operator_from_dense(psi_dense)
    if coeffs is None:
        coeffs = default_coefficients(degree_K)
    return TaylorSystemOperator(psi=op, coefficients=coeffs, mu=mu)


def patch_system(seed, side, degree_K=10, radius=2):
    features = extract_features(random_patch(seed, side), side)
    op = normalize(build_filter_matrix(features, bilateral_factor(), radius))
    return TaylorSystemOperator(op, default_coefficients(degree_K))


class TestDefaultCoefficients:
    def test_alternating_signs_exact(self):
        coeffs = default_coefficients(10)
        assert np.array_equal(coeffs, np.array([1.0, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1]))

    def test_rejects_degree_below_one(self):
        with pytest.raises(InvalidInputError):
            default_coefficients(0)


class TestTruncatedInverse:
    def test_identity_smoother_is_its_own_inverse(self):
        system = make_system(np.eye(5))
        v = np.linspace(-1, 1, 5)
        # (Psi - I) v = 0, so only the k = 0 term survives
        assert np.array_equal(system.apply_system(v), v)

    def test_half_identity_geometric_tail(self):
        system = make_system(np.diag([0.5, 0.5]), degree_K=10)
        v = np.array([1.0, -2.0])
        out = system.apply_system(v)
        exact = 2.0 * v  # dense inverse of diag(0.5)
        rel = np.linalg.norm(out - exact) / np.linalg.norm(exact)
        assert rel <= 0.5**11  # geometric truncation tail
        assert rel == pytest.approx(0.5**11, rel=1e-6)

    def test_matches_dense_inverse_for_well_conditioned_psi(self):
        rng = np.random.default_rng(17)
        op = operator_with_spectrum(rng, 16, 0.3, 1.0)
        system = TaylorSystemOperator(op, default_coefficients(30))
        v = rng.standard_normal(16)
        exact = np.linalg.solve(op.to_dense(), v)
        out = system.apply_system(v)
        assert np.linalg.norm(out - exact) / np.linalg.norm(exact) < 1e-4

    def test_exactly_k_smoother_applies(self):
        calls = 0
        features = extract_features(random_patch(3, 4), 4)
        op = normalize(build_filter_matrix(features, bilateral_factor(), 2))
        original = op.apply

        def counting_apply(v):
            nonlocal calls
            calls += 1
            return original(v)

        op.apply = counting_apply
        system = TaylorSystemOperator(op, default_coefficients(7))
        system.apply_system(np.ones(16))
        assert calls == 7

    @pytest.mark.parametrize("degree_K", [1, 4, 10])
    def test_terms_are_newest_first_powers_of_the_shifted_smoother(self, degree_K):
        system = patch_system(5, 5, degree_K=degree_K, radius=2)
        shifted = system.psi.to_dense() - np.eye(25)
        v = np.random.default_rng(degree_K).standard_normal(25)
        out, terms = system.apply_truncated_inverse_with_cache(v)
        assert terms.shape == (degree_K + 1, 25)
        assert np.array_equal(terms[degree_K], v)
        power = v
        for k in range(degree_K + 1):
            np.testing.assert_allclose(terms[degree_K - k], power, rtol=0, atol=1e-13)
            power = shifted @ power
        assert system.combine(terms).tobytes() == out.tobytes()
        assert system.apply_system(v).tobytes() == out.tobytes()

    def test_length_mismatch(self):
        system = make_system(np.eye(4))
        with pytest.raises(InvalidInputError):
            system.apply_system(np.zeros(5))


class TestApplySystem:
    def test_zero_vector(self):
        system = patch_system(0, 4)
        assert np.array_equal(system.apply_system(np.zeros(16)), np.zeros(16))

    def test_identity_smoother(self):
        system = make_system(np.eye(6))
        v = np.arange(6.0)
        assert np.array_equal(system.apply_system(v), v)

    def test_output_bitwise_independent_of_mu(self):
        features = extract_features(random_patch(2, 4), 4)
        op = normalize(build_filter_matrix(features, bilateral_factor(), 2))
        v = np.random.default_rng(0).standard_normal(16)
        outs = [
            TaylorSystemOperator(op, default_coefficients(10), mu=mu).apply_system(v)
            for mu in (0.1, 1.0, 10.0)
        ]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])


class TestApplyLaplacian:
    def test_identity_smoother_has_zero_laplacian(self):
        system = make_system(np.eye(5))
        v = np.linspace(0, 1, 5)
        assert np.array_equal(system.apply_laplacian(v), np.zeros(5))

    def test_constants_in_the_kernel_for_stochastic_smoother(self):
        # Psi 1 = 1 here, and the polynomial maps eigenvalue 1 to exactly 1,
        # so the realized Laplacian annihilates constants.
        psi = np.array([[0.6, 0.4], [0.4, 0.6]])
        system = make_system(psi, degree_K=12)
        out = system.apply_laplacian(np.ones(2))
        assert np.max(np.abs(out)) < 1e-12

    def test_matches_dense_polynomial_oracle(self):
        rng = np.random.default_rng(8)
        op = operator_with_spectrum(rng, 12, 0.2, 1.0)
        mu = 0.7
        system = TaylorSystemOperator(op, default_coefficients(9), mu=mu)
        dense = dense_truncated_inverse_matrix(op.to_dense(), 9, default_coefficients(9))
        v = rng.standard_normal(12)
        exact = (dense @ v - v) / mu
        out = system.apply_laplacian(v)
        assert np.linalg.norm(out - exact) / np.linalg.norm(exact) < 1e-13


class TestGlrValue:
    def test_zero_signal(self):
        assert patch_system(1, 4).glr_value(np.zeros(16)) == 0.0

    def test_identity_smoother(self):
        system = make_system(np.eye(7))
        assert system.glr_value(np.random.default_rng(2).standard_normal(7)) == 0.0

    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(9)
        op = operator_with_spectrum(rng, 10, 0.3, 1.0)
        mu = 2.5
        system = TaylorSystemOperator(op, default_coefficients(8), mu=mu)
        dense = dense_truncated_inverse_matrix(op.to_dense(), 8, default_coefficients(8))
        laplacian = (dense - np.eye(10)) / mu
        x = rng.standard_normal(10)
        exact = float(x @ laplacian @ x)
        assert system.glr_value(x) == pytest.approx(exact, rel=1e-12)


class TestProperties:
    def test_truncation_error_decays_with_degree(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            op = operator_with_spectrum(rng, 10, 0.3, 1.0)
            inv = np.linalg.inv(op.to_dense())
            v = rng.standard_normal(10)
            exact = inv @ v
            errs = []
            for degree in (10, 15):
                system = TaylorSystemOperator(op, default_coefficients(degree))
                out = system.apply_system(v)
                errs.append(np.linalg.norm(out - exact) / np.linalg.norm(exact))
            assert errs[1] <= errs[0]

    def test_linearity(self):
        system = patch_system(4, 4)
        rng = np.random.default_rng(4)
        u, v = rng.standard_normal((2, 16))
        a, b = 1.7, -0.4
        lhs = system.apply_system(a * u + b * v)
        rhs = a * system.apply_system(u) + b * system.apply_system(v)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_realized_operator_is_symmetric(self):
        system = patch_system(6, 5, degree_K=10, radius=3)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(25)
        v = rng.standard_normal(25)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        assert abs(u @ system.apply_system(v) - v @ system.apply_system(u)) < 1e-10

    def test_composition_with_smoother_approaches_identity(self):
        rng = np.random.default_rng(7)
        op = operator_with_spectrum(rng, 12, 0.3, 1.0)
        system = TaylorSystemOperator(op, default_coefficients(30))
        v = rng.standard_normal(12)
        out = system.apply_system(op.apply(v))
        assert np.linalg.norm(out - v) / np.linalg.norm(v) < 1e-3


class TestValidation:
    @pytest.mark.parametrize("coefficients", [np.ones(1), np.ones((2, 3)), np.float64(1.0)])
    def test_coefficients_are_a_vector_of_degree_at_least_one(self, coefficients):
        op = operator_from_dense(np.eye(3))
        with pytest.raises(InvalidInputError):
            TaylorSystemOperator(psi=op, coefficients=coefficients)

    def test_degree_is_read_from_the_coefficients(self):
        assert patch_system(0, 3, degree_K=6).degree_K == 6

    def test_nonpositive_mu(self):
        op = operator_from_dense(np.eye(3))
        with pytest.raises(InvalidInputError):
            TaylorSystemOperator(psi=op, coefficients=np.ones(3), mu=-1.0)

    def test_initial_coefficients_are_alternating(self):
        system = patch_system(0, 3, degree_K=6)
        assert np.array_equal(system.coefficients, (-1.0) ** np.arange(7))
