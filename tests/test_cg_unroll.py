import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdenoise import (
    CgConfig,
    InvalidInputError,
    NumericDivergenceError,
    TaylorSystemOperator,
    calibrate_cg_params,
    default_coefficients,
    unrolled_cg,
)
from oracles import operator_from_dense, random_spd

TIGHT = 1e-300  # guard far below machine noise: pure solver behaviour


def identity_system(n):
    return TaylorSystemOperator(operator_from_dense(np.eye(n)), default_coefficients(5))


def dense_system(seed, n, lo=0.5, hi=5.0):
    rng = np.random.default_rng(seed)
    a = random_spd(rng, n, lo, hi)
    y = rng.standard_normal(n)
    return a, y


def iterates(matvec, y, depth, epsilon_guard):
    """x_0 .. x_depth: x_k from a run of depth k, which is bitwise the k-th
    iterate of any deeper run."""
    return [
        unrolled_cg(matvec, y, CgConfig(depth_T=k, epsilon_guard=epsilon_guard))[0]
        for k in range(depth + 1)
    ]


class TestAnalyticMode:
    def test_identity_system_returns_input_at_any_depth(self):
        system = identity_system(6)
        y = np.random.default_rng(0).random(6)
        for depth in (0, 1, 5, 15):
            x, trace = unrolled_cg(system.apply_system, y, CgConfig(depth_T=depth))
            assert np.array_equal(x, y)
            assert trace.residual_norms[0] == 0.0

    def test_finite_termination_small_dense_system(self):
        a, y = dense_system(1, 8)
        cfg = CgConfig(depth_T=8, epsilon_guard=TIGHT)
        x, _ = unrolled_cg(lambda v: a @ v, y, cfg)
        assert np.linalg.norm(a @ x - y) / np.linalg.norm(y) < 1e-10

    def test_solution_matches_direct_solve(self):
        a, y = dense_system(2, 12)
        cfg = CgConfig(depth_T=12, epsilon_guard=TIGHT)
        x, _ = unrolled_cg(lambda v: a @ v, y, cfg)
        x_star = np.linalg.solve(a, y)
        assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) < 1e-10

    def test_error_decreases_monotonically_in_a_norm(self):
        a, y = dense_system(3, 16)
        x_star = np.linalg.solve(a, y)
        errors = [
            float(np.sqrt((xk - x_star) @ a @ (xk - x_star)))
            for xk in iterates(lambda v: a @ v, y, 16, TIGHT)
        ]
        for before, after in zip(errors, errors[1:]):
            assert after <= before * (1.0 + 1e-10) + 1e-14

    def test_successive_residuals_nearly_orthogonal(self):
        a, y = dense_system(4, 10, lo=1.0, hi=3.0)
        residuals = [y - a @ xk for xk in iterates(lambda v: a @ v, y, 10, TIGHT)]
        for rk, rk1 in zip(residuals, residuals[1:]):
            n0, n1 = np.linalg.norm(rk), np.linalg.norm(rk1)
            if min(n0, n1) < 1e-8 * np.linalg.norm(y):
                break
            assert abs(rk1 @ rk) / (n0 * n1) < 1e-6

    def test_guard_freezes_after_breakdown(self):
        system = identity_system(4)  # r_0 = 0 triggers the guard at once
        y = np.ones(4)
        x, trace = unrolled_cg(system.apply_system, y, CgConfig(depth_T=6))
        assert np.array_equal(x, y)
        assert np.all(trace.used_alphas == 0.0)
        assert np.all(trace.used_betas == 0.0)

    def test_guard_freezes_on_vanishing_curvature(self):
        # A = 0 keeps r_0 = y nonzero, so the r.r check passes and the
        # |p.v| check trips after the first step's matvec.
        calls = []

        def zero_matvec(v):
            calls.append(v)
            return np.zeros_like(v)

        y = np.random.default_rng(3).random(5) + 0.1
        x, trace = unrolled_cg(zero_matvec, y, CgConfig(depth_T=4))
        assert np.array_equal(x, y)
        assert np.all(trace.used_alphas == 0.0)
        assert np.all(trace.used_betas == 0.0)
        assert trace.residual_norms == [float(np.linalg.norm(y))] * 5
        assert len(calls) == 2  # the initial residual plus the one step's matvec

    def test_zero_rhs_stays_zero_and_finite(self):
        a, _ = dense_system(5, 8)
        x, trace = unrolled_cg(lambda v: a @ v, np.zeros(8), CgConfig(depth_T=8))
        assert np.array_equal(x, np.zeros(8))
        assert np.all(trace.used_alphas == 0.0)
        assert np.all(np.isfinite(x))

    @given(st.integers(0, 500), st.sampled_from([2.0**-30, 2.0**30]))
    @settings(max_examples=20)
    def test_scaling_the_rhs_by_a_power_of_two_scales_the_solution(self, seed, c):
        # the breakdown guard is relative to r_0.r_0, so it trips at the same
        # step for y and c * y; every other operation scales exactly
        a, y = dense_system(seed, 6, lo=0.8, hi=4.0)
        cfg = CgConfig(depth_T=10)
        x, _ = unrolled_cg(lambda v: a @ v, y, cfg)
        scaled, _ = unrolled_cg(lambda v: a @ v, c * y, cfg)
        assert np.array_equal(scaled, c * x)

    @given(st.integers(0, 500))
    @settings(max_examples=20)
    def test_finite_termination_property(self, seed):
        a, y = dense_system(seed, 6, lo=0.8, hi=4.0)
        cfg = CgConfig(depth_T=6, epsilon_guard=TIGHT)
        x, _ = unrolled_cg(lambda v: a @ v, y, cfg)
        assert np.linalg.norm(a @ x - y) / np.linalg.norm(y) < 1e-8


class TestLearnedMode:
    def test_replaying_analytic_scalars_reproduces_output(self):
        a, y = dense_system(6, 10)
        analytic_cfg = CgConfig(depth_T=10, epsilon_guard=TIGHT)
        x_ref, trace = unrolled_cg(lambda v: a @ v, y, analytic_cfg)
        learned_cfg = CgConfig(
            depth_T=10,
            learned_alpha=trace.used_alphas,
            learned_beta=trace.used_betas,
        )
        x_learned, _ = unrolled_cg(lambda v: a @ v, y, learned_cfg)
        assert np.max(np.abs(x_learned - x_ref)) < 1e-12

    def test_scalars_used_unconditionally(self):
        system = identity_system(4)  # analytic mode would freeze here
        y = np.ones(4)
        cfg = CgConfig(
            depth_T=2,
            learned_alpha=np.array([0.5, 0.25]),
            learned_beta=np.array([0.1]),
        )
        x, trace = unrolled_cg(system.apply_system, y, cfg)
        assert np.array_equal(trace.used_alphas, np.array([0.5, 0.25]))
        assert np.array_equal(x, y)  # r_0 = 0, so the updates add nothing

    def test_nonfinite_scalar_raises_with_iteration_index(self):
        a, y = dense_system(7, 6)
        cfg = CgConfig(
            depth_T=3,
            learned_alpha=np.array([0.5, np.nan, 0.5]),
            learned_beta=np.array([0.1, 0.1]),
        )
        with pytest.raises(NumericDivergenceError) as err:
            unrolled_cg(lambda v: a @ v, y, cfg)
        assert err.value.iteration == 1

    def test_depth_zero_passthrough(self):
        a, y = dense_system(8, 5)
        x, trace = unrolled_cg(lambda v: a @ v, y, CgConfig(depth_T=0))
        assert np.array_equal(x, y)
        assert len(trace.residual_norms) == 1
        assert trace.used_alphas.shape == (0,)


class TestTrace:
    def test_lengths_consistent_with_depth(self):
        a, y = dense_system(9, 7)
        _, trace = unrolled_cg(lambda v: a @ v, y, CgConfig(depth_T=7, epsilon_guard=TIGHT))
        assert len(trace.residual_norms) == 8
        assert trace.used_alphas.shape == (7,)
        assert trace.used_betas.shape == (6,)

    def test_shallower_run_is_a_prefix(self):
        # a run of depth k repeats the first k steps of a deeper run bitwise
        a, y = dense_system(10, 6)
        deep = unrolled_cg(lambda v: a @ v, y, CgConfig(depth_T=6, epsilon_guard=TIGHT))[1]
        for k in range(7):
            _, trace = unrolled_cg(lambda v: a @ v, y, CgConfig(depth_T=k, epsilon_guard=TIGHT))
            assert trace.residual_norms == deep.residual_norms[: k + 1]
            assert np.array_equal(trace.used_alphas, deep.used_alphas[:k])


class TestCalibration:
    def test_single_element_batch_copies_analytic_scalars(self):
        a, y = dense_system(11, 8)
        system = lambda v: a @ v
        alpha, beta = calibrate_cg_params([lambda: (system, y)], 8)
        _, trace = unrolled_cg(system, y, CgConfig(depth_T=8))
        assert np.array_equal(alpha, trace.used_alphas)
        assert np.array_equal(beta, trace.used_betas)

    def test_identical_systems_average_to_single_run(self):
        a, y = dense_system(12, 6)
        system = lambda v: a @ v
        alpha1, beta1 = calibrate_cg_params([lambda: (system, y)], 6)
        alpha3, beta3 = calibrate_cg_params([lambda: (system, y)] * 3, 6)
        assert np.allclose(alpha1, alpha3, atol=1e-15)
        assert np.allclose(beta1, beta3, atol=1e-15)

    def test_mean_of_two_distinct_systems(self):
        a1, y1 = dense_system(13, 5)
        a2, y2 = dense_system(14, 5)
        batch = [(lambda v: a1 @ v, y1), (lambda v: a2 @ v, y2)]
        alpha, beta = calibrate_cg_params([lambda pair=pair: pair for pair in batch], 5)
        traces = [unrolled_cg(s, y, CgConfig(depth_T=5))[1] for s, y in batch]
        assert np.array_equal(alpha, np.mean([t.used_alphas for t in traces], axis=0))
        assert np.array_equal(beta, np.mean([t.used_betas for t in traces], axis=0))

    def test_empty_batch_raises(self):
        with pytest.raises(InvalidInputError):
            calibrate_cg_params([], 5)


class TestValidation:
    def test_rhs_length_mismatch(self):
        system = identity_system(4)
        with pytest.raises(InvalidInputError):
            unrolled_cg(system.apply_system, np.zeros(5), CgConfig(depth_T=2))

    @pytest.mark.parametrize("given", ["learned_alpha", "learned_beta"])
    def test_learned_scalars_come_together(self, given):
        with pytest.raises(InvalidInputError, match="must be given together"):
            CgConfig(depth_T=3, **{given: np.ones(3)})

    def test_learned_alpha_length_checked(self):
        with pytest.raises(InvalidInputError):
            CgConfig(
                depth_T=3,
                    learned_alpha=np.ones(2),
                learned_beta=np.ones(2),
            )

    @pytest.mark.parametrize("depth, beta_length", [(0, 0), (1, 0), (3, 2)])
    def test_learned_beta_length_checked(self, depth, beta_length):
        with pytest.raises(InvalidInputError, match=f"^learned_beta must have length {beta_length}$"):
            CgConfig(depth_T=depth, learned_alpha=np.ones(depth), learned_beta=np.ones(3))

    def test_negative_depth(self):
        with pytest.raises(InvalidInputError):
            CgConfig(depth_T=-1)

    def test_system_must_be_callable_or_operator(self):
        with pytest.raises(InvalidInputError):
            unrolled_cg(object(), np.zeros(3), CgConfig(depth_T=1))
        # a system object is not its matvec: pass system.apply_system
        with pytest.raises(InvalidInputError, match="matvec must be a callable"):
            unrolled_cg(identity_system(3), np.zeros(3), CgConfig(depth_T=1))
