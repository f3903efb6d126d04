import json
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from hypothesis import given, settings
from hypothesis import strategies as st

import graphdenoise.lanes
from graphdenoise import (
    CompiledFilter,
    DenoiserOperator,
    EdgeOuterSum,
    FEATURE_DIM,
    InvalidInputError,
    NumericDivergenceError,
    ParamVector,
    PipelineConfig,
    TaylorSystemOperator,
    TrainState,
    adam_step,
    add_awgn,
    analytic_solve,
    bilateral_factor,
    build_filter_matrix,
    build_psi,
    calibrate_cg_params,
    calibrated_initial,
    compile_filter,
    default_coefficients,
    evaluate_psnr,
    extract_features,
    forward,
    load_checkpoint,
    loss_and_grad,
    network_response,
    normalize,
    partition,
    save_checkpoint,
    synthesize_image,
    train_loop,
    window_blocks,
)
import graphdenoise.compiled
import graphdenoise.train
from graphdenoise.compiled import GRADIENT_TOLERANCE
from graphdenoise.graph_filter import upper_offsets
from graphdenoise.train import CHECKPOINT_VERSION
from lane_peaks import lanes_peak
from oracles import (
    analytic_forward,
    block_metric_adjoint,
    central_difference,
    dense_truncated_inverse_matrix,
    edge_outer_sum,
    grad_fd,
    loss,
    random_patch,
    unrolled_loss_and_grad,
)

SMALL = PipelineConfig(window_radius=2, degree_K=4, depth_T=5)


def perturbed_params(hyper, seed, noisy_patches, patch_side):
    """Calibrated initialization plus a small random perturbation, so no
    gradient component sits at an accidental stationary point."""
    rng = np.random.default_rng(seed)
    theta = calibrated_initial(hyper, noisy_patches, patch_side)
    return ParamVector(
        theta.metric_factor + 0.05 * rng.standard_normal(theta.metric_factor.size),
        theta.tse_coeffs + 0.1 * rng.standard_normal(theta.tse_coeffs.size),
        theta.cg_alpha * (1.0 + 0.05 * rng.standard_normal(theta.cg_alpha.size)),
        theta.cg_beta + 0.05 * rng.standard_normal(theta.cg_beta.size),
    )


def noisy_clean_pair(seed, side, sigma=15.0):
    img = synthesize_image(side, side, seed=seed)
    noisy = add_awgn(img, sigma, seed=seed + 7000)
    return partition(noisy, side).patches[0], partition(img, side).patches[0]


class TestParamVector:
    def test_default_total_length_is_55(self):
        theta = ParamVector.initial(PipelineConfig())
        assert theta.size == 15 + 11 + 15 + 14 == 55

    def test_pack_unpack_round_trip_exact(self):
        rng = np.random.default_rng(0)
        flat = rng.standard_normal(55)
        theta = ParamVector.unpack(flat, 10, 15)
        assert np.array_equal(theta.pack(), flat)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_pack_unpack_property(self, seed):
        flat = np.random.default_rng(seed).standard_normal(15 + 5 + 5 + 4)
        theta = ParamVector.unpack(flat, 4, 5)
        assert np.array_equal(theta.pack(), flat)

    def test_unpack_rejects_wrong_length(self):
        with pytest.raises(InvalidInputError):
            ParamVector.unpack(np.zeros(54), 10, 15)

    def test_initial_matches_documented_defaults(self):
        theta = ParamVector.initial(PipelineConfig())
        assert np.array_equal(theta.tse_coeffs, default_coefficients(10))
        assert np.array_equal(theta.metric(), bilateral_factor())

    def test_metric_round_trips_the_lower_triangle(self):
        # the 15 metric parameters are C's row-major lower triangle; the
        # rest of C is zero, and M = C^T C is positive semi-definite
        rng = np.random.default_rng(4)
        for _ in range(10):
            values = rng.standard_normal(15)
            flat = np.concatenate([values, rng.standard_normal(5 + 5 + 4)])
            factor = ParamVector.unpack(flat, 4, 5).metric()
            assert np.array_equal(factor[np.tril_indices(FEATURE_DIM)], values)
            assert np.array_equal(factor, np.tril(factor))
            assert np.linalg.eigvalsh(factor.T @ factor).min() >= -1e-10

    def test_rejects_wrong_metric_entry_count(self):
        with pytest.raises(InvalidInputError, match="metric_factor must have length 15"):
            ParamVector(np.zeros(14), np.ones(5), np.ones(5), np.zeros(4))

    @pytest.mark.parametrize("block", ["metric_factor", "tse_coeffs", "cg_alpha", "cg_beta"])
    def test_rejects_a_block_that_is_not_flat(self, block):
        theta = ParamVector.initial(SMALL)
        values = getattr(theta, block)
        # as many entries as the block holds, in two rows or as a scalar
        nested = values.reshape(2, -1) if values.size % 2 == 0 else values.reshape(1, -1)
        for bad in (nested, values[:1].reshape(())):
            with pytest.raises(InvalidInputError, match=f"{block} must be a flat array"):
                replace(theta, **{block: bad})


class TestForward:
    def test_deterministic(self):
        noisy, _ = noisy_clean_pair(1, 8)
        theta = perturbed_params(SMALL, 1, [noisy], 8)
        a = forward(theta, noisy, 8, SMALL)
        b = forward(theta, noisy, 8, SMALL)
        assert np.array_equal(a, b)

    def test_rejects_theta_of_another_depth(self):
        noisy, _ = noisy_clean_pair(1, 8)
        theta = ParamVector.initial(replace(SMALL, depth_T=4))
        with pytest.raises(InvalidInputError, match="theta has 4 CG steps, depth_T is 5"):
            forward(theta, noisy, 8, SMALL)

    def test_rejects_theta_of_another_degree(self):
        # the Taylor degree K is read from theta's coefficients alone
        noisy, _ = noisy_clean_pair(1, 8)
        theta = ParamVector.initial(replace(SMALL, degree_K=5))
        with pytest.raises(InvalidInputError, match="theta has 6 Taylor coefficients, degree_K"):
            build_psi(theta, noisy, 8, SMALL)

    def test_matches_dense_solve_of_truncated_system(self):
        # analytic CG run to full depth against a dense direct solve
        side, degree = 4, 30
        hyper = PipelineConfig(window_radius=3, degree_K=degree, depth_T=side * side)
        theta = ParamVector.initial(hyper)
        patch = random_patch(23, side)
        x = analytic_forward(theta, patch, side, hyper, epsilon_guard=1e-300)
        features = extract_features(patch, side)
        op = normalize(build_filter_matrix(features, theta.metric(), hyper.window_radius))
        system_dense = dense_truncated_inverse_matrix(op.to_dense(), degree, theta.tse_coeffs)
        x_star = np.linalg.solve(system_dense, patch)
        assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) < 1e-8

    def test_constant_patch_behaviour(self):
        # A constant input is NOT an exact fixed point: the symmetric
        # normalization perturbs row sums near the patch boundary. The
        # deviation is boundary-concentrated; deep-interior pixels are
        # preserved to within the truncation error.
        side = 16
        hyper = PipelineConfig()
        theta = ParamVector.initial(hyper)
        const = np.full(side * side, 0.5)
        x = analytic_forward(theta, const, side, hyper)
        dev = np.abs(x - const).reshape(side, side)
        assert dev.max() < 0.15
        assert dev[6:10, 6:10].max() < 1e-3  # window-widths away from the border
        assert dev[0].max() > 10 * dev[6:10, 6:10].max()

    def test_untrained_output_close_to_pure_smoother(self):
        # the initialization baseline: solving the truncated system undoes
        # the truncated inverse, so the output is close to Psi y
        hyper = PipelineConfig()
        theta = ParamVector.initial(hyper)
        noisy, clean = noisy_clean_pair(2, 32, sigma=15.0)
        x = analytic_forward(theta, noisy, 32, hyper)
        bf = build_psi(theta, noisy, 32, hyper).apply(noisy)

        def patch_psnr(ref, out):
            err = ref - np.clip(out, 0, 1)
            return 10 * np.log10(1.0 / (err @ err * (1.0 / err.size)))

        assert abs(patch_psnr(clean, x) - patch_psnr(clean, bf)) < 0.5


class TestLoss:
    def test_zero_when_clean_equals_output(self):
        noisy, _ = noisy_clean_pair(3, 8)
        theta = perturbed_params(SMALL, 3, [noisy], 8)
        out = forward(theta, noisy, 8, SMALL)
        assert loss(theta, [(noisy, out)], 8, SMALL) == 0.0

    def test_single_pixel_difference(self):
        noisy, _ = noisy_clean_pair(4, 8)
        theta = perturbed_params(SMALL, 4, [noisy], 8)
        out = forward(theta, noisy, 8, SMALL)
        delta = 0.037
        clean = out.copy()
        clean[13] += delta
        assert loss(theta, [(noisy, clean)], 8, SMALL) == pytest.approx(delta**2, rel=1e-12)

    def test_batch_sum_matches_recomputation(self):
        pairs = [noisy_clean_pair(s, 8) for s in (5, 6, 7)]
        theta = perturbed_params(SMALL, 5, [p[0] for p in pairs], 8)
        total = loss(theta, pairs, 8, SMALL)
        manual = 0.0
        for noisy, clean in pairs:
            out = forward(theta, noisy, 8, SMALL)
            manual += float(np.sum((clean - out) ** 2))
        assert total == pytest.approx(manual, rel=1e-15)

    def test_empty_batch_rejected(self):
        theta = ParamVector.initial(SMALL)
        with pytest.raises(InvalidInputError):
            loss(theta, [], 8, SMALL)


class TestFiniteDifferences:
    def test_machinery_on_quadratic(self):
        theta0 = np.array([0.3, -1.7, 2.0, 0.0, 5.5])
        grad = central_difference(lambda t: float(t @ t), theta0)
        assert np.max(np.abs(grad - 2 * theta0)) < 1e-8

    def test_rejects_nonpositive_step(self):
        with pytest.raises(InvalidInputError):
            central_difference(lambda t: 0.0, np.zeros(3), h_rel=0.0)

    def test_nonfinite_loss_raises(self):
        with pytest.raises(NumericDivergenceError):
            central_difference(lambda t: float("nan"), np.zeros(2))


class TestReverseGradients:
    def test_zero_residual_gives_exactly_zero_gradient(self):
        # the training forward is the compiled filter at the gradient tail,
        # bitwise
        noisy, _ = noisy_clean_pair(8, 8)
        theta = perturbed_params(SMALL, 8, [noisy], 8)
        psi = build_psi(theta, noisy, 8, SMALL)
        out = compile_filter(theta, GRADIENT_TOLERANCE).apply(psi, noisy)
        value, grad = loss_and_grad(theta, [(noisy, out)], 8, SMALL)
        assert value == 0.0
        assert np.array_equal(grad.pack(), np.zeros(theta.size))

    # the finite differences are of the unrolled network's loss; depth 1
    # compiles to degree K, depth 0 to the identity
    @pytest.mark.parametrize(
        "hyper", [SMALL, replace(SMALL, depth_T=1), replace(SMALL, depth_T=0)],
        ids=["T5", "T1", "T0"],
    )
    def test_matches_finite_differences(self, hyper):
        pairs = [noisy_clean_pair(9, 8), noisy_clean_pair(10, 8)]
        theta = perturbed_params(hyper, 9, [p[0] for p in pairs], 8)
        g_rev = loss_and_grad(theta, pairs, 8, hyper)[1].pack()
        g_fd = grad_fd(theta, pairs, 8, hyper).pack()
        denom = np.maximum(np.maximum(np.abs(g_rev), np.abs(g_fd)), 1e-8)
        assert np.max(np.abs(g_rev - g_fd) / denom) < 1e-4

    def test_sign_agreement_under_single_parameter_probes(self):
        noisy, clean = noisy_clean_pair(11, 8)
        theta = perturbed_params(SMALL, 11, [noisy], 8)
        base = loss(theta, [(noisy, clean)], 8, SMALL)
        grad = loss_and_grad(theta, [(noisy, clean)], 8, SMALL)[1].pack()
        rng = np.random.default_rng(11)
        flat = theta.pack()
        checked = 0
        for index in rng.permutation(flat.size):
            if abs(grad[index]) < 1e-6:
                continue
            step = 1e-4 * max(abs(flat[index]), 1.0)
            bumped = flat.copy()
            bumped[index] += step
            changed = loss(
                ParamVector.unpack(bumped, SMALL.degree_K, SMALL.depth_T),
                [(noisy, clean)],
                8,
                SMALL,
            )
            assert np.sign(changed - base) == np.sign(grad[index])
            checked += 1
            if checked == 20:
                break
        assert checked == 20

    def test_gradient_flows_into_every_block(self):
        noisy, clean = noisy_clean_pair(12, 8)
        theta = perturbed_params(SMALL, 12, [noisy], 8)
        grad = loss_and_grad(theta, [(noisy, clean)], 8, SMALL)[1]
        assert np.any(grad.metric_factor != 0.0)
        assert np.any(grad.tse_coeffs != 0.0)
        assert np.any(grad.cg_alpha != 0.0)
        assert np.any(grad.cg_beta != 0.0)

    @pytest.mark.parametrize(
        "hyper",
        [
            PipelineConfig(window_radius=1, degree_K=2, depth_T=3),
            SMALL,
            PipelineConfig(),
            replace(SMALL, depth_T=1),
            replace(SMALL, depth_T=0),
        ],
        ids=["K2-T3", "K4-T5", "defaults", "K4-T1", "K4-T0"],
    )
    def test_one_pair_makes_the_counted_work(self, monkeypatch, hyper):
        # a pair runs the compiled filter's d matvecs and reverses them with
        # d - 1 more (the adjoint of the input y is not formed), folds d
        # terms and makes no truncated-inverse apply; the coefficient
        # adjoints of the whole batch take one scalar reverse
        pairs = [noisy_clean_pair(13, 8), noisy_clean_pair(14, 8)]
        theta = calibrated_initial(hyper, [noisy for noisy, _ in pairs], 8)
        degree = compile_filter(theta, GRADIENT_TOLERANCE).degree
        assert degree <= hyper.degree_K * hyper.depth_T
        applies, matvecs, reverses, folded = [], [], [], []
        monkeypatch.setattr(graphdenoise.lanes, "LANES", 1)  # the counters count in this process
        monkeypatch.setattr(
            TaylorSystemOperator,
            "apply_truncated_inverse_with_cache",
            counted(TaylorSystemOperator.apply_truncated_inverse_with_cache, applies),
        )
        monkeypatch.setattr(DenoiserOperator, "apply", counted(DenoiserOperator.apply, matvecs))
        monkeypatch.setattr(
            graphdenoise.compiled,
            "learned_cg_vjp",
            counted(graphdenoise.compiled.learned_cg_vjp, reverses),
        )
        real_fold = EdgeOuterSum.fold
        monkeypatch.setattr(
            EdgeOuterSum, "fold", lambda sums, t: folded.append(len(t)) or real_fold(sums, t)
        )
        for count in (1, 2):
            for calls in (applies, matvecs, reverses, folded):
                calls.clear()
            loss_and_grad(theta, pairs[:count], 8, hyper)
            assert applies == []
            assert len(matvecs) == count * max(2 * degree - 1, 0)
            assert sum(folded) == count * degree
            assert max(folded, default=0) <= hyper.degree_K
            assert len(reverses) == 1

    @pytest.mark.parametrize("perturbed", [False, True], ids=["calibrated", "perturbed"])
    def test_uncut_compiled_gradient_equals_the_unrolled_gradient(self, monkeypatch, perturbed):
        # the filter compiled with no tail cut is the unrolled network up to
        # rounding, so its exact gradient is the unrolled one's: what
        # GRADIENT_TOLERANCE leaves out is truncation, not a bug
        # (acceptance criterion 4's patches, 16 x 16 at the defaults)
        hyper = PipelineConfig()
        pairs = []
        for index, seed in enumerate((800, 801)):
            clean = synthesize_image(16, 16, seed=seed)
            noisy = add_awgn(clean, 15.0, seed=8800 + index)
            pairs.append((partition(noisy, 16).patches[0], partition(clean, 16).patches[0]))
        patches = [noisy for noisy, _ in pairs]
        if perturbed:
            theta = perturbed_params(hyper, 7000, patches, 16)
        else:
            theta = calibrated_initial(hyper, patches, 16)
        uncut = chebyshev.chebinterpolate(
            lambda x: network_response(theta, (1.0 + x) / 2.0), hyper.degree_K * hyper.depth_T
        )
        monkeypatch.setattr(
            graphdenoise.train, "compile_filter", lambda theta, tail: CompiledFilter(uncut, 0.0)
        )
        value, grad = loss_and_grad(theta, pairs, 16, hyper)
        ref_value, ref_grad = unrolled_loss_and_grad(theta, pairs, 16, hyper)
        assert value == pytest.approx(ref_value, rel=1e-10)
        diff = np.max(np.abs(grad.pack() - ref_grad.pack()))
        assert diff <= 1e-8 * np.max(np.abs(ref_grad.pack()))

    @pytest.mark.parametrize(
        "theta_of, message",
        [
            # alpha = 1, beta = 0: max |Q| is about 9e14, no filter fits
            (None, "^the learned network does not compile: fit error .* exceeds 1e-08$"),
            (
                lambda theta: theta.cg_alpha.__setitem__(slice(None), 1e300),
                "^non-finite CG state at iteration 0$",
            ),
            (
                lambda theta: theta.cg_alpha.__setitem__(1, np.nan),
                "^non-finite CG state at iteration 1$",
            ),
        ],
        ids=["uncalibrated", "alpha-1e300", "alpha-nan"],
    )
    def test_a_theta_that_does_not_compile_fails_the_step(self, monkeypatch, theta_of, message):
        hyper = PipelineConfig()
        theta = ParamVector.initial(hyper)
        if theta_of is not None:
            theta_of(theta)
        pairs = [noisy_clean_pair(15, 16)]
        with pytest.raises(NumericDivergenceError, match=message):
            loss_and_grad(theta, pairs, 16, hyper)
        # train_loop lets it through, from its first step, before validation
        validated = []
        monkeypatch.setattr(graphdenoise.train, "calibrated_initial", lambda *args: theta)
        monkeypatch.setattr(graphdenoise.train, "evaluate_psnr", counted(evaluate_psnr, validated))
        with pytest.raises(NumericDivergenceError, match=message):
            train_loop(pairs, 16, epochs=1, batch_size=1, seed=0, hyper=hyper)
        assert validated == []

    @pytest.mark.parametrize("side", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_edge_outer_sum_equals_in_order_gather(self, side, radius):
        # the per-pixel-pair gather the shifted rows replace, summed term by term
        rng = np.random.default_rng(10 * side + radius)
        g_stack = rng.standard_normal((12, side * side))
        t_stack = rng.standard_normal((12, side * side))
        assert_edge_sums_equal_the_pair_loop(
            edge_outer_sum(g_stack, t_stack, side, radius), g_stack, t_stack, side, radius
        )

    def test_edge_outer_sum_at_the_benchmark_size_folded_in_chunks_of_ten(self):
        # 64 x 64, radius 3, the gradient's chunks of degree_K = 10, the
        # last one partial
        rng = np.random.default_rng(6403)
        g_stack = rng.standard_normal((25, 64 * 64))
        t_stack = rng.standard_normal((25, 64 * 64))
        sums = EdgeOuterSum(64, 3, 10)
        for start in range(0, 25, 10):
            count = min(10, 25 - start)
            sums.g_terms[:count] = g_stack[start : start + count]
            sums.fold(t_stack[start : start + count])
        assert_edge_sums_equal_the_pair_loop(
            (sums.diagonal, sums.half, sums.mirror), g_stack, t_stack, 64, 3
        )

    @pytest.mark.parametrize("side", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_edge_outer_sum_folded_in_chunks_equals_one_pass(self, side, radius):
        rng = np.random.default_rng(100 + 10 * side + radius)
        g_stack = rng.standard_normal((31, side * side))
        t_stack = rng.standard_normal((31, side * side))
        one_pass = edge_outer_sum(g_stack, t_stack, side, radius)
        for chunk in (1, 3, 10):  # the last chunk is partial for 3 and 10
            sums = EdgeOuterSum(side, radius, chunk)
            for start in range(0, len(g_stack), chunk):
                count = min(chunk, len(g_stack) - start)
                sums.g_terms[:count] = g_stack[start : start + count]
                sums.fold(t_stack[start : start + count])
            for got, want in zip((sums.diagonal, sums.half, sums.mirror), one_pass):
                assert got.shape == want.shape and np.array_equal(got, want)

    def test_metric_adjoint_matches_the_block_reverse_at_the_benchmark_size(self, monkeypatch):
        # one 64 x 64 pair at the defaults; the block reverse is fed the
        # rows' own B and the same dL/dPsi, so only the order of the
        # reverse's sums differs
        hyper = PipelineConfig()
        noisy, clean = noisy_clean_pair(64, 64)
        theta = calibrated_initial(hyper, [noisy], 64)
        calls = []
        real = graphdenoise.train._metric_adjoint

        def recorded(filt, features, factor, sums):
            copies = [np.copy(a) for a in (sums.diagonal, sums.half, sums.mirror)]
            result = real(filt, features, factor, sums)
            calls.append((filt, features, factor, copies, result))
            return result

        monkeypatch.setattr(graphdenoise.lanes, "LANES", 1)  # recorded in this process
        monkeypatch.setattr(graphdenoise.train, "_metric_adjoint", recorded)
        loss_and_grad(theta, [(noisy, clean)], 64, hyper)
        [(filt, features, factor, sums, result)] = calls
        want = block_metric_adjoint(filt, features, factor, *sums)
        assert np.max(np.abs(want)) > 0.0
        assert np.max(np.abs(result - want)) <= 1e-12 * np.max(np.abs(want))


def assert_edge_sums_equal_the_pair_loop(sums, g_stack, t_stack, side, radius):
    """EdgeOuterSum's diagonal, half and mirror are bitwise the in-order
    sums over the terms, gathered pixel pair by pixel pair: half at column j
    of row f holds the sum of g[i] t[j] over the pair i = j - f, and mirror
    that of g[j] t[i]."""
    diagonal, half, mirror = sums
    n = side * side
    gathered = np.zeros(n)
    for g, t in zip(g_stack, t_stack):
        gathered += g * t
    assert np.array_equal(diagonal, gathered)
    offsets = upper_offsets(side, radius)
    assert half.shape == mirror.shape == (len(offsets), n)
    for dr, dc, _, _ in window_blocks(side, radius):
        pairs = [
            (r * side + c, (r + dr) * side + c + dc)
            for r in range(side)
            for c in range(side)
            if 0 <= r + dr < side and 0 <= c + dc < side
        ]
        i, j = np.array(pairs).T
        forward_sum = np.zeros(len(pairs))
        backward_sum = np.zeros(len(pairs))
        for g, t in zip(g_stack, t_stack):
            forward_sum += g[i] * t[j]
            backward_sum += g[j] * t[i]
        row = offsets.index(dr * side + dc)
        assert np.array_equal(half[row, j], forward_sum)
        assert np.array_equal(mirror[row, j], backward_sum)


def analytic_trace(theta, noisy, patch_side, hyper):
    """A calibration solve: the trace of analytic_solve."""
    return analytic_solve(theta, noisy, patch_side, hyper)[2]


def counted(method, calls):
    """method, recording each call in calls."""

    def wrapper(*args, **kwargs):
        calls.append(None)
        return method(*args, **kwargs)

    return wrapper


class TestTrainingLanes:
    @pytest.mark.parametrize("lanes", [1, 2, 3])
    @pytest.mark.parametrize(
        "order, error",
        [
            (("zero", "diverge", "short", "zero"), NumericDivergenceError),
            (("zero", "short", "diverge"), InvalidInputError),
            (("diverge", "short"), NumericDivergenceError),
            (("zero", "zero", "zero", "short"), InvalidInputError),
        ],
    )
    def test_first_failing_pair_in_batch_order_wins(self, monkeypatch, lanes, order, error):
        # a short patch fails its build at once; a pair with an infinite
        # target has a non-finite loss, and fails after its forward
        hyper = PipelineConfig(window_radius=2, degree_K=4, depth_T=4)
        noisy, clean = noisy_clean_pair(30, 8)
        theta = calibrated_initial(hyper, [noisy], 8)
        pairs = {
            "zero": (np.zeros(64), np.zeros(64)),
            "diverge": (noisy, np.full(64, np.inf)),
            "short": (noisy[:60], clean[:60]),
        }
        monkeypatch.setattr(graphdenoise.lanes, "LANES", lanes)
        with pytest.raises(error):
            loss_and_grad(theta, [pairs[name] for name in order], 8, hyper)

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_gradient_does_not_depend_on_the_lane_count(self, monkeypatch, lanes):
        pairs = [noisy_clean_pair(60 + i, 8) for i in range(5)]
        theta = perturbed_params(SMALL, 60, [noisy for noisy, _ in pairs], 8)
        def run():
            loss_value, grad = loss_and_grad(theta, pairs, 8, SMALL)
            return loss_value, grad.pack().tobytes(), evaluate_psnr(theta, pairs, 8, SMALL)

        monkeypatch.setattr(graphdenoise.lanes, "LANES", 1)
        serial = run()
        monkeypatch.setattr(graphdenoise.lanes, "LANES", lanes)
        assert run() == serial

    def test_two_lanes_fit_in_the_old_serial_peak(self, monkeypatch):
        hyper = PipelineConfig()
        pairs = [noisy_clean_pair(50 + i, 64) for i in range(3)]
        theta = calibrated_initial(hyper, [noisy for noisy, _ in pairs], 64)

        def peak(lanes):
            # summed over the lanes' processes (lanes_peak)
            return lanes_peak(monkeypatch, lanes, lambda: loss_and_grad(theta, pairs, 64, hyper))

        peak(1)  # warm-up: lazy imports and caches
        serial = peak(1)
        # two lanes fit in what one lane would need if it contracted the
        # weight adjoint once, after the sweep: all (gt, t_{k-1}) terms of
        # the solve in two (K (T+1), n) stacks, 10.5 MB here
        stacks = 2 * hyper.degree_K * (hyper.depth_T + 1) * 64 * 64 * 8
        assert peak(2) <= serial + stacks


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        theta = ParamVector.initial(SMALL)
        state = TrainState.fresh(theta)
        stepped = adam_step(state, np.zeros(theta.size))
        assert np.array_equal(stepped.params.pack(), theta.pack())
        assert stepped.step_count == 1

    def test_first_step_matches_hand_formula(self):
        theta = ParamVector.initial(SMALL)
        state = TrainState.fresh(theta, learning_rate=0.001)
        g = np.linspace(-1.0, 1.0, theta.size)
        stepped = adam_step(state, g)
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expected = theta.pack() - 0.001 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.max(np.abs(stepped.params.pack() - expected)) < 1e-15

    def test_two_steps_match_scalar_recomputation(self):
        theta = ParamVector.initial(SMALL)
        state = TrainState.fresh(theta, learning_rate=0.01)
        g = np.random.default_rng(14).standard_normal(theta.size)
        state = adam_step(state, g)
        state = adam_step(state, g)
        # scalar reference, one coordinate at a time
        for i in range(theta.size):
            m = v = 0.0
            x = theta.pack()[i]
            for t in (1, 2):
                m = 0.9 * m + 0.1 * g[i]
                v = 0.999 * v + 0.001 * g[i] ** 2
                x -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert state.params.pack()[i] == pytest.approx(x, rel=1e-12)
        assert state.step_count == 2

    def test_nonfinite_gradient_rejected(self):
        state = TrainState.fresh(ParamVector.initial(SMALL))
        bad = np.zeros(state.params.size)
        bad[3] = np.inf
        with pytest.raises(NumericDivergenceError):
            adam_step(state, bad)


class TestTrainLoop:
    def make_pairs(self, count, side, sigma=15.0, seed0=40):
        return [noisy_clean_pair(seed0 + i, side, sigma) for i in range(count)]

    def test_zero_epochs_returns_calibrated_initialization(self):
        pairs = self.make_pairs(3, 8)
        state, history = train_loop(pairs, 8, epochs=0, batch_size=2, seed=0, hyper=SMALL)
        assert history == []
        theta0 = ParamVector.initial(SMALL)
        assert np.array_equal(state.params.metric_factor, theta0.metric_factor)
        assert np.array_equal(state.params.tse_coeffs, theta0.tse_coeffs)
        # CG scalars must equal a fresh calibration on the first batch
        solves = [partial(analytic_trace, theta0, noisy, 8, SMALL) for noisy, _ in pairs[:2]]
        alpha, beta = calibrate_cg_params(solves)
        assert np.array_equal(state.params.cg_alpha, alpha)
        assert np.array_equal(state.params.cg_beta, beta)
        direct = calibrated_initial(SMALL, [noisy for noisy, _ in pairs[:2]], 8)
        assert np.array_equal(direct.pack(), state.params.pack())

    def test_calibration_counts_guarded_steps_as_zero(self):
        # a 2x2 patch system is solved before depth 8, and the guard skips the rest
        hyper = PipelineConfig(depth_T=8)
        noisy, _ = noisy_clean_pair(40, 2)
        theta = calibrated_initial(hyper, [noisy], 2)
        _, _, trace = analytic_solve(theta, noisy, 2, hyper)
        assert np.all(trace.used_alphas[:2] != 0.0)
        assert np.all(trace.used_alphas[2:] == 0.0) and np.all(trace.used_betas[2:] == 0.0)
        assert np.array_equal(theta.cg_alpha, trace.used_alphas)
        assert np.array_equal(theta.cg_beta, trace.used_betas)

    def test_two_epochs_do_not_worsen_training_loss(self):
        pairs = self.make_pairs(5, 16)
        _, history = train_loop(pairs, 16, epochs=2, batch_size=2, seed=1, hyper=SMALL)
        assert len(history) == 2
        assert history[-1].train_loss <= history[0].train_loss

    def test_fixed_seed_reproduces_bitwise(self):
        pairs = self.make_pairs(4, 8)
        state_a, hist_a = train_loop(pairs, 8, epochs=2, batch_size=2, seed=7, hyper=SMALL)
        state_b, hist_b = train_loop(pairs, 8, epochs=2, batch_size=2, seed=7, hyper=SMALL)
        assert np.array_equal(state_a.params.pack(), state_b.params.pack())
        assert [(h.epoch, h.train_loss, h.val_psnr) for h in hist_a] == [
            (h.epoch, h.train_loss, h.val_psnr) for h in hist_b
        ]

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            train_loop([], 8, epochs=1, batch_size=1, seed=0, hyper=SMALL)

    def test_validation_pairs_used_for_history(self):
        pairs = self.make_pairs(3, 8)
        val = self.make_pairs(2, 8, seed0=80)
        _, history = train_loop(
            pairs, 8, epochs=1, batch_size=3, seed=2, hyper=SMALL, val_pairs=val
        )
        expected = None
        state, _ = train_loop(
            pairs, 8, epochs=1, batch_size=3, seed=2, hyper=SMALL, val_pairs=val
        )
        expected = evaluate_psnr(state.params, val, 8, SMALL)
        assert history[0].val_psnr == expected


class TestCompiledValidation:
    @pytest.fixture(scope="class")
    def pairs(self):
        return [noisy_clean_pair(70 + i, 16) for i in range(3)]

    @pytest.fixture(scope="class")
    def theta(self, pairs):
        return calibrated_initial(SMALL, [noisy for noisy, _ in pairs], 16)

    @staticmethod
    def mean_psnr(denoise, pairs):
        scores = []
        for noisy, clean in pairs:
            err = clean - np.clip(denoise(noisy), 0.0, 1.0)
            scores.append(10.0 * np.log10(1.0 / (float(err @ err) / err.size)))
        return float(np.mean(scores))

    def test_equals_the_mean_psnr_of_the_compiled_filter_outputs(self, pairs, theta):
        compiled = compile_filter(theta)

        def denoise(noisy):
            return compiled.apply(build_psi(theta, noisy, 16, SMALL), noisy)

        value = evaluate_psnr(theta, pairs, 16, SMALL)
        assert value == self.mean_psnr(denoise, pairs)
        # the unrolled network gives other bits, so the check tells the two apart
        assert value != self.mean_psnr(lambda noisy: forward(theta, noisy, 16, SMALL), pairs)

    def test_makes_no_system_apply(self, monkeypatch, pairs, theta):
        applies, matvecs = [], []
        monkeypatch.setattr(graphdenoise.lanes, "LANES", 1)  # the counters count in this process
        monkeypatch.setattr(
            TaylorSystemOperator,
            "apply_truncated_inverse_with_cache",
            counted(TaylorSystemOperator.apply_truncated_inverse_with_cache, applies),
        )
        monkeypatch.setattr(DenoiserOperator, "apply", counted(DenoiserOperator.apply, matvecs))
        evaluate_psnr(theta, pairs, 16, SMALL)
        assert applies == []
        # one Psi matvec per degree of the compiled filter and patch
        assert len(matvecs) == compile_filter(theta).degree * len(pairs)
        forward(theta, pairs[0][0], 16, SMALL)
        assert len(applies) == SMALL.depth_T + 1  # the counter sees the unrolled network

    def test_uncompilable_theta_raises_numeric_divergence(self, pairs):
        # the uncalibrated CG scalars give max |Q| of about 9e14 on [0, 1]
        theta = ParamVector.initial(PipelineConfig())
        with pytest.raises(NumericDivergenceError, match="does not compile"):
            evaluate_psnr(theta, pairs, 16)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        pairs = [noisy_clean_pair(50, 8)]
        theta = perturbed_params(SMALL, 50, [pairs[0][0]], 8)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, theta, SMALL)
        loaded, hyper = load_checkpoint(path)
        assert np.array_equal(loaded.pack(), theta.pack())
        assert hyper == SMALL

    def test_identical_params_identical_bytes(self, tmp_path):
        theta = ParamVector.initial(SMALL)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, theta, SMALL)
        save_checkpoint(p2, theta, SMALL)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unsupported_version_rejected(self, tmp_path):
        theta = ParamVector.initial(SMALL)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, theta, SMALL)
        text = path.read_text().replace(
            f'"format_version": {CHECKPOINT_VERSION}', '"format_version": 99'
        )
        path.write_text(text)
        with pytest.raises(InvalidInputError):
            load_checkpoint(path)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInputError):
            load_checkpoint(path)

    def test_round_trip_keeps_every_field(self, tmp_path):
        # a field that save_checkpoint does not write comes back as its default
        path = tmp_path / "ckpt.json"
        for field_ in fields(PipelineConfig):
            value = field_.default + {int: 1, float: 0.25}[type(field_.default)]
            hyper = replace(PipelineConfig(), **{field_.name: value})
            save_checkpoint(path, ParamVector.initial(hyper), hyper)
            _, loaded = load_checkpoint(path)
            assert getattr(loaded, field_.name) == value, field_.name

    def test_unknown_keys_are_ignored(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ParamVector.initial(SMALL), SMALL)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, "epsilon_guard": 1e-3, "diagonal_load": 0.2}))
        _, loaded = load_checkpoint(path)
        assert loaded == SMALL

    def test_box_window_files_rejected(self, tmp_path):
        # version 1 described the untapered window: another network
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ParamVector.initial(SMALL), SMALL)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, "format_version": 1}))
        with pytest.raises(InvalidInputError, match="^unsupported checkpoint version 1$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_metric_factor_rejected(self, tmp_path, bad):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ParamVector.initial(SMALL), SMALL)
        payload = json.loads(path.read_text())
        payload["metric_factor"][4] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidInputError, match="metric_factor entries must be finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "theta_hyper, message",
        [
            (replace(SMALL, depth_T=3), "theta has 3 CG steps, depth_T is 5"),
            (replace(SMALL, degree_K=6), "theta has 7 Taylor coefficients, degree_K \\+ 1 is 5"),
        ],
        ids=["depth", "degree"],
    )
    def test_theta_of_other_sizes_is_not_written(self, tmp_path, theta_hyper, message):
        path = tmp_path / "ckpt.json"
        with pytest.raises(InvalidInputError, match=message):
            save_checkpoint(path, ParamVector.initial(theta_hyper), SMALL)
        assert not path.exists()

    def test_inconsistent_lengths_rejected(self, tmp_path):
        theta = ParamVector.initial(SMALL)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, theta, SMALL)
        text = path.read_text().replace('"degree_K": 4', '"degree_K": 6')
        path.write_text(text)
        message = "has an invalid value: theta has 5 Taylor coefficients, degree_K \\+ 1 is 7$"
        with pytest.raises(InvalidInputError, match=message):
            load_checkpoint(path)
