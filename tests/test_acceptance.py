"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Several criteria train or evaluate at desk scale; the whole module
completes in a few minutes.
"""
import time

import numpy as np

from graphdenoise import (
    CgConfig,
    NumericDivergenceError,
    ParamVector,
    PipelineConfig,
    TaylorSystemOperator,
    add_awgn,
    build_filter_matrix,
    build_psi,
    calibrated_initial,
    compile_filter,
    default_coefficients,
    evaluate_psnr,
    extract_features,
    loss_and_grad,
    normalize,
    partition,
    synthesize_image,
    train_loop,
    unrolled_cg,
)
from oracles import (
    analytic_forward,
    dense_filter_matrix,
    dense_normalize,
    dense_truncated_inverse_matrix,
    grad_fd,
    lower_factor,
    operator_with_spectrum,
    random_patch,
    random_spd,
)

TIGHT_GUARD = 1e-300  # breakdown guard far below solver noise (see notes)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{status}] {name}: {detail}")
    assert ok, f"criterion {number} {name}: {detail}"


def _patch_psnr(clean: np.ndarray, out: np.ndarray) -> float:
    err = clean - np.clip(out, 0.0, 1.0)
    mse = float(err @ err) / err.size
    return 10.0 * np.log10(1.0 / mse)


def _make_pairs(image_seeds, size, patch_side, sigma, noise_seed_base):
    pairs = []
    for i, s in enumerate(image_seeds):
        img = synthesize_image(size, size, seed=s)
        noisy = add_awgn(img, sigma, seed=noise_seed_base + i)
        gn = partition(noisy, patch_side)
        gc = partition(img, patch_side)
        pairs.extend(zip(gn.patches, gc.patches))
    return pairs


def test_criterion_1_oracle_equivalence():
    side, degree = 6, 30
    n = side * side
    hyper = PipelineConfig(degree_K=degree, depth_T=n)
    theta = ParamVector.initial(hyper)
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        patch = random_patch(seed, side)
        x = analytic_forward(theta, patch, side, hyper, epsilon_guard=TIGHT_GUARD)
        features = extract_features(patch, side)
        dense_b = dense_filter_matrix(features, theta.metric(), hyper.window_radius)
        psi_dense = dense_normalize(dense_b)
        system_dense = dense_truncated_inverse_matrix(psi_dense, degree, theta.tse_coeffs)
        x_star = np.linalg.solve(system_dense, patch)
        worst = max(worst, np.linalg.norm(x - x_star) / np.linalg.norm(x_star))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "oracle equivalence",
        worst < 1e-8 and elapsed < 10.0,
        f"worst rel err {worst:.3e} over 20 patches in {elapsed:.2f}s",
    )


def test_criterion_2_initialization_baseline():
    hyper = PipelineConfig()  # defaults: K=10, T=15
    theta = ParamVector.initial(hyper)
    start = time.perf_counter()
    worst_gap = 0.0
    for sigma_index, sigma in enumerate((10.0, 15.0, 25.0)):
        for i in range(10):
            img = synthesize_image(64, 64, seed=400 + i)
            noisy = add_awgn(img, sigma, seed=1000 * sigma_index + i)
            y = partition(noisy, 64).patches[0]
            clean = partition(img, 64).patches[0]
            x = analytic_forward(theta, y, 64, hyper)
            bf = build_psi(theta, y, 64, hyper).apply(y)
            gap = abs(_patch_psnr(clean, x) - _patch_psnr(clean, bf))
            worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - start
    _report(
        2,
        "initialization tracks the smoother",
        worst_gap <= 0.5 and elapsed < 120.0,
        f"max |PSNR gap| {worst_gap:.3f} dB over 10 images x 3 sigmas in {elapsed:.1f}s",
    )


def test_criterion_3_cg_finite_termination():
    worst = 0.0
    for n in (4, 8, 16):
        for seed in range(50):
            rng = np.random.default_rng(10_000 * n + seed)
            a = random_spd(rng, n, 0.5, 5.0)
            y = rng.standard_normal(n)
            cfg = CgConfig(depth_T=n, epsilon_guard=TIGHT_GUARD)
            x, _ = unrolled_cg(lambda v: a @ v, y, cfg)
            worst = max(worst, np.linalg.norm(a @ x - y) / np.linalg.norm(y))
    _report(
        3,
        "CG finite termination",
        worst < 1e-8,
        f"worst rel residual {worst:.3e} over n in (4, 8, 16) x 50 seeds",
    )


def test_criterion_4_gradient_fidelity():
    side = 16
    hyper = PipelineConfig()  # defaults give the 55-parameter vector
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(7000 + seed)
        pairs = _make_pairs([800 + 2 * seed, 801 + 2 * seed], side, side, 15.0, 8800 + seed)
        theta0 = calibrated_initial(hyper, [noisy for noisy, _ in pairs], side)
        theta = ParamVector(
            theta0.metric_factor + 0.05 * rng.standard_normal(15),
            theta0.tse_coeffs + 0.1 * rng.standard_normal(hyper.degree_K + 1),
            theta0.cg_alpha * (1.0 + 0.05 * rng.standard_normal(hyper.depth_T)),
            theta0.cg_beta + 0.05 * rng.standard_normal(hyper.depth_T - 1),
        )
        assert theta.size == 55
        g_rev = loss_and_grad(theta, pairs, side, hyper)[1].pack()
        g_fd = grad_fd(theta, pairs, side, hyper).pack()
        denom = np.maximum(np.maximum(np.abs(g_rev), np.abs(g_fd)), 1e-8)
        worst = max(worst, float(np.max(np.abs(g_rev - g_fd) / denom)))
    _report(
        4,
        "gradient fidelity",
        worst < 1e-4,
        f"max rel component error {worst:.3e} over 55 params x 5 seeds",
    )


def test_criterion_5_training_gain():
    hyper = PipelineConfig()
    patch_side = 64
    train_pairs = _make_pairs(range(200, 210), 128, patch_side, 15.0, 500)  # 10 images
    test_pairs = _make_pairs(range(300, 310), 64, patch_side, 15.0, 900)    # 10 images

    # initialization reference: calibrated scalars, untrained everything else
    theta0 = calibrated_initial(hyper, [noisy for noisy, _ in train_pairs[:3]], patch_side)
    init_psnr = evaluate_psnr(theta0, test_pairs, patch_side, hyper)

    start = time.perf_counter()
    state, history = train_loop(
        train_pairs,
        patch_side,
        epochs=20,
        batch_size=3,
        seed=42,
        hyper=hyper,
        val_pairs=test_pairs,
        learning_rate=0.001,
    )
    elapsed = time.perf_counter() - start
    final_psnr = evaluate_psnr(state.params, test_pairs, patch_side, hyper)
    gain = final_psnr - init_psnr
    loss_ok = history[-1].train_loss <= history[0].train_loss
    # the trained network compiles, so denoise can run it, and at no more
    # than the K * T degree of its polynomial
    try:
        degree = compile_filter(state.params).degree
        compiles = degree <= hyper.degree_K * hyper.depth_T
    except NumericDivergenceError:
        degree, compiles = "none", False
    _report(
        5,
        "training gain",
        gain >= 1.0 and loss_ok and elapsed < 1800.0 and compiles,
        f"test PSNR {init_psnr:.2f} -> {final_psnr:.2f} dB (gain {gain:+.2f}) "
        f"in {elapsed:.0f}s over 20 epochs; compiles at degree {degree}",
    )


def test_criterion_6_non_expansiveness():
    rng = np.random.default_rng(321)
    worst = -np.inf
    for _ in range(100):
        patch = rng.random(16 * 16)
        features = extract_features(patch, 16)
        metric = lower_factor(rng.normal(0.0, 0.6, 15))
        op = normalize(build_filter_matrix(features, metric, 3))
        worst = max(worst, float(np.linalg.eigvalsh(op.to_dense()).max()))
    _report(
        6,
        "non-expansiveness",
        worst <= 1.0 + 1e-8,
        f"max eigenvalue {worst:.12f} over 100 random patches and metrics",
    )


def test_criterion_7_mu_invariance():
    patch = random_patch(77, 8)
    hyper = PipelineConfig(window_radius=2, degree_K=6, depth_T=8)
    theta = ParamVector.initial(hyper)
    features = extract_features(patch, 8)
    op = normalize(build_filter_matrix(features, theta.metric(), hyper.window_radius))
    outputs = []
    for mu in (0.1, 1.0, 10.0):
        system = TaylorSystemOperator(psi=op, coefficients=theta.tse_coeffs, mu=mu)
        x, _ = unrolled_cg(system.apply_system, patch, CgConfig(depth_T=hyper.depth_T))
        outputs.append(x)
    ok = np.array_equal(outputs[0], outputs[1]) and np.array_equal(outputs[1], outputs[2])
    _report(7, "mu-invariance", ok, "outputs bitwise identical for mu in (0.1, 1, 10)")


def test_criterion_8_covariate_shift_trend():
    hyper = PipelineConfig()
    patch_side = 64
    train_pairs = _make_pairs(range(600, 610), 64, patch_side, 10.0, 650)
    state, _ = train_loop(
        train_pairs, patch_side, epochs=5, batch_size=3, seed=11, hyper=hyper
    )
    sigmas = (10.0, 15.0, 20.0, 25.0, 30.0)
    means = []
    for sigma_index, sigma in enumerate(sigmas):
        test_pairs = _make_pairs(range(700, 710), 64, patch_side, sigma, 7000 + 100 * sigma_index)
        means.append(evaluate_psnr(state.params, test_pairs, patch_side, hyper))
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    detail = ", ".join(f"{s:.0f}:{m:.2f}" for s, m in zip(sigmas, means))
    _report(8, "covariate-shift trend", decreasing, f"PSNR by sigma {{{detail}}} dB")


def test_criterion_9_truncation_error_monotone_in_degree():
    degrees = (5, 10, 20, 30)
    ok = True
    worst_seq = None
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        op = operator_with_spectrum(rng, 12, 0.3, 1.0)
        exact = np.linalg.inv(op.to_dense())
        v = rng.standard_normal(12)
        target = exact @ v
        errs = []
        for degree in degrees:
            system = TaylorSystemOperator(op, default_coefficients(degree))
            out = system.apply_system(v)
            errs.append(np.linalg.norm(out - target) / np.linalg.norm(target))
        if not all(a >= b for a, b in zip(errs, errs[1:])):
            ok = False
            worst_seq = errs
    detail = "error non-increasing at K in (5, 10, 20, 30) for 20 seeds"
    if worst_seq is not None:
        detail = f"violation: {worst_seq}"
    _report(9, "truncated-inverse convergence", ok, detail)
