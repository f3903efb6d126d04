import numpy as np
import pytest

from graphdenoise import compiled as compiled_module
from graphdenoise import (
    ParamVector,
    PipelineConfig,
    TaylorSystemOperator,
    add_awgn,
    build_system,
    calibrated_initial,
    compile_filter,
    forward,
    network_response,
    partition,
    solve_patch,
    solve_system,
    synthesize_image,
    train_loop,
)
from graphdenoise.compiled import CHECK_DEGREE, FIT_TOLERANCE, LOWER
from oracles import operator_from_dense, operator_with_spectrum

DEFAULT = PipelineConfig()  # K = 10, T = 15: 160 matvecs unrolled


def noisy_patches(seed, sigma=15.0):
    """The four 64x64 patches of a noisy 128x128 synthetic image."""
    clean = synthesize_image(128, 128, seed=seed)
    return partition(add_awgn(clean, sigma, seed + 1), 64).patches


@pytest.fixture(scope="module")
def calibrated():
    return calibrated_initial(DEFAULT, noisy_patches(11)[:3], 64)


@pytest.fixture(scope="module")
def trained():
    pairs = []
    for seed in (21, 22):
        clean = synthesize_image(64, 64, seed=seed)
        noisy = add_awgn(clean, 25.0, seed + 100)
        pairs.append((partition(noisy, 64).patches[0], partition(clean, 64).patches[0]))
    state, history = train_loop(
        pairs, 64, epochs=3, batch_size=2, seed=3, hyper=DEFAULT, learning_rate=1e-2
    )
    start = calibrated_initial(DEFAULT, [noisy for noisy, _ in pairs], 64)
    assert not np.array_equal(state.params.pack(), start.pack())
    return state.params


def system_with_spectrum(theta, lo, hi, seed=0):
    psi = operator_with_spectrum(np.random.default_rng(seed), 64, lo, hi)
    return TaylorSystemOperator(
        psi=psi,
        degree_K=DEFAULT.degree_K,
        coefficients=theta.tse_coeffs,
        expansion_point_s=DEFAULT.expansion_s,
    )


class TestCompileFilter:
    @pytest.mark.parametrize("which", ["calibrated", "trained"])
    def test_matches_forward_to_one_in_1e8(self, request, which):
        theta = request.getfixturevalue(which)
        compiled = compile_filter(theta, DEFAULT)
        assert compiled is not None
        assert compiled.fit_error <= FIT_TOLERANCE
        assert compiled.degree < DEFAULT.degree_K * (DEFAULT.depth_T + 1)
        for sigma in (15.0, 50.0):
            for patch in noisy_patches(31, sigma):
                _, _, system = build_system(theta, patch, 64, DEFAULT)
                out = solve_patch(theta, system, patch, compiled)
                reference = forward(theta, patch, 64, DEFAULT)
                assert not np.array_equal(out, reference)  # the compiled path ran
                error = np.linalg.norm(out - reference) / np.linalg.norm(reference)
                assert error <= 1e-8

    def test_response_is_the_network_on_an_eigenvector(self, calibrated):
        # on a diagonal Psi every basis vector is an eigenvector
        lam = np.linspace(LOWER, 1.0, 64)
        system = TaylorSystemOperator(
            psi=operator_from_dense(np.diag(lam)),
            degree_K=DEFAULT.degree_K,
            coefficients=calibrated.tse_coeffs,
        )
        x = solve_system(calibrated, system, np.ones(64))
        np.testing.assert_allclose(network_response(calibrated, DEFAULT, lam), x, rtol=1e-12)

    @pytest.mark.parametrize(
        "hyper, theta_of",
        [
            # K (T + 1) = 8 leaves no degree of 8 or more below it
            (PipelineConfig(window_radius=2, degree_K=2, depth_T=3), None),
            # the identity network of the CLI's depth-zero test: K (T + 1) = 4
            (PipelineConfig(window_radius=2, degree_K=4, depth_T=0), None),
            (DEFAULT, None),  # uncalibrated: alpha = 1, beta = 0; no degree fits
            (DEFAULT, lambda theta: theta.cg_alpha.__setitem__(slice(None), 1e300)),
            (DEFAULT, lambda theta: theta.cg_alpha.__setitem__(1, np.nan)),
        ],
        ids=["tiny", "depth-zero", "uncalibrated", "alpha-1e300", "alpha-nan"],
    )
    def test_not_compiled(self, hyper, theta_of):
        theta = ParamVector.initial(hyper)
        if theta_of is not None:
            theta_of(theta)
        assert compile_filter(theta, hyper) is None

    def test_candidate_degrees_stop_below_half_the_check_grid(self, monkeypatch):
        # K (T + 1) = 101000: one node set per candidate below it would need
        # about 6e8 points; above CHECK_DEGREE // 2 the check grid no
        # longer bounds the fit
        hyper = PipelineConfig(window_radius=2, degree_K=1000, depth_T=100)
        sizes = []

        def counting_response(theta, hyper, lam):
            sizes.append(lam.size)
            return network_response(theta, hyper, lam)

        monkeypatch.setattr(compiled_module, "network_response", counting_response)
        compiled = compile_filter(ParamVector.initial(hyper), hyper)
        assert compiled is None or compiled.degree < CHECK_DEGREE // 2
        below = range(8, CHECK_DEGREE // 2, 8)
        assert sizes == [CHECK_DEGREE + 1 + sum(degree + 1 for degree in below)]


class TestSolvePatch:
    def test_spectrum_inside_the_interval_takes_the_compiled_path(self, calibrated):
        system = system_with_spectrum(calibrated, LOWER, 1.0)
        y = np.random.default_rng(2).random(64)
        compiled = compile_filter(calibrated, DEFAULT)
        out = solve_patch(calibrated, system, y, compiled)
        reference = solve_system(calibrated, system, y)
        assert not np.array_equal(out, reference)
        assert np.linalg.norm(out - reference) <= 1e-8 * np.linalg.norm(reference)

    def test_zero_patch_is_zero_on_the_compiled_path(self, calibrated):
        patch = np.zeros(64 * 64)
        _, _, system = build_system(calibrated, patch, 64, DEFAULT)
        out = solve_patch(calibrated, system, patch, compile_filter(calibrated, DEFAULT))
        assert np.array_equal(out, patch)
