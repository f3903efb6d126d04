import numpy as np
import pytest
from numpy.polynomial import chebyshev

from graphdenoise import compiled as compiled_module
from graphdenoise import (
    CompiledFilter,
    DenoiserOperator,
    NumericDivergenceError,
    ParamVector,
    PipelineConfig,
    TaylorSystemOperator,
    add_awgn,
    build_psi,
    calibrated_initial,
    compile_filter,
    forward,
    network_response,
    partition,
    synthesize_image,
    train_loop,
    truncated_inverse,
    unrolled_cg,
)
from graphdenoise.compiled import CHECK_DEGREE, FIT_TOLERANCE, GRADIENT_TOLERANCE
from oracles import dense_chebyshev_terms, operator_from_dense, operator_with_spectrum, random_spd

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
    return TaylorSystemOperator(psi=psi, coefficients=theta.tse_coeffs)


def relative_error(out, reference):
    return np.linalg.norm(out - reference) / np.linalg.norm(reference)


class TestCompileFilter:
    @pytest.mark.parametrize("which", ["calibrated", "trained"])
    def test_matches_forward_to_one_in_1e8(self, request, which):
        theta = request.getfixturevalue(which)
        compiled = compile_filter(theta)
        assert compiled.fit_error <= FIT_TOLERANCE
        assert compiled.degree <= DEFAULT.degree_K * DEFAULT.depth_T
        for sigma in (15.0, 50.0):
            for patch in noisy_patches(31, sigma):
                out = compiled.apply(build_psi(theta, patch, 64, DEFAULT), patch)
                reference = forward(theta, patch, 64, DEFAULT)
                assert not np.array_equal(out, reference)  # the compiled filter ran
                assert relative_error(out, reference) <= 1e-8

    @pytest.mark.parametrize("tail", [FIT_TOLERANCE, GRADIENT_TOLERANCE])
    @pytest.mark.parametrize("which", ["calibrated", "trained"])
    def test_keeps_the_shortest_prefix_whose_dropped_tail_is_within_tolerance(
        self, request, which, tail
    ):
        theta = request.getfixturevalue(which)
        full = chebyshev.chebinterpolate(
            lambda x: network_response(theta, (1.0 + x) / 2.0),
            DEFAULT.degree_K * DEFAULT.depth_T,
        )
        compiled = compile_filter(theta, tail)
        kept = compiled.degree + 1
        assert kept < full.size
        assert np.sum(np.abs(full[kept:])) <= tail < np.sum(np.abs(full[kept - 1 :]))
        assert compiled.fit_error <= FIT_TOLERANCE
        # the gradient's tighter tail keeps a longer prefix of the same series
        if tail < FIT_TOLERANCE:
            shorter = compile_filter(theta).coefficients
            assert shorter.size < kept
            assert np.array_equal(compiled.coefficients[: shorter.size], shorter)

    def test_response_is_the_network_on_an_eigenvector(self, calibrated):
        # on a diagonal Psi every basis vector is an eigenvector
        lam = np.linspace(0.0, 1.0, 64)
        system = TaylorSystemOperator(
            psi=operator_from_dense(np.diag(lam)),
            coefficients=calibrated.tse_coeffs,
        )
        x, _ = unrolled_cg(system.apply_system, np.ones(64), calibrated.cg_config())
        np.testing.assert_allclose(network_response(calibrated, lam), x, rtol=1e-12)

    def test_response_runs_the_system_apply_recurrence(self, calibrated):
        # network_response's p(lam) is the system's truncated_inverse with
        # lam in place of Psi, term by term
        lam = np.linspace(0.0, 1.0, 64)
        system = TaylorSystemOperator(
            psi=operator_from_dense(np.diag(lam)),
            coefficients=calibrated.tse_coeffs,
        )
        ones = np.ones(64)
        out, terms = system.apply_truncated_inverse_with_cache(ones)
        p, powers = truncated_inverse(calibrated.tse_coeffs, lambda t: lam * t, ones)
        assert out.tobytes() == p.tobytes()
        assert terms.tobytes() == powers.tobytes()

    @pytest.mark.parametrize(
        "hyper",
        [
            PipelineConfig(window_radius=2, degree_K=2, depth_T=3),
            # the identity network of the CLI's depth-zero test
            PipelineConfig(window_radius=2, degree_K=4, depth_T=0),
            PipelineConfig(degree_K=10, depth_T=1),
        ],
        ids=["tiny", "depth-zero", "K10-T1"],
    )
    def test_uncalibrated_small_networks_compile_exactly(self, hyper):
        theta = ParamVector.initial(hyper)
        compiled = compile_filter(theta)
        assert compiled.degree <= hyper.degree_K * hyper.depth_T
        for patch in noisy_patches(41):
            out = compiled.apply(build_psi(theta, patch, 64, hyper), patch)
            assert relative_error(out, forward(theta, patch, 64, hyper)) <= 1e-8

    @pytest.mark.parametrize(
        "theta_of, message",
        [
            # alpha = 1, beta = 0: max |Q| is about 9e14, no filter fits
            (None, "^the learned network does not compile: fit error "),
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
    def test_networks_that_do_not_compile_raise(self, theta_of, message):
        theta = ParamVector.initial(DEFAULT)
        if theta_of is not None:
            theta_of(theta)
        with pytest.raises(NumericDivergenceError, match=message):
            compile_filter(theta)

    def test_depth_zero_is_the_identity_filter(self, monkeypatch):
        hyper = PipelineConfig(depth_T=0)
        theta = ParamVector.initial(hyper)
        compiled = compile_filter(theta)
        assert compiled.coefficients.tolist() == [1.0]
        patch = noisy_patches(51)[0]
        psi = build_psi(theta, patch, 64, hyper)
        calls = []
        real_apply = DenoiserOperator.apply
        monkeypatch.setattr(
            DenoiserOperator, "apply", lambda psi, v: calls.append(1) or real_apply(psi, v)
        )
        assert np.array_equal(compiled.apply(psi, patch), patch)
        assert calls == []

    @pytest.mark.parametrize(
        "hyper",
        [
            PipelineConfig(window_radius=2, degree_K=2, depth_T=3),
            # K T = 100000: interpolated at CHECK_DEGREE // 2, where the
            # check grid still bounds the fit
            PipelineConfig(window_radius=2, degree_K=1000, depth_T=100),
        ],
        ids=["tiny", "K1000-T100"],
    )
    def test_response_is_evaluated_once_at_the_nodes_and_the_check_grid(
        self, monkeypatch, hyper
    ):
        sizes = []

        def counting_response(theta, lam):
            sizes.append(lam.size)
            return network_response(theta, lam)

        monkeypatch.setattr(compiled_module, "network_response", counting_response)
        try:
            compiled = compile_filter(ParamVector.initial(hyper))
        except NumericDivergenceError:
            pass
        else:
            assert compiled.degree <= CHECK_DEGREE // 2
        degree = min(hyper.degree_K * hyper.depth_T, CHECK_DEGREE // 2)
        assert sizes == [degree + 1 + CHECK_DEGREE + 1]


class TestTerms:
    @pytest.mark.parametrize("degree", [0, 1, 2, "calibrated"])
    def test_are_the_chebyshev_polynomials_of_2_psi_minus_i(self, request, degree):
        if degree == "calibrated":
            compiled = compile_filter(request.getfixturevalue("calibrated"))
            assert compiled.degree > 2
        else:
            compiled = CompiledFilter(np.ones(degree + 1), 0.0)
        rng = np.random.default_rng(4)
        dense = random_spd(rng, 64, 0.0, 1.0)
        psi = operator_from_dense(dense)
        y = rng.standard_normal(64)
        terms = list(compiled.terms(psi, y))
        assert len(terms) == compiled.degree + 1 and terms[0] is y
        for term, reference in zip(terms, dense_chebyshev_terms(dense, y, compiled.degree)):
            assert np.linalg.norm(term - reference) <= 1e-12 * np.linalg.norm(y)


class TestApply:
    def test_matches_the_unrolled_network_on_a_spectrum_filling_the_interval(self, calibrated):
        system = system_with_spectrum(calibrated, 0.0, 1.0)
        y = np.random.default_rng(2).random(64)
        out = compile_filter(calibrated).apply(system.psi, y)
        reference, _ = unrolled_cg(system.apply_system, y, calibrated.cg_config())
        assert not np.array_equal(out, reference)
        assert relative_error(out, reference) <= 1e-8

    @pytest.mark.parametrize("degree", [0, 1, 2, "calibrated"])
    def test_is_bitwise_the_in_order_sum_of_its_terms_and_leaves_y(self, request, degree):
        # apply adds c_k u_k over the same terms, each product a fresh
        # array, in order of k
        theta = request.getfixturevalue("calibrated")
        if degree == "calibrated":
            compiled = compile_filter(theta)
            assert compiled.degree > 2
        else:
            compiled = CompiledFilter(np.random.default_rng(degree).normal(size=degree + 1), 0.0)
        y = noisy_patches(41)[0]
        before = y.copy()
        psi = build_psi(theta, y, 64, DEFAULT)
        terms = list(compiled.terms(psi, y))
        expected = compiled.coefficients[0] * terms[0]
        for c_k, term in zip(compiled.coefficients[1:], terms[1:]):
            expected = expected + c_k * term
        assert compiled.apply(psi, y).tobytes() == expected.tobytes()
        assert y.tobytes() == before.tobytes()

    def test_zero_patch_is_zero(self, calibrated):
        patch = np.zeros(64 * 64)
        out = compile_filter(calibrated).apply(build_psi(calibrated, patch, 64, DEFAULT), patch)
        assert np.array_equal(out, patch)
