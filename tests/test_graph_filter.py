import importlib.util
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from graphdenoise import (
    FEATURE_DIM,
    DenoiserOperator,
    InvalidInputError,
    SparseFilterMatrix,
    bilateral_factor,
    build_filter_matrix,
    central_gradients,
    estimate_spectrum,
    extract_features,
    normalize,
)
from graphdenoise import graph_filter
from graphdenoise.errors import DegenerateMatrixError
from oracles import (
    block_filter_matrix,
    block_planes,
    dense_filter_matrix,
    dense_normalize,
    filter_weight,
    in_window_pairs,
    lower_factor,
    operator_from_dense,
    random_patch,
    stencil_gradients,
    window_blocks,
    window_taper,
)


def grid_filter(side, weights):
    """A radius-1 filter matrix with constant planes: weights[(dr, dc)], else 0."""
    offsets = graph_filter.upper_offsets(side, 1)
    upper = np.zeros((len(offsets), side * side))
    for dr, dc, _, block_j in window_blocks(side, 1):
        row = upper[offsets.index(dr * side + dc)].reshape(side, side)
        row[block_j] = weights.get((dr, dc), 0.0)
    return SparseFilterMatrix(side=side, window_radius=1, upper=upper)


class TestExtractFeatures:
    def test_constant_patch(self):
        features = extract_features(np.full(4, 0.5), 2)
        expected = np.array(
            [
                [[0, 0, 0.5, 0, 0], [1, 0, 0.5, 0, 0]],
                [[0, 1, 0.5, 0, 0], [1, 1, 0.5, 0, 0]],
            ],
            dtype=float,
        )
        assert features.dtype == np.float64 and np.array_equal(features, expected)

    @pytest.mark.parametrize("side", [1, 2, 5, 8])
    def test_array_is_the_stacked_per_pixel_rows(self, side):
        # one (side, side, FEATURE_DIM) array, bitwise the per-pixel rows
        # (x, y, intensity, grad_x, grad_y) in row-major pixel order
        patch = random_patch(side, side)
        features = extract_features(patch, side)
        gx, gy = central_gradients(patch.reshape(side, side))
        grid_y, grid_x = np.indices((side, side))
        columns = [grid_x.ravel().astype(float), grid_y.ravel().astype(float), patch]
        rows = np.stack([*columns, gx.ravel(), gy.ravel()], axis=1)
        assert features.shape == (side, side, FEATURE_DIM)
        assert features.tobytes() == rows.reshape(side, side, FEATURE_DIM).tobytes()

    def test_ramp_central_difference(self):
        # 1x3 ramp: the center pixel sees (1.0 - 0.0) / 2
        gx, gy = central_gradients(np.array([[0.0, 0.5, 1.0]]))
        assert gx[0, 1] == 0.5
        assert gx[0, 0] == 0.5 and gx[0, 2] == 0.5  # one-sided ends
        assert np.all(gy == 0.0)

    def test_gradients_match_stencil_oracle(self):
        patch = random_patch(11, 8)
        features = extract_features(patch, 8)
        gx, gy = stencil_gradients(patch.reshape(8, 8))
        assert np.array_equal(features[..., 3], gx)
        assert np.array_equal(features[..., 4], gy)

    def test_intensity_column_is_the_patch(self):
        patch = random_patch(3, 4)
        features = extract_features(patch, 4)
        assert np.array_equal(features[..., 2].ravel(), patch)

    def test_rejects_non_square_length(self):
        with pytest.raises(InvalidInputError):
            extract_features(np.zeros(5), 2)

    def test_rejects_out_of_range_intensity(self):
        with pytest.raises(InvalidInputError):
            extract_features(np.array([0.0, 0.5, 1.5, 0.2]), 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_non_finite_intensity(self, bad):
        with pytest.raises(InvalidInputError, match=r"must lie in \[0, 1\]"):
            extract_features(np.array([0.0, 0.5, bad, 0.2]), 2)

    def test_gradients_reject_non_2d(self):
        with pytest.raises(InvalidInputError):
            central_gradients(np.zeros(9))


class TestFilterWeight:
    def test_identical_features_give_one(self):
        metric = bilateral_factor()
        f = np.array([3.0, 4.0, 0.7, 0.1, -0.2])
        assert filter_weight(f, f, metric) == 1.0

    def test_unit_difference_identity_metric(self):
        metric = np.eye(5)
        f_i = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        f_j = np.zeros(5)
        assert filter_weight(f_i, f_j, metric) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_reduces_to_classic_bilateral(self):
        # C = diag(1/sl, 1/sl, 1/sx, 0, 0) reproduces the product of the
        # spatial and range exponentials to machine precision.
        sl, sx = 2.0, 0.1
        metric = np.diag([1 / sl, 1 / sl, 1 / sx, 0.0, 0.0])
        rng = np.random.default_rng(5)
        for _ in range(20):
            f_i = np.array([*rng.integers(0, 8, 2).astype(float), rng.random(), *rng.normal(0, 1, 2)])
            f_j = np.array([*rng.integers(0, 8, 2).astype(float), rng.random(), *rng.normal(0, 1, 2)])
            dl2 = (f_i[0] - f_j[0]) ** 2 + (f_i[1] - f_j[1]) ** 2
            dx2 = (f_i[2] - f_j[2]) ** 2
            classic = math.exp(-dl2 / sl**2) * math.exp(-dx2 / sx**2)
            assert filter_weight(f_i, f_j, metric) == pytest.approx(classic, rel=1e-13)

    def test_dimension_mismatch(self):
        metric = bilateral_factor()
        with pytest.raises(InvalidInputError):
            filter_weight(np.zeros(4), np.zeros(5), metric)

    @given(st.lists(st.floats(-5, 5), min_size=5, max_size=5))
    def test_weight_in_unit_interval(self, diff):
        metric = bilateral_factor()
        f_j = np.zeros(5)
        f_j[2] = 0.5
        f_i = f_j + np.array(diff) * np.array([1, 1, 0.05, 1, 1])
        f_i[2] = min(max(f_i[2], 0.0), 1.0)
        w = filter_weight(f_i, f_j, metric)
        assert 0.0 < w <= 1.0

    @given(st.floats(1.0, 8.0))
    @settings(max_examples=25)
    def test_scaling_metric_never_increases_weight(self, t):
        base = np.tril(np.linspace(0.1, 1.0, 25).reshape(5, 5))
        scaled = t * base
        f_i = np.array([1.0, 2.0, 0.3, 0.1, -0.4])
        f_j = np.array([0.0, 1.0, 0.8, -0.2, 0.3])
        assert filter_weight(f_i, f_j, scaled) <= filter_weight(f_i, f_j, base)


class TestBuildFilterMatrix:
    def test_neighbor_counts_radius_one(self):
        features = extract_features(random_patch(0, 3), 3)
        filt = build_filter_matrix(features, bilateral_factor(), 1)
        dense = filt.to_dense()
        center = 4  # (1, 1) in a 3x3 patch
        corner = 0
        assert np.count_nonzero(dense[center]) == 9
        assert np.count_nonzero(dense[corner]) == 4

    def test_zero_metric_gives_the_window_taper(self):
        features = extract_features(random_patch(1, 4), 4)
        filt = build_filter_matrix(features, np.zeros((5, 5)), 2)
        for dr, dc, _, _, plane in block_planes(filt.upper, 4, 2):
            np.testing.assert_allclose(plane, window_taper(dr, dc, 2), rtol=1e-15)

    def test_matches_dense_oracle(self):
        features = extract_features(random_patch(2, 5), 5)
        metric = bilateral_factor()
        filt = build_filter_matrix(features, metric, 2)
        dense = dense_filter_matrix(features, metric, 2)
        assert np.max(np.abs(filt.to_dense() - dense)) < 1e-15

    def test_enumeration_order_invariance(self):
        # the map (i, j) -> weight must not depend on construction order;
        # the oracle enumerates pairs in a completely different order
        features = extract_features(random_patch(9, 4), 4)
        metric = lower_factor(np.linspace(-0.5, 0.9, 15))
        filt = build_filter_matrix(features, metric, 3)
        dense = dense_filter_matrix(features, metric, 3)
        assert np.max(np.abs(filt.to_dense() - dense)) < 1e-15

    @pytest.mark.parametrize("side", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize(
        "metric",
        [
            bilateral_factor(),
            np.diag([0.0, 0.0, 100.0, 0.0, 0.0]),
            lower_factor(np.random.default_rng(6).normal(0.0, 0.6, 15)),
        ],
        ids=["bilateral", "underflow", "random"],
    )
    def test_psi_diagonals_equal_the_pixel_loop(self, side, radius, metric):
        # side <= 2r puts two window offsets at one flat offset, on disjoint
        # pixels. The underflow metric makes most weights exactly 0, which
        # the diagonals hold as zeros, and whose matvec is bitwise the
        # pruned one. The loop's weights are the tapered ones, checked
        # against the tapered dense oracle.
        features = extract_features(random_patch(5 * side + radius, side), side)
        filt = build_filter_matrix(features, metric, radius)
        dense = filt.to_dense()
        assert np.max(np.abs(dense - dense_filter_matrix(features, metric, radius))) < 1e-15
        op = normalize(filt)
        inv_sqrt = 1.0 / np.sqrt(filt.row_sums.ravel())
        n = side * side
        diagonals = {}  # offset j - i -> the (n,) row of data, by column j
        b_diagonals = {}  # the same for B, offsets j - i > 0
        rows, cols, values = [], [], []
        for i in range(n):
            for j in range(n):
                (ri, ci), (rj, cj) = divmod(i, side), divmod(j, side)
                if max(abs(ri - rj), abs(ci - cj)) <= radius:
                    value = dense[i, j] * (inv_sqrt[i] * inv_sqrt[j])
                    diagonals.setdefault(j - i, np.zeros(n))[j] = value
                    if j > i:
                        b_diagonals.setdefault(j - i, np.zeros(n))[j] = dense[i, j]
                    rows.append(i)
                    cols.append(j)
                    values.append(value)
        pruned = sparse.csr_array((values, (rows, cols)), shape=(n, n))
        pruned.eliminate_zeros()
        rng = np.random.default_rng(side + radius)
        for v in rng.standard_normal((3, n)):
            assert op.apply(v).tobytes() == (pruned @ v).tobytes()
        assert op.offsets.dtype == np.int32 and op.offsets.tolist() == sorted(diagonals)
        assert op.data.dtype == np.float64
        assert np.array_equal(op.data, np.array([diagonals[k] for k in sorted(diagonals)]))
        assert filt.offsets == tuple(sorted(b_diagonals))
        expected_upper = np.array([b_diagonals[k] for k in sorted(b_diagonals)]).reshape(-1, n)
        assert filt.upper.shape == expected_upper.shape
        assert np.array_equal(filt.upper, expected_upper)

    @pytest.mark.parametrize("side", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize(
        "metric",
        [bilateral_factor(), np.diag([0.0, 0.0, 100.0, 0.0, 0.0])],
        ids=["bilateral", "underflow"],
    )
    def test_apply_is_bitwise_scipy_dia_and_csr(self, side, radius, metric):
        # the compiled kernel, called directly, against scipy's own DIA and
        # CSR matvecs of the same Psi; side <= 2r shares diagonals between
        # window offsets, and the underflow metric's weights are 0
        features = extract_features(random_patch(7 * side + radius, side), side)
        op = normalize(build_filter_matrix(features, metric, radius))
        n = side * side
        dia = sparse.dia_array((op.data, op.offsets), shape=(n, n))
        for v in np.random.default_rng(side * radius).standard_normal((3, n)):
            out = op.apply(v)
            assert out.tobytes() == (dia @ v).tobytes() == (dia.tocsr() @ v).tobytes()

    @pytest.mark.parametrize("side, radius", [(1, 1), (3, 2), (8, 3)])
    def test_csr_form_equals_to_dense(self, side, radius):
        features = extract_features(random_patch(side, side), side)
        op = normalize(build_filter_matrix(features, bilateral_factor(), radius))
        assert isinstance(op._matrix, sparse.csr_array)
        assert np.array_equal(op._matrix.toarray(), op.to_dense())
        assert op._matrix is op._matrix

    @pytest.mark.parametrize("side", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_row_sums_add_half_window_offsets_then_mirrors(self, side, radius):
        features = extract_features(random_patch(side, side), side)
        metric = lower_factor(np.linspace(-0.5, 0.9, 15))
        filt = build_filter_matrix(features, metric, radius)
        offsets = [(0, dc) for dc in range(1, radius + 1)]
        offsets += [(dr, dc) for dr in range(1, radius + 1) for dc in range(-radius, radius + 1)]
        offsets = [(dr, dc) for dr, dc in offsets if dr < side and abs(dc) < side]
        assert [(dr, dc) for dr, dc, _, _ in window_blocks(side, radius)] == offsets
        dense = filt.to_dense()
        pairs = [
            (r * side + c, (r + dr) * side + c + dc)
            for dr, dc in offsets
            for r in range(side)
            for c in range(side)
            if 0 <= r + dr < side and 0 <= c + dc < side
        ]
        expected = np.ones(side * side)
        for i, j in pairs:
            expected[i] += dense[i, j]
        for i, j in pairs:
            expected[j] += dense[i, j]
        assert np.array_equal(filt.row_sums.ravel(), expected)

    def test_window_blocks_skip_empty_blocks(self):
        # on a 2x2 grid only offsets with |dr|, |dc| <= 1 join two pixels
        assert [(dr, dc) for dr, dc, _, _ in window_blocks(2, 3)] == [(0, 1), (1, -1), (1, 0), (1, 1)]
        assert list(window_blocks(1, 3)) == []

    def test_upper_offsets_are_the_flat_offsets_of_the_nonempty_blocks(self):
        # every block of the half window is nonempty, side <= 2r included,
        # so the closed form leaves out no offset and adds none
        for side in range(1, 17):
            for radius in range(1, 5):
                blocks = {dr * side + dc for dr, dc, _, _ in window_blocks(side, radius)}
                assert graph_filter.upper_offsets(side, radius) == tuple(sorted(blocks))

    def test_radius_far_beyond_the_patch_builds_quickly(self):
        # offsets of the patch side or more have no block: a huge radius
        # visits only the side's offsets, and its taper still uses the radius
        features = extract_features(random_patch(4, 16), 16)
        metric = bilateral_factor()
        start = time.perf_counter()
        filt = build_filter_matrix(features, metric, 10**6)
        op = normalize(filt)
        assert time.perf_counter() - start < 1.0
        assert filt.offsets == graph_filter.upper_offsets(16, 15)
        dense = dense_filter_matrix(features, metric, 10**6)
        assert np.max(np.abs(filt.to_dense() - dense)) < 1e-15
        assert op.n == 256

    def test_invariants_hold(self):
        features = extract_features(random_patch(3, 6), 6)
        filt = build_filter_matrix(features, bilateral_factor(), 3)
        dense = filt.to_dense()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 1.0)
        planes = [plane for *_, plane in block_planes(filt.upper, 6, 3)]
        assert all(np.all((plane > 0.0) & (plane <= 1.0)) for plane in planes)
        assert filt.nnz == np.count_nonzero(dense)

    @pytest.mark.parametrize("side", [1, 2, 3, 4, 7, 9])
    @pytest.mark.parametrize("radius", [1, 2, 3, 10**6])
    def test_nnz_counts_the_in_window_pairs(self, side, radius):
        # the underflow metric zeros most weights: nnz counts pairs, not
        # nonzero weights
        features = extract_features(random_patch(side, side), side)
        filt = build_filter_matrix(features, np.diag([0.0, 0.0, 100.0, 0.0, 0.0]), radius)
        assert filt.nnz == in_window_pairs(side, radius)

    @pytest.mark.parametrize(
        "metric",
        [
            bilateral_factor(),
            np.diag([0.0, 0.0, 100.0, 0.0, 0.0]),
            lower_factor(np.random.default_rng(16).normal(0.0, 0.6, 15)),
        ],
        ids=["bilateral", "underflow", "random"],
    )
    def test_rows_match_the_block_build_at_the_benchmark_size(self, metric):
        # the rows sum each pair's squares in another order than the block
        # build's per-pixel einsum, so their last bits may differ
        features = extract_features(random_patch(64, 64), 64)
        filt = build_filter_matrix(features, metric, 3)
        assert np.max(np.abs(filt.upper - block_filter_matrix(features, metric, 3))) <= 1e-15

    def test_upper_must_have_one_float_row_per_positive_diagonal(self):
        # on a 2x2 grid the offsets (0, 1) and (1, -1) share flat offset 1,
        # so the four blocks have three rows of 4 pixels
        assert graph_filter.upper_offsets(2, 1) == (1, 2, 3)
        SparseFilterMatrix(side=2, window_radius=1, upper=np.zeros((3, 4)))
        for upper in (np.zeros((4, 4)), np.zeros((3, 3)), np.zeros(12), np.zeros((3, 4), np.float32)):
            with pytest.raises(InvalidInputError, match="one row per positive diagonal"):
                SparseFilterMatrix(side=2, window_radius=1, upper=upper)

    def test_rejects_radius_below_one(self):
        features = extract_features(random_patch(0, 3), 3)
        with pytest.raises(InvalidInputError):
            build_filter_matrix(features, bilateral_factor(), 0)

    def test_rejects_metric_dimension_mismatch(self):
        features = extract_features(random_patch(0, 3), 3)
        with pytest.raises(InvalidInputError, match="metric factor must be 5x5"):
            build_filter_matrix(features, np.diag([1.0, 2.0]), 1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_factor(self, bad):
        features = extract_features(random_patch(0, 3), 3)
        factor = np.eye(FEATURE_DIM)
        factor[2, 1] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            build_filter_matrix(features, factor, 1)

    @pytest.mark.parametrize(
        "shape",
        [(9, FEATURE_DIM), (3, 4, FEATURE_DIM), (3, 3, 4), (0, 0, FEATURE_DIM), (1, 3, 3, FEATURE_DIM)],
    )
    def test_rejects_bad_feature_shape(self, shape):
        with pytest.raises(InvalidInputError, match="features must have shape"):
            build_filter_matrix(np.zeros(shape), bilateral_factor(), 1)


class TestNormalize:
    def test_identity_filter_normalizes_to_identity(self):
        op = normalize(grid_filter(2, {}))
        assert np.array_equal(op.to_dense(), np.eye(4))

    def test_two_node_hand_computation(self):
        # a 2x2 grid whose only edges, weight 0.5, join pixels 0-1 and 2-3:
        # two copies of the 2-node case
        filt = grid_filter(2, {(0, 1): 0.5})
        op = normalize(filt)
        pair = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        assert np.allclose(op.to_dense(), np.kron(np.eye(2), pair), atol=1e-15)
        assert np.array_equal(filt.row_sums, np.full((2, 2), 1.5))

    def test_matches_dense_normalization_oracle(self):
        features = extract_features(random_patch(4, 4), 4)
        filt = build_filter_matrix(features, bilateral_factor(), 2)
        op = normalize(filt)
        assert np.max(np.abs(op.to_dense() - dense_normalize(filt.to_dense()))) < 1e-14

    def test_spectral_radius_at_most_one(self):
        features = extract_features(random_patch(6, 4), 4)
        filt = build_filter_matrix(features, bilateral_factor(), 2)
        eigs = np.linalg.eigvalsh(normalize(filt).to_dense())
        assert eigs.max() <= 1.0 + 1e-10

    def test_exact_symmetry(self):
        features = extract_features(random_patch(7, 5), 5)
        filt = build_filter_matrix(features, bilateral_factor(), 3)
        dense = normalize(filt).to_dense()
        assert np.max(np.abs(dense - dense.T)) < 1e-12

    def test_row_sums_at_least_one(self):
        features = extract_features(random_patch(8, 5), 5)
        filt = build_filter_matrix(features, bilateral_factor(), 3)
        assert np.all(filt.row_sums >= 1.0)

    def test_degenerate_row_sum_raises(self):
        with pytest.raises(DegenerateMatrixError):
            normalize(grid_filter(2, {(0, 1): -1.0}))

    def test_temporaries_are_small_beside_the_values(self):
        # Psi's values at 64x64, radius 3, are 1.6 MB; the build's other
        # arrays stay far below, so no large block is allocated and freed
        filt = build_filter_matrix(extract_features(random_patch(13, 64), 64), bilateral_factor(), 3)
        tracemalloc.start()
        try:
            op = normalize(filt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - op.data.nbytes <= 0.5e6

    @given(st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_nonexpansive_over_random_patches(self, seed):
        features = extract_features(random_patch(seed, 4), 4)
        filt = build_filter_matrix(features, bilateral_factor(), 2)
        eigs = np.linalg.eigvalsh(normalize(filt).to_dense())
        assert eigs.max() <= 1.0 + 1e-8

    @given(st.integers(2, 16), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @example(side=2, radius=3, seed=0)  # side <= 2r: the window covers the patch
    @example(side=16, radius=3, seed=321)
    @settings(max_examples=60)
    def test_positive_definite_for_any_metric(self, side, radius, seed):
        # metric entries drawn as in acceptance criterion 6; the tapered
        # window makes B, and so Psi, positive definite for every metric
        rng = np.random.default_rng(seed)
        features = extract_features(rng.random(side * side), side)
        metric = lower_factor(rng.normal(0.0, 0.6, 15))
        psi = normalize(build_filter_matrix(features, metric, radius))
        assert np.linalg.eigvalsh(psi.to_dense()).min() > -1e-12


class TestApplyPsi:
    def test_identity(self):
        op = operator_from_dense(np.eye(6))
        v = np.arange(6.0)
        assert np.array_equal(op.apply(v), v)

    def test_zero_vector(self):
        features = extract_features(random_patch(5, 4), 4)
        op = normalize(build_filter_matrix(features, bilateral_factor(), 2))
        assert np.array_equal(op.apply(np.zeros(16)), np.zeros(16))

    def test_matches_dense_matvec(self):
        features = extract_features(random_patch(12, 4), 4)
        op = normalize(build_filter_matrix(features, bilateral_factor(), 2))
        v = np.random.default_rng(1).standard_normal(16)
        dense_out = op.to_dense() @ v
        out = op.apply(v)
        assert np.linalg.norm(out - dense_out) / np.linalg.norm(dense_out) < 1e-13

    def test_length_mismatch(self):
        op = operator_from_dense(np.eye(4))
        with pytest.raises(InvalidInputError):
            op.apply(np.zeros(5))

    @pytest.mark.parametrize(
        "data, offsets",
        [
            (np.ones((2, 4)), np.array([1, 0], np.int32)),
            (np.ones((2, 4)), np.array([0, 0], np.int32)),
            (np.ones((2, 4)), np.array([0], np.int32)),
            (np.ones(4), np.array([0], np.int32)),
        ],
        ids=["descending", "repeated", "fewer-offsets", "flat-data"],
    )
    def test_rejects_diagonals_the_kernel_would_misread(self, data, offsets):
        with pytest.raises(InvalidInputError, match="offsets strictly ascending"):
            DenoiserOperator(data=data, offsets=offsets)

    def test_kernel_loads_from_its_file_or_through_scipy_sparse(self, monkeypatch):
        # a loaded extension is reused; without one it is loaded from its
        # file, and when that fails, through scipy.sparse
        name = "scipy.sparse._sparsetools"
        assert graph_filter._load_dia_matvec() is sys.modules[name].dia_matvec
        monkeypatch.delitem(sys.modules, name)
        kernels = [graph_filter._load_dia_matvec()]
        monkeypatch.delitem(sys.modules, name, raising=False)
        monkeypatch.setattr(importlib.util, "find_spec", lambda *args: None)
        kernels.append(graph_filter._load_dia_matvec())
        for kernel in kernels:
            out = np.zeros(3)
            kernel(3, 3, 2, 3, np.array([-1, 1], np.int32), np.ones((2, 3)), np.arange(3.0), out)
            assert out.tolist() == [1.0, 2.0, 1.0]


class TestEstimateSpectrum:
    def test_identity_operator(self):
        op = operator_from_dense(np.eye(8))
        lam_min, lam_max = estimate_spectrum(op, 50)
        assert lam_min == pytest.approx(1.0, abs=1e-12)
        assert lam_max == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_two_node(self):
        op = operator_from_dense(np.diag([0.2, 0.9]))
        lam_min, lam_max = estimate_spectrum(op, 500)
        assert lam_min == pytest.approx(0.2, abs=1e-6)
        assert lam_max == pytest.approx(0.9, abs=1e-6)

    def test_against_dense_eigensolve(self):
        side = 6  # 36-node graph; spec asks for ~32
        features = extract_features(random_patch(21, side), side)
        op = normalize(build_filter_matrix(features, bilateral_factor(), 2))
        eigs = np.linalg.eigvalsh(op.to_dense())
        lam_min, lam_max = estimate_spectrum(op, 500)
        assert lam_max == pytest.approx(eigs.max(), abs=1e-3)
        assert lam_min == pytest.approx(eigs.min(), abs=1e-3)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_rejects_nonpositive_iterations(self, iterations):
        op = operator_from_dense(np.eye(2))
        with pytest.raises(InvalidInputError, match=f"iterations must be >= 1, got {iterations}"):
            estimate_spectrum(op, iterations)

    @pytest.mark.parametrize("scale", [1.0, 2.0**-200, 2.0**200])
    def test_breakdown_is_relative(self, scale):
        # the random start spans all four eigenvectors, so the run breaks
        # down at step 4 with the exact ends, at any scale of the operator
        op = operator_from_dense(scale * np.diag([0.2, 0.9, 0.5, 0.3]))
        np.testing.assert_allclose(
            estimate_spectrum(op, 10), [0.2 * scale, 0.9 * scale], rtol=1e-12
        )

    def test_flags_non_pd(self, caplog):
        op = operator_from_dense(np.diag([-0.5, 0.9]))
        with caplog.at_level("WARNING"):
            lam_min, _ = estimate_spectrum(op, 300)
        assert lam_min <= 0.0
        assert any("positive definite" in rec.message for rec in caplog.records)
