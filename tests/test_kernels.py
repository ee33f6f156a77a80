"""Kernel specs, Gram construction, PSD roots, factors, and block assembly."""

import numpy as np
import pytest

from ksvar.errors import (
    ConfigError,
    DegenerateSeries,
    NotSymmetric,
    ShapeMismatch,
)
from ksvar.kernels import (
    PSD_ATOL,
    RANK_RTOL,
    KernelDictionary,
    KernelSpec,
    assemble,
    build_gram,
    build_kernel_set,
    cross_gram,
    eigen_factor,
    eval_kernel,
    feature_factor,
    gram_matrix,
    median_bandwidth,
    parse_kernel_spec,
)
from ksvar.panel import TimeSeriesPanel, lag_view

from oracles import (
    columns_of,
    dmat,
    dmat_deleted,
    dsqrt,
    index_set,
    kbar,
    kbar_deleted,
    psd_sqrt,
    total_columns,
)
from oracles import gram as oracle_gram
from oracles import kernel_value as oracle_kernel_value

LINEAR = KernelSpec(kind="linear")
POLY21 = KernelSpec(kind="polynomial", degree=2, offset=1.0)
GAUSS1 = KernelSpec(kind="gaussian", bandwidth=1.0)
GAUSS_MEDIAN = KernelSpec(kind="gaussian", bandwidth="median")


def view_from(values, lag):
    values = np.asarray(values, dtype=float)
    labels = tuple(f"n{i}" for i in range(values.shape[1]))
    panel = TimeSeriesPanel(values=values, node_labels=labels, sample_rate_hz=1.0)
    return panel, lag_view(panel, lag)


class TestSpecParsing:
    def test_linear(self):
        assert parse_kernel_spec("linear") == LINEAR

    def test_poly_with_offset(self):
        assert parse_kernel_spec("poly:d=2,c=1") == POLY21

    def test_poly_default_offset_is_one(self):
        assert parse_kernel_spec("poly:d=3") == KernelSpec(
            kind="polynomial", degree=3, offset=1.0
        )

    def test_gaussian_numeric(self):
        spec = parse_kernel_spec("gaussian:sigma=0.7")
        assert spec.kind == "gaussian"
        assert spec.bandwidth == pytest.approx(0.7)

    def test_gaussian_median(self):
        assert parse_kernel_spec("gaussian:sigma=median").bandwidth == "median"

    def test_whitespace_tolerated(self):
        assert parse_kernel_spec("  poly:d=2, c=1 ") == POLY21

    @pytest.mark.parametrize(
        "text",
        [
            "cubic",
            "poly",
            "poly:c=1",
            "poly:d=two",
            "poly:d=2,c=1,extra=3",
            "gaussian",
            "gaussian:sigma=fat",
            "gaussian:sigma",
            "linear:d=2",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_kernel_spec(text)

    @pytest.mark.parametrize(
        "text",
        ["linear", "poly:d=2,c=1", "poly:d=4,c=0.5", "gaussian:sigma=0.7", "gaussian:sigma=median"],
    )
    def test_config_string_round_trip(self, text):
        spec = parse_kernel_spec(text)
        assert parse_kernel_spec(spec.config_string()) == spec

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            KernelSpec(kind="linear", degree=2)
        with pytest.raises(ConfigError):
            KernelSpec(kind="polynomial", degree=0, offset=1.0)
        with pytest.raises(ConfigError):
            KernelSpec(kind="polynomial", degree=2, offset=-1.0)
        with pytest.raises(ConfigError):
            KernelSpec(kind="gaussian", bandwidth=-0.5)
        with pytest.raises(ConfigError):
            KernelSpec(kind="sigmoid")


class TestDictionary:
    def test_holds_distinct_kernels(self):
        d = KernelDictionary(kernels=(LINEAR, POLY21))
        assert d.size == 2

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            KernelDictionary(kernels=(LINEAR, KernelSpec(kind="linear")))

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            KernelDictionary(kernels=())


class TestEvalKernel:
    def test_linear_is_a_product(self):
        assert eval_kernel(LINEAR, 2.0, 3.0) == 6.0

    def test_poly_degree2_offset1(self):
        assert eval_kernel(POLY21, 1.0, 2.0) == 9.0

    def test_gaussian_at_identical_points(self):
        assert eval_kernel(GAUSS1, 1.3, 1.3) == 1.0

    def test_gaussian_unit_gap(self):
        assert eval_kernel(GAUSS1, 0.0, 1.0) == pytest.approx(np.exp(-0.5))

    @pytest.mark.parametrize("spec", [LINEAR, POLY21, GAUSS1])
    def test_symmetry(self, spec):
        rng = np.random.default_rng(3)
        for y, psi in rng.normal(size=(25, 2)):
            assert eval_kernel(spec, y, psi) == pytest.approx(eval_kernel(spec, psi, y))

    @pytest.mark.parametrize("spec", [LINEAR, POLY21, GAUSS1])
    def test_matches_scalar_oracle(self, spec):
        rng = np.random.default_rng(4)
        for y, psi in rng.normal(size=(25, 2)):
            assert eval_kernel(spec, y, psi) == pytest.approx(
                oracle_kernel_value(spec, y, psi), abs=1e-12
            )

    def test_unresolved_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            eval_kernel(KernelSpec(kind="gaussian", bandwidth="median"), 0.0, 1.0)


class TestGramMatrix:
    def test_linear_gram_is_outer_product(self):
        z = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(gram_matrix(LINEAR, z), np.outer(z, z))

    def test_gaussian_two_points(self):
        g = gram_matrix(GAUSS1, np.array([0.0, 1.0]))
        e = np.exp(-0.5)
        np.testing.assert_allclose(g, [[1.0, e], [e, 1.0]])

    def test_rejects_matrix_input(self):
        with pytest.raises(ShapeMismatch):
            gram_matrix(LINEAR, np.ones((3, 2)))

    @pytest.mark.parametrize("spec", [LINEAR, POLY21, GAUSS1])
    def test_entrywise_against_oracle(self, spec):
        rng = np.random.default_rng(11)
        z = rng.normal(size=9)
        np.testing.assert_allclose(gram_matrix(spec, z), oracle_gram(spec, z), atol=1e-12)

    @pytest.mark.parametrize("spec", [LINEAR, POLY21, GAUSS1])
    def test_gram_is_psd(self, spec):
        # random samples; eigenvalues may dip slightly negative in float
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = gram_matrix(spec, rng.normal(size=14))
            w = np.linalg.eigvalsh(g)
            assert w.min() >= -1e-9 * max(1.0, abs(g).max())

    def test_cross_gram_extends_gram(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=6)
        np.testing.assert_allclose(cross_gram(GAUSS1, z, z), gram_matrix(GAUSS1, z))
        rect = cross_gram(GAUSS1, z[:2], z)
        assert rect.shape == (2, 6)
        np.testing.assert_allclose(rect, gram_matrix(GAUSS1, z)[:2])


class TestBuildGram:
    def test_lag_shift_alignment(self):
        vals = np.arange(10, dtype=float).reshape(5, 2)
        _, view = view_from(vals, lag=2)
        series = vals[:, 0]
        for lag in range(3):
            got = build_gram(LINEAR, series, lag, view)
            want = np.outer(series[2 - lag : 5 - lag], series[2 - lag : 5 - lag])
            np.testing.assert_array_equal(got, want)

    def test_lag_zero_matches_targets(self):
        vals = np.random.default_rng(0).normal(size=(8, 2))
        _, view = view_from(vals, lag=1)
        got = build_gram(LINEAR, vals[:, 1], 0, view)
        np.testing.assert_array_equal(got, np.outer(vals[1:, 1], vals[1:, 1]))

    def test_rejects_wrong_length(self):
        _, view = view_from(np.random.default_rng(1).normal(size=(6, 2)), lag=1)
        with pytest.raises(ShapeMismatch):
            build_gram(LINEAR, np.ones(4), 0, view)

    def test_rejects_lag_out_of_range(self):
        vals = np.random.default_rng(2).normal(size=(6, 2))
        _, view = view_from(vals, lag=1)
        with pytest.raises(ConfigError):
            build_gram(LINEAR, vals[:, 0], 2, view)


class TestMedianBandwidth:
    def test_two_points(self):
        assert median_bandwidth(np.array([0.0, 1.0])) == 1.0

    def test_three_points(self):
        # pair gaps are {1, 1, 2}; median is 1
        assert median_bandwidth(np.array([0.0, 1.0, 2.0])) == 1.0

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeries):
            median_bandwidth(np.full(30, 2.5))

    def test_duplicates_fall_back_to_smallest_positive(self):
        z = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 3.0])
        assert median_bandwidth(z) == 3.0

    def test_subsampling_is_seeded(self):
        z = np.random.default_rng(5).normal(size=300)
        assert z.size * (z.size - 1) // 2 > 1000
        a = median_bandwidth(z, seed=7)
        b = median_bandwidth(z, seed=7)
        c = median_bandwidth(z, seed=8)
        assert a == b
        exact = median_bandwidth(z, max_pairs=z.size * (z.size - 1) // 2)
        # different seeds subsample different pairs but stay near the truth
        assert abs(c - exact) < 0.5 * exact
        assert abs(a - exact) < 0.5 * exact


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(
            psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_small_negative_eigenvalue_is_repaired(self):
        q, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(3, 3)))
        k = q @ np.diag([1.0, 0.5, -1e-9]) @ q.T
        k = (k + k.T) / 2.0
        s = psd_sqrt(k, jitter=1e-8)
        assert np.abs(s @ s - k).max() <= 2e-8

    def test_root_squares_back_within_repair_tolerance(self):
        rng = np.random.default_rng(7)
        for t in (3, 8, 20):
            b = rng.normal(size=(t, t))
            k = b @ b.T
            jitter = 1e-8
            s = psd_sqrt(k, jitter=jitter)
            w = np.clip(np.linalg.eigvalsh((k + k.T) / 2.0), jitter, None)
            v = np.linalg.eigh((k + k.T) / 2.0)[1]
            k_rep = (v * w) @ v.T
            assert np.abs(s @ s - k_rep).max() <= 10 * jitter * t

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSymmetric):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            psd_sqrt(np.ones((2, 3)))

    def test_accepts_eigenvalue_just_above_floor(self):
        k = np.diag([1.0, -PSD_ATOL / 2])
        s = psd_sqrt(k)
        assert np.all(np.isfinite(s))


class TestFactors:
    @pytest.mark.parametrize(
        "spec",
        [LINEAR, POLY21, KernelSpec(kind="polynomial", degree=3, offset=0.5), GAUSS1],
    )
    def test_factor_reproduces_gram(self, spec):
        rng = np.random.default_rng(8)
        z = rng.normal(size=12)
        b = feature_factor(spec, z)
        if b is None:
            b = eigen_factor(gram_matrix(spec, z))
        np.testing.assert_allclose(b @ b.T, gram_matrix(spec, z), atol=1e-9)

    def test_linear_factor_is_the_samples(self):
        z = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(feature_factor(LINEAR, z), z[:, None])

    def test_poly_offset_zero_drops_constant_column(self):
        z = np.array([1.0, 2.0, 3.0])
        b = feature_factor(KernelSpec(kind="polynomial", degree=2, offset=0.0), z)
        # (zw)^2 needs only the z^2 column; the c^2 and sqrt(2c) z columns vanish
        assert b.shape == (3, 1)
        np.testing.assert_allclose(b @ b.T, np.outer(z, z) ** 2)

    def test_gaussian_has_no_finite_map(self):
        assert feature_factor(GAUSS1, np.ones(3)) is None

    def test_eigen_factor_truncates_rank(self):
        z = np.array([1.0, 2.0, 3.0, 4.0])
        b = eigen_factor(np.outer(z, z))
        assert b.shape == (4, 1)
        np.testing.assert_allclose(b @ b.T, np.outer(z, z), atol=1e-12)

    def test_eigen_factor_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            eigen_factor(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestAssemble:
    def grams(self, n, lag, t, seed=0, kernels=1):
        rng = np.random.default_rng(seed)
        out = {}
        for i in range(n):
            for l in range(lag + 1):
                for p in range(kernels):
                    b = rng.normal(size=(t, t + 1))
                    key = (i, l) if kernels == 1 else (i, l, p)
                    out[key] = b @ b.T
        return out

    def test_kbar_shape_n2_l1(self):
        kms = assemble(self.grams(2, 1, 3))
        assert kbar(kms).shape == (3, 12)
        assert dmat(kms).shape == (12, 12)

    def test_deleted_shape(self):
        kms = assemble(self.grams(2, 1, 3))
        assert kbar_deleted(kms, 0).shape == (3, 9)
        assert dmat_deleted(kms, 1).shape == (9, 9)

    def test_identity_grams_give_identity_dmat(self):
        grams = {(i, l): np.eye(3) for i in range(2) for l in range(2)}
        kms = assemble(grams)
        np.testing.assert_array_equal(dmat(kms), np.eye(12))
        np.testing.assert_allclose(dsqrt(kms, jitter=0.0), np.eye(12))

    def test_dmat_off_blocks_are_zero(self):
        kms = assemble(self.grams(2, 1, 3, seed=1))
        d = dmat(kms)
        for a in range(kms.n_blocks):
            for b in range(kms.n_blocks):
                if a != b:
                    sub = d[columns_of(kms, a), columns_of(kms, b)]
                    assert np.all(sub == 0.0)

    def test_block_order_is_lag_then_node(self):
        grams = self.grams(2, 1, 3, seed=2)
        kms = assemble(grams)
        wide = kbar(kms)
        for (i, l), g in grams.items():
            pos = kms.position(i, l)
            np.testing.assert_allclose(wide[:, columns_of(kms, pos)], g, atol=1e-9)
        assert kms.position(0, 0) == 0
        assert kms.position(1, 0) == 1
        assert kms.position(0, 1) == 2

    def test_delete_then_reinsert_is_bit_exact(self):
        kms = assemble(self.grams(3, 1, 4, seed=3))
        wide = kbar(kms)
        for j in range(3):
            kept = np.setdiff1d(np.arange(total_columns(kms)), index_set(kms, j))
            rebuilt = np.empty_like(wide)
            rebuilt[:, kept] = kbar_deleted(kms, j)
            rebuilt[:, index_set(kms, j)] = wide[:, index_set(kms, j)]
            assert np.array_equal(rebuilt, wide)

    def test_triple_keys_for_dictionaries(self):
        kms = assemble(self.grams(2, 1, 3, seed=4, kernels=2))
        assert kms.n_kernels == 2
        assert kbar(kms).shape == (3, 24)
        assert kms.deleted_positions(0) == [kms.position(0, 0, 0), kms.position(0, 0, 1)]
        assert index_set(kms, 0).size == 6

    def test_rejects_incomplete_cover(self):
        grams = self.grams(2, 1, 3)
        del grams[(1, 1)]
        with pytest.raises(ShapeMismatch):
            assemble(grams)

    def test_rejects_mismatched_shapes(self):
        grams = self.grams(2, 0, 3)
        grams[(1, 0)] = np.eye(4)
        with pytest.raises(ShapeMismatch):
            assemble(grams)

    def test_rejects_empty(self):
        with pytest.raises(ShapeMismatch):
            assemble({})


class TestBuildKernelSet:
    def test_layout_and_samples(self):
        vals = np.random.default_rng(9).normal(size=(7, 3))
        _, view = view_from(vals, lag=2)
        kms = build_kernel_set(view, LINEAR)
        assert (kms.n_nodes, kms.lag, kms.n_kernels, kms.n_targets) == (3, 2, 1, 5)
        assert kms.n_blocks == 9
        for l in range(3):
            for i in range(3):
                blk = kms.block(i, l)
                np.testing.assert_array_equal(blk.samples, vals[2 - l : 7 - l, i])
                np.testing.assert_allclose(blk.gram(), np.outer(blk.samples, blk.samples))

    def test_dictionary_interleaves_kernels(self):
        vals = np.random.default_rng(10).normal(size=(6, 2))
        _, view = view_from(vals, lag=1)
        kms = build_kernel_set(view, [LINEAR, GAUSS1])
        assert kms.n_kernels == 2
        assert kms.block(0, 0, 0).spec == LINEAR
        assert kms.block(0, 0, 1).spec == GAUSS1
        assert total_columns(kms) == 2 * 2 * 2 * 5

    def test_duplicate_kernels_in_plain_list_allowed(self):
        vals = np.random.default_rng(14).normal(size=(6, 2))
        _, view = view_from(vals, lag=1)
        kms = build_kernel_set(view, [LINEAR, LINEAR])
        np.testing.assert_array_equal(kms.block(0, 1, 0).gram(), kms.block(0, 1, 1).gram())

    def test_median_bandwidth_resolution_is_reproducible(self):
        vals = np.random.default_rng(15).normal(size=(8, 2))
        _, view = view_from(vals, lag=1)
        spec = KernelSpec(kind="gaussian", bandwidth="median")
        a = build_kernel_set(view, spec, seed=1)
        b = build_kernel_set(view, spec, seed=1)
        for pa, pb in zip(a.blocks, b.blocks):
            assert pa.spec == pb.spec
            np.testing.assert_array_equal(pa.gram(), pb.gram())
        # resolved per series, so the bandwidth varies across blocks
        sigmas = {blk.spec.bandwidth for blk in a.blocks}
        assert len(sigmas) > 1

    def test_empty_kernel_list_rejected(self):
        vals = np.random.default_rng(16).normal(size=(6, 2))
        _, view = view_from(vals, lag=1)
        with pytest.raises(ConfigError):
            build_kernel_set(view, [])

    def test_rank_property(self):
        vals = np.random.default_rng(17).normal(size=(9, 2))
        _, view = view_from(vals, lag=1)
        kms = build_kernel_set(view, [LINEAR, POLY21, GAUSS1])
        assert kms.block(0, 0, 0).rank == 1
        assert kms.block(0, 0, 1).rank == 3
        assert 1 <= kms.block(0, 0, 2).rank <= kms.n_targets


class TestGaussianFactorBuild:
    """Gaussian blocks from build_kernel_set: pivoted-Cholesky factors that
    match the truncated eigenfactor of the full Gram, with no Gram held."""

    def check_blocks(self, kms, exact=False):
        for blk in kms.blocks:
            assert blk._gram is None
            gram = gram_matrix(blk.spec, blk.samples)
            ref = eigen_factor(gram)
            assert blk.rank == ref.shape[1]
            bbt = blk.factor @ blk.factor.T
            np.testing.assert_allclose(bbt, ref @ ref.T, rtol=0, atol=1e-12)
            # the eigenvalues both factors drop sum to at most
            # T' * RANK_RTOL * lambda_max <= T'^2 * RANK_RTOL
            t = kms.n_targets
            atol = 1e-12 if exact else t * t * RANK_RTOL
            np.testing.assert_allclose(bbt, gram, rtol=0, atol=atol)
            np.testing.assert_array_equal(blk.gram(), bbt)

    @pytest.mark.parametrize(
        "spec", [GAUSS1, KernelSpec(kind="gaussian", bandwidth=0.3), GAUSS_MEDIAN]
    )
    @pytest.mark.parametrize("seed", [0, 7919])
    def test_matches_truncated_eigenfactor(self, spec, seed):
        vals = np.random.default_rng(seed).normal(size=(121, 2))
        _, view = view_from(vals, lag=1)
        kms = build_kernel_set(view, spec, seed=seed)
        assert 1 < kms.block(0, 0).rank < kms.n_targets
        self.check_blocks(kms)

    @pytest.mark.parametrize("spec", [GAUSS1, GAUSS_MEDIAN])
    def test_duplicate_values_give_low_rank(self, spec):
        rng = np.random.default_rng(3)
        levels = [[-1.0, 2.0], [0.2, -0.4], [0.5, 0.1], [1.3, 0.9]]
        vals = rng.permutation(np.repeat(levels, 20, axis=0))
        _, view = view_from(vals, lag=1)
        kms = build_kernel_set(view, spec)
        for blk in kms.blocks:
            assert blk.rank == np.unique(blk.samples).size <= 4
        self.check_blocks(kms, exact=True)

    def test_tiny_bandwidth_gives_full_rank(self):
        vals = np.random.default_rng(4).normal(size=(41, 2))
        _, view = view_from(vals, lag=1)
        kms = build_kernel_set(view, KernelSpec(kind="gaussian", bandwidth=1e-4))
        for blk in kms.blocks:
            assert blk.rank == kms.n_targets == 40
        self.check_blocks(kms, exact=True)

    def test_single_target_row(self):
        _, view = view_from([[0.3, -1.2], [0.7, 0.4]], lag=1)
        kms = build_kernel_set(view, GAUSS1)
        assert kms.n_targets == 1
        for blk in kms.blocks:
            np.testing.assert_allclose(np.abs(blk.factor), [[1.0]], rtol=0, atol=1e-15)
        self.check_blocks(kms, exact=True)
