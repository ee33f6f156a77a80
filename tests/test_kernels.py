"""Kernel specs, kernel evaluation, factors, kernel sets, and the Gram
oracles' PSD roots and dense layout."""

from dataclasses import replace

import numpy as np
import pytest

from ksvar.errors import ConfigError, DegenerateSeries, ShapeMismatch
from ksvar.kernels import (
    RANK_RTOL,
    KernelDictionary,
    KernelMatrixSet,
    KernelSpec,
    _gaussian_factors,
    build_kernel_set,
    cross_gram,
    feature_factor,
    median_bandwidth,
    parse_kernel_spec,
)
from ksvar.panel import TimeSeriesPanel, lag_view
from ksvar.solver import _fold_rows

from oracles import (
    PSD_ATOL,
    NotPsd,
    assemble,
    block_gram,
    columns_of,
    dmat,
    dmat_deleted,
    dsqrt,
    eigen_factor,
    index_set,
    kbar,
    kbar_deleted,
    pivoted_factor,
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


def eval_kernel(spec, y, psi):
    return cross_gram(spec, [y], [psi])[0, 0]


class TestEvalKernel:
    """Pointwise kernel values, through ``cross_gram`` at single samples."""

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
        # two different sample vectors, so every entry is a fresh pair
        y, psi = np.random.default_rng(4).normal(size=(2, 25))
        want = [[oracle_kernel_value(spec, a, b) for b in psi] for a in y]
        np.testing.assert_allclose(cross_gram(spec, y, psi), want, rtol=0, atol=1e-12)

    def test_unresolved_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            cross_gram(KernelSpec(kind="gaussian", bandwidth="median"), [0.0], [1.0])


class TestGramMatrix:
    """Gram matrices of one sample vector, as ``cross_gram(spec, z, z)``."""

    def test_linear_gram_is_outer_product(self):
        z = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(cross_gram(LINEAR, z, z), np.outer(z, z))

    def test_gaussian_two_points(self):
        z = np.array([0.0, 1.0])
        e = np.exp(-0.5)
        np.testing.assert_allclose(cross_gram(GAUSS1, z, z), [[1.0, e], [e, 1.0]])

    @pytest.mark.parametrize("spec", [LINEAR, POLY21, GAUSS1])
    def test_entrywise_against_oracle(self, spec):
        rng = np.random.default_rng(11)
        z = rng.normal(size=9)
        np.testing.assert_allclose(cross_gram(spec, z, z), oracle_gram(spec, z), atol=1e-12)

    @pytest.mark.parametrize("spec", [LINEAR, POLY21, GAUSS1])
    def test_gram_is_psd(self, spec):
        # random samples; eigenvalues may dip slightly negative in float
        rng = np.random.default_rng(12)
        for _ in range(5):
            z = rng.normal(size=14)
            g = cross_gram(spec, z, z)
            w = np.linalg.eigvalsh(g)
            assert w.min() >= -1e-9 * max(1.0, abs(g).max())

    def test_cross_gram_extends_gram(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=6)
        rect = cross_gram(GAUSS1, z[:2], z)
        assert rect.shape == (2, 6)
        np.testing.assert_array_equal(rect, cross_gram(GAUSS1, z, z)[:2])
        np.testing.assert_allclose(rect, oracle_gram(GAUSS1, z)[:2], atol=1e-12)


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
        with pytest.raises(NotPsd):
            psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
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
            [b] = _gaussian_factors(z[None], np.array([spec.bandwidth]))
        np.testing.assert_allclose(b @ b.T, oracle_gram(spec, z), atol=1e-9)

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
        with pytest.raises(NotPsd):
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


class TestBuildKernelSet:
    def test_layout_and_samples(self):
        vals = np.random.default_rng(9).normal(size=(7, 3))
        _, view = view_from(vals, lag=2)
        kms = build_kernel_set(view, LINEAR)
        assert (kms.n_nodes, kms.lag, kms.n_kernels, kms.n_targets) == (3, 2, 1, 5)
        assert kms.n_blocks == 9
        for l in range(3):
            for i in range(3):
                blk = kms.blocks[kms.position(i, l)]
                np.testing.assert_array_equal(blk.samples, vals[2 - l : 7 - l, i])
                np.testing.assert_allclose(block_gram(blk), np.outer(blk.samples, blk.samples))

    def test_dictionary_interleaves_kernels(self):
        vals = np.random.default_rng(10).normal(size=(6, 2))
        _, view = view_from(vals, lag=1)
        kms = build_kernel_set(view, [LINEAR, GAUSS1])
        assert kms.n_kernels == 2
        assert kms.blocks[kms.position(0, 0, 0)].spec == LINEAR
        assert kms.blocks[kms.position(0, 0, 1)].spec == GAUSS1
        assert total_columns(kms) == 2 * 2 * 2 * 5

    def test_duplicate_kernels_in_plain_list_allowed(self):
        vals = np.random.default_rng(14).normal(size=(6, 2))
        _, view = view_from(vals, lag=1)
        kms = build_kernel_set(view, [LINEAR, LINEAR])
        np.testing.assert_array_equal(
            kms.blocks[kms.position(0, 1, 0)].factor, kms.blocks[kms.position(0, 1, 1)].factor
        )

    def test_median_bandwidth_resolution_is_reproducible(self):
        vals = np.random.default_rng(15).normal(size=(8, 2))
        _, view = view_from(vals, lag=1)
        spec = KernelSpec(kind="gaussian", bandwidth="median")
        a = build_kernel_set(view, spec, seed=1)
        b = build_kernel_set(view, spec, seed=1)
        for pa, pb in zip(a.blocks, b.blocks):
            assert pa.spec == pb.spec
            np.testing.assert_array_equal(pa.factor, pb.factor)
        # resolved per series, so the bandwidth varies across blocks
        sigmas = {blk.spec.bandwidth for blk in a.blocks}
        assert len(sigmas) > 1

    def test_median_bandwidths_seed_from_block_coordinates(self):
        # T' = 59 has 1,711 pairs, so the median subsamples 1,000 of them
        vals = np.random.default_rng(19).normal(size=(61, 2))
        _, view = view_from(vals, lag=2)
        kms = build_kernel_set(view, [LINEAR, GAUSS_MEDIAN], seed=11)
        for blk in kms.blocks[1::2]:
            entropy = np.random.SeedSequence([11, blk.node, blk.lag, 1])
            assert blk.spec.bandwidth == median_bandwidth(blk.samples, seed=entropy)
        with pytest.raises(ConfigError):
            build_kernel_set(view, LINEAR, seed=-1)

    def test_empty_kernel_list_rejected(self):
        vals = np.random.default_rng(16).normal(size=(6, 2))
        _, view = view_from(vals, lag=1)
        with pytest.raises(ConfigError):
            build_kernel_set(view, [])

    def test_rank_property(self):
        vals = np.random.default_rng(17).normal(size=(9, 2))
        _, view = view_from(vals, lag=1)
        kms = build_kernel_set(view, [LINEAR, POLY21, GAUSS1])
        assert kms.blocks[kms.position(0, 0, 0)].rank == 1
        assert kms.blocks[kms.position(0, 0, 1)].rank == 3
        assert 1 <= kms.blocks[kms.position(0, 0, 2)].rank <= kms.n_targets

    def test_take_rows_keeps_kernels_and_rows(self):
        vals = np.random.default_rng(18).normal(size=(12, 2))
        _, view = view_from(vals, lag=1)
        kms = build_kernel_set(view, [LINEAR, POLY21, GAUSS_MEDIAN], seed=2)
        rows = np.array([0, 3, 4, 9])
        sub = kms.take_rows(rows)
        assert (sub.n_targets, kms.n_targets) == (4, 11)
        for got, full in zip(sub.blocks, kms.blocks):
            assert (got.node, got.lag, got.kernel_index, got.spec) == (
                full.node, full.lag, full.kernel_index, full.spec
            )
            np.testing.assert_array_equal(got.samples, full.samples[rows])
            np.testing.assert_array_equal(got.factor, full.factor[rows])
            # the kept rows factor the Gram of the kept samples, same kernel
            np.testing.assert_allclose(
                block_gram(got), oracle_gram(got.spec, got.samples), rtol=0.0, atol=1e-10
            )


class TestStackedFactor:
    """KernelMatrixSet.factor: every block's factor columns, sorted by rank."""

    def mixed_set(self):
        # linear blocks have rank 1 and Gaussian blocks more, so the rank
        # order of the columns differs from the (lag, node, kernel) order
        vals = np.random.default_rng(20).normal(size=(12, 3))
        _, view = view_from(vals, lag=1)
        return build_kernel_set(view, [LINEAR, GAUSS1])

    def test_block_factors_are_views_of_their_columns(self):
        kms = self.mixed_set()
        assert kms.factor.shape == (kms.n_targets, sum(b.rank for b in kms.blocks))
        for pos, block in enumerate(kms.blocks):
            cols = kms.columns[pos]
            assert cols.stop - cols.start == block.rank
            np.testing.assert_array_equal(block.factor, kms.factor[:, cols])
            assert np.shares_memory(block.factor, kms.factor)
        starts = [cols.start for cols in kms.columns]
        assert starts != sorted(starts)

    def test_groups_tile_the_columns_in_rank_order(self):
        kms = self.mixed_set()
        edge = 0
        for start, stop, rank, positions in kms.groups:
            assert start == edge and rank > 0
            assert positions == sorted(positions)
            for k, pos in enumerate(positions):
                assert kms.blocks[pos].rank == rank
                assert kms.columns[pos] == slice(start + k * rank, start + (k + 1) * rank)
            edge = stop
        assert edge == kms.factor.shape[1]
        ranks = [rank for _, _, rank, _ in kms.groups]
        assert ranks == sorted(set(ranks)) and ranks[0] == 1 and len(ranks) > 1

    def test_take_rows_keeps_the_layout(self):
        kms = self.mixed_set()
        rows = np.array([0, 2, 3, 7, 10])
        sub = kms.take_rows(rows)
        np.testing.assert_array_equal(sub.factor, kms.factor[rows])
        assert sub.columns == kms.columns and sub.groups == kms.groups
        for block in sub.blocks:
            assert np.shares_memory(block.factor, sub.factor)
            assert not np.shares_memory(block.factor, kms.factor)

    def test_take_rows_equals_a_rebuilt_set(self):
        # the training rows of each cross-validation fold, against a set
        # rebuilt from the blocks' kept rows, which sorts and stacks anew
        vals = np.random.default_rng(21).normal(size=(40, 3))
        _, view = view_from(vals, lag=1)
        kms = build_kernel_set(view, [LINEAR, POLY21, GAUSS1])
        for train, _ in _fold_rows(40, 1, 5):
            sub = kms.take_rows(train)
            blocks = [replace(b, samples=b.samples[train], factor=b.factor[train]) for b in kms.blocks]
            want = KernelMatrixSet(
                blocks=blocks,
                n_nodes=kms.n_nodes, lag=kms.lag, n_kernels=kms.n_kernels, n_targets=train.size,
            )
            shape = ("n_nodes", "lag", "n_kernels", "n_targets")
            assert [getattr(sub, k) for k in shape] == [getattr(want, k) for k in shape]
            np.testing.assert_array_equal(sub.factor, want.factor)
            assert (sub.columns, sub.groups) == (want.columns, want.groups)
            for got, ref in zip(sub.blocks, want.blocks, strict=True):
                ids = ("node", "lag", "kernel_index", "spec")
                assert [getattr(got, k) for k in ids] == [getattr(ref, k) for k in ids]
                np.testing.assert_array_equal(got.samples, ref.samples)
                np.testing.assert_array_equal(got.factor, ref.factor)
                assert np.shares_memory(got.factor, sub.factor)


class TestGaussianFactorBuild:
    """Gaussian blocks from build_kernel_set: pivoted-Cholesky factors that
    match the truncated eigenfactor of the full Gram."""

    def check_blocks(self, kms, exact=False):
        for blk in kms.blocks:
            gram = cross_gram(blk.spec, blk.samples, blk.samples)
            ref = eigen_factor(gram)
            assert blk.rank == ref.shape[1]
            bbt = blk.factor @ blk.factor.T
            np.testing.assert_allclose(bbt, ref @ ref.T, rtol=0, atol=1e-12)
            # the eigenvalues both factors drop sum to at most
            # T' * RANK_RTOL * lambda_max <= T'^2 * RANK_RTOL
            t = kms.n_targets
            atol = 1e-12 if exact else t * t * RANK_RTOL
            np.testing.assert_allclose(bbt, gram, rtol=0, atol=atol)

    @pytest.mark.parametrize(
        "spec", [GAUSS1, KernelSpec(kind="gaussian", bandwidth=0.3), GAUSS_MEDIAN]
    )
    @pytest.mark.parametrize("seed", [0, 7919])
    def test_matches_truncated_eigenfactor(self, spec, seed):
        vals = np.random.default_rng(seed).normal(size=(121, 2))
        _, view = view_from(vals, lag=1)
        kms = build_kernel_set(view, spec, seed=seed)
        assert 1 < kms.blocks[kms.position(0, 0)].rank < kms.n_targets
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


class TestLockstepFactor:
    """All Gaussian blocks of a set pivot in one lockstep batch; each block's
    factor must equal the one-block-at-a-time reference."""

    def check_against_oracle(self, samples, bandwidths):
        factors = _gaussian_factors(samples, np.asarray(bandwidths, dtype=float))
        counts = []
        for z, sigma, got in zip(samples, bandwidths, factors):
            want, pivots = pivoted_factor(KernelSpec(kind="gaussian", bandwidth=sigma), z)
            assert got.shape == want.shape
            np.testing.assert_allclose(got @ got.T, want @ want.T, rtol=0, atol=1e-12)
            counts.append(pivots)
        return counts

    def test_mixed_bandwidths(self):
        rng = np.random.default_rng(21)
        samples = rng.normal(size=(6, 90))
        bandwidths = [0.05, 0.3, 1.0, 5.0, 40.0, median_bandwidth(samples[5])]
        counts = self.check_against_oracle(samples, bandwidths)
        # the blocks stop at different steps, so some leave the batch early
        assert len(set(counts)) == len(counts)

    def test_nearly_constant_series(self):
        rng = np.random.default_rng(22)
        samples = rng.normal(size=(3, 60))
        samples[1] = 0.7 + 1e-9 * rng.normal(size=60)
        counts = self.check_against_oracle(samples, [0.5, 1.0, 0.5])
        assert counts[1] <= 2 < min(counts[0], counts[2])

    def test_block_that_stops_after_one_pivot(self):
        rng = np.random.default_rng(23)
        samples = np.vstack([np.full(50, -1.5), rng.normal(size=(2, 50))])
        counts = self.check_against_oracle(samples, [1.0, 1.0, 0.2])
        assert counts[0] == 1 < min(counts[1:])

    def test_build_kernel_set_batches_every_gaussian_block(self):
        # two Gaussian kernels of the dictionary, one with per-series median
        # bandwidths, factor in one batch beside the exact linear blocks
        vals = np.random.default_rng(24).normal(size=(70, 3))
        _, view = view_from(vals, lag=2)
        gauss_fixed = KernelSpec(kind="gaussian", bandwidth=0.4)
        kms = build_kernel_set(view, [LINEAR, GAUSS_MEDIAN, gauss_fixed], seed=5)
        for blk in kms.blocks:
            if blk.spec.kind == "gaussian":
                want, _ = pivoted_factor(blk.spec, blk.samples)
                assert blk.rank == want.shape[1]
                np.testing.assert_allclose(block_gram(blk), want @ want.T, rtol=0, atol=1e-12)
            else:
                np.testing.assert_array_equal(blk.factor, blk.samples[:, None])
