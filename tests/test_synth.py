"""Synthetic truth generation, forward simulation, and recovery scoring."""

import numpy as np
import pytest

from ksvar.errors import ConfigError, ShapeMismatch
from ksvar.panel import NoiseModel, lag_view
from ksvar.solver import EffectiveNetwork
from ksvar.synth import (
    COUPLINGS,
    GroundTruth,
    RecoveryScore,
    SynthConfig,
    _average_ranks,
    generate_truth,
    score_recovery,
    simulate,
)


def cfg_with(**kwargs):
    base = dict(n_nodes=4, n_samples=100, lag=1, edge_density=0.2, seed=0)
    base.update(kwargs)
    return SynthConfig(**base)


def net_from_weights(weights, tau=0.0):
    weights = np.asarray(weights, dtype=float)
    supports = (weights >= tau) & (weights > 0)
    return EffectiveNetwork(supports=supports, weights=weights, tau_alpha=tau)


class TestSynthConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_nodes": 1},
            {"lag": 0},
            {"edge_density": 0.0},
            {"edge_density": 1.0},
            {"edge_density": 0.01},
            {"n_samples": 10},
            {"coupling": "cubic"},
            {"coefficient_scale": 0.0},
            {"burn_in": -1},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ConfigError):
            cfg_with(**kwargs)

    def test_couplings_enumerated(self):
        assert COUPLINGS == ("linear", "quadratic", "sigmoid")


class TestGenerateTruth:
    def test_instantaneous_part_is_order_triangular(self):
        truth = generate_truth(cfg_with(n_nodes=5, edge_density=0.3, seed=1))
        pos = np.empty(5, dtype=int)
        pos[truth.permutation] = np.arange(5)
        a0 = truth.coefficients[0]
        for i in range(5):
            for j in range(5):
                if a0[i, j] != 0.0:
                    assert pos[i] < pos[j]

    def test_max_density_fills_the_triangle(self):
        # density close to 1 places an edge on every eligible ordered pair
        cfg = cfg_with(n_nodes=3, edge_density=0.99, seed=2)
        truth = generate_truth(cfg)
        assert int((truth.coefficients[0] != 0).sum()) == 3
        assert int((truth.coefficients[1] != 0).sum()) == 6

    def test_minimum_one_edge_per_lag(self):
        cfg = cfg_with(n_nodes=6, edge_density=0.04, lag=2, seed=3)
        truth = generate_truth(cfg)
        for l in range(3):
            assert (truth.coefficients[l] != 0).any()

    def test_diagonal_zero_at_every_lag(self):
        truth = generate_truth(cfg_with(n_nodes=5, lag=3, n_samples=200, seed=4))
        for l in range(4):
            np.testing.assert_array_equal(np.diag(truth.coefficients[l]), 0.0)

    def test_magnitudes_in_scaled_band(self):
        # base magnitudes are [0.7, 1]*scale; source-amplitude factors stay
        # near or above 1 (every node carries its own innovation) and below
        # the cap, and stabilizing never touches the instantaneous part
        from ksvar.synth import AMPLITUDE_CAP

        cfg = cfg_with(n_nodes=5, edge_density=0.4, coefficient_scale=2.0, seed=5)
        truth = generate_truth(cfg)
        mags = np.abs(truth.coefficients[0][truth.coefficients[0] != 0])
        assert np.all(mags >= 0.6 * 2.0)
        assert np.all(mags <= 1.0 * 2.0 * AMPLITUDE_CAP)

    def test_large_scale_is_tamed_to_stable_radius(self):
        from ksvar.synth import _companion_radius

        cfg = cfg_with(n_nodes=6, edge_density=0.4, coefficient_scale=10.0, seed=6)
        truth = generate_truth(cfg)
        assert _companion_radius(truth.coefficients) <= 0.9 + 1e-9

    def test_same_seed_is_bit_identical(self):
        a = generate_truth(cfg_with(seed=7))
        b = generate_truth(cfg_with(seed=7))
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.permutation, b.permutation)

    def test_different_seeds_differ(self):
        a = generate_truth(cfg_with(seed=8))
        b = generate_truth(cfg_with(seed=9))
        assert not np.array_equal(a.coefficients, b.coefficients)

    def test_truth_network_view(self):
        truth = generate_truth(cfg_with(seed=10))
        net = truth.network()
        assert net.tau_alpha == 0.0
        np.testing.assert_array_equal(net.supports, truth.supports)
        np.testing.assert_array_equal(net.weights, np.abs(truth.coefficients))
        assert net.node_labels == ("n0", "n1", "n2", "n3")


class TestSimulate:
    def test_panel_shape_and_rate(self):
        cfg = cfg_with(n_samples=150, sample_rate_hz=250.0, seed=11)
        panel = simulate(generate_truth(cfg), cfg)
        assert panel.values.shape == (150, 4)
        assert panel.sample_rate_hz == 250.0
        assert panel.node_labels == ("n0", "n1", "n2", "n3")

    def test_same_seed_bit_identical(self):
        cfg = cfg_with(seed=12)
        truth = generate_truth(cfg)
        a = simulate(truth, cfg)
        b = simulate(truth, cfg)
        assert np.array_equal(a.values, b.values)

    def test_truth_and_config_must_agree(self):
        cfg = cfg_with(seed=13)
        truth = generate_truth(cfg)
        with pytest.raises(ShapeMismatch):
            simulate(truth, cfg_with(n_nodes=5, seed=13))

    def test_zero_coefficients_give_iid_noise(self):
        # stripped truth: the output must be serially uncorrelated noise
        cfg = cfg_with(n_nodes=3, n_samples=2000, seed=14)
        truth = GroundTruth(
            coefficients=np.zeros((2, 3, 3)),
            permutation=np.arange(3),
            coupling="linear",
        )
        panel = simulate(truth, cfg)
        for col in panel.values.T:
            x = col - col.mean()
            r = float(np.dot(x[1:], x[:-1]) / np.dot(x, x))
            assert abs(r) < 0.1
        assert abs(panel.values.std() - 1.0) < 0.1

    def test_noiseless_linear_system_satisfies_its_own_recursion(self):
        cfg = cfg_with(
            n_nodes=3,
            n_samples=60,
            noise=NoiseModel(variance=1e-12),
            coefficient_scale=0.6,
            seed=15,
        )
        truth = generate_truth(cfg)
        panel = simulate(truth, cfg)
        y = panel.values
        a0, a1 = truth.coefficients[0], truth.coefficients[1]
        # y_t = A1^T y_{t-1} + A0^T y_t up to the tiny injected noise
        resid = y[1:] - y[:-1] @ a1 - y[1:] @ a0
        assert np.abs(resid).max() < 1e-4

    def test_quadratic_and_sigmoid_couplings_run_stably(self):
        for coupling in ("quadratic", "sigmoid"):
            cfg = cfg_with(
                coupling=coupling,
                coefficient_scale=0.4,
                noise=NoiseModel(variance=0.01),
                n_samples=300,
                seed=16,
            )
            panel = simulate(generate_truth(cfg), cfg)
            assert np.isfinite(panel.values).all()
            assert np.abs(panel.values).max() < 1e3

    def test_burn_in_changes_the_window(self):
        cfg_a = cfg_with(seed=17, burn_in=0)
        cfg_b = cfg_with(seed=17, burn_in=50)
        truth = generate_truth(cfg_a)
        a = simulate(truth, cfg_a)
        b = simulate(truth, cfg_b)
        assert not np.array_equal(a.values, b.values)

    def test_lagged_panel_supports_views(self):
        cfg = cfg_with(seed=18, lag=2, n_samples=120)
        panel = simulate(generate_truth(cfg), cfg)
        view = lag_view(panel, 2)
        assert view.n_targets == 118


class TestScoreRecovery:
    def test_perfect_recovery(self):
        truth = generate_truth(cfg_with(seed=19))
        score = score_recovery(truth.network(), truth)
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.f1 == 1.0
        assert score.auc == 1.0
        assert score.false_positives == 0
        assert score.false_negatives == 0

    def test_empty_estimate(self):
        truth = generate_truth(cfg_with(seed=20))
        n = truth.n_nodes
        empty = net_from_weights(np.zeros((2, n, n)))
        score = score_recovery(empty, truth)
        assert score.precision == 1.0
        assert score.recall == 0.0
        assert score.f1 == 0.0
        assert score.true_positives == 0

    def test_hand_computed_confusion_counts(self):
        # truth edges {0->1, 1->2}; estimate {0->1, 2->0}
        coeffs = np.zeros((2, 3, 3))
        coeffs[1, 0, 1] = 0.8
        coeffs[1, 1, 2] = -0.6
        truth = GroundTruth(coefficients=coeffs, permutation=np.arange(3), coupling="linear")
        weights = np.zeros((2, 3, 3))
        weights[1, 0, 1] = 0.9
        weights[0, 2, 0] = 0.4
        score = score_recovery(net_from_weights(weights), truth)
        assert score.true_positives == 1
        assert score.false_positives == 1
        assert score.false_negatives == 1
        assert score.true_negatives == 3
        assert score.precision == pytest.approx(0.5)
        assert score.recall == pytest.approx(0.5)
        assert score.f1 == pytest.approx(0.5)

    def test_f1_is_harmonic_mean(self):
        coeffs = np.zeros((1, 4, 4))
        coeffs[0, 0, 1] = coeffs[0, 0, 2] = 0.7
        truth = GroundTruth(coefficients=coeffs, permutation=np.arange(4), coupling="linear")
        weights = np.zeros((1, 4, 4))
        weights[0, 0, 1] = 1.0  # one hit, no misses predicted
        score = score_recovery(net_from_weights(weights), truth)
        p, r = score.precision, score.recall
        assert score.f1 == pytest.approx(2 * p * r / (p + r))

    def test_auc_ranks_weights_not_supports(self):
        coeffs = np.zeros((1, 3, 3))
        coeffs[0, 0, 1] = 1.0
        truth = GroundTruth(coefficients=coeffs, permutation=np.arange(3), coupling="linear")
        # true edge carries the top weight: AUC 1 even with extra predictions
        weights = np.zeros((1, 3, 3))
        weights[0, 0, 1] = 0.9
        weights[0, 1, 2] = 0.5
        assert score_recovery(net_from_weights(weights), truth).auc == 1.0
        # true edge ranked below a false one drops the AUC
        weights2 = np.zeros((1, 3, 3))
        weights2[0, 0, 1] = 0.1
        weights2[0, 1, 2] = 0.5
        assert score_recovery(net_from_weights(weights2), truth).auc < 1.0

    def test_auc_defaults_to_half_without_both_classes(self):
        coeffs = np.zeros((1, 3, 3))
        truth = GroundTruth(coefficients=coeffs, permutation=np.arange(3), coupling="linear")
        score = score_recovery(net_from_weights(np.zeros((1, 3, 3))), truth)
        assert score.auc == 0.5
        assert score.recall == 1.0  # empty truth: nothing to miss

    def test_auc_bounded(self):
        rng = np.random.default_rng(21)
        truth = generate_truth(cfg_with(n_nodes=5, edge_density=0.3, seed=22))
        weights = rng.random((2, 5, 5))
        score = score_recovery(net_from_weights(weights, tau=0.5), truth)
        assert 0.0 <= score.auc <= 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_average_ranks_match_their_definition(self, seed):
        # each value's rank is the mean of the 1-based positions it takes
        # in the sorted order
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 6, size=int(rng.integers(1, 40))) / 4
        order = sorted(scores)
        want = [np.mean([p + 1 for p, v in enumerate(order) if v == s]) for s in scores]
        assert np.array_equal(_average_ranks(scores), want)

    @pytest.mark.parametrize("seed", range(5))
    def test_auc_with_ties_is_the_pairwise_count(self, seed):
        # wins plus half the ties over all (true, false) pairs of edges
        rng = np.random.default_rng(seed)
        n = 6
        coeffs = np.where(rng.random((2, n, n)) < 0.3, 0.8, 0.0)
        coeffs[:, np.arange(n), np.arange(n)] = 0.0
        truth = GroundTruth(coefficients=coeffs, permutation=np.arange(n), coupling="linear")
        weights = rng.integers(0, 4, size=(2, n, n)) / 2
        off = ~np.eye(n, dtype=bool)
        scores, positive = weights.max(axis=0)[off], truth.supports.any(axis=0)[off]
        pos, neg = scores[positive], scores[~positive]
        assert len(pos) and len(neg) and len(np.unique(scores)) < len(scores)
        pairs = (pos[:, None] > neg[None, :]) + 0.5 * (pos[:, None] == neg[None, :])
        want = float(pairs.sum()) / (len(pos) * len(neg))
        auc = score_recovery(net_from_weights(weights), truth).auc
        assert auc == pytest.approx(want, abs=1e-12, rel=0)

    def test_node_count_mismatch_rejected(self):
        truth = generate_truth(cfg_with(seed=23))
        with pytest.raises(ShapeMismatch):
            score_recovery(net_from_weights(np.zeros((1, 7, 7))), truth)

    def test_counts_cover_all_ordered_pairs(self):
        truth = generate_truth(cfg_with(n_nodes=5, seed=24))
        score = score_recovery(truth.network(), truth)
        total = (
            score.true_positives
            + score.false_positives
            + score.false_negatives
            + score.true_negatives
        )
        assert total == 5 * 4

    def test_score_is_a_plain_record(self):
        truth = generate_truth(cfg_with(seed=25))
        score = score_recovery(truth.network(), truth)
        assert isinstance(score, RecoveryScore)


class TestEstimatorRecovery:
    """Generator and estimator agree end to end on identifiable regimes."""

    def bench(self, seed, **kwargs):
        base = dict(
            n_nodes=8,
            n_samples=500,
            lag=1,
            edge_density=0.15,
            noise=NoiseModel(variance=1.0),
            seed=seed,
        )
        base.update(kwargs)
        return SynthConfig(**base)

    def test_noise_free_targets_recover_exact_support(self):
        # the innovations both drive the system and sit additively in each
        # sample, so subtracting the draws leaves targets that are exact
        # functions of the regressors; a small penalty then recovers the
        # support exactly on nearly every seed
        from ksvar.kernels import KernelSpec, build_kernel_set
        from ksvar.solver import SolverConfig, admm_fit, threshold_edges

        exact = 0
        for seed in range(20):
            cfg = self.bench(seed)
            truth = generate_truth(cfg)
            panel = simulate(truth, cfg)
            view = lag_view(panel, 1)
            rng = np.random.default_rng([cfg.seed, 1])
            draws = rng.normal(0.0, 1.0, size=(cfg.burn_in + cfg.n_samples, cfg.n_nodes))
            clean = view.targets - draws[cfg.burn_in + cfg.lag :]
            kms = build_kernel_set(view, KernelSpec(kind="linear"))
            fit_cfg = SolverConfig(lam=1e-3, max_iter=3000, tol_primal=1e-7, tol_dual=1e-7)
            tensor, _, _ = admm_fit(clean, kms, fit_cfg)
            score = score_recovery(threshold_edges(tensor, 1e-3), truth)
            exact += score.f1 == 1.0
        assert exact >= 18

    def test_quadratic_coupling_favors_order_two_kernel(self):
        from ksvar.kernels import KernelSpec, build_kernel_set
        from ksvar.solver import SolverConfig, admm_fit, threshold_edges

        fit_cfg = SolverConfig(lam=0.1, max_iter=2000, tol_primal=1e-6, tol_dual=1e-6)
        medians = {}
        for spec in (
            KernelSpec(kind="linear"),
            KernelSpec(kind="polynomial", degree=2, offset=0.0),
        ):
            aucs = []
            for seed in range(20):
                cfg = self.bench(seed, coupling="quadratic", noise=NoiseModel(variance=0.01))
                truth = generate_truth(cfg)
                panel = simulate(truth, cfg)
                view = lag_view(panel, 1)
                kms = build_kernel_set(view, spec)
                tensor, _, _ = admm_fit(view.targets, kms, fit_cfg)
                aucs.append(score_recovery(threshold_edges(tensor, 0.0), truth).auc)
            medians[spec.kind] = float(np.median(aucs))
        assert medians["polynomial"] > medians["linear"]
