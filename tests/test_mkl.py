"""Dictionary expansion and multi-kernel group-sparse attribution."""

import numpy as np
import pytest

from ksvar.kernels import KernelDictionary, KernelSpec, build_kernel_set
from ksvar.mkl import MklCoefficientTensor
from ksvar.panel import TimeSeriesPanel, lag_view
from ksvar.solver import SolverConfig, admm_fit, lambda_zero_bound

from oracles import (
    expand_dictionary,
    kbar,
    mkl_fit,
    mkl_fit_with_diagnostics,
    objective_value,
    unit_tensor,
)

LINEAR = KernelSpec(kind="linear")
POLY20 = KernelSpec(kind="polynomial", degree=2, offset=0.0)
GAUSS1 = KernelSpec(kind="gaussian", bandwidth=1.0)


def make_panel(t=14, n=2, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(t, n))
    labels = tuple(f"n{i}" for i in range(n))
    return TimeSeriesPanel(values=vals, node_labels=labels, sample_rate_hz=1.0)


class TestExpandDictionary:
    def test_single_entry_matches_plain_set(self):
        panel = make_panel(seed=1)
        kms_plain = build_kernel_set(lag_view(panel, 1), LINEAR)
        kms_dict = expand_dictionary(KernelDictionary(kernels=(LINEAR,)), panel, 1)
        assert kms_dict.n_kernels == 1
        assert kms_dict.n_blocks == kms_plain.n_blocks
        for a, b in zip(kms_dict.blocks, kms_plain.blocks):
            assert (a.node, a.lag, a.kernel_index) == (b.node, b.lag, b.kernel_index)
            np.testing.assert_array_equal(a.gram(), b.gram())

    def test_two_kernel_layout(self):
        panel = make_panel(t=4, n=2, seed=2)
        kms = expand_dictionary(KernelDictionary(kernels=(LINEAR, GAUSS1)), panel, 1)
        # N=2, L=1, P=2, T'=3: 8 blocks of 3 columns each
        assert kms.n_blocks == 8
        assert kbar(kms).shape == (3, 24)
        assert kms.block(0, 0, 0).spec == LINEAR
        assert kms.block(0, 0, 1).spec == GAUSS1
        assert kms.block(1, 1, 1).spec == GAUSS1

    def test_duplicate_entries_give_identical_stacks(self):
        panel = make_panel(seed=3)
        kms = expand_dictionary([LINEAR, LINEAR], panel, 1)
        for i in range(2):
            for l in range(2):
                np.testing.assert_array_equal(
                    kms.block(i, l, 0).gram(), kms.block(i, l, 1).gram()
                )

    def test_deleted_set_covers_every_kernel(self):
        panel = make_panel(seed=4)
        kms = expand_dictionary([LINEAR, GAUSS1], panel, 1)
        positions = kms.deleted_positions(1)
        assert positions == [kms.position(1, 0, 0), kms.position(1, 0, 1)]


class TestMklTensor:
    def make_tensor(self, norms):
        # norms keyed by (p, l, i, j); basis size 1
        p = 1 + max(k[0] for k in norms) if norms else 1
        l = 1 + max(k[1] for k in norms) if norms else 1
        return unit_tensor(norms, n=2, lag=l - 1, kernels=p)

    def test_attribution_rows_sorted_and_nonzero_only(self):
        t = self.make_tensor({(0, 1, 0, 1): 0.5, (1, 0, 1, 0): 0.25, (0, 0, 0, 1): 0.125})
        rows = t.attribution_table()
        assert [(r["lag"], r["src"], r["dst"], r["kernel"]) for r in rows] == [
            (0, 0, 1, 0),
            (0, 1, 0, 1),
            (1, 0, 1, 0),
        ]
        assert all(r["block_norm"] > 0 for r in rows)

    def test_kernel_share_sums_to_one(self):
        t = self.make_tensor({(0, 0, 0, 1): 3.0, (1, 0, 1, 0): 1.0})
        share = t.kernel_share()
        np.testing.assert_allclose(share, [0.75, 0.25])
        assert share.sum() == pytest.approx(1.0)

    def test_kernel_share_of_zero_tensor_is_zero(self):
        t = unit_tensor({}, n=2, kernels=2, t=3)
        np.testing.assert_array_equal(t.kernel_share(), np.zeros(2))

    def test_spec_count_must_match(self):
        # the specs come from the kernel set: one per slice, or none for Grams
        # given without them
        kms = build_kernel_set(lag_view(make_panel(seed=11), 1), [LINEAR, GAUSS1])
        t = MklCoefficientTensor(coords=np.zeros((sum(b.rank for b in kms.blocks), 2)), kernels=kms)
        assert t.kernel_specs == (LINEAR, GAUSS1)
        assert len(t.kernel_specs) == t.n_kernels
        assert unit_tensor({}, n=2, kernels=2).kernel_specs is None


class TestMklFit:
    def test_single_kernel_dictionary_equals_base_fit(self):
        panel = make_panel(t=16, seed=5)
        view = lag_view(panel, 1)
        kms = expand_dictionary([LINEAR], panel, 1)
        cfg = SolverConfig(lam=0.1, max_iter=5000, tol_primal=1e-9, tol_dual=1e-9)
        tensor, net = mkl_fit(view.targets, kms, cfg)
        base, _, _ = admm_fit(view.targets, build_kernel_set(view, LINEAR), cfg)
        np.testing.assert_allclose(tensor.coeffs, base.coeffs, atol=1e-8)
        assert tensor.kernel_specs == (LINEAR,)

    def test_dictionary_order_does_not_change_the_fit(self):
        panel = make_panel(t=18, seed=6)
        view = lag_view(panel, 1)
        cfg = SolverConfig(lam=0.2, max_iter=10_000, tol_primal=1e-10, tol_dual=1e-10)
        kms_a = expand_dictionary([LINEAR, GAUSS1], panel, 1)
        kms_b = expand_dictionary([GAUSS1, LINEAR], panel, 1)
        ta, net_a = mkl_fit(view.targets, kms_a, cfg)
        tb, net_b = mkl_fit(view.targets, kms_b, cfg)
        obj_a = objective_value(view.targets, kms_a, ta, cfg.lam)[0]
        obj_b = objective_value(view.targets, kms_b, tb, cfg.lam)[0]
        assert obj_a == pytest.approx(obj_b, rel=1e-9)
        np.testing.assert_array_equal(net_a.aggregate_support, net_b.aggregate_support)
        np.testing.assert_allclose(net_a.weights, net_b.weights, atol=1e-7)
        # slices swap with the dictionary order
        np.testing.assert_allclose(ta.coeffs[0], tb.coeffs[1], atol=1e-7)
        np.testing.assert_allclose(ta.coeffs[1], tb.coeffs[0], atol=1e-7)

    def test_zero_targets_give_zero_share(self):
        panel = make_panel(t=12, seed=7)
        view = lag_view(panel, 1)
        kms = expand_dictionary([LINEAR, GAUSS1], panel, 1)
        tensor, net = mkl_fit(np.zeros_like(view.targets), kms, SolverConfig(lam=0.5))
        np.testing.assert_array_equal(tensor.kernel_share(), np.zeros(2))
        assert net.n_edges == 0
        assert tensor.attribution_table() == []

    def test_huge_lambda_empties_the_network(self):
        panel = make_panel(t=12, seed=8)
        view = lag_view(panel, 1)
        kms = expand_dictionary([LINEAR, POLY20], panel, 1)
        lam = 5.0 * lambda_zero_bound(view.targets, kms)
        tensor, net = mkl_fit(view.targets, kms, SolverConfig(lam=lam))
        assert np.abs(tensor.coeffs).max() == 0.0
        assert net.n_edges == 0

    def test_diagnostics_variant_returns_record(self):
        panel = make_panel(t=12, seed=9)
        view = lag_view(panel, 1)
        kms = expand_dictionary([LINEAR, GAUSS1], panel, 1)
        tensor, net, diag = mkl_fit_with_diagnostics(
            view.targets, kms, SolverConfig(lam=0.1), node_labels=panel.node_labels
        )
        assert diag.iterations >= 1
        assert diag.final_objective == pytest.approx(diag.fidelity + diag.penalty)
        assert tensor.node_labels == panel.node_labels
        assert net.supports.shape == (2, 2, 2)

    def test_linear_signal_attributed_to_linear_kernel(self):
        # node b is a pure linear lag-1 readout of node a
        rng = np.random.default_rng(10)
        t = 80
        y = np.zeros((t, 2))
        y[:, 0] = rng.normal(size=t)
        y[1:, 1] = 0.9 * y[:-1, 0]
        y[0, 1] = rng.normal()
        panel = TimeSeriesPanel(values=y, node_labels=("a", "b"), sample_rate_hz=1.0)
        view = lag_view(panel, 1)
        kms = expand_dictionary([LINEAR, POLY20], panel, 1)
        lam = 0.05 * lambda_zero_bound(view.targets, kms)
        tensor, net = mkl_fit(
            view.targets, kms, SolverConfig(lam=lam, max_iter=5000), tau_alpha=0.05
        )
        share = tensor.kernel_share()
        assert share[0] > 0.8
        assert net.supports[1, 0, 1]
