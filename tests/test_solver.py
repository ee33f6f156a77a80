"""ADMM group-sparse fit, ridge fit, thresholding, prediction, CV, and BIC."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ksvar.errors import (
    ConfigError,
    InsufficientSamples,
    NonFinite,
    ShapeMismatch,
    SingularSystem,
)
from ksvar.kernels import KernelSpec, assemble, build_kernel_set
from ksvar.panel import TimeSeriesPanel, lag_view
from ksvar.solver import (
    CoefficientTensor,
    DualState,
    EffectiveNetwork,
    SolverConfig,
    _admm,
    _certificate,
    _FactorSystem,
    _fold_views,
    _resolved_specs,
    _StackedFactor,
    admm_fit,
    block_shrinkage,
    cross_validate_lambda,
    lambda_zero_bound,
    predict,
    ridge_fit,
    rkhs_block_norms,
    select_lag_bic,
    threshold_edges,
)

from oracles import (
    admm_column_update,
    column_designs,
    dmat_deleted,
    dsqrt,
    dual_update,
    group_lasso_objective,
    heldout_prediction,
    index_set,
    kbar,
    kbar_deleted,
    kernel_set_objective,
    objective_value,
    ridge_reference,
    total_columns,
    unit_tensor,
    w_stacked,
)

LINEAR = KernelSpec(kind="linear")
POLY21 = KernelSpec(kind="polynomial", degree=2, offset=1.0)
GAUSS1 = KernelSpec(kind="gaussian", bandwidth=1.0)

TIGHT = SolverConfig(lam=0.1, max_iter=20_000, tol_primal=1e-10, tol_dual=1e-10)


def make_problem(t=14, n=2, lag=1, seed=0, spec=LINEAR):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(t, n))
    labels = tuple(f"n{i}" for i in range(n))
    panel = TimeSeriesPanel(values=vals, node_labels=labels, sample_rate_hz=1.0)
    view = lag_view(panel, lag)
    kms = build_kernel_set(view, spec)
    return vals, view, kms


def zero_tensor(kms):
    return np.zeros((kms.n_kernels, kms.lag + 1, kms.n_nodes, kms.n_nodes, kms.n_targets))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(lam=0.5)
        assert cfg.rho == 1.0
        assert cfg.regularizer == "group_l1"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -1.0},
            {"lam": np.nan},
            {"lam": 1.0, "rho": 0.0},
            {"lam": 1.0, "max_iter": 0},
            {"lam": 1.0, "tol_primal": 0.0},
            {"lam": 1.0, "regularizer": "elastic"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)


class TestCoefficientTensor:
    def unit_kernels(self, n=2, lag=0, kernels=1, t=3):
        return unit_tensor({}, n, lag, kernels, t).kernels

    def test_shape_and_properties(self):
        t = unit_tensor({}, n=4, lag=2, kernels=2, t=5)
        assert t.coords.shape == (2 * 3 * 4 * 5, 4)
        assert (t.n_kernels, t.lag, t.n_nodes, t.n_basis) == (2, 2, 4, 5)
        assert t.coeffs.shape == (2, 3, 4, 4, 5)

    def test_rejects_wrong_ndim(self):
        kms = self.unit_kernels()
        with pytest.raises(ShapeMismatch):
            CoefficientTensor(coords=np.zeros(6 * 2), kernels=kms)

    def test_rejects_nonsquare_node_axes(self):
        # one coordinate column per target node, and one row per factor column
        kms = self.unit_kernels()
        with pytest.raises(ShapeMismatch):
            CoefficientTensor(coords=np.zeros((6, 3)), kernels=kms)
        with pytest.raises(ShapeMismatch):
            CoefficientTensor(coords=np.zeros((7, 2)), kernels=kms)

    def test_rejects_nan(self):
        kms = self.unit_kernels()
        c = np.zeros((6, 2))
        c[0, 1] = np.nan
        with pytest.raises(NonFinite):
            CoefficientTensor(coords=c, kernels=kms)

    def test_rejects_instantaneous_self_coupling(self):
        kms = self.unit_kernels(lag=1)
        c = np.zeros((12, 2))
        c[3 * kms.position(1, 0), 1] = 0.5
        with pytest.raises(ConfigError):
            CoefficientTensor(coords=c, kernels=kms)

    def test_lagged_self_coupling_allowed(self):
        kms = self.unit_kernels(lag=1)
        c = np.zeros((12, 2))
        c[3 * kms.position(1, 1), 1] = 0.5
        CoefficientTensor(coords=c, kernels=kms)

    def test_block_norms(self):
        t = unit_tensor({(0, 0, 0, 1): [3.0, 4.0]}, n=2, t=2)
        norms = t.block_norms()
        assert norms.shape == (1, 1, 2, 2)
        assert norms[0, 0, 0, 1] == 5.0

    def test_w_stacked_matches_kbar_order(self):
        # Kbar @ w_stacked must reproduce predict()
        _, view, kms = make_problem(seed=1)
        rng = np.random.default_rng(2)
        system = _StackedFactor(kms)
        c = system.to_public(system.mask_deleted(rng.normal(size=(1, 2, system.total_rank)))[0])
        tensor = CoefficientTensor(coords=c, kernels=kms)
        np.testing.assert_allclose(
            kbar(kms) @ w_stacked(tensor), predict(tensor, kms), atol=1e-10
        )

    @pytest.mark.parametrize("spec", [LINEAR, [LINEAR, GAUSS1]])
    def test_weights_equal_dense_block_norms(self, spec):
        _, view, kms = make_problem(t=30, n=4, seed=5, spec=spec)
        lam = 0.3 * lambda_zero_bound(view.targets, kms)
        tensor, _, _ = admm_fit(view.targets, kms, SolverConfig(lam=lam, max_iter=200))
        weights = threshold_edges(tensor, 0.0).weights
        assert (weights == 0.0).any() and (weights > 0.0).any()
        np.testing.assert_array_equal(weights, np.linalg.norm(tensor.coeffs, axis=4).max(axis=0))

    def test_fit_and_report_never_hold_the_dense_tensor(self):
        # N=40 nodes against a Gaussian rank of about 8 per block: the dense
        # (P, L+1, N, N, T') tensor, 10 MB, outweighs the factors and the
        # ADMM state together
        rng = np.random.default_rng(6)
        panel = TimeSeriesPanel(
            values=rng.normal(size=(201, 40)),
            node_labels=tuple(f"n{i}" for i in range(40)),
            sample_rate_hz=1.0,
        )
        view = lag_view(panel, 1)
        kms = build_kernel_set(view, [LINEAR, KernelSpec(kind="gaussian", bandwidth=5.0)])
        dense_bytes = 2 * 2 * 40 * 40 * view.n_targets * 8
        cfg = SolverConfig(lam=0.1 * lambda_zero_bound(view.targets, kms), max_iter=30)
        tracemalloc.start()
        try:
            tensor, _, _ = admm_fit(view.targets, kms, cfg)
            threshold_edges(tensor, 0.05)
            rows = tensor.attribution_table()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows
        assert peak < dense_bytes


class TestDualState:
    def test_shape_agreement(self):
        DualState(gamma=np.zeros((2, 3)), xi=np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch):
            DualState(gamma=np.zeros((2, 3)), xi=np.zeros(3))


class TestEffectiveNetwork:
    def test_aggregate_and_edge_count(self):
        supports = np.zeros((2, 3, 3), dtype=bool)
        weights = np.zeros((2, 3, 3))
        supports[0, 0, 1] = True
        weights[0, 0, 1] = 0.5
        supports[1, 0, 1] = True
        weights[1, 0, 1] = 0.8
        supports[1, 2, 2] = True  # self-loop, not an edge
        weights[1, 2, 2] = 0.3
        net = EffectiveNetwork(supports=supports, weights=weights, tau_alpha=0.1)
        assert net.n_edges == 1
        assert net.aggregate_support[0, 1]
        assert net.aggregate_weights[0, 1] == 0.8
        assert net.lag == 1 and net.n_nodes == 3

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            EffectiveNetwork(
                supports=np.zeros((1, 2, 2), bool), weights=np.zeros((2, 2, 2)), tau_alpha=0.0
            )
        with pytest.raises(ShapeMismatch):
            EffectiveNetwork(
                supports=np.zeros((1, 2, 3), bool), weights=np.zeros((1, 2, 3)), tau_alpha=0.0
            )


class TestBlockShrinkage:
    def test_worked_example(self):
        np.testing.assert_allclose(
            block_shrinkage(np.array([3.0, 4.0]), 1.0), [2.4, 3.2]
        )

    def test_below_threshold_snaps_to_zero(self):
        out = block_shrinkage(np.array([0.3, 0.4]), 1.0)
        assert np.array_equal(out, np.zeros(2))

    def test_zero_vector(self):
        assert np.array_equal(block_shrinkage(np.zeros(3), 0.5), np.zeros(3))

    def test_at_threshold_exactly_zero(self):
        assert np.array_equal(block_shrinkage(np.array([3.0, 4.0]), 5.0), np.zeros(2))

    def test_nonexpansive(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            thr = abs(rng.normal())
            lhs = np.linalg.norm(block_shrinkage(a, thr) - block_shrinkage(b, thr))
            assert lhs <= np.linalg.norm(a - b) + 1e-12


class TestDualUpdate:
    def test_ascent_step(self):
        state = DualState(gamma=np.zeros((2, 2)), xi=np.ones((2, 2)))
        dsqrt_w = np.full((2, 2), 3.0)
        gamma = np.full((2, 2), 1.0)
        new = dual_update(state, dsqrt_w, gamma, rho=0.5)
        np.testing.assert_allclose(new.xi, 1.0 + 0.5 * 2.0)
        np.testing.assert_array_equal(new.gamma, gamma)

    def test_fixed_point_when_feasible(self):
        state = DualState(gamma=np.ones((2, 2)), xi=np.ones((2, 2)))
        new = dual_update(state, np.ones((2, 2)), np.ones((2, 2)), rho=2.0)
        np.testing.assert_array_equal(new.xi, state.xi)

    def test_rejects_shape_mismatch(self):
        state = DualState(gamma=np.zeros((2, 2)), xi=np.zeros((2, 2)))
        with pytest.raises(ShapeMismatch):
            dual_update(state, np.zeros((3, 2)), np.zeros((2, 2)), rho=1.0)


class TestColumnUpdate:
    def test_zero_targets_give_zero(self):
        _, _, kms = make_problem(seed=3)
        out = admm_column_update(0, np.zeros(kms.n_targets), None, None, kms, rho=1.0)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_single_identity_block_halves_q(self):
        # N=2, lag 0: column 0 retains one identity block, so m = (1+rho) I
        grams = {(i, 0): np.eye(3) for i in range(2)}
        kms = assemble(grams)
        y = np.array([1.0, 2.0, 3.0])
        out = admm_column_update(0, y, None, None, kms, rho=1.0, jitter=0.0)
        np.testing.assert_allclose(out, y / 2.0)

    def test_solves_stated_normal_equations(self):
        rng = np.random.default_rng(7)
        _, _, kms = make_problem(t=10, n=2, lag=1, seed=7)
        j = 1
        dim = kbar_deleted(kms, j).shape[1]
        y_j = rng.normal(size=kms.n_targets)
        gamma_j = rng.normal(size=dim)
        xi_j = rng.normal(size=dim)
        rho = 0.7
        out = admm_column_update(j, y_j, gamma_j, xi_j, kms, rho=rho, jitter=1e-10)
        kbar_j = kbar_deleted(kms, j)
        d_j = dmat_deleted(kms, j)
        keep = np.setdiff1d(np.arange(total_columns(kms)), index_set(kms, j))
        d_sqrt = dsqrt(kms)[np.ix_(keep, keep)]
        q = kbar_j.T @ y_j + d_sqrt @ (rho * gamma_j - xi_j)
        m = kbar_j.T @ kbar_j + rho * d_j + 1e-10 * np.eye(dim)
        np.testing.assert_allclose(m @ out, q, atol=1e-8)

    def test_rejects_bad_column_and_shapes(self):
        _, _, kms = make_problem(seed=8)
        with pytest.raises(ShapeMismatch):
            admm_column_update(9, np.zeros(kms.n_targets), None, None, kms, rho=1.0)
        with pytest.raises(ShapeMismatch):
            admm_column_update(0, np.zeros(3 * kms.n_targets), None, None, kms, rho=1.0)
        with pytest.raises(ShapeMismatch):
            admm_column_update(0, np.zeros(kms.n_targets), np.zeros(2), None, kms, rho=1.0)


class TestAdmmFit:
    def test_zero_targets_converge_immediately(self):
        _, view, kms = make_problem(seed=9)
        y = np.zeros_like(view.targets)
        tensor, _, diag = admm_fit(y, kms, SolverConfig(lam=0.5))
        assert diag.converged
        assert diag.iterations <= 2
        np.testing.assert_array_equal(tensor.coeffs, zero_tensor(kms))

    def test_huge_lambda_zeroes_everything(self):
        _, view, kms = make_problem(seed=10)
        lam = 10.0 * lambda_zero_bound(view.targets, kms)
        tensor, _, _ = admm_fit(view.targets, kms, SolverConfig(lam=lam))
        np.testing.assert_array_equal(tensor.coeffs, zero_tensor(kms))

    def test_lambda_zero_bound_is_sharp(self):
        _, view, kms = make_problem(t=12, seed=11)
        bound = lambda_zero_bound(view.targets, kms)
        cfg = SolverConfig(lam=1.05 * bound, max_iter=5000, tol_primal=1e-9, tol_dual=1e-9)
        above, _, _ = admm_fit(view.targets, kms, cfg)
        np.testing.assert_array_equal(above.coeffs, zero_tensor(kms))
        below, _, _ = admm_fit(
            view.targets, kms, SolverConfig(lam=0.9 * bound, max_iter=5000)
        )
        assert np.abs(below.coeffs).max() > 0

    def test_bound_matches_oracle_designs(self):
        vals, view, kms = make_problem(t=12, n=3, seed=12)
        bound = lambda_zero_bound(view.targets, kms)
        want = 0.0
        for j, mats in enumerate(column_designs(vals, 1, [LINEAR])):
            for m in mats:
                want = max(want, float(np.linalg.norm(m.T @ view.targets[:, j])))
        assert bound == pytest.approx(want, rel=1e-8)

    def test_bound_without_kept_directions_is_zero(self):
        # every Gram zero, then one nonzero block that column 0 deletes
        zero = np.zeros((5, 5))
        kms = assemble({(i, l): zero for i in range(2) for l in range(2)})
        assert lambda_zero_bound(np.ones((5, 2)), kms) == 0.0
        grams = {(i, l): zero for i in range(2) for l in range(2)}
        kms = assemble({**grams, (0, 0): np.eye(5)})
        assert lambda_zero_bound(np.ones((5, 2)), kms) == pytest.approx(np.sqrt(5.0))

    @pytest.mark.parametrize(
        "spec,n,frac",
        [(LINEAR, 2, 0.3), (POLY21, 3, 0.4), (GAUSS1, 2, 0.2)],
    )
    def test_objective_matches_certified_oracle(self, spec, n, frac):
        vals, view, kms = make_problem(t=16, n=n, seed=13, spec=spec)
        lam = frac * lambda_zero_bound(view.targets, kms)
        cfg = SolverConfig(lam=lam, max_iter=20_000, tol_primal=1e-10, tol_dual=1e-10)
        _, _, diag = admm_fit(view.targets, kms, cfg)
        want, gap = group_lasso_objective(vals, 1, [spec], view.targets, lam)
        tol = gap + 1e-7 * (1.0 + abs(want))
        assert diag.final_objective <= want + tol
        assert diag.final_objective >= want - tol

    def test_inactive_blocks_are_exactly_zero(self):
        _, view, kms = make_problem(t=20, n=3, seed=14)
        lam = 0.6 * lambda_zero_bound(view.targets, kms)
        tensor, _, _ = admm_fit(view.targets, kms, SolverConfig(lam=lam, max_iter=3000))
        norms = tensor.block_norms()
        # sparse regime: some blocks must be hard zeros, not merely small
        assert (norms == 0.0).any()
        assert (norms > 0.0).any()

    def test_instantaneous_self_blocks_stay_zero(self):
        _, view, kms = make_problem(t=18, n=3, seed=15)
        tensor, _, _ = admm_fit(view.targets, kms, SolverConfig(lam=0.05))
        diag_blocks = tensor.coeffs[:, 0, np.arange(3), np.arange(3), :]
        assert np.array_equal(diag_blocks, np.zeros_like(diag_blocks))

    @pytest.mark.parametrize("spec", [LINEAR, [LINEAR, GAUSS1]])
    def test_diagnostics_are_consistent(self, spec):
        _, view, kms = make_problem(seed=16, spec=spec)
        tensor, dual, diag = admm_fit(view.targets, kms, TIGHT)
        assert diag.iterations == len(diag.primal_residuals)
        assert diag.iterations == len(diag.dual_residuals)
        assert set(diag.relative_gaps) == {*range(10, diag.iterations + 1, 10), diag.iterations}
        assert diag.final_objective == pytest.approx(diag.fidelity + diag.penalty)
        assert diag.converged and 0.0 < diag.residual_ratio <= 1.0
        resid = view.targets - predict(tensor, kms)
        assert diag.fidelity == pytest.approx(0.5 * np.sum(resid * resid), abs=1e-9)
        obj, fid, pen = objective_value(view.targets, kms, tensor, TIGHT.lam)
        assert obj == pytest.approx(diag.final_objective, abs=1e-9)
        assert fid == pytest.approx(diag.fidelity, abs=1e-12)
        assert pen == pytest.approx(diag.penalty, abs=1e-12)
        records = diag.records()
        assert len(records) == diag.iterations
        assert records[0]["iteration"] == 1
        assert set(records[0]) == {"iteration", "primal_residual", "dual_residual"}
        for record in records:
            if record["iteration"] in diag.relative_gaps:
                assert record["relative_gap"] == diag.relative_gaps[record["iteration"]]
            else:
                assert "relative_gap" not in record
        assert records[-1]["relative_gap"] == diag.relative_gap

    @pytest.mark.parametrize("spec", [LINEAR, [LINEAR, GAUSS1]])
    def test_dual_state_shapes(self, spec):
        # factor coordinates: one row per stacked factor column, one column per node
        _, view, kms = make_problem(seed=17, spec=spec)
        _, dual, _ = admm_fit(view.targets, kms, SolverConfig(lam=0.2))
        want = (sum(b.rank for b in kms.blocks), kms.n_nodes)
        assert dual.gamma.shape == want
        assert dual.xi.shape == want

    def test_dictionary_objective_matches_oracle(self):
        specs = [LINEAR, GAUSS1]
        rng = np.random.default_rng(18)
        vals = rng.normal(size=(14, 2))
        panel = TimeSeriesPanel(values=vals, node_labels=("a", "b"), sample_rate_hz=1.0)
        view = lag_view(panel, 1)
        kms = build_kernel_set(view, specs)
        lam = 0.3 * lambda_zero_bound(view.targets, kms)
        cfg = SolverConfig(lam=lam, max_iter=20_000, tol_primal=1e-10, tol_dual=1e-10)
        _, _, diag = admm_fit(view.targets, kms, cfg)
        want, gap = group_lasso_objective(vals, 1, specs, view.targets, lam)
        tol = gap + 1e-7 * (1.0 + abs(want))
        assert abs(diag.final_objective - want) <= tol

        # lag 2 and Gram ranks 0 to 3 mixed across (node, lag), so the
        # solver's rank grouping reorders the blocks; node 0's instantaneous
        # Gram is zero, and nodes 1 and 2 delete blocks of rank 1 and 2
        t, n = 12, 3
        grams = {}
        for i in range(n):
            for l in range(3):
                a = rng.normal(size=(t, (i + l) % 4))
                grams[(i, l)] = a @ a.T
        kms = assemble(grams)
        assert {b.rank for b in kms.blocks} == {0, 1, 2, 3}
        y = rng.normal(size=(t, n))
        lam = 0.3 * lambda_zero_bound(y, kms)
        tensor, dual, diag = admm_fit(y, kms, replace(cfg, lam=lam))
        want, gap = kernel_set_objective(y, kms, lam)
        assert abs(diag.final_objective - want) <= gap + 1e-7 * (1.0 + abs(want))
        # the public coordinates carry the same objective, block by block
        assert objective_value(y, kms, tensor, lam)[0] == pytest.approx(
            diag.final_objective, rel=1e-10
        )
        starts = np.concatenate([[0], np.cumsum([b.rank for b in kms.blocks])])
        for j in range(n):
            for pos in kms.deleted_positions(j):
                rows = slice(starts[pos], starts[pos + 1])
                for arr in (tensor.coords, dual.gamma, dual.xi):
                    assert not arr[rows, j].any()
        assert tensor.block_norms().max() > 0.0

    def test_rejects_wrong_mode_and_lambda(self):
        _, view, kms = make_problem(seed=19)
        with pytest.raises(ConfigError):
            admm_fit(view.targets, kms, SolverConfig(lam=1.0, regularizer="squared"))
        with pytest.raises(ConfigError):
            admm_fit(view.targets, kms, SolverConfig(lam=0.0))

    def test_rejects_target_shape_mismatch(self):
        _, view, kms = make_problem(seed=20)
        with pytest.raises(ShapeMismatch):
            admm_fit(view.targets.T, kms, SolverConfig(lam=0.5))
        bad = view.targets.copy()
        bad[0, 0] = np.inf
        with pytest.raises(NonFinite):
            admm_fit(bad, kms, SolverConfig(lam=0.5))


class TestDualityGap:
    """The certificate behind FitDiagnostics.relative_gap."""

    @pytest.mark.parametrize("spec", [LINEAR, [LINEAR, GAUSS1]])
    def test_weak_duality_at_random_points(self, spec):
        rng = np.random.default_rng(40)
        for seed in range(41, 46):
            _, view, kms = make_problem(t=16, n=3, seed=seed, spec=spec)
            system = _StackedFactor(kms)
            lams = lambda_zero_bound(view.targets, kms) * np.array([0.02, 0.3, 0.9, 1.5])
            shape = (lams.size, kms.n_nodes, system.total_rank)
            g = system.mask_deleted(rng.normal(scale=0.3, size=shape))
            # zero about half the blocks, as the shrinkage does
            live = []
            for blocks in system.grouped(g):
                live.append(rng.random(blocks.shape[:-1]) < 0.5)
                blocks *= live[-1][..., None]
            live = np.concatenate(live, axis=-1)
            fidelity, penalty, relative = _certificate(view.targets, system, g, lams)
            assert (fidelity + penalty > 0).all()
            assert (relative >= -1e-12).all()
            # the dual point is the residual itself once it is feasible
            assert relative[-1][(live[-1] == 0).all(axis=-1)] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("spec", [LINEAR, [LINEAR, GAUSS1]])
    @pytest.mark.parametrize("rho", [1.0, 4.0])
    def test_tight_fit_is_certified(self, spec, rho):
        _, view, kms = make_problem(seed=16, spec=spec)
        _, _, diag = admm_fit(view.targets, kms, replace(TIGHT, rho=rho))
        assert diag.converged
        assert -1e-12 <= diag.relative_gap <= 1e-6
        assert all(gap >= -1e-12 for gap in diag.relative_gaps.values())

    @pytest.mark.parametrize("spec", [LINEAR, [LINEAR, GAUSS1]])
    @pytest.mark.parametrize("rho", [0.5, 4.0])
    def test_early_stop_is_within_its_certified_bound(self, spec, rho):
        vals, view, kms = make_problem(t=16, n=3, seed=13, spec=spec)
        lam = 0.3 * lambda_zero_bound(view.targets, kms)
        _, _, diag = admm_fit(view.targets, kms, SolverConfig(lam=lam, rho=rho, max_iter=20))
        specs = spec if isinstance(spec, list) else [spec]
        want, oracle_gap = group_lasso_objective(vals, 1, specs, view.targets, lam)
        excess = diag.final_objective - want
        assert not diag.converged and excess > 1e-6 * want
        # sum_j (P_j - D_j) <= max_j (relative gap_j) * sum_j P_j bounds the excess
        certified = diag.relative_gap * diag.final_objective
        assert -oracle_gap - 1e-9 <= excess <= certified + oracle_gap

    def test_batched_lambdas_certify_like_separate_runs(self):
        # the last two lambdas converge between checks, the last one first;
        # the first stops at the cap
        _, view, kms = make_problem(t=30, n=3, seed=47)
        grid = lambda_zero_bound(view.targets, kms) * np.array([0.8, 0.5, 0.05])
        cfg = SolverConfig(lam=1.0, rho=10.0, max_iter=40)
        system = _FactorSystem(kms, cfg.rho)
        batched = [diag for _, _, diag in _admm(view.targets, system, grid, cfg)]
        assert [diag.converged for diag in batched] == [False, True, True]
        assert batched[2].iterations < batched[1].iterations < 40
        assert batched[1].iterations % 10 and batched[2].iterations % 10
        for lam, diag in zip(grid, batched):
            [(_, _, alone)] = _admm(view.targets, system, [lam], cfg)
            assert diag.iterations == alone.iterations
            assert diag.relative_gaps.keys() == alone.relative_gaps.keys()
            for it, gap in alone.relative_gaps.items():
                assert diag.relative_gaps[it] == pytest.approx(gap, rel=1e-9, abs=1e-12)
            assert diag.final_objective == pytest.approx(alone.final_objective, rel=1e-12)


class TestRidgeFit:
    def test_zero_targets(self):
        _, view, kms = make_problem(seed=21)
        cfg = SolverConfig(lam=0.5, regularizer="squared")
        tensor = ridge_fit(np.zeros_like(view.targets), kms, cfg)
        np.testing.assert_allclose(tensor.coeffs, zero_tensor(kms), atol=1e-12)

    @pytest.mark.parametrize("spec", [LINEAR, POLY21, GAUSS1])
    def test_fitted_values_match_normal_equations(self, spec):
        vals, view, kms = make_problem(t=15, n=2, seed=22, spec=spec)
        lam = 0.3
        cfg = SolverConfig(lam=lam, regularizer="squared")
        tensor = ridge_fit(view.targets, kms, cfg)
        fitted, obj = ridge_reference(vals, 1, [spec], view.targets, lam)
        np.testing.assert_allclose(predict(tensor, kms), fitted, atol=1e-8)
        resid = view.targets - predict(tensor, kms)
        penalty = lam * float((rkhs_block_norms(kms, tensor) ** 2).sum())
        got_obj = 0.5 * float(np.sum(resid * resid)) + penalty
        assert got_obj == pytest.approx(obj, rel=1e-8)

    def test_solution_is_stationary(self):
        # gradient in factor coordinates: F^T (F c - y) + 2 lam c = 0
        _, view, kms = make_problem(t=15, n=3, seed=23)
        lam = 0.2
        tensor = ridge_fit(view.targets, kms, SolverConfig(lam=lam, regularizer="squared"))
        fitted = predict(tensor, kms)
        for j in range(kms.n_nodes):
            deleted = set(kms.deleted_positions(j))
            grad_sq = 0.0
            scale = 0.0
            for pos, block in enumerate(kms.blocks):
                if pos in deleted:
                    continue
                c = block.factor.T @ tensor.coeffs[block.kernel_index, block.lag, block.node, j]
                g = block.factor.T @ (fitted[:, j] - view.targets[:, j]) + 2.0 * lam * c
                grad_sq += float(g @ g)
                scale += float(c @ c)
            assert np.sqrt(grad_sq) <= 1e-7 * (1.0 + np.sqrt(scale))

    def test_finite_difference_gradient(self):
        # numeric directional derivatives vanish at the minimizer
        vals, view, kms = make_problem(t=12, n=2, seed=24)
        lam = 0.4
        tensor = ridge_fit(view.targets, kms, SolverConfig(lam=lam, regularizer="squared"))

        def c_vec(t):
            segs = []
            for j in range(kms.n_nodes):
                deleted = set(kms.deleted_positions(j))
                for pos, block in enumerate(kms.blocks):
                    if pos in deleted:
                        continue
                    segs.append(block.factor.T @ t[block.kernel_index, block.lag, block.node, j])
            return np.concatenate(segs)

        def obj_from_c(c):
            # rebuild per-column fitted values from the flat c layout
            total = 0.0
            start = 0
            for j in range(kms.n_nodes):
                deleted = set(kms.deleted_positions(j))
                yhat = np.zeros(kms.n_targets)
                pen = 0.0
                for pos, block in enumerate(kms.blocks):
                    if pos in deleted:
                        continue
                    seg = c[start : start + block.rank]
                    start += block.rank
                    yhat += block.factor @ seg
                    pen += float(seg @ seg)
                r = view.targets[:, j] - yhat
                total += 0.5 * float(r @ r) + lam * pen
            return total

        c0 = c_vec(tensor.coeffs)
        rng = np.random.default_rng(25)
        eps = 1e-6
        for _ in range(5):
            d = rng.normal(size=c0.size)
            d /= np.linalg.norm(d)
            deriv = (obj_from_c(c0 + eps * d) - obj_from_c(c0 - eps * d)) / (2 * eps)
            assert abs(deriv) <= 1e-7 * (1.0 + abs(obj_from_c(c0)))

    def test_rejects_group_mode(self):
        _, view, kms = make_problem(seed=26)
        with pytest.raises(ConfigError):
            ridge_fit(view.targets, kms, SolverConfig(lam=1.0))


class TestSharedSolve:
    """Every fit goes through one factorization of the stacked factor.  The
    cases sit on each side of stacked rank R = T', with the linear kernel
    alone and with a dictionary whose per-node Gaussian ranks differ, so
    that deleted blocks of unequal size are padded."""

    CASES = {
        "linear_above": dict(t=10, n=8, seed=40, spec=LINEAR),  # R=16, T'=9
        "linear_below": dict(t=41, n=3, seed=41, spec=LINEAR),  # R=6, T'=40
        "mixed_above": dict(t=14, n=3, seed=0, spec=[LINEAR, GAUSS1]),  # R=65, T'=13
        "mixed_below": dict(t=61, n=2, seed=1, spec=[LINEAR, GAUSS1]),  # R=58, T'=60
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_ridge_matches_reference(self, case):
        kw = self.CASES[case]
        vals, view, kms = make_problem(**kw)
        stacked = sum(b.rank for b in kms.blocks)
        assert (stacked > kms.n_targets) == case.endswith("above")
        deleted = {
            sum(kms.blocks[pos].rank for pos in kms.deleted_positions(j))
            for j in range(kms.n_nodes)
        }
        assert (len(deleted) > 1) == case.startswith("mixed")
        specs = kw["spec"] if isinstance(kw["spec"], list) else [kw["spec"]]
        lam = 0.3
        tensor = ridge_fit(view.targets, kms, SolverConfig(lam=lam, regularizer="squared"))
        fitted, _ = ridge_reference(vals, 1, specs, view.targets, lam)
        np.testing.assert_allclose(predict(tensor, kms), fitted, atol=1e-8)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_admm_self_blocks_exactly_zero(self, case):
        _, view, kms = make_problem(**self.CASES[case])
        lam = 0.2 * lambda_zero_bound(view.targets, kms)
        tensor, _, _ = admm_fit(view.targets, kms, SolverConfig(lam=lam, max_iter=200))
        n = kms.n_nodes
        diag_blocks = tensor.coeffs[:, 0, np.arange(n), np.arange(n), :]
        assert np.array_equal(diag_blocks, np.zeros_like(diag_blocks))
        assert tensor.block_norms().max() > 0.0

    def test_zero_lambda_ridge(self):
        # R <= T': plain least squares on each column's kept factors
        _, view, kms = make_problem(**self.CASES["linear_below"])
        cfg = SolverConfig(lam=0.0, regularizer="squared")
        fitted = predict(ridge_fit(view.targets, kms, cfg), kms)
        for j in range(kms.n_nodes):
            deleted = set(kms.deleted_positions(j))
            a = np.hstack([b.factor for pos, b in enumerate(kms.blocks) if pos not in deleted])
            coef, *_ = np.linalg.lstsq(a, view.targets[:, j], rcond=None)
            np.testing.assert_allclose(fitted[:, j], a @ coef, atol=1e-10)
        # R > T': the unpenalized system is singular
        _, view, kms = make_problem(**self.CASES["linear_above"])
        with pytest.raises(SingularSystem):
            ridge_fit(view.targets, kms, cfg)


class TestThresholdEdges:
    def tensor_with_norms(self, entries, n=2, lag=0, p=1, t=1):
        return unit_tensor(entries, n, lag, p, t)

    def test_straddling_threshold(self):
        t = self.tensor_with_norms({(0, 0, 0, 1): 0.011, (0, 0, 1, 0): 0.009})
        net = threshold_edges(t, 0.01)
        assert net.n_edges == 1
        assert net.supports[0, 0, 1]
        assert not net.supports[0, 1, 0]

    def test_boundary_is_inclusive(self):
        t = self.tensor_with_norms({(0, 0, 0, 1): 0.01})
        assert threshold_edges(t, 0.01).supports[0, 0, 1]

    def test_zero_threshold_keeps_only_nonzeros(self):
        t = self.tensor_with_norms({(0, 0, 0, 1): 1e-9})
        net = threshold_edges(t, 0.0)
        assert net.supports[0, 0, 1]
        assert not net.supports[0, 1, 0]

    def test_dictionary_uses_strongest_kernel(self):
        t = self.tensor_with_norms({(0, 0, 0, 1): 0.009, (1, 0, 0, 1): 0.02}, p=2)
        net = threshold_edges(t, 0.01)
        assert net.supports[0, 0, 1]
        assert net.weights[0, 0, 1] == pytest.approx(0.02)

    def test_rejects_negative_threshold(self):
        t = self.tensor_with_norms({})
        with pytest.raises(ConfigError):
            threshold_edges(t, -0.1)

    def test_labels_pass_through(self):
        t = self.tensor_with_norms({})
        assert threshold_edges(t, 0.1, node_labels=("a", "b")).node_labels == ("a", "b")


class TestPredict:
    def test_in_sample_equals_training_view_prediction(self):
        _, view, kms = make_problem(t=16, n=2, seed=27, spec=GAUSS1)
        tensor, _, _ = admm_fit(view.targets, kms, SolverConfig(lam=0.1))
        np.testing.assert_allclose(
            predict(tensor, kms), predict(tensor, kms, view=view), atol=1e-9
        )

    def test_new_view_prediction_shape(self):
        vals, view, kms = make_problem(t=16, n=2, seed=28)
        tensor, _, _ = admm_fit(view.targets, kms, SolverConfig(lam=0.1))
        rng = np.random.default_rng(29)
        newvals = rng.normal(size=(7, 2))
        panel = TimeSeriesPanel(values=newvals, node_labels=("n0", "n1"), sample_rate_hz=1.0)
        out = predict(tensor, kms, view=lag_view(panel, 1))
        assert out.shape == (6, 2)

    @pytest.mark.parametrize("spec", [LINEAR, GAUSS1, [LINEAR, GAUSS1]])
    def test_new_view_matches_cross_gram_reference(self, spec):
        _, view, kms = make_problem(t=16, n=2, seed=28, spec=spec)
        tensor, _, _ = admm_fit(view.targets, kms, SolverConfig(lam=0.1))
        panel = TimeSeriesPanel(
            values=np.random.default_rng(29).normal(size=(7, 2)),
            node_labels=("n0", "n1"),
            sample_rate_hz=1.0,
        )
        new = lag_view(panel, 1)
        # the two orders of the products part at ~1e-10 on the Gaussian
        # blocks, whose factors' Gram is ill-conditioned
        np.testing.assert_allclose(
            predict(tensor, kms, view=new), heldout_prediction(tensor, kms, new), rtol=0.0, atol=1e-9
        )

    def test_rejects_mismatched_tensor(self):
        _, view, kms = make_problem(seed=30)
        _, _, other = make_problem(n=3, seed=30)
        wrong = CoefficientTensor(coords=np.zeros((other.n_blocks, 3)), kernels=other)
        with pytest.raises(ShapeMismatch):
            predict(wrong, kms)

    def test_assembled_grams_cannot_project_new_data(self):
        grams = {(i, l): np.eye(3) for i in range(2) for l in range(2)}
        kms = assemble(grams)
        tensor = CoefficientTensor(coords=np.zeros((3 * kms.n_blocks, 2)), kernels=kms)
        panel = TimeSeriesPanel(
            values=np.random.default_rng(31).normal(size=(4, 2)),
            node_labels=("n0", "n1"),
            sample_rate_hz=1.0,
        )
        with pytest.raises(ConfigError):
            predict(tensor, kms, view=lag_view(panel, 1))


class TestCrossValidate:
    def make_lagged_panel(self, t=60, seed=32, noise=0.0):
        # node 1 follows node 0 with one step of delay
        rng = np.random.default_rng(seed)
        y = np.zeros((t, 2))
        y[:, 0] = rng.normal(size=t)
        y[1:, 1] = 0.9 * y[:-1, 0]
        y[:, 1] += noise * rng.normal(size=t)
        y[0, 1] = rng.normal()
        return TimeSeriesPanel(values=y, node_labels=("a", "b"), sample_rate_hz=1.0)

    def test_single_candidate(self):
        panel = self.make_lagged_panel()
        kms = build_kernel_set(lag_view(panel, 1), LINEAR)
        lam, table = cross_validate_lambda(panel, kms, [0.7], 3, SolverConfig(lam=0.7))
        assert lam == 0.7
        assert len(table) == 1
        assert table[0]["lambda"] == 0.7
        assert len(table[0]["fold_errors"]) == 3

    def test_duplicate_grid_entries(self):
        panel = self.make_lagged_panel()
        kms = build_kernel_set(lag_view(panel, 1), LINEAR)
        lam, table = cross_validate_lambda(panel, kms, [0.5, 0.5], 2, SolverConfig(lam=0.5))
        assert lam == 0.5
        assert len(table) == 2

    def test_noiseless_system_prefers_tiny_lambda(self):
        panel = self.make_lagged_panel(noise=0.0)
        kms = build_kernel_set(lag_view(panel, 1), LINEAR)
        lam, table = cross_validate_lambda(
            panel, kms, [1e-4, 1e3], 3, SolverConfig(lam=1.0)
        )
        assert lam == 1e-4
        by_lam = {row["lambda"]: row["mean_error"] for row in table}
        assert by_lam[1e-4] < by_lam[1e3]

    def test_ties_go_to_larger_lambda(self):
        # zero targets: every lambda predicts perfectly, so the tie rule decides
        panel = TimeSeriesPanel(
            values=np.concatenate(
                [np.random.default_rng(33).normal(size=(40, 1)), np.zeros((40, 1))], axis=1
            ),
            node_labels=("drive", "flat"),
            sample_rate_hz=1.0,
        )
        kms = build_kernel_set(lag_view(panel, 1), LINEAR)
        grid = [10.0, 1000.0]
        lam, table = cross_validate_lambda(panel, kms, grid, 2, SolverConfig(lam=1.0))
        errs = [row["mean_error"] for row in table]
        if errs[0] == errs[1]:
            assert lam == 1000.0

    def test_validation_errors(self):
        panel = self.make_lagged_panel()
        kms = build_kernel_set(lag_view(panel, 1), LINEAR)
        cfg = SolverConfig(lam=1.0)
        with pytest.raises(ConfigError):
            cross_validate_lambda(panel, kms, [], 3, cfg)
        with pytest.raises(ConfigError):
            cross_validate_lambda(panel, kms, [0.1], 1, cfg)
        with pytest.raises(ConfigError):
            cross_validate_lambda(panel, kms, [-0.5], 3, cfg)

    def test_too_many_folds_fail(self):
        panel = self.make_lagged_panel(t=8)
        kms = build_kernel_set(lag_view(panel, 1), LINEAR)
        with pytest.raises(InsufficientSamples):
            cross_validate_lambda(panel, kms, [0.1], 8, SolverConfig(lam=0.1))

    def test_ridge_mode_supported(self):
        panel = self.make_lagged_panel()
        kms = build_kernel_set(lag_view(panel, 1), LINEAR)
        cfg = SolverConfig(lam=1.0, regularizer="squared")
        lam, _ = cross_validate_lambda(panel, kms, [1e-3, 10.0], 3, cfg)
        assert lam == 1e-3

    def make_var_panel(self, t=60, seed=35):
        # a noisy three-node ring: 0 -> 1 -> 2 -> 0 at lag one
        rng = np.random.default_rng(seed)
        coupling = np.array([[0.0, 0.8, 0.0], [0.0, 0.0, 0.7], [0.5, 0.0, 0.0]])
        y = np.zeros((t, 3))
        y[0] = rng.normal(size=3)
        for s in range(1, t):
            y[s] = y[s - 1] @ coupling + rng.normal(size=3)
        return TimeSeriesPanel(values=y, node_labels=("a", "b", "c"), sample_rate_hz=1.0)

    def per_lambda_reference(self, panel, kms, grid, folds, cfg):
        """Fold errors of one separate fit per (fold, lambda), predicted block
        by block through the cross Gram, with each group-sparse fit's
        (tensor, diagnostics)."""
        specs = _resolved_specs(kms)
        errors = np.zeros((len(grid), folds))
        records = {}
        for f, (train, test) in enumerate(_fold_views(panel, kms.lag, folds)):
            kms_train = build_kernel_set(train, specs)
            for gi, lam in enumerate(grid):
                fit_cfg = replace(cfg, lam=lam)
                if cfg.regularizer == "squared":
                    tensor = ridge_fit(train.targets, kms_train, fit_cfg)
                else:
                    tensor, _, diag = admm_fit(train.targets, kms_train, fit_cfg)
                    records[gi, f] = tensor, diag
                err = test.targets - heldout_prediction(tensor, kms_train, test)
                errors[gi, f] = np.mean(err * err)
        return errors, records

    @pytest.mark.parametrize(
        "spec, regularizer",
        [
            (LINEAR, "group_l1"),
            ([LINEAR, GAUSS1], "group_l1"),
            (LINEAR, "squared"),
            ([LINEAR, GAUSS1], "squared"),
        ],
    )
    def test_table_matches_per_lambda_fits(self, spec, regularizer):
        panel = self.make_var_panel()
        kms = build_kernel_set(lag_view(panel, 1), spec)
        bound = lambda_zero_bound(lag_view(panel, 1).targets, kms)
        grid = [0.02 * bound, 0.1 * bound, 0.02 * bound, 0.4 * bound]
        cfg = SolverConfig(lam=1.0, rho=30.0, max_iter=120, regularizer=regularizer)
        lam, table = cross_validate_lambda(panel, kms, grid, 3, cfg)
        want, _ = self.per_lambda_reference(panel, kms, grid, 3, cfg)
        got = np.array([row["fold_errors"] for row in table])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(
            [row["mean_error"] for row in table], want.mean(axis=1), rtol=1e-10, atol=0.0
        )
        assert lam == grid[int(np.argmin(want.mean(axis=1)))]

    def test_each_lambda_stops_on_its_own_test(self):
        # the large lambda converges within the cap on every fold, the small
        # one never does; batched, each must still match its own separate fit
        panel = self.make_var_panel()
        kms = build_kernel_set(lag_view(panel, 1), LINEAR)
        bound = lambda_zero_bound(lag_view(panel, 1).targets, kms)
        grid = [0.005 * bound, 0.5 * bound]
        cfg = SolverConfig(lam=1.0, rho=100.0, max_iter=40)
        _, table = cross_validate_lambda(panel, kms, grid, 3, cfg)
        want, records = self.per_lambda_reference(panel, kms, grid, 3, cfg)
        for f in range(3):
            _, small = records[0, f]
            large_tensor, large = records[1, f]
            assert not small.converged and small.iterations == 40
            assert large.converged and large.iterations < 40
            # active blocks: iterating past convergence would still move them
            assert large_tensor.block_norms().max() > 0.0
        for gi in range(2):
            np.testing.assert_allclose(table[gi]["fold_errors"], want[gi], rtol=1e-10, atol=0.0)

    def test_group_grid_with_zero_lambda_rejected(self):
        panel = self.make_lagged_panel()
        kms = build_kernel_set(lag_view(panel, 1), LINEAR)
        with pytest.raises(ConfigError):
            cross_validate_lambda(panel, kms, [0.5, 0.0], 3, SolverConfig(lam=0.5))


class TestSelectLagBic:
    def lagged_panel(self, t=120, seed=34, true_lag=1):
        rng = np.random.default_rng(seed)
        y = np.zeros((t, 2))
        y[:, 0] = rng.normal(size=t)
        y[true_lag:, 1] = 0.8 * y[:-true_lag, 0] + 0.1 * rng.normal(size=t - true_lag)
        return TimeSeriesPanel(values=y, node_labels=("a", "b"), sample_rate_hz=1.0)

    def test_single_candidate(self):
        panel = self.lagged_panel()
        assert select_lag_bic(panel, LINEAR, [2], SolverConfig(lam=0.1)) == 2

    def test_recovers_short_lag(self):
        panel = self.lagged_panel()
        got = select_lag_bic(panel, LINEAR, [1, 2, 3], SolverConfig(lam=0.1))
        assert got == 1

    def test_candidates_share_target_rows(self):
        # a burst in node b's first rows: scored as targets only by the
        # candidates whose own lag_view starts there, it would push the
        # choice away from the true lag 1
        for seed in range(5):
            panel = self.lagged_panel(seed=seed)
            values = panel.values.copy()
            values[1:3, 1] *= 30.0
            burst = TimeSeriesPanel(values=values, node_labels=("a", "b"), sample_rate_hz=1.0)
            assert select_lag_bic(burst, LINEAR, [1, 2, 3], SolverConfig(lam=0.1)) == 1

    def test_dictionary_scores_every_kernel(self):
        # b follows a(t-2)^2: invisible to a linear kernel, which keeps the
        # shortest lag, and found once the Gaussian kernel is scored too
        rng = np.random.default_rng(0)
        y = np.zeros((120, 2))
        y[:, 0] = rng.normal(size=120)
        y[2:, 1] = y[:-2, 0] ** 2 + 0.1 * rng.normal(size=118)
        panel = TimeSeriesPanel(values=y, node_labels=("a", "b"), sample_rate_hz=1.0)
        cfg = SolverConfig(lam=0.5)
        gauss = KernelSpec(kind="gaussian", bandwidth="median")
        assert select_lag_bic(panel, LINEAR, [1, 2, 3], cfg) == 1
        assert select_lag_bic(panel, [LINEAR, gauss], [1, 2, 3], cfg, seed=3) == 2

    def test_rejects_lag_not_below_sample_count(self):
        panel = self.lagged_panel(t=10)
        with pytest.raises(ConfigError):
            select_lag_bic(panel, LINEAR, [10], SolverConfig(lam=0.1))

    def test_rejects_bad_candidates(self):
        panel = self.lagged_panel()
        cfg = SolverConfig(lam=0.1)
        with pytest.raises(ConfigError):
            select_lag_bic(panel, LINEAR, [], cfg)
        with pytest.raises(ConfigError):
            select_lag_bic(panel, LINEAR, [0], cfg)
        with pytest.raises(ConfigError):
            select_lag_bic(panel, LINEAR, [1.5], cfg)
