"""ADMM group-sparse fit, ridge fit, thresholding, prediction, CV, and BIC."""

import tracemalloc
from dataclasses import replace

import ksvar.solver

import numpy as np
import pytest

from ksvar.errors import (
    ConfigError,
    InsufficientSamples,
    NonFinite,
    ShapeMismatch,
    SingularSystem,
)
from ksvar.kernels import KernelSpec, build_kernel_set, parse_kernel_spec
from ksvar.panel import NoiseModel, TimeSeriesPanel, lag_view, standardize
from ksvar.solver import (
    CoefficientTensor,
    DualState,
    EffectiveNetwork,
    SolverConfig,
    _admm,
    _Anderson,
    _certificate,
    _FactorSystem,
    _fold_rows,
    _lasso_path,
    _ridge_df,
    _StackedFactor,
    _takes_path,
    admm_fit,
    block_shrinkage,
    cross_validate_lambda,
    fit,
    lambda_zero_bound,
    predict,
    ridge_fit,
    select_lag_bic,
    threshold_edges,
)
from ksvar.synth import SynthConfig, generate_truth, simulate

from oracles import (
    admm_column_update,
    assemble,
    column_designs,
    column_relative_gaps,
    contiguous_fold_errors,
    dmat_deleted,
    dsqrt,
    dual_update,
    fista_group_lasso,
    group_lasso_objective,
    heldout_prediction,
    index_set,
    kbar,
    kbar_deleted,
    kernel_set_objective,
    objective_value,
    ridge_reference,
    rkhs_block_norms,
    svd_factor_solve,
    svd_ridge_df,
    total_columns,
    unit_tensor,
    w_stacked,
)

LINEAR = KernelSpec(kind="linear")
POLY21 = KernelSpec(kind="polynomial", degree=2, offset=1.0)
GAUSS1 = KernelSpec(kind="gaussian", bandwidth=1.0)

TIGHT = SolverConfig(lam=0.1, max_iter=20_000, tol_primal=1e-10, tol_dual=1e-10, tol_gap=0.0)


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
        assert cfg.rho is None and cfg.rho_for(0.5) == 5.0 and cfg.rho_for(3.0) == 30.0
        assert cfg.tol_gap == 1e-3
        assert cfg.regularizer == "group_l1"
        assert SolverConfig(lam=0.5, rho=2.0).rho_for(3.0) == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -1.0},
            {"lam": np.nan},
            {"lam": 1.0, "rho": 0.0},
            {"lam": 1.0, "rho": np.inf},
            {"lam": 1.0, "tol_gap": -1e-3},
            {"lam": 1.0, "tol_gap": np.nan},
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
        assert (t.n_kernels, t.lag, t.n_nodes, t.kernels.n_targets) == (2, 2, 4, 5)
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
        c = system.to_public(system.mask_deleted(rng.normal(size=(2, system.total_rank))))
        tensor = CoefficientTensor(coords=c, kernels=kms)
        np.testing.assert_allclose(
            kbar(kms) @ w_stacked(tensor), predict(tensor), atol=1e-10
        )

    @pytest.mark.parametrize("spec", [LINEAR, [LINEAR, GAUSS1]])
    def test_weights_equal_dense_block_norms(self, spec):
        _, view, kms = make_problem(t=30, n=4, seed=5, spec=spec)
        lam = 0.3 * lambda_zero_bound(view.targets, kms)
        tensor, _, _ = admm_fit(view.targets, kms, SolverConfig(lam=lam, max_iter=200))
        weights = threshold_edges(tensor, 0.0).weights
        assert (weights == 0.0).any() and (weights > 0.0).any()
        dense = np.linalg.norm(tensor.coeffs, axis=4).max(axis=0)
        np.testing.assert_array_equal(weights == 0.0, dense == 0.0)
        np.testing.assert_allclose(weights, dense, rtol=1e-12, atol=0.0)

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
        assert diag.iterations == 10  # the first certificate
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
        cfg = replace(TIGHT, lam=lam)
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
        assert diag.converged and diag.iterations < TIGHT.max_iter
        resid = view.targets - predict(tensor)
        assert diag.fidelity == pytest.approx(0.5 * np.sum(resid * resid), abs=1e-9)
        obj, fid, pen = objective_value(view.targets, tensor, TIGHT.lam)
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
        cfg = replace(TIGHT, lam=lam)
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
        assert objective_value(y, tensor, lam)[0] == pytest.approx(
            diag.final_objective, rel=1e-10
        )
        for j in range(n):
            for pos in kms.deleted_positions(j):
                for arr in (tensor.coords, dual.gamma, dual.xi):
                    assert not arr[kms.columns[pos], j].any()
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


class TestCoordinateLayout:
    """coords rows follow the columns of the kernel set's stacked factor."""

    def fit(self):
        _, view, kms = make_problem(t=20, n=3, seed=47, spec=[LINEAR, GAUSS1])
        assert [cols.start for cols in kms.columns] != sorted(c.start for c in kms.columns)
        lam = 0.2 * lambda_zero_bound(view.targets, kms)
        tensor, _, diag = admm_fit(view.targets, kms, replace(TIGHT, lam=lam, max_iter=300))
        return view, kms, tensor, diag, lam

    def test_predict_is_the_stacked_factor_times_coords(self):
        view, kms, tensor, diag, _ = self.fit()
        np.testing.assert_array_equal(predict(tensor), kms.factor @ tensor.coords)
        # the fit's own fidelity, computed in the solver's working layout
        resid = view.targets - predict(tensor)
        assert 0.5 * float(np.sum(resid * resid)) == pytest.approx(diag.fidelity, rel=1e-10)

    def test_block_norms_read_the_block_columns(self):
        _, kms, tensor, diag, lam = self.fit()
        norms = tensor.block_norms()
        for pos, block in enumerate(kms.blocks):
            c = tensor.coords[kms.columns[pos]]
            # the minimum-norm a with B^T a = c, by an SVD of B^T: the
            # Gaussian blocks' B^T B is too ill-conditioned to invert
            want = np.linalg.norm(np.linalg.lstsq(block.factor.T, c, rcond=None)[0], axis=0)
            got = norms[block.kernel_index, block.lag, block.node]
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
        # the penalty the fit certified, from the same rows
        assert lam * float(rkhs_block_norms(tensor).sum()) == pytest.approx(
            diag.penalty, rel=1e-10
        )


    @pytest.mark.parametrize(
        "t,n,seed,binary", [(20, 3, 47, False), (80, 4, 3, False), (30, 3, 5, True)]
    )
    def test_block_norms_match_the_minimum_norm_oracle(self, t, n, seed, binary):
        # every block nonzero, Gaussian blocks whose B^T B squares a large
        # condition number; a two-valued series gives rank-deficient
        # polynomial factors (z^2 is affine in z)
        vals = np.random.default_rng(seed).normal(size=(t, n))
        if binary:
            vals[:, 0] = vals[:, 0] > 0
        labels = tuple(f"n{i}" for i in range(n))
        panel = TimeSeriesPanel(values=vals, node_labels=labels, sample_rate_hz=1.0)
        kms = build_kernel_set(lag_view(panel, 1), [LINEAR, GAUSS1, POLY21])
        system = _StackedFactor(kms)
        rng = np.random.default_rng(seed)
        coords = system.to_public(system.mask_deleted(rng.normal(size=(n, system.total_rank))))
        norms = CoefficientTensor(coords=coords, kernels=kms).block_norms()
        for pos, block in enumerate(kms.blocks):
            a = np.linalg.lstsq(block.factor.T, coords[kms.columns[pos]], rcond=None)[0]
            got = norms[block.kernel_index, block.lag, block.node]
            np.testing.assert_allclose(got, np.linalg.norm(a, axis=0), rtol=1e-10, atol=0.0)

class TestDualityGap:
    """The certificate behind FitDiagnostics.relative_gap."""

    @pytest.mark.parametrize("spec", [LINEAR, [LINEAR, GAUSS1]])
    def test_weak_duality_at_random_points(self, spec):
        rng = np.random.default_rng(40)
        for seed in range(41, 46):
            _, view, kms = make_problem(t=16, n=3, seed=seed, spec=spec)
            lams = lambda_zero_bound(view.targets, kms) * np.array([0.02, 0.3, 0.9, 1.5])
            system = _FactorSystem(kms, lams)  # one row per (lambda, node)
            shape = (lams.size, kms.n_nodes, system.total_rank)
            g = system.mask_deleted(rng.normal(scale=0.3, size=shape).reshape(-1, shape[-1]))
            g = g.reshape(shape)
            # zero about half the blocks, as the shrinkage does
            live = []
            for blocks in system.grouped(g):
                live.append(rng.random(blocks.shape[:-1]) < 0.5)
                blocks *= live[-1][..., None]
            live = np.concatenate(live, axis=-1)
            fidelity, penalty, relative = (
                a.reshape(lams.size, -1)
                for a in _certificate(
                    view.targets, system, g.reshape(-1, shape[-1]), lams[system.column_pens]
                )
            )
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
        cfg = SolverConfig(lam=lam, rho=rho, max_iter=10, tol_gap=0.0)
        _, _, diag = admm_fit(view.targets, kms, cfg)
        specs = spec if isinstance(spec, list) else [spec]
        want, oracle_gap = group_lasso_objective(vals, 1, specs, view.targets, lam)
        excess = diag.final_objective - want
        assert not diag.converged and excess > 1e-6 * want
        # sum_j (P_j - D_j) <= max_j (relative gap_j) * sum_j P_j bounds the excess
        certified = diag.relative_gap * diag.final_objective
        assert -oracle_gap - 1e-9 <= excess <= certified + oracle_gap

    @pytest.mark.parametrize("spec", [LINEAR, [LINEAR, GAUSS1]])
    def test_gap_stop_is_within_its_certified_bound(self, spec):
        # a gap-stopped fit takes no residuals, and the tolerances no fit
        # meets keep the tol_gap=0 fit below running to its cap
        vals, view, kms = make_problem(t=16, n=3, seed=13, spec=spec)
        lam = 0.3 * lambda_zero_bound(view.targets, kms)
        cfg = SolverConfig(lam=lam, max_iter=5000, tol_primal=1e-300, tol_dual=1e-300)
        _, _, diag = admm_fit(view.targets, kms, cfg)
        assert diag.converged and diag.primal_residuals.size == 0
        assert diag.iterations % 10 == 0 and diag.iterations < cfg.max_iter
        # it stops at the first certificate within tol_gap
        assert diag.relative_gap <= cfg.tol_gap < diag.relative_gaps[diag.iterations - 10]
        specs = spec if isinstance(spec, list) else [spec]
        want, oracle_gap = group_lasso_objective(vals, 1, specs, view.targets, lam)
        excess = diag.final_objective - want
        assert -oracle_gap - 1e-9 <= excess <= diag.relative_gap * diag.final_objective + oracle_gap
        # a looser tol_gap stops no later, and tol_gap=0 runs to the cap
        _, _, loose = admm_fit(view.targets, kms, replace(cfg, tol_gap=1e-2))
        assert loose.iterations <= diag.iterations and loose.relative_gap <= 1e-2
        _, _, capped = admm_fit(view.targets, kms, replace(cfg, tol_gap=0.0, max_iter=300))
        assert not capped.converged and capped.iterations == 300

    def test_batched_lambdas_certify_like_separate_runs(self):
        # the last two lambdas converge between checks, the last one first;
        # the first stops at the cap
        _, view, kms = make_problem(t=30, n=3, seed=47)
        grid = lambda_zero_bound(view.targets, kms) * np.array([0.8, 0.5, 0.05])
        cfg = SolverConfig(lam=1.0, rho=5.0, max_iter=45, tol_gap=0.0)
        batched = [diag for _, _, diag in _admm(view.targets, kms, grid, cfg)]
        assert [diag.converged for diag in batched] == [False, True, True]
        assert batched[2].iterations < batched[1].iterations < 45
        assert batched[1].iterations % 10 and batched[2].iterations % 10
        for lam, diag in zip(grid, batched):
            [(_, _, alone)] = _admm(view.targets, kms, [lam], cfg)
            assert diag.iterations == alone.iterations
            assert diag.relative_gaps.keys() == alone.relative_gaps.keys()
            for it, gap in alone.relative_gaps.items():
                assert diag.relative_gaps[it] == pytest.approx(gap, rel=1e-9, abs=1e-12)
            assert diag.final_objective == pytest.approx(alone.final_objective, rel=1e-12)


class TestColumnStopping:
    """Each (lambda, node) column of a batched fit is its own group lasso and
    leaves the batch at its own first certificate within ``tol_gap``."""

    # certificates come every 10 iterations
    CFG = SolverConfig(lam=1.0, max_iter=3000, tol_gap=1e-6)

    # rho=None shrinks every lambda at kappa = 0.1; a fixed rho gives each
    # lambda its own kappa = lambda / rho
    @pytest.mark.parametrize(
        "spec,seed,rho",
        [
            pytest.param(LINEAR, 40, None, id="spec0-40"),
            pytest.param(POLY21, 42, None, id="spec1-42"),
            pytest.param(LINEAR, 40, 2.0, id="spec0-40-rho2"),
            pytest.param(POLY21, 42, 2.0, id="spec1-42-rho2"),
        ],
    )
    def test_columns_stop_at_their_first_certificate(self, spec, seed, rho):
        _, view, kms = make_problem(t=24, n=4, seed=seed, spec=spec)
        grid = lambda_zero_bound(view.targets, kms) * np.array([0.6, 0.3, 0.1])
        cfg = replace(self.CFG, rho=rho)
        fits = _admm(view.targets, kms, grid, cfg)
        checks = range(10, max(diag.iterations for _, _, diag in fits) + 1, 10)
        capped = {t: _admm(view.targets, kms, grid, replace(cfg, max_iter=t)) for t in checks}
        spread = False
        for k, (lam, (gamma, _, diag)) in enumerate(zip(grid, fits)):
            tensor = CoefficientTensor(coords=gamma, kernels=kms)
            gaps = column_relative_gaps(view.targets, tensor, lam)
            assert diag.converged and (gaps <= self.CFG.tol_gap).all()
            assert diag.relative_gap == pytest.approx(gaps.max(), rel=1e-6)
            assert objective_value(view.targets, tensor, lam)[0] == pytest.approx(
                diag.final_objective, rel=1e-10
            )
            capped_gaps = {
                t: column_relative_gaps(
                    view.targets, CoefficientTensor(coords=runs[k][0], kernels=kms), lam
                )
                for t, runs in capped.items()
            }
            stops = []
            for j in range(kms.n_nodes):
                # the column as a fit capped at its stop would return it
                t = next(t for t in checks if capped_gaps[t][j] <= self.CFG.tol_gap)
                np.testing.assert_allclose(gamma[:, j], capped[t][k][0][:, j], rtol=0, atol=1e-10)
                stops.append(t)
            assert diag.iterations == max(stops)
            assert diag.column_iterations == sum(stops)
            spread |= len(set(stops)) > 1
        assert spread

    def test_residual_tolerances_do_not_ask_for_a_certificate(self):
        # residual tolerances this loose pass long before the gap does; a
        # gap-stopped fit takes no residuals, so they cannot ask for a check
        _, view, kms = make_problem(t=24, n=4, seed=40)
        lam = 0.3 * lambda_zero_bound(view.targets, kms)
        cfg = SolverConfig(lam=lam, max_iter=3000, tol_primal=0.1, tol_dual=0.1, tol_gap=1e-6)
        _, _, diag = admm_fit(view.targets, kms, cfg)
        assert diag.converged and diag.relative_gap <= cfg.tol_gap
        assert diag.iterations >= 20 and diag.primal_residuals.size == 0
        assert all(it % 10 == 0 or it == diag.iterations for it in diag.relative_gaps)
        assert all(gap > cfg.tol_gap for it, gap in diag.relative_gaps.items() if it < diag.iterations)

    def test_residual_rule_stops_a_fit_without_a_gap_tolerance(self):
        _, view, kms = make_problem(t=24, n=4, seed=40)
        lam = 0.3 * lambda_zero_bound(view.targets, kms)
        cfg = SolverConfig(lam=lam, max_iter=3000, tol_primal=0.1, tol_dual=0.1, tol_gap=0.0)
        _, _, diag = admm_fit(view.targets, kms, cfg)
        assert diag.converged and diag.iterations < cfg.max_iter
        assert diag.primal_residuals.size == diag.dual_residuals.size == diag.iterations
        assert diag.iterations in diag.relative_gaps and diag.iterations % 10
        p, d = diag.primal_residuals[-1], diag.dual_residuals[-1]
        # tolerances scale with the square root of the columns' kept dimension
        scale = np.sqrt(4 * (kms.factor.shape[1] - 1))
        assert p <= 0.1 * scale and d <= 0.1 * scale

    @pytest.mark.parametrize("seed", [40, 47])
    def test_residual_rule_stops_each_lambda_like_a_separate_fit(self, seed):
        # the lambdas pass their residual tests at three different iterations,
        # none on the certificate schedule; each lambda's residuals are its own
        _, view, kms = make_problem(t=24, n=4, seed=seed)
        grid = lambda_zero_bound(view.targets, kms) * np.array([0.6, 0.3, 0.1])
        cfg = SolverConfig(lam=1.0, max_iter=3000, tol_primal=1e-4, tol_dual=1e-4, tol_gap=0.0)
        fits = _admm(view.targets, kms, grid, cfg)
        assert len({diag.iterations for _, _, diag in fits}) == 3
        for lam, (gamma, xi, diag) in zip(grid, fits):
            [(gamma_alone, xi_alone, alone)] = _admm(view.targets, kms, [lam], cfg)
            assert diag.converged and diag.iterations == alone.iterations
            assert diag.iterations % 10 and diag.column_iterations == 4 * diag.iterations
            pairs = [
                (diag.primal_residuals, alone.primal_residuals),
                (diag.dual_residuals, alone.dual_residuals),
                (gamma, gamma_alone),
                (xi, xi_alone),
            ]
            for got, want in pairs:
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)

    def test_each_lambda_reports_its_own_gaps(self):
        # in a gap-stopped grid, a lambda's gap at a check is the worst over
        # its own columns, as in a fit of that lambda alone
        _, view, kms = make_problem(t=24, n=4, seed=40)
        grid = lambda_zero_bound(view.targets, kms) * np.array([0.6, 0.3, 0.1])
        fits = _admm(view.targets, kms, grid, self.CFG)
        for lam, (_, _, diag) in zip(grid, fits):
            [(_, _, alone)] = _admm(view.targets, kms, [lam], self.CFG)
            assert diag.relative_gaps.keys() == alone.relative_gaps.keys()
            for it, gap in alone.relative_gaps.items():
                assert diag.relative_gaps[it] == pytest.approx(gap, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("tol_gap", [1e-3, 0.0])
    def test_divergence_raises(self, monkeypatch, tol_gap):
        solve, calls = _FactorSystem.solve, []

        def blows_up(self, q):
            calls.append(None)
            return np.full_like(q, np.inf) if len(calls) >= 3 else solve(self, q)

        monkeypatch.setattr(_FactorSystem, "solve", blows_up)
        _, view, kms = make_problem(t=24, n=4, seed=40)
        cfg = SolverConfig(lam=0.3 * lambda_zero_bound(view.targets, kms), tol_gap=tol_gap)
        # a gap-stopped fit finds it at its first certificate, a residual-stopped one at once
        at = 10 if tol_gap else 3
        with pytest.raises(NonFinite, match=f"diverged at iteration {at}$"):
            admm_fit(view.targets, kms, cfg)


class TestAnderson:
    """Anderson-accelerated ADMM, forced onto small problems by lowering
    ``_ANDERSON_WORK`` (the N R S per lambda from which it runs)."""

    @staticmethod
    def force(monkeypatch, work=0):
        monkeypatch.setattr(ksvar.solver, "_ANDERSON_WORK", work)

    @pytest.mark.parametrize(
        "spec,n,frac",
        [(LINEAR, 3, 0.3), (POLY21, 3, 0.4), ([LINEAR, GAUSS1], 2, 0.3)],
    )
    def test_reaches_the_certified_optimum(self, monkeypatch, spec, n, frac):
        # rank-1, rank-3 and linear+Gaussian blocks
        vals, view, kms = make_problem(t=16, n=n, seed=13, spec=spec)
        lam = frac * lambda_zero_bound(view.targets, kms)
        self.force(monkeypatch)
        tensor, _, diag = admm_fit(view.targets, kms, replace(TIGHT, lam=lam))
        assert diag.accelerated and diag.converged
        specs = spec if isinstance(spec, list) else [spec]
        want, gap = group_lasso_objective(vals, 1, specs, view.targets, lam)
        assert abs(diag.final_objective - want) <= gap + 1e-8 * (1.0 + abs(want))
        assert objective_value(view.targets, tensor, lam)[0] == pytest.approx(
            diag.final_objective, rel=1e-10
        )
        for j in range(kms.n_nodes):
            for pos in kms.deleted_positions(j):
                assert not tensor.coords[kms.columns[pos], j].any()

    def test_rule_reads_the_product_work(self, monkeypatch):
        _, view, kms = make_problem(t=16, n=3, seed=13, spec=[LINEAR, GAUSS1])
        system = _FactorSystem(kms, [1.0])
        work = kms.n_nodes * system.total_rank * system.vt.shape[0]
        cfg = SolverConfig(lam=0.3 * lambda_zero_bound(view.targets, kms), max_iter=20)
        for threshold, want in ((work, True), (work + 1, False)):
            self.force(monkeypatch, threshold)
            assert admm_fit(view.targets, kms, cfg)[2].accelerated is want

    @pytest.mark.parametrize("spec", [LINEAR, [LINEAR, GAUSS1]])
    def test_below_the_threshold_runs_the_plain_loop(self, monkeypatch, spec):
        _, view, kms = make_problem(t=20, n=3, seed=16, spec=spec)
        cfg = SolverConfig(lam=0.2 * lambda_zero_bound(view.targets, kms), max_iter=200)
        default = admm_fit(view.targets, kms, cfg)
        self.force(monkeypatch, np.inf)
        plain = admm_fit(view.targets, kms, cfg)
        self.force(monkeypatch)
        forced = admm_fit(view.targets, kms, cfg)
        assert not default[2].accelerated and forced[2].accelerated
        assert not np.array_equal(forced[0].coords, plain[0].coords)
        (tensor, dual, diag), (want_tensor, want_dual, want_diag) = default, plain
        assert np.array_equal(tensor.coords, want_tensor.coords)
        assert np.array_equal(dual.xi, want_dual.xi)
        assert np.array_equal(diag.primal_residuals, want_diag.primal_residuals)
        assert np.array_equal(diag.dual_residuals, want_diag.dual_residuals)
        assert diag.relative_gaps == want_diag.relative_gaps
        assert (diag.iterations, diag.final_objective, diag.fidelity, diag.penalty) == (
            want_diag.iterations,
            want_diag.final_objective,
            want_diag.fidelity,
            want_diag.penalty,
        )

    def test_non_finite_extrapolation_takes_the_plain_step(self, monkeypatch):
        injected = []

        class Poisoned(_Anderson):
            # a NaN map difference makes column 1's mixed point NaN
            def push(self, tv):
                super().push(tv)
                if self.pushes in (3, 7, 12):
                    self.dg[1, 0, 0] = np.nan
                    injected.append(self.pushes)

        vals, view, kms = make_problem(t=16, n=3, seed=13, spec=[LINEAR, GAUSS1])
        lam = 0.3 * lambda_zero_bound(view.targets, kms)
        self.force(monkeypatch)
        monkeypatch.setattr(ksvar.solver, "_Anderson", Poisoned)
        tensor, _, diag = admm_fit(view.targets, kms, replace(TIGHT, lam=lam))
        assert injected == [3, 7, 12]
        assert diag.accelerated and diag.converged
        assert np.isfinite(tensor.coords).all()
        want, gap = group_lasso_objective(vals, 1, [LINEAR, GAUSS1], view.targets, lam)
        assert abs(diag.final_objective - want) <= gap + 1e-8 * (1.0 + abs(want))

    def test_growing_residual_clears_the_column(self):
        mixer = _Anderson((2, 3))
        mixer.push(np.ones((2, 3)))
        np.testing.assert_array_equal(mixer.extrapolate(), np.ones((2, 3)))
        # column 0's residual grows threefold, column 1's halves
        tv = np.ones((2, 3))
        tv[0] += 3.0
        tv[1] += 0.5
        mixer.push(tv)
        assert not mixer.filled[0].any()
        assert mixer.filled[1].sum() == 1
        point = mixer.extrapolate()
        np.testing.assert_array_equal(point[0], tv[0])
        assert np.isfinite(point).all()


def _record_factor_dtypes(monkeypatch) -> list:
    """Let every ``_FactorSystem.solve`` record the dtypes of V^T and of the
    Schur factors it runs on; returns the list they are appended to."""
    seen, solve = [], _FactorSystem.solve

    def recording(self, q):
        seen.append({self.vt.dtype, self.left.dtype, self.right.dtype})
        return solve(self, q)

    monkeypatch.setattr(_FactorSystem, "solve", recording)
    return seen


@pytest.fixture(scope="module")
def mkl_long_problem():
    """The benchmark's long dictionary window: 38 standardized sigmoid-coupled
    nodes, T' = 349, linear + median-bandwidth Gaussian blocks (R about 1,500)."""
    cfg = SynthConfig(
        n_nodes=38, n_samples=350, lag=1, edge_density=0.05, coupling="sigmoid",
        noise=NoiseModel(variance=1.0), seed=0, sample_rate_hz=50.0,
    )
    view = lag_view(standardize(simulate(generate_truth(cfg), cfg)), 1)
    return view, build_kernel_set(view, [LINEAR, parse_kernel_spec("gaussian:sigma=median")])


class TestSinglePrecision:
    """Above the Anderson gate the x-update's products run in float32, with
    float64 certificates and a float64 finish when the gap stalls."""

    @pytest.mark.parametrize(
        "spec,n,frac",
        [(LINEAR, 3, 0.3), (POLY21, 3, 0.4), (GAUSS1, 3, 0.2), ([LINEAR, GAUSS1], 2, 0.3)],
    )
    @pytest.mark.parametrize("tol_gap", [1e-3, ksvar.solver._SINGLE_MIN_GAP])
    def test_forced_single_reaches_the_fista_optimum(self, monkeypatch, spec, n, frac, tol_gap):
        # rank-1, rank-3 and Gaussian blocks
        vals, view, kms = make_problem(t=16, n=n, seed=13, spec=spec)
        lam = frac * lambda_zero_bound(view.targets, kms)
        monkeypatch.setattr(ksvar.solver, "_ANDERSON_WORK", 0)
        seen = _record_factor_dtypes(monkeypatch)
        cfg = SolverConfig(lam=lam, max_iter=5000, tol_gap=tol_gap)
        tensor, _, diag = admm_fit(view.targets, kms, cfg)
        assert diag.accelerated and diag.converged and diag.relative_gap <= tol_gap
        assert 0 < diag.single_iterations <= diag.iterations
        singles = sum(s == {np.dtype(np.float32)} for s in seen)
        assert singles == diag.single_iterations
        assert all(s == {np.dtype(float)} for s in seen[singles:])
        specs = spec if isinstance(spec, list) else [spec]
        want, gap = group_lasso_objective(vals, 1, specs, view.targets, lam)
        slack = tol_gap * diag.final_objective + 1e-12 * abs(want)
        assert want - gap <= diag.final_objective <= want + slack
        gaps = column_relative_gaps(view.targets, tensor, lam)
        assert gaps.max() == pytest.approx(diag.relative_gap, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("tol_gap", [1e-6, 1e-9])
    def test_tight_tolerances_certify_on_the_long_dictionary_window(
        self, mkl_long_problem, tol_gap
    ):
        # float32 products stall at gaps of about 5e-5 here, so these
        # tolerances run in float64 from the start
        view, kms = mkl_long_problem
        cfg = SolverConfig(lam=10.0, max_iter=200, tol_gap=tol_gap)
        tensor, _, diag = admm_fit(view.targets, kms, cfg)
        assert diag.accelerated and diag.converged and diag.relative_gap <= tol_gap
        assert diag.single_iterations == 0
        _, _, rel = _certificate(view.targets, _StackedFactor(kms), tensor.coords.T, cfg.lam)
        assert rel.max() <= tol_gap

    def test_small_lambda_finishes_in_float64(self, mkl_long_problem):
        # at 0.007 lambda_zero_bound float32 products stall the gap at about
        # 3e-3, above the pipeline's tolerance: only the float64 finish certifies
        view, kms = mkl_long_problem
        lam = 0.007 * lambda_zero_bound(view.targets, kms)
        tensor, _, diag = admm_fit(view.targets, kms, SolverConfig(lam=lam, max_iter=200))
        assert diag.accelerated and diag.converged and diag.relative_gap <= 1e-3
        assert 0 < diag.single_iterations < diag.iterations
        _, _, rel = _certificate(view.targets, _StackedFactor(kms), tensor.coords.T, lam)
        assert rel.max() <= 1e-3

    def test_float32_batch_matches_separate_fits(self, mkl_long_problem):
        # one lambda stalls and finishes in float64, the other runs float32 to
        # the end; each gives the bits of its separate fit
        view, kms = mkl_long_problem
        lams = [0.007 * lambda_zero_bound(view.targets, kms), 10.0]
        cfg = SolverConfig(lam=1.0, max_iter=200)
        batch = _admm(view.targets, kms, lams, cfg)
        stalled, plain = (diag for _, _, diag in batch)
        assert stalled.single_iterations < stalled.iterations
        assert plain.single_iterations == plain.iterations == 30
        for lam, (coords, xi, diag) in zip(lams, batch):
            [(want_coords, want_xi, want)] = _admm(view.targets, kms, [lam], cfg)
            np.testing.assert_array_equal(coords, want_coords)
            np.testing.assert_array_equal(xi, want_xi)
            assert diag.relative_gaps == want.relative_gaps
            assert diag.single_iterations == want.single_iterations

    def test_tolerance_below_the_floor_runs_float64(self, monkeypatch):
        # below _SINGLE_MIN_GAP, and with residual stopping (tol_gap 0), an
        # accelerated fit runs float64 throughout
        _, view, kms = make_problem(t=16, n=3, seed=13, spec=[LINEAR, GAUSS1])
        lam = 0.3 * lambda_zero_bound(view.targets, kms)
        monkeypatch.setattr(ksvar.solver, "_ANDERSON_WORK", 0)
        seen = _record_factor_dtypes(monkeypatch)
        for tol_gap in [0.5 * ksvar.solver._SINGLE_MIN_GAP, 0.0]:
            cfg = SolverConfig(lam=lam, max_iter=5000, tol_gap=tol_gap)
            _, _, diag = admm_fit(view.targets, kms, cfg)
            assert diag.accelerated and diag.converged and diag.single_iterations == 0
        # the residual-stopped fit stops between two scheduled checks
        assert diag.iterations % ksvar.solver._GAP_EVERY != 0
        assert seen and all(s == {np.dtype(float)} for s in seen)

    def test_loose_tolerance_runs_single_to_the_end(self, mkl_long_problem):
        # the benchmark's tolerance: every iteration on float32 products
        view, kms = mkl_long_problem
        _, _, diag = admm_fit(view.targets, kms, SolverConfig(lam=10.0, max_iter=100))
        assert diag.accelerated and diag.converged
        assert diag.single_iterations == diag.iterations == 30

    @pytest.mark.parametrize("spec", [LINEAR, POLY21, [LINEAR, GAUSS1]])
    def test_below_the_gate_runs_float64(self, monkeypatch, spec):
        _, view, kms = make_problem(t=20, n=3, seed=16, spec=spec)
        seen = _record_factor_dtypes(monkeypatch)
        cfg = SolverConfig(lam=0.2 * lambda_zero_bound(view.targets, kms), max_iter=200)
        _, _, diag = admm_fit(view.targets, kms, cfg)
        assert not diag.accelerated and diag.single_iterations == 0
        assert seen and all(s == {np.dtype(float)} for s in seen)
        ridge = fit(view.targets, kms, replace(cfg, regularizer="squared"))[1]
        assert ridge.solver == "ridge" and ridge.single_iterations == 0

    def test_path_fits_run_no_single_iterations(self):
        _, view, kms = make_problem(t=13, n=20)
        _, diag = fit(view.targets, kms, SolverConfig(lam=0.1))
        assert diag.solver == "path" and diag.single_iterations == 0


class TestLassoPath:
    """``fit`` on wide rank-1 kernel sets: the exact lasso path, certified."""

    @staticmethod
    def kernel_set(vals, lag=1):
        labels = tuple(f"n{i}" for i in range(vals.shape[1]))
        view = lag_view(TimeSeriesPanel(values=vals, node_labels=labels, sample_rate_hz=1.0), lag)
        return view, build_kernel_set(view, LINEAR)

    def check_certified(self, view, kms, cfg):
        tensor, diag = fit(view.targets, kms, cfg)
        assert diag.solver == "path" and np.isfinite(tensor.coords).all()
        gaps = column_relative_gaps(view.targets, tensor, cfg.lam)
        assert diag.relative_gap == pytest.approx(gaps.max(), rel=1e-6, abs=1e-12)
        assert diag.converged == (gaps <= cfg.tol_gap).all()
        return tensor, diag, gaps

    # the second and third reach T' active coefficients
    @pytest.mark.parametrize("t,n,seed,frac", [(8, 10, 4, 0.2), (5, 6, 0, 0.05), (8, 10, 5, 0.05)])
    def test_matches_the_fista_oracle(self, t, n, seed, frac):
        view, kms = self.kernel_set(np.random.default_rng(seed).normal(size=(t + 1, n)))
        lam = frac * lambda_zero_bound(view.targets, kms)
        tensor, diag, gaps = self.check_certified(view, kms, SolverConfig(lam=lam))
        assert diag.converged and gaps.max() <= 1e-10
        assert diag.rho is None and diag.records() == []
        active = (tensor.coords != 0).sum(axis=0)
        assert active.max() == t or frac > 0.1
        system = _StackedFactor(kms)
        for j in range(n):
            kept = np.setdiff1d(np.arange(system.total_rank), system.deleted[j])
            mats = [kms.factor[:, [k]] for k in kept]
            ref, ref_obj, _ = fista_group_lasso(view.targets[:, j], mats, lam)
            c = tensor.coords[kept, j]
            r = view.targets[:, j] - kms.factor[:, kept] @ c
            assert 0.5 * r @ r + lam * np.abs(c).sum() == pytest.approx(ref_obj, rel=1e-8)
            np.testing.assert_allclose(c, ref, rtol=0, atol=1e-6)
        assert diag.column_iterations >= active.sum() and diag.iterations >= active.max()

    def test_tied_coefficients_enter_together(self):
        # node 0 follows the sum of nodes 1 and 2, whose orthogonal +-1 series
        # tie exactly at lambda_max: both must enter there, not one of them
        rng = np.random.default_rng(7)
        vals = 0.1 * rng.normal(size=(9, 10))
        vals[1:, 1] = [1, -1, 1, -1, 1, -1, 1, -1]
        vals[1:, 2] = [1, 1, -1, -1, 1, 1, -1, -1]
        vals[1:, 0] = vals[1:, 1] + vals[1:, 2]
        view, kms = self.kernel_set(vals)
        system = _StackedFactor(kms)
        corr = np.abs(system.project(view.targets)[0])
        assert corr[1] == corr[2] == corr.max()
        for frac in (0.9, 0.5, 0.1):
            tensor, diag, gaps = self.check_certified(view, kms, SolverConfig(lam=frac * corr[1]))
            assert diag.converged and gaps.max() <= 1e-10
            assert tensor.coords[1, 0] == pytest.approx(tensor.coords[2, 0], rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_repeated_node_certifies_or_says_it_did_not(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(13, 14))
        vals[:, 2] = vals[:, 0]
        view, kms = self.kernel_set(vals)
        for frac in (0.3, 0.03, 1e-3):
            lam = frac * lambda_zero_bound(view.targets, kms)
            self.check_certified(view, kms, SolverConfig(lam=lam, tol_gap=1e-10))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_dropped_coefficient_may_return_with_the_other_sign(self, seed):
        # a tall panel, outside the dispatch rule, drops coefficients often;
        # one that drops can reach -lambda within the next step
        view, kms = self.kernel_set(np.random.default_rng(seed).normal(size=(13, 5)))
        for frac in (0.01, 0.001):
            lam = frac * lambda_zero_bound(view.targets, kms)
            coords, diag = _lasso_path(view.targets, kms, SolverConfig(lam=lam))
            gaps = column_relative_gaps(view.targets, CoefficientTensor(coords, kms), lam)
            assert diag.converged and gaps.max() <= 1e-10

    def test_one_step_reports_non_convergence(self):
        view, kms = self.kernel_set(np.random.default_rng(3).normal(size=(13, 14)))
        lam = 0.1 * lambda_zero_bound(view.targets, kms)
        _, diag, gaps = self.check_certified(view, kms, SolverConfig(lam=lam, max_iter=1))
        assert not diag.converged and diag.iterations == 1 and gaps.max() > 1e-2
        assert diag.column_iterations == kms.n_nodes

    def test_dispatch_rule(self):
        # rank-1 blocks, T' <= 24 and 2 T' < R <= 600, and a gap to stop on
        cfg = SolverConfig(lam=0.1)
        for t, n, lag, spec, want in [
            (24, 25, 1, LINEAR, True),
            (24, 24, 1, LINEAR, False),  # R = 2 T'
            (24, 300, 1, LINEAR, True),
            (24, 301, 1, LINEAR, False),  # R = 602
            (25, 76, 1, LINEAR, False),
            (12, 20, 2, LINEAR, True),
            (12, 20, 1, POLY21, False),  # rank 3
            (12, 20, 1, [LINEAR, GAUSS1], False),
        ]:
            _, view, kms = make_problem(t=t + lag, n=n, lag=lag, spec=spec)
            assert _takes_path(kms, cfg) is want, (t, n, lag)
        _, view, kms = make_problem(t=13, n=20)
        assert _takes_path(kms, cfg)
        assert not _takes_path(kms, SolverConfig(lam=0.1, tol_gap=0.0))
        assert fit(view.targets, kms, SolverConfig(lam=0.1, tol_gap=0.0))[1].solver == "admm"

    def test_largest_dispatched_shape_certifies(self):
        # T' = 24 and R = 600, the corner of the rule
        rng = np.random.default_rng(11)
        view, kms = self.kernel_set(rng.normal(size=(25, 300)))
        cfg = SolverConfig(lam=0.1, max_iter=300)
        assert _takes_path(kms, cfg)
        tensor, diag = fit(view.targets, kms, cfg)
        assert diag.solver == "path" and diag.converged and diag.relative_gap <= 1e-10
        assert (tensor.coords != 0).sum(axis=0).max() <= 24


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
        np.testing.assert_allclose(predict(tensor), fitted, atol=1e-8)
        resid = view.targets - predict(tensor)
        penalty = lam * float((rkhs_block_norms(tensor) ** 2).sum())
        got_obj = 0.5 * float(np.sum(resid * resid)) + penalty
        assert got_obj == pytest.approx(obj, rel=1e-8)

    def test_solution_is_stationary(self):
        # gradient in factor coordinates: F^T (F c - y) + 2 lam c = 0
        _, view, kms = make_problem(t=15, n=3, seed=23)
        lam = 0.2
        tensor = ridge_fit(view.targets, kms, SolverConfig(lam=lam, regularizer="squared"))
        fitted = predict(tensor)
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
        np.testing.assert_allclose(predict(tensor), fitted, atol=1e-8)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_admm_self_blocks_exactly_zero(self, case):
        _, view, kms = make_problem(**self.CASES[case])
        lam = 0.2 * lambda_zero_bound(view.targets, kms)
        tensor, _, _ = admm_fit(view.targets, kms, SolverConfig(lam=lam, max_iter=200))
        n = kms.n_nodes
        diag_blocks = tensor.coeffs[:, 0, np.arange(n), np.arange(n), :]
        assert np.array_equal(diag_blocks, np.zeros_like(diag_blocks))
        assert tensor.block_norms().max() > 0.0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_penalty_axis_solves_each_penalty(self, case):
        # one system, three penalties: each slice is its scale times its own solve
        _, _, kms = make_problem(**self.CASES[case])
        penalties, scales = [0.5, 3.0, 40.0], [1.6 * 0.5, 1.0, 2.0]
        system = _FactorSystem(kms, penalties, scale=scales)
        rng = np.random.default_rng(2)
        shape = (3, kms.n_nodes, system.total_rank)
        q = system.mask_deleted(rng.normal(size=shape).reshape(-1, shape[-1])).reshape(shape)
        x = system.solve(q.reshape(-1, shape[-1])).reshape(shape)
        for k, penalty in enumerate(penalties):
            for j in range(kms.n_nodes):
                kept = np.setdiff1d(np.arange(system.total_rank), system.deleted[j])
                a = system.F[:, kept]
                want = np.zeros(system.total_rank)
                want[kept] = np.linalg.solve(
                    a.T @ a + penalty * np.eye(kept.size), q[k, j, kept]
                )
                np.testing.assert_allclose(x[k, j], scales[k] * want, rtol=1e-9, atol=1e-10)
        # penalty 2 at the first and last nodes, then penalty 0 at node 1:
        # rows that mix penalties and skip nodes
        pens, nodes = np.array([2, 2, 0]), np.array([0, kms.n_nodes - 1, 1])
        system.keep(pens * kms.n_nodes + nodes)
        np.testing.assert_allclose(
            system.solve(q[pens, nodes]), x[pens, nodes], rtol=1e-12, atol=1e-13
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_eigensolve_matches_svd_reference(self, case):
        # s and V come from the smaller Gram of F: F F^T for the "above"
        # cases (R > T'), F^T F for the "below" ones
        _, _, kms = make_problem(**self.CASES[case])
        penalties = [0.05, 2.0]
        system = _FactorSystem(kms, penalties)
        rng = np.random.default_rng(3)
        shape = (2, kms.n_nodes, system.total_rank)
        q = system.mask_deleted(rng.normal(size=shape).reshape(-1, shape[-1])).reshape(shape)
        x = system.solve(q.reshape(-1, shape[-1])).reshape(shape)
        for k, penalty in enumerate(penalties):
            want = svd_factor_solve(system.F, system.deleted, penalty, q[k])
            np.testing.assert_allclose(x[k], want, rtol=1e-9, atol=1e-10)

    def rank_deficient_problem(self):
        # node 2 repeats node 0, so F has two equal columns at each lag
        vals = np.random.default_rng(43).normal(size=(30, 3))
        vals[:, 2] = vals[:, 0]
        panel = TimeSeriesPanel(values=vals, node_labels=("a", "b", "c"), sample_rate_hz=1.0)
        view = lag_view(panel, 1)
        return view, build_kernel_set(view, LINEAR)

    @pytest.mark.parametrize("case", ["mixed_above", "linear_above", "rank_deficient"])
    def test_zero_penalty_above_full_rank_is_singular(self, case):
        # R > T', or R = 6 <= T' = 29 at rank 4: no least-squares fit is unique
        if case == "rank_deficient":
            _, kms = self.rank_deficient_problem()
        else:
            _, _, kms = make_problem(**self.CASES[case])
        with pytest.raises(SingularSystem):
            _FactorSystem(kms, 0.0)
        with pytest.raises(SingularSystem):
            _FactorSystem(kms, [1.0, 0.0])

    @pytest.mark.parametrize("case", sorted(CASES) + ["rank_deficient"])
    @pytest.mark.parametrize("penalty", [1e-3, 0.4, 30.0])
    def test_ridge_df_matches_svd_reference(self, case, penalty):
        if case == "rank_deficient":
            _, kms = self.rank_deficient_problem()
        else:
            _, _, kms = make_problem(**self.CASES[case])
        system = _StackedFactor(kms)
        for deleted in system.deleted:
            kept = np.delete(system.F, deleted, axis=1)
            got = _ridge_df(kept, penalty)
            assert got == pytest.approx(svd_ridge_df(kept, penalty), rel=0, abs=1e-9)
            assert 0.0 < got <= min(kept.shape)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_admm_follows_the_relaxed_recursion(self, case):
        # x = (A_j^T A_j + rho I)^{-1} (A_j^T y_j + rho (z_j - u_j)) on each
        # column's kept blocks, x_hat = alpha x + (1 - alpha) z with
        # alpha = 1.6, z = shrink(x_hat + u, lam / rho), u = u + x_hat - z
        _, view, kms = make_problem(**self.CASES[case])
        lam = 0.2 * lambda_zero_bound(view.targets, kms)
        cfg = SolverConfig(lam=lam, max_iter=7, tol_gap=0.0)
        tensor, dual, diag = admm_fit(view.targets, kms, cfg)
        rho = 10.0 * lam
        assert diag.rho == rho and diag.iterations == 7
        f = kms.factor
        cols = np.arange(f.shape[1])
        z = np.zeros((f.shape[1], kms.n_nodes))
        u = np.zeros_like(z)
        for _ in range(7):
            x = np.zeros_like(z)
            for j in range(kms.n_nodes):
                deleted = set(kms.deleted_positions(j))
                kept = np.concatenate(
                    [cols[kms.columns[p]] for p in range(len(kms.blocks)) if p not in deleted]
                )
                a = f[:, kept]
                rhs = a.T @ view.targets[:, j] + rho * (z[kept, j] - u[kept, j])
                x[kept, j] = np.linalg.solve(a.T @ a + rho * np.eye(kept.size), rhs)
            v = 1.6 * x + (1.0 - 1.6) * z + u
            z = np.zeros_like(v)
            for rows in kms.columns:
                for j in range(kms.n_nodes):
                    z[rows, j] = block_shrinkage(v[rows, j], lam / rho)
            u = v - z
        np.testing.assert_allclose(tensor.coords, z, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(dual.xi, rho * u, rtol=1e-8, atol=1e-9)

    def test_zero_lambda_ridge(self):
        # R <= T': plain least squares on each column's kept factors
        _, view, kms = make_problem(**self.CASES["linear_below"])
        cfg = SolverConfig(lam=0.0, regularizer="squared")
        fitted = predict(ridge_fit(view.targets, kms, cfg))
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
            predict(tensor), predict(tensor, view=view), atol=1e-9
        )

    def test_new_view_prediction_shape(self):
        vals, view, kms = make_problem(t=16, n=2, seed=28)
        tensor, _, _ = admm_fit(view.targets, kms, SolverConfig(lam=0.1))
        rng = np.random.default_rng(29)
        newvals = rng.normal(size=(7, 2))
        panel = TimeSeriesPanel(values=newvals, node_labels=("n0", "n1"), sample_rate_hz=1.0)
        out = predict(tensor, view=lag_view(panel, 1))
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
            predict(tensor, view=new), heldout_prediction(tensor, kms, new), rtol=0.0, atol=1e-9
        )

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
            predict(tensor, view=lag_view(panel, 1))


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
        """Fold errors of one separate fit per (fold, lambda) on the fold's
        training rows of ``kms``, its held-out rows predicted by ``predict``
        on their rows of ``kms``, with each group-sparse fit's (tensor,
        diagnostics)."""
        y = lag_view(panel, kms.lag).targets
        errors = np.zeros((len(grid), folds))
        records = {}
        for f, (train, test) in enumerate(_fold_rows(panel.n_samples, kms.lag, folds)):
            kms_train, kms_test = kms.take_rows(train), kms.take_rows(test)
            for gi, lam in enumerate(grid):
                fit_cfg = replace(cfg, lam=lam)
                if cfg.regularizer == "squared":
                    tensor = ridge_fit(y[train], kms_train, fit_cfg)
                else:
                    tensor, _, diag = admm_fit(y[train], kms_train, fit_cfg)
                    records[gi, f] = tensor, diag
                err = y[test] - predict(replace(tensor, kernels=kms_test))
                errors[gi, f] = np.mean(err * err)
        return errors, records

    @pytest.mark.parametrize("t", [8, 23, 60])
    @pytest.mark.parametrize("lag", [1, 2, 3])
    @pytest.mark.parametrize("folds", [2, 3, 5])
    def test_fold_rows_match_their_definition(self, t, lag, folds):
        # row k of a lag-L kernel set is panel row k + L; a fold holds out
        # its block's rows and trains on the rows whose history t-L..t
        # misses the block
        want = []
        for chunk in np.array_split(np.arange(t), folds):
            block = set(chunk.tolist())
            test = [r - lag for r in chunk.tolist() if r >= lag]
            train = [
                r - lag for r in range(lag, t) if block.isdisjoint(range(r - lag, r + 1))
            ]
            want.append((train, test))
        if any(not train or not test for train, test in want):
            with pytest.raises(InsufficientSamples):
                _fold_rows(t, lag, folds)
            return
        got = _fold_rows(t, lag, folds)
        assert [(a.tolist(), b.tolist()) for a, b in got] == want

    @pytest.mark.parametrize("regularizer", ["group_l1", "squared"])
    def test_linear_folds_match_contiguous_views(self, regularizer):
        # with a linear kernel the rows of the full set are exactly what
        # per-fold kernel sets over the stacked training runs were, and
        # F[test] c is the cross-Gram prediction
        panel = self.make_var_panel()
        kms = build_kernel_set(lag_view(panel, 2), LINEAR)
        bound = lambda_zero_bound(lag_view(panel, 2).targets, kms)
        grid = [0.02 * bound, 0.1 * bound, 0.4 * bound]
        cfg = SolverConfig(lam=1.0, rho=30.0, max_iter=120, regularizer=regularizer)
        _, table = cross_validate_lambda(panel, kms, grid, 4, cfg)
        want = contiguous_fold_errors(panel, LINEAR, 2, grid, 4, cfg)
        got = np.array([row["fold_errors"] for row in table])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_kernel_set_of_another_panel_rejected(self):
        panel = self.make_var_panel()
        cfg = SolverConfig(lam=1.0)
        shorter = TimeSeriesPanel(
            values=panel.values[:50], node_labels=panel.node_labels, sample_rate_hz=1.0
        )
        fewer = TimeSeriesPanel(
            values=panel.values[:, :2], node_labels=panel.node_labels[:2], sample_rate_hz=1.0
        )
        for other in (shorter, fewer):
            kms = build_kernel_set(lag_view(other, 1), LINEAR)
            with pytest.raises(ShapeMismatch):
                cross_validate_lambda(panel, kms, [0.5], 3, cfg)

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
        cfg = SolverConfig(lam=1.0, rho=100.0, max_iter=30, tol_gap=0.0)
        _, table = cross_validate_lambda(panel, kms, grid, 3, cfg)
        want, records = self.per_lambda_reference(panel, kms, grid, 3, cfg)
        for f in range(3):
            _, small = records[0, f]
            large_tensor, large = records[1, f]
            assert not small.converged and small.iterations == 30
            assert large.converged and large.iterations < 30
            # active blocks: iterating past convergence would still move them
            assert large_tensor.block_norms().max() > 0.0
        for gi in range(2):
            np.testing.assert_allclose(table[gi]["fold_errors"], want[gi], rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("spec", [LINEAR, [LINEAR, GAUSS1]])
    def test_default_rho_follows_each_lambda(self, spec):
        # rho = 10 lambda: the batch carries one penalty per lambda, and each
        # lambda leaves it on its own residual or gap test
        panel = self.make_var_panel()
        kms = build_kernel_set(lag_view(panel, 1), spec)
        bound = lambda_zero_bound(lag_view(panel, 1).targets, kms)
        grid = [0.01 * bound, 0.1 * bound, 0.6 * bound]
        cfg = SolverConfig(lam=1.0, max_iter=150)
        assert cfg.rho is None
        _, table = cross_validate_lambda(panel, kms, grid, 3, cfg)
        want, records = self.per_lambda_reference(panel, kms, grid, 3, cfg)
        got = np.array([row["fold_errors"] for row in table])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
        for (gi, _), (_, diag) in records.items():
            assert diag.rho == pytest.approx(10.0 * grid[gi], rel=1e-15)
        stops = {diag.iterations for _, diag in records.values()}
        assert len(stops) > 1 and min(stops) < cfg.max_iter

    @pytest.mark.parametrize("spec", [LINEAR, [LINEAR, GAUSS1]])
    def test_forced_acceleration_matches_per_lambda_fits(self, monkeypatch, spec):
        # at the default tolerance the products run in float32, so each
        # lambda of a fold runs alone
        monkeypatch.setattr(ksvar.solver, "_ANDERSON_WORK", 0)
        panel = self.make_var_panel()
        kms = build_kernel_set(lag_view(panel, 1), spec)
        bound = lambda_zero_bound(lag_view(panel, 1).targets, kms)
        grid = [0.01 * bound, 0.1 * bound, 0.6 * bound]
        cfg = SolverConfig(lam=1.0, max_iter=150)
        _, table = cross_validate_lambda(panel, kms, grid, 3, cfg)
        want, records = self.per_lambda_reference(panel, kms, grid, 3, cfg)
        assert all(diag.accelerated for _, diag in records.values())
        assert all(diag.single_iterations > 0 for _, diag in records.values())
        stops = {diag.iterations for _, diag in records.values()}
        assert len(stops) > 1 and min(stops) < cfg.max_iter
        got = np.array([row["fold_errors"] for row in table])
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("spec", [LINEAR, [LINEAR, GAUSS1]])
    def test_forced_float64_batch_matches_per_lambda_fits(self, monkeypatch, spec):
        # below _SINGLE_MIN_GAP the grid runs as one float64 batch: lambdas
        # leave it at different iterations, so the mixer drops their
        # histories with the factor system's penalties
        monkeypatch.setattr(ksvar.solver, "_ANDERSON_WORK", 0)
        panel = self.make_var_panel()
        kms = build_kernel_set(lag_view(panel, 1), spec)
        bound = lambda_zero_bound(lag_view(panel, 1).targets, kms)
        grid = [0.01 * bound, 0.1 * bound, 0.6 * bound]
        cfg = SolverConfig(lam=1.0, max_iter=300, tol_gap=1e-5)
        _, table = cross_validate_lambda(panel, kms, grid, 3, cfg)
        want, records = self.per_lambda_reference(panel, kms, grid, 3, cfg)
        assert all(diag.accelerated for _, diag in records.values())
        assert all(diag.single_iterations == 0 for _, diag in records.values())
        stops = {diag.iterations for _, diag in records.values()}
        assert len(stops) > 1 and min(stops) < cfg.max_iter
        got = np.array([row["fold_errors"] for row in table])
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)

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

    def test_candidates_use_their_full_view_bandwidths(self, monkeypatch):
        # each candidate is scored with the kernels its final fit would use:
        # the median bandwidths of its whole lag view, not of the shared rows
        rng = np.random.default_rng(5)
        panel = TimeSeriesPanel(
            values=rng.normal(size=(40, 2)), node_labels=("a", "b"), sample_rate_hz=1.0
        )
        kernels = [LINEAR, KernelSpec(kind="gaussian", bandwidth="median")]
        seen = []

        class Recording(_FactorSystem):
            def __init__(self, kms, *args, **kwargs):
                seen.append(kms)
                super().__init__(kms, *args, **kwargs)

        monkeypatch.setattr(ksvar.solver, "_FactorSystem", Recording)
        select_lag_bic(panel, kernels, [1, 2, 3], SolverConfig(lam=0.5), seed=4)
        assert [kms.lag for kms in seen] == [1, 2, 3]
        for kms in seen:
            full = build_kernel_set(lag_view(panel, kms.lag), kernels, seed=4)
            assert [b.spec for b in kms.blocks] == [b.spec for b in full.blocks]
            assert kms.n_targets == 40 - 3
            for got, want in zip(kms.blocks, full.blocks):
                np.testing.assert_array_equal(got.factor, want.factor[3 - kms.lag :])

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
