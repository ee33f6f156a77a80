"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (through ``capsys.disabled`` so
it survives capture) and a plain ``pytest -v`` run yields a readable
scorecard.  Timed criteria measure wall-clock with ``time.perf_counter``
and assert the stated budgets.
"""

import os
import time

import numpy as np
import pytest

from ksvar.kernels import KernelSpec, build_kernel_set
from ksvar.metrics import compute_report
from ksvar.panel import NoiseModel, TimeSeriesPanel, lag_view, write_csv_panel
from ksvar.pipeline import PipelineConfig, compare_runs, run_pipeline
from ksvar.solver import (
    EffectiveNetwork,
    SolverConfig,
    admm_fit,
    block_shrinkage,
    cross_validate_lambda,
    lambda_zero_bound,
    predict,
    ridge_fit,
    select_lag_bic,
    threshold_edges,
)
from ksvar.synth import SynthConfig, generate_truth, simulate, score_recovery

from oracles import bf_report, expand_dictionary, group_lasso_objective, mkl_fit, ridge_reference

LINEAR = KernelSpec(kind="linear")
POLY21 = KernelSpec(kind="polynomial", degree=2, offset=1.0)
POLY20 = KernelSpec(kind="polynomial", degree=2, offset=0.0)
GAUSS1 = KernelSpec(kind="gaussian", bandwidth=1.0)


def report_line(capsys, num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {num:02d}: {status} ({detail})", flush=True)


def random_problem(rng, n, t, lag, specs):
    vals = rng.normal(size=(t, n))
    panel = TimeSeriesPanel(
        values=vals,
        node_labels=tuple(f"n{i}" for i in range(n)),
        sample_rate_hz=1.0,
    )
    view = lag_view(panel, lag)
    return vals, view, build_kernel_set(view, specs)


def bench_config(seed: int, **overrides) -> SynthConfig:
    base = dict(
        n_nodes=8,
        n_samples=500,
        lag=1,
        edge_density=0.15,
        noise=NoiseModel(variance=0.01),
        seed=seed,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_criterion_01(capsys):
    # proximal operator: closed form, zero iff norm <= threshold,
    # nonexpansive; 10^4 vectors under one second of operator time
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(10_000):
        z = rng.normal(size=rng.integers(1, 9))
        thr = float(rng.uniform(0.0, 2.0))
        cases.append((z, thr))
    start = time.perf_counter()
    outputs = [block_shrinkage(z, thr) for z, thr in cases]
    elapsed = time.perf_counter() - start

    for (z, thr), out in zip(cases, outputs):
        norm = float(np.linalg.norm(z))
        if norm <= thr:
            assert np.array_equal(out, np.zeros_like(z))
        else:
            assert np.array_equal(out, z * ((norm - thr) / norm))
            assert np.linalg.norm(out) > 0.0
    # firm nonexpansiveness over consecutive same-size pairs
    checked = 0
    for (za, ta), oa in zip(cases, outputs):
        for (zb, tb), ob in zip(cases, outputs):
            if za.shape == zb.shape and ta == tb:
                break
        else:
            continue
        assert np.linalg.norm(oa - ob) <= np.linalg.norm(za - zb) + 1e-12
        checked += 1
        if checked >= 2000:
            break

    ok = elapsed < 1.0
    report_line(capsys, 1, ok, f"10000 vectors exact, operator time {elapsed:.3f}s < 1s")
    assert ok


def test_criterion_02(capsys):
    # sparse fits land on the optimum certified by an independent
    # first-order solver with a duality-gap bound
    spec_pool = [[LINEAR], [POLY21], [GAUSS1], [LINEAR, GAUSS1]]
    rng = np.random.default_rng(22)
    start = time.perf_counter()
    worst = 0.0
    for i in range(25):
        n = int(rng.integers(2, 5))
        lag = int(rng.integers(1, 3))
        t = lag + int(rng.integers(8, 13))
        specs = spec_pool[i % len(spec_pool)]
        vals, view, kms = random_problem(rng, n, t, lag, specs)
        lam = float(rng.uniform(0.2, 0.6)) * lambda_zero_bound(view.targets, kms)
        cfg = SolverConfig(lam=lam, max_iter=20_000, tol_primal=1e-10, tol_dual=1e-10)
        _, _, diag = admm_fit(view.targets, kms, cfg)
        want, gap = group_lasso_objective(vals, lag, specs, view.targets, lam)
        rel = abs(diag.final_objective - want) / (1.0 + abs(want))
        assert rel <= 1e-6 + gap, f"instance {i}: relative error {rel:.2e}"
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report_line(capsys, 2, ok, f"25 instances, worst relative gap {worst:.1e}, {elapsed:.1f}s < 60s")
    assert ok


def test_criterion_03(capsys):
    # ridge path: numeric gradient vanishes at the solution and the
    # closed form agrees with plain normal equations
    spec_pool = [LINEAR, POLY21, GAUSS1]
    rng = np.random.default_rng(33)
    worst_grad = 0.0
    worst_fit = 0.0
    for i in range(25):
        n = int(rng.integers(2, 4))
        t = int(rng.integers(12, 16))
        spec = spec_pool[i % len(spec_pool)]
        lam = float(rng.uniform(0.1, 0.8))
        vals, view, kms = random_problem(rng, n, t, 1, [spec])
        cfg = SolverConfig(lam=lam, regularizer="squared")
        tensor = ridge_fit(view.targets, kms, cfg)

        # flatten to factor coordinates, where the objective is smooth
        layout = []
        segs = []
        for j in range(kms.n_nodes):
            deleted = set(kms.deleted_positions(j))
            for pos, block in enumerate(kms.blocks):
                if pos in deleted:
                    continue
                c = block.factor.T @ tensor.coeffs[block.kernel_index, block.lag, block.node, j]
                layout.append((j, block.factor))
                segs.append(c)
        sizes = [len(s) for s in segs]
        starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        c_flat = np.concatenate(segs)

        def objective(c):
            fits = np.zeros((kms.n_targets, kms.n_nodes))
            pen = 0.0
            for (j, factor), b in zip(layout, range(len(layout))):
                seg = c[starts[b] : starts[b + 1]]
                fits[:, j] += factor @ seg
                pen += float(seg @ seg)
            resid = view.targets - fits
            return 0.5 * float(np.sum(resid * resid)) + lam * pen

        h = 1e-6
        grad = np.empty_like(c_flat)
        for k in range(c_flat.size):
            probe = c_flat.copy()
            probe[k] = c_flat[k] + h
            up = objective(probe)
            probe[k] = c_flat[k] - h
            down = objective(probe)
            grad[k] = (up - down) / (2.0 * h)
        worst_grad = max(worst_grad, float(np.linalg.norm(grad)))
        assert np.linalg.norm(grad) <= 1e-7, f"instance {i}"

        fitted, obj = ridge_reference(vals, 1, [spec], view.targets, lam)
        got = predict(tensor, kms)
        err = float(np.max(np.abs(got - fitted)))
        worst_fit = max(worst_fit, err)
        assert err <= 1e-8, f"instance {i}: fitted values off by {err:.2e}"

    report_line(
        capsys, 3, True, f"25 instances, max |grad| {worst_grad:.1e} <= 1e-7, max fit gap {worst_fit:.1e}"
    )


def test_criterion_04(capsys):
    # the instantaneous self-coupling block is a hard zero on every fit,
    # across fuzzed shapes, kernels, and both regularizers
    spec_pool = [[LINEAR], [POLY21], [GAUSS1], [LINEAR, POLY20], [GAUSS1, LINEAR]]
    rng = np.random.default_rng(44)
    fits = 0
    for i in range(40):
        n = int(rng.integers(2, 5))
        lag = int(rng.integers(1, 3))
        t = lag + int(rng.integers(8, 16))
        specs = spec_pool[i % len(spec_pool)]
        _, view, kms = random_problem(rng, n, t, lag, specs)
        if i % 3 == 2:
            cfg = SolverConfig(lam=float(rng.uniform(0.05, 1.0)), regularizer="squared")
            tensor = ridge_fit(view.targets, kms, cfg)
        else:
            lam = float(rng.uniform(0.1, 0.9)) * lambda_zero_bound(view.targets, kms)
            tensor, _, _ = admm_fit(view.targets, kms, SolverConfig(lam=max(lam, 1e-6)))
        idx = np.arange(n)
        diag_blocks = tensor.coeffs[:, 0, idx, idx, :]
        assert np.array_equal(diag_blocks, np.zeros_like(diag_blocks)), f"fit {i}"
        fits += 1
    report_line(capsys, 4, True, f"{fits} fuzzed fits, all instantaneous self-blocks exactly zero")


def test_criterion_05(capsys):
    # linear-regime support recovery with the regularizer weight picked
    # by cross-validation on each panel
    start = time.perf_counter()
    f1s = []
    for seed in range(20):
        cfg = bench_config(seed)
        truth = generate_truth(cfg)
        panel = simulate(truth, cfg)
        view = lag_view(panel, 1)
        kms = build_kernel_set(view, LINEAR)
        cv_cfg = SolverConfig(lam=1.0, max_iter=400, tol_primal=1e-5, tol_dual=1e-5)
        lam, _ = cross_validate_lambda(panel, kms, [0.5, 1.0, 2.0], 3, cv_cfg)
        fit_cfg = SolverConfig(lam=lam, max_iter=3000, tol_primal=1e-7, tol_dual=1e-7)
        tensor, _, _ = admm_fit(view.targets, kms, fit_cfg)
        score = score_recovery(threshold_edges(tensor, 0.15), truth)
        f1s.append(score.f1)
    elapsed = time.perf_counter() - start
    median = float(np.median(f1s))
    ok = median >= 0.9 and elapsed < 300.0
    report_line(
        capsys, 5, ok, f"median F1 {median:.3f} >= 0.9 over 20 seeds, min {min(f1s):.2f}, {elapsed:.1f}s < 5min"
    )
    assert ok


def test_criterion_06(capsys):
    # quadratic couplings: the order-2 kernel must rank true edges
    # strictly better than the linear kernel
    auc = {"linear": [], "quadratic": []}
    fit_cfg = SolverConfig(lam=0.1, max_iter=2000, tol_primal=1e-6, tol_dual=1e-6)
    for seed in range(20):
        cfg = bench_config(seed, coupling="quadratic")
        truth = generate_truth(cfg)
        panel = simulate(truth, cfg)
        view = lag_view(panel, 1)
        for name, spec in (("linear", LINEAR), ("quadratic", POLY20)):
            kms = build_kernel_set(view, spec)
            tensor, _, _ = admm_fit(view.targets, kms, fit_cfg)
            auc[name].append(score_recovery(threshold_edges(tensor, 0.0), truth).auc)
    med_lin = float(np.median(auc["linear"]))
    med_quad = float(np.median(auc["quadratic"]))
    ok = med_quad > med_lin
    report_line(capsys, 6, ok, f"median AUC quadratic {med_quad:.3f} > linear {med_lin:.3f}, 20 seeds")
    assert ok


def test_criterion_07(capsys):
    # dictionary path: a one-entry dictionary is the base solver, and on
    # linear data the linear entry absorbs the block-norm mass
    rng = np.random.default_rng(77)
    worst = 0.0
    for seed in range(5):
        n = int(rng.integers(2, 4))
        t = int(rng.integers(12, 17))
        vals = rng.normal(size=(t, n))
        panel = TimeSeriesPanel(
            values=vals,
            node_labels=tuple(f"n{i}" for i in range(n)),
            sample_rate_hz=1.0,
        )
        view = lag_view(panel, 1)
        kms_base = build_kernel_set(view, GAUSS1)
        kms_dict = expand_dictionary([GAUSS1], panel, 1)
        cfg = SolverConfig(lam=0.3, max_iter=20_000, tol_primal=1e-9, tol_dual=1e-9)
        _, _, diag_base = admm_fit(view.targets, kms_base, cfg)
        _, _, diag_dict = admm_fit(view.targets, kms_dict, cfg)
        rel = abs(diag_base.final_objective - diag_dict.final_objective) / (
            1.0 + abs(diag_base.final_objective)
        )
        worst = max(worst, rel)
        assert rel <= 1e-8

    shares = []
    fit_cfg = SolverConfig(lam=1.0, max_iter=3000, tol_primal=1e-7, tol_dual=1e-7)
    for seed in range(20):
        cfg = bench_config(seed)
        truth = generate_truth(cfg)
        panel = simulate(truth, cfg)
        view = lag_view(panel, 1)
        kms = expand_dictionary([LINEAR, POLY20], panel, 1)
        tensor, _ = mkl_fit(view.targets, kms, fit_cfg)
        shares.append(float(tensor.kernel_share()[0]))
    med_share = float(np.median(shares))
    ok = med_share >= 0.9
    report_line(
        capsys, 7, ok, f"P=1 objective gap {worst:.1e} <= 1e-8, median linear share {med_share:.3f} >= 0.9"
    )
    assert ok


def net_from_adjacency(adj) -> EffectiveNetwork:
    adj = np.asarray(adj, dtype=bool)
    return EffectiveNetwork(
        supports=adj[None], weights=adj.astype(float)[None], tau_alpha=0.5
    )


def assert_report_matches_enumeration(adj) -> None:
    report = compute_report(net_from_adjacency(adj))
    want = bf_report(np.asarray(adj, dtype=bool))
    assert np.array_equal(report.in_degree, want["in_degree"])
    assert np.array_equal(report.out_degree, want["out_degree"])
    assert np.array_equal(report.total_degree, want["total_degree"])
    assert np.array_equal(report.betweenness, want["betweenness"])
    assert np.array_equal(report.closeness, want["closeness"])
    assert np.array_equal(report.clustering_coefficient, want["clustering_coefficient"])
    assert report.density == want["density"]
    assert report.global_clustering == want["global_clustering"]
    assert report.diameter == want["diameter"]
    assert report.avg_neighbors == want["avg_neighbors"]
    assert report.self_loop_count == want["self_loop_count"]
    assert report.connected_component_count == want["connected_component_count"]
    assert report.largest_component_size == want["largest_component_size"]


def test_criterion_08(capsys):
    # graph metrics equal exhaustive enumeration, exactly, on random
    # graphs and the named fixtures
    for seed in range(500):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        adj = rng.random((n, n)) < rng.uniform(0.15, 0.6)
        assert_report_matches_enumeration(adj)

    def edges(n, pairs, both_ways=False):
        adj = np.zeros((n, n), dtype=bool)
        for i, j in pairs:
            adj[i, j] = True
            if both_ways:
                adj[j, i] = True
        return adj

    triangle = edges(3, [(0, 1), (1, 2), (2, 0)], both_ways=True)
    path = edges(4, [(0, 1), (1, 2), (2, 3)])
    star = edges(4, [(0, 1), (0, 2), (0, 3)], both_ways=True)
    two_triangles = edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], both_ways=True)
    for fixture in (triangle, path, star, two_triangles):
        assert_report_matches_enumeration(fixture)

    # spot values, independent of the enumeration code
    rep = compute_report(net_from_adjacency(two_triangles))
    assert rep.connected_component_count == 2
    assert rep.largest_component_size == 3
    assert rep.density == 12 / 30
    rep = compute_report(net_from_adjacency(star))
    assert rep.betweenness[0] == 1.0
    report_line(capsys, 8, True, "500 random graphs (N <= 6) + 4 fixtures, exact equality")


def test_criterion_09(capsys):
    # per-iteration cost after factorization caching grows about
    # linearly with the node count
    def per_iter_seconds(n_nodes: int, seed: int) -> float:
        rng = np.random.default_rng(seed)
        panel = TimeSeriesPanel(
            values=rng.normal(size=(51, n_nodes)),
            node_labels=tuple(f"n{i}" for i in range(n_nodes)),
            sample_rate_hz=1.0,
        )
        view = lag_view(panel, 1)
        kms = build_kernel_set(view, LINEAR)
        times = {}
        for iters in (50, 250):
            cfg = SolverConfig(
                lam=1e-4, max_iter=iters, tol_primal=1e-300, tol_dual=1e-300
            )
            # a single fit lasts tens of ms, short enough for a swing in
            # processor speed to distort it; the fastest of three is not
            best = np.inf
            for _ in range(3):
                start = time.perf_counter()
                admm_fit(view.targets, kms, cfg)
                best = min(best, time.perf_counter() - start)
            times[iters] = best
        return (times[250] - times[50]) / 200.0

    # interleaved, so a slow stretch of the machine hits both sizes alike
    small, big = [], []
    for rep in range(5):
        small.append(per_iter_seconds(20, seed=rep))
        big.append(per_iter_seconds(40, seed=100 + rep))
    ratio = float(np.median(big) / np.median(small))
    ok = 1.5 <= ratio <= 3.0
    report_line(
        capsys, 9, ok, f"per-iteration wall ratio N=40/N=20 = {ratio:.2f} in [1.5, 3.0]"
    )
    assert ok


def test_criterion_10(capsys, tmp_path):
    # segmented run at recording scale: 76 nodes, 10 s at 50 Hz, half-second
    # windows -> exactly 20 networks per run plus a side-by-side report
    start = time.perf_counter()
    run_dirs = []
    for tag, seed in (("a", 100), ("b", 101)):
        cfg = SynthConfig(
            n_nodes=76,
            n_samples=500,
            lag=1,
            edge_density=0.05,
            noise=NoiseModel(variance=1.0),
            seed=seed,
            sample_rate_hz=50.0,
        )
        panel = simulate(generate_truth(cfg), cfg)
        csv_path = tmp_path / f"panel_{tag}.csv"
        write_csv_panel(panel, str(csv_path))
        out_dir = tmp_path / f"run_{tag}"
        manifest = run_pipeline(
            PipelineConfig(
                input_path=str(csv_path),
                output_dir=str(out_dir),
                window_s=0.5,
                lag=1,
                kernel="linear",
                lam=0.1,
                tau_alpha=0.05,
                max_iter=300,
            )
        )
        assert len(manifest["segments"]) == 20
        seg_dirs = sorted(d for d in os.listdir(out_dir) if d.startswith("seg_"))
        assert len(seg_dirs) == 20
        for seg in seg_dirs:
            assert (out_dir / seg / "edges.json").exists()
        run_dirs.append(str(out_dir))

    report = compare_runs(run_dirs[0], run_dirs[1])
    global_metrics = {row["metric"] for row in report["global"]}
    assert {
        "density",
        "global_clustering",
        "diameter",
        "avg_neighbors",
        "self_loop_count",
        "connected_component_count",
        "largest_component_size",
    } <= global_metrics
    assert set(report["per_node"]) >= {
        "in_degree",
        "out_degree",
        "total_degree",
        "betweenness",
        "closeness",
        "clustering_coefficient",
    }
    assert len(report["node_labels"]) == 76
    elapsed = time.perf_counter() - start
    ok = elapsed < 600.0
    report_line(
        capsys, 10, ok, f"2 runs x 20 segments of 76 nodes + comparison report, {elapsed:.1f}s < 10min"
    )
    assert ok


def test_criterion_11(capsys):
    # order selection: one-lag truth against candidates {1, 2, 3}, scored
    # by BIC with ridge degrees of freedom
    hits = 0
    cfg_fit = SolverConfig(lam=1.0)
    for seed in range(50):
        cfg = bench_config(seed)
        truth = generate_truth(cfg)
        panel = simulate(truth, cfg)
        hits += select_lag_bic(panel, LINEAR, [1, 2, 3], cfg_fit) == 1
    ok = hits >= 40
    report_line(capsys, 11, ok, f"lag selected correctly in {hits}/50 trials >= 40")
    assert ok


@pytest.mark.parametrize("true_lag", [2, 3])
def test_bic_selects_longer_lags(capsys, true_lag):
    # order selection must also find lags above the smallest candidate
    hits = 0
    cfg_fit = SolverConfig(lam=1.0)
    for seed in range(20):
        cfg = bench_config(seed, lag=true_lag)
        panel = simulate(generate_truth(cfg), cfg)
        hits += select_lag_bic(panel, LINEAR, [1, 2, 3], cfg_fit) == true_lag
    with capsys.disabled():
        print(f"\nBIC order selection, true lag {true_lag}: {hits}/20 correct >= 16", flush=True)
    assert hits >= 16
